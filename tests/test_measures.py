import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from copula_ot.measures import (
    EXACT_SUM_CUTOVER,
    MultivariateMeasure,
    exact_sum,
    make_measure,
    make_measure_1d,
    measure_from_dict,
    measure_to_dict,
    measures_close,
    merge_weighted_rows,
)
from copula_ot.transport import make_plan

from helpers import as_1d, measure_as_dict, merge_rows_oracle, same_measure


def measures_1d():
    """Measures with small integer atoms and integer weights."""
    return st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=1, max_value=12),
        ),
        min_size=1,
        max_size=6,
    ).map(
        lambda pairs: make_measure_1d(
            [float(a) for a, _ in pairs], [float(w) for _, w in pairs]
        )
    )


class TestConstruction:
    def test_merges_duplicates_and_normalizes(self):
        m = make_measure_1d([2, 1, 1], [1, 1, 2])
        assert m.atoms.tolist() == [1.0, 2.0]
        assert m.weights.tolist() == [0.75, 0.25]

    def test_zero_weight_atoms_dropped(self):
        m = make_measure_1d([0, 1], [0, 1])
        assert m.atoms.tolist() == [1.0]
        assert m.weights.tolist() == [1.0]

    def test_merge_is_exact_fsum(self):
        # dyadic weights accumulate without rounding at all
        m = make_measure_1d([1, 1, 1, 2], [0.5, 0.125, 0.125, 0.25])
        assert m.weights.tolist() == [0.75, 0.25]
        # otherwise the merged weight is the correctly rounded true sum
        m = make_measure_1d([1, 1, 1, 2], [0.1, 0.2, 0.4, 0.3])
        total = math.fsum([0.1, 0.2, 0.4, 0.3])
        assert m.weights[0] == math.fsum([0.1, 0.2, 0.4]) / total

    @pytest.mark.parametrize(
        "atoms,weights",
        [
            ([], []),
            ([1.0], [0.0]),
            ([1.0], [-1.0]),
            ([np.nan], [1.0]),
            ([1.0], [np.inf]),
            ([1.0, 2.0], [1.0]),
        ],
    )
    def test_rejects_bad_input(self, atoms, weights):
        with pytest.raises(ValueError):
            make_measure_1d(atoms, weights)

    def test_multivariate_merge(self):
        m = make_measure([[0, 1], [0, 1], [1, 0]], [1, 1, 2])
        assert m.atoms.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert m.weights.tolist() == [0.5, 0.5]

    def test_atoms_sorted_lexicographically(self):
        m = make_measure([[1, 0], [0, 2], [0, 1]], [1, 1, 1])
        assert m.atoms.tolist() == [[0.0, 1.0], [0.0, 2.0], [1.0, 0.0]]


@st.composite
def weighted_rows(draw):
    """Small-integer rows, some repeated on purpose, with weights that may be zero."""
    d = draw(st.integers(min_value=1, max_value=3))
    row = st.lists(st.integers(min_value=-2, max_value=2), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=10))
    repeats = draw(st.lists(st.integers(min_value=0, max_value=len(rows) - 1), max_size=6))
    rows = rows + [rows[t] for t in repeats]
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
    weights = draw(st.lists(weight, min_size=len(rows), max_size=len(rows)))
    order = draw(st.permutations(range(len(rows))))
    return (
        np.array([rows[t] for t in order], dtype=float),
        np.array([weights[t] for t in order], dtype=float),
    )


class TestMergeWeightedRows:
    @given(weighted_rows())
    @example((np.array([[1.0], [1.0], [2.0]]), np.array([0.0, 0.0, 0.0])))
    @example((np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([0.1, 0.2])))
    def test_matches_dict_oracle_bit_for_bit(self, data):
        rows, weights = data
        expected = merge_rows_oracle(rows, weights)
        if not expected:
            with pytest.raises(ValueError, match="zero"):
                merge_weighted_rows(rows, weights)
            return
        got_rows, got_weights = merge_weighted_rows(rows, weights)
        assert got_rows.tolist() == [list(row) for row, _ in expected]
        assert [w.hex() for w in got_weights.tolist()] == [w.hex() for _, w in expected]


class TestCdfQuantile:
    def test_cdf_steps(self):
        m = make_measure_1d([0, 1], [1, 1])
        assert m.cdf(-0.5) == 0.0
        assert m.cdf(0.0) == 0.5
        assert m.cdf(0.5) == 0.5
        assert m.cdf(1.0) == 1.0
        assert m.cdf(7.0) == 1.0

    def test_quantile_generalized_inverse(self):
        m = make_measure_1d([0, 1], [0.25, 0.75])
        assert m.quantile(0.25) == 0.0
        assert m.quantile(0.250001) == 1.0
        assert m.quantile(1.0) == 1.0

    def test_quantile_domain(self):
        m = make_measure_1d([0], [1])
        for u in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                m.quantile(u)

    def test_cdf_rejects_nan(self):
        with pytest.raises(ValueError):
            make_measure_1d([0], [1]).cdf(float("nan"))

    def test_quantile_array_matches_scalar(self):
        m = make_measure_1d([-1, 0, 3], [1, 2, 1])
        us = np.linspace(0.01, 1.0, 37)
        batch = m.quantile_array(us)
        assert all(batch[t] == m.quantile(float(us[t])) for t in range(len(us)))

    @given(measures_1d(), st.integers(min_value=1, max_value=50))
    def test_galois_inequality(self, m, numerator):
        # F(x) >= u iff Q(u) <= x for u in (0, 1]
        u = numerator / 50
        for x in m.atoms:
            assert (m.cdf(x) >= u) == (m.quantile(u) <= x)

    @given(measures_1d())
    def test_unit_mass_and_monotone_cum(self, m):
        assert abs(math.fsum(m.weights) - 1.0) <= 1e-12 * len(m.weights)
        assert m.cum_weights[-1] == 1.0
        assert all(b > a for a, b in zip(m.cum_weights, m.cum_weights[1:]))
        assert all(w > 0 for w in m.weights)

    @given(measures_1d())
    def test_reconstruction_identity(self, m):
        # renormalizing by fsum(weights) ~ 1 +- 1 ulp can move each weight
        # by an ulp, so atoms match exactly and weights to 1e-15
        again = make_measure_1d(m.atoms, m.weights)
        assert np.array_equal(again.atoms, m.atoms)
        assert measures_close(again, m, 1e-15)


class TestMultivariate:
    def test_marginal(self):
        m = make_measure([[0, 10], [1, 10], [1, 20]], [1, 1, 2])
        first = m.marginal(1)
        assert first.atoms.tolist() == [0.0, 1.0]
        assert first.weights.tolist() == [0.25, 0.75]
        second = m.marginal(2)
        assert second.atoms.tolist() == [10.0, 20.0]
        assert second.weights.tolist() == [0.5, 0.5]

    def test_marginal_out_of_range(self):
        m = make_measure([[0, 0]], [1])
        for coord in (0, 3):
            with pytest.raises(ValueError):
                m.marginal(coord)

    def test_map_coordinates(self):
        m = make_measure([[0, 1], [1, 2]], [1, 1])
        scaled = m.map_coordinates([(1.0, 0.0), (0.5, 0.0)])
        assert scaled.atoms.tolist() == [[0.0, 0.5], [1.0, 1.0]]

    def test_map_coordinates_rejects_nonpositive_scale(self):
        m = make_measure([[0, 1]], [1])
        with pytest.raises(ValueError):
            m.map_coordinates([(0.0, 0.0), (1.0, 0.0)])

    def test_map_can_merge_atoms(self):
        m = make_measure([[0.0], [1.0]], [1, 1])
        squashed = m.map_coordinates([(1.0, 0.0)])
        assert squashed.atoms.tolist() == [[0.0], [1.0]]
        tiny = make_measure([[0.0], [1e-300]], [1, 1]).map_coordinates([(1e-10, 0.0)])
        assert len(tiny) in (1, 2)  # underflow may merge, must stay a measure
        assert abs(math.fsum(tiny.weights) - 1.0) <= 1e-12

    def test_as_1d_roundtrip(self):
        m = make_measure_1d([3, 5], [1, 3])
        assert same_measure(as_1d(m.to_multivariate()), m)

    def test_as_1d_requires_dimension_one(self):
        with pytest.raises(ValueError):
            as_1d(make_measure([[0, 0]], [1]))

    @given(measures_1d())
    def test_marginal_of_lift_is_identity(self, m):
        # the lift renormalizes by an fsum total, which can move weights by
        # an ulp when the originals do not sum to exactly 1.0
        back = m.to_multivariate().marginal(1)
        assert np.array_equal(back.atoms, m.atoms)
        assert measures_close(back.to_multivariate(), m.to_multivariate(), 1e-15)


class TestArrayContract:
    BUILDERS = {
        "1d": lambda: make_measure_1d([2, 0, 1], [1, 2, 1]),
        "lifted": lambda: make_measure_1d([2, 0, 1], [1, 2, 1]).to_multivariate(),
        "multivariate": lambda: make_measure([[1, 0], [0, 2], [0, 1]], [1, 1, 2]),
        "marginal": lambda: make_measure([[1, 0], [0, 2]], [1, 3]).marginal(2),
        "mapped": lambda: make_measure([[1, 0], [0, 2]], [1, 3]).map_coordinates(
            [(2.0, 1.0), (1.0, 0.0)]
        ),
        "as_1d": lambda: as_1d(make_measure([[1.0], [0.0]], [1, 3])),
        "plan_marginal": lambda: make_plan([[0, 0], [1, 1]], [[2, 0], [3, 1]], [0.5, 0.5])
        .first_marginal(),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_fields_are_read_only_arrays_of_the_documented_shape(self, name):
        m = self.BUILDERS[name]()
        fields = ["atoms", "weights"]
        if isinstance(m, MultivariateMeasure):
            assert m.atoms.shape == (len(m), m.dimension)
        else:
            assert m.atoms.shape == (len(m),)
            assert m.cum_weights.shape == (len(m),)
            fields.append("cum_weights")
        assert m.weights.shape == (len(m),)
        for field in fields:
            with pytest.raises(ValueError):
                getattr(m, field)[0] = 7.0

    def test_plan_arrays_are_read_only(self):
        plan = make_plan([[0, 0], [1, 1]], [[2, 0], [3, 1]], [0.25, 0.75])
        for arr in (plan.x, plan.y, plan.w):
            with pytest.raises(ValueError):
                arr[0] = 7.0

    def test_dimension_is_derived_from_the_atoms(self):
        assert [f.name for f in dataclasses.fields(MultivariateMeasure)] == ["atoms", "weights"]
        assert make_measure([[0, 1, 2]], [1]).dimension == 3


def assert_plain_json(obj: dict) -> None:
    # numpy scalars must never reach the JSON writers
    assert type(obj["atoms"]) is list and type(obj["weights"]) is list
    for row in obj["atoms"]:
        assert type(row) is list and all(type(v) is float for v in row)
    assert all(type(v) is float for v in obj["weights"])


class TestSerialization:
    def test_roundtrip(self):
        m = make_measure([[0, 1.5], [2, -3]], [1, 3])
        obj = measure_to_dict(m)
        assert obj == {"atoms": [[0.0, 1.5], [2.0, -3.0]], "weights": [0.25, 0.75]}
        assert_plain_json(obj)
        assert np.array_equal(measure_from_dict(obj).atoms, m.atoms)

    def test_roundtrip_1d(self):
        m = make_measure_1d([0, 1], [1, 1])
        obj = measure_to_dict(m)
        assert_plain_json(obj)
        assert same_measure(as_1d(measure_from_dict(obj)), m)

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"atoms": [[0.0]]},
            {"weights": [1.0]},
            {"atoms": [], "weights": []},
            {"atoms": [[0.0], [0.0, 1.0]], "weights": [1, 1]},
            {"atoms": "nope", "weights": [1.0]},
            "not a dict",
            # weights must be a list of numbers, and atom rows lists of numbers
            {"atoms": [[0.0]], "weights": {"a": 1}},
            {"atoms": [[0.0]], "weights": [{"a": 1}]},
            {"atoms": [[{"x": 0.0}]], "weights": [1.0]},
            # JSON numbers only: numeric strings and booleans are not coerced
            {"atoms": [["1"], [True]], "weights": ["1", True]},
            {"atoms": [[0.0], ["1"]], "weights": [1.0, 1.0]},
            {"atoms": [[0.0], [True]], "weights": [1.0, 1.0]},
            {"atoms": [[0.0], [1.0]], "weights": [1.0, "1"]},
            {"atoms": [[0.0], [1.0]], "weights": [1.0, False]},
            {"atoms": [[0.0]], "weights": [None]},
        ],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            measure_from_dict(obj)


class TestMeasuresClose:
    def test_same_atoms_weight_tolerance(self):
        a = make_measure([[0.0], [1.0]], [0.5, 0.5])
        b = make_measure([[0.0], [1.0]], [0.5 + 1e-12, 0.5 - 1e-12])
        assert measures_close(a, b, 1e-11)
        assert not measures_close(a, b, 1e-13)

    def test_different_atoms_never_close(self):
        a = make_measure([[0.0]], [1.0])
        b = make_measure([[1e-300]], [1.0])
        assert not measures_close(a, b, 1.0)

    def test_accepts_1d_inputs(self):
        a = make_measure_1d([0, 1], [1, 1])
        assert measures_close(a, a.to_multivariate(), 0.0)

    def test_helper_dict_view(self):
        m = make_measure([[0, 1], [1, 0]], [1, 3])
        assert measure_as_dict(m) == {(0.0, 1.0): 0.25, (1.0, 0.0): 0.75}


def sum_outcome(total, values):
    """The float ``total`` returns as hex (the sign of a zero and nan included), or its exception."""
    try:
        return total(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# Finite floats of every size (subnormals and values near 1e308 included),
# plus inf and nan, and values that straddle the tie of 1 + 2**-53.
summands = st.one_of(
    st.floats(),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=1e300, max_value=1.7e308),
    st.sampled_from([1.0, -1.0, 2.0**-53, 1.0 + 2.0**-52, 5e-324, -5e-324, 2.0**-1022]),
)


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(
        base=st.lists(summands, min_size=1, max_size=40),
        length=st.one_of(
            st.integers(0, 40),
            st.integers(EXACT_SUM_CUTOVER - 40, EXACT_SUM_CUTOVER + 40),
            st.integers(0, 3 * EXACT_SUM_CUTOVER),
        ),
        cancel=st.sampled_from([None, 1.0, 1.0 + 2.0**-52]),
    )
    @example(base=[1e308, 1e308], length=EXACT_SUM_CUTOVER, cancel=None)
    @example(base=[1e308, -1e308, 1.0], length=EXACT_SUM_CUTOVER + 1, cancel=None)
    @example(base=[math.inf, -math.inf], length=EXACT_SUM_CUTOVER, cancel=None)
    @example(base=[math.nan, 1.0], length=EXACT_SUM_CUTOVER, cancel=None)
    @example(base=[5e-324, 2.0**-1060], length=EXACT_SUM_CUTOVER, cancel=1.0)
    def test_bit_for_bit_equal_to_fsum(self, base, length, cancel):
        # ``length`` repeats ``base`` on both sides of the cut-over; ``cancel``
        # appends the values negated (and scaled), so the sum cancels exactly
        # or leaves only rounding-sized remainders.
        values = np.resize(np.array(base), length)
        if cancel is not None:
            with np.errstate(over="ignore"):  # near 1.7e308 the scaled copy may be inf
                values = np.concatenate([values, -values[::-1] * cancel])
        assert sum_outcome(exact_sum, values) == sum_outcome(math.fsum, values.tolist())

    @pytest.mark.parametrize(
        "values, expected",
        [([1.0, 2.0**-53], 1.0), ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51)],
    )
    def test_ties_round_to_even(self, values, expected):
        # The exact sums lie halfway between two floats; zero padding sends
        # them through the vectorized path as well.
        for padded in (values, values + [0.0] * EXACT_SUM_CUTOVER):
            assert exact_sum(np.array(padded)) == expected == math.fsum(padded)
