import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from copula_ot.measures import (
    EXACT_SUM_CUTOVER,
    MultivariateMeasure,
    _exact_sums_in_place,
    exact_sum,
    make_measure,
    make_measure_1d,
    measure_from_dict,
    measure_to_dict,
    measures_close,
    merge_weighted_rows,
)

from helpers import (
    as_1d,
    fsum_lengths,
    make_plan,
    map_coordinates,
    measure_as_dict,
    merge_rows_oracle,
    same_measure,
)


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

    def test_quantile_index_matches_scalar(self):
        m = make_measure_1d([-1, 0, 3], [1, 2, 1])
        us = np.linspace(0.01, 1.0, 37)
        batch = m.atoms[m.quantile_index(us)]
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
        scaled = map_coordinates(m, [(1.0, 0.0), (0.5, 0.0)])
        assert scaled.atoms.tolist() == [[0.0, 0.5], [1.0, 1.0]]

    def test_map_coordinates_rejects_nonpositive_scale(self):
        m = make_measure([[0, 1]], [1])
        with pytest.raises(ValueError):
            map_coordinates(m, [(0.0, 0.0), (1.0, 0.0)])

    def test_map_can_merge_atoms(self):
        m = make_measure([[0.0], [1.0]], [1, 1])
        squashed = map_coordinates(m, [(1.0, 0.0)])
        assert squashed.atoms.tolist() == [[0.0], [1.0]]
        tiny = map_coordinates(make_measure([[0.0], [1e-300]], [1, 1]), [(1e-10, 0.0)])
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
        "mapped": lambda: map_coordinates(
            make_measure([[1, 0], [0, 2]], [1, 3]), [(2.0, 1.0), (1.0, 0.0)]
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


# Each case of first_level_case, and whether the first level decides its total.
FIRST_LEVEL_CASES = [
    ("midpoint, ties down", False),
    ("midpoint, ties up", False),
    ("power of two from below", True),
    ("power of two from below, within the bound", False),
    ("within the bound below the upper midpoint", False),
    ("within the bound above the lower midpoint", False),
    ("twice the bound below the upper midpoint", True),
    ("power of two from below, at 2**960", True),
    ("values near 2**960", True),
    ("exact cancellation", False),
]


def first_level_case(n: int, case: str) -> np.ndarray:
    """n values whose first extraction level leaves an exactly known remainder sum.

    All but one or two values are multiples of 2**-10 in [1, 2): with
    sigma = 2**E, E = 1 + ceil(log2(n + 2)), the first level extracts them
    whole.  They add up to F, a power of two or not.  The others are
    remainders smaller than 2**(E - 54), which the first level leaves whole,
    so the remainder sum R is exact and S1 = F.  Each case places F + R
    against the midpoints around F and the decision bound
    B = n**2 * 2**(E - 106).
    """
    rng = np.random.default_rng(n)
    power = case.startswith("power of two")
    f = 2.0 ** (n.bit_length()) if power else 1.5 * n  # 2**k in [n, 2n)
    up, down = math.nextafter(f, math.inf) - f, f - math.nextafter(f, -math.inf)
    bound = math.ldexp(n * n, (n + 1).bit_length() + 1 - 106)
    if case == "exact cancellation":
        half = rng.standard_normal(n // 2)
        return rng.permutation(np.concatenate([half, -half]))
    if case == "values near 2**960":
        return np.ldexp(1.0 + rng.random(n), 959)
    remainders = {
        "midpoint, ties down": [up / 2],  # F is even
        "midpoint, ties up": [up, up / 2],  # F + up is odd
        "power of two from below": [-down / 4],
        "power of two from below, within the bound": [-(down / 2 - 0.75 * bound)],
        "power of two from below, at 2**960": [-down / 4],
        "within the bound below the upper midpoint": [up / 2 - 0.75 * bound],
        "within the bound above the lower midpoint": [-(down / 2 - 0.75 * bound)],
        "twice the bound below the upper midpoint": [up / 2 - 2.0 * bound],
    }[case]
    m = n - len(remainders)
    target = round(f * 1024)
    bulk = rng.integers(target // m - 100, target // m + 100, m)
    extra, rest = divmod(target - int(bulk.sum()), m)
    bulk += extra
    bulk[:rest] += 1
    assert 1024 <= bulk.min() and bulk.max() < 2048 and int(bulk.sum()) == target
    values = rng.permutation(np.concatenate([bulk / 1024, remainders]))
    # Scaling by a power of two scales F, R, the gaps and the bound alike.
    return np.ldexp(values, 960 - n.bit_length()) if case.endswith("2**960") else values


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

    @settings(max_examples=150, deadline=None)
    @given(
        value=st.one_of(
            summands,
            # Signed zeros, a tie (2304 * fl(1/2304) is 1 - 2**-54), subnormals,
            # and values whose product is near or past the largest float.
            st.sampled_from([0.0, -0.0, 1 / 2304, -1 / 2304, 5e-324, 2.0**-1060, 2.0**1010, 1e300]),
        ),
        length=st.one_of(
            st.integers(EXACT_SUM_CUTOVER, EXACT_SUM_CUTOVER + 40),
            st.sampled_from([2304, 110_592]),
            st.integers(EXACT_SUM_CUTOVER, 10**5),
        ),
    )
    def test_equal_values_equal_fsum(self, value, length):
        # One float repeated sums to length * value exactly; the product and
        # fsum round it alike, and an overflowing or non-finite product
        # raises or returns what fsum does.
        values = np.full(length, value)
        assert sum_outcome(exact_sum, values) == sum_outcome(math.fsum, values.tolist())

    @pytest.mark.parametrize("value, length", [(1 / 2304, 2304), (-5e-324, 1000), (5e-324, 10**5), (1 / 3, 110_592)])
    def test_equal_values_make_no_fsum_call(self, monkeypatch, value, length):
        values = np.full(length, value)
        expected = math.fsum(values.tolist())
        calls = fsum_lengths(monkeypatch)
        assert exact_sum(values).hex() == expected.hex()
        assert calls == []

    @pytest.mark.parametrize(
        "case, outcome",
        [
            ("one binade", "decided"),
            ("exact cancellation", "undecided"),
            ("2**-1000 to 2**900", "decided"),
            ("2**900 cancels over 2**-1000", "undecided"),
            ("subnormal", "row"),
        ],
    )
    def test_sweep_sized_examples(self, monkeypatch, case, outcome):
        # At the 110,592 rows of the k = 48 competitor plan.  A total decided
        # after the first level makes no fsum call; an undecided one makes
        # one fsum call of its level sum and its n remainders; a row too
        # small for the decision bound is one fsum call of the row itself.
        n = 110_592
        rng = np.random.default_rng(5)
        if case == "one binade":
            values = 1.0 + rng.random(n)
        elif case == "exact cancellation":
            half = rng.standard_normal(n // 2)
            values = rng.permutation(np.concatenate([half, -half]))
        elif case == "2**-1000 to 2**900":
            values = np.ldexp(rng.choice([-1.0, 1.0], n) * (1.0 + rng.random(n)), rng.integers(-1000, 900, n))
        elif case == "2**900 cancels over 2**-1000":
            # The first level leaves only the small values, far inside its bound.
            values = np.ldexp(1.0 + rng.random(n), -1000)
            values[:2] = [2.0**900, -(2.0**900)]
        else:
            values = rng.random(n) * 2.0**-1022
        expected = math.fsum(values.tolist())
        calls = fsum_lengths(monkeypatch)
        assert exact_sum(values).hex() == expected.hex()
        assert calls == {"decided": [], "undecided": [n + 1], "row": [n]}[outcome]

    @pytest.mark.parametrize("n", [EXACT_SUM_CUTOVER, 110_592])
    @pytest.mark.parametrize("case, decided", FIRST_LEVEL_CASES)
    def test_first_level_decision(self, monkeypatch, n, case, decided):
        # A decided total makes no fsum call; one that falls through makes
        # one fsum call of its level sum and its n remainders.  Both give
        # fsum's float.
        values = first_level_case(n, case)
        expected = math.fsum(values.tolist())
        calls = fsum_lengths(monkeypatch)
        assert exact_sum(values).hex() == expected.hex()
        assert calls == ([] if decided else [n + 1])

    @pytest.mark.parametrize("n", [EXACT_SUM_CUTOVER, 3000])
    def test_rows_of_a_block_share_one_first_level(self, monkeypatch, n):
        # Every row gets its own sigma and its own decision: a decided row
        # makes no fsum call, an undecided one a single call of its level
        # sum and its n remainders, and each row gives fsum's float.
        rows = np.array([first_level_case(n, case) for case, _ in FIRST_LEVEL_CASES])
        expected = [math.fsum(row.tolist()).hex() for row in rows]
        calls = fsum_lengths(monkeypatch)
        sums = _exact_sums_in_place(rows.copy(), np.empty_like(rows))
        assert [total.hex() for total in sums] == expected
        assert calls == [n + 1] * sum(not decided for _, decided in FIRST_LEVEL_CASES)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 4).flatmap(
            lambda b: st.lists(st.lists(summands, min_size=1, max_size=8), min_size=b, max_size=b)
        ),
        length=st.sampled_from([1, 5, EXACT_SUM_CUTOVER - 1, EXACT_SUM_CUTOVER + 3]),
    )
    def test_block_rows_equal_fsum(self, rows, length):
        # Rows of one length, each its own base repeated.  An all-zero,
        # non-finite, huge or subnormal row goes to fsum of the row itself,
        # beside rows that share the level; the first fsum that raises wins.
        block = np.array([np.resize(np.array(row), length) for row in rows])
        expected = [sum_outcome(math.fsum, row.tolist()) for row in block]
        raised = [outcome for outcome in expected if isinstance(outcome, tuple)]
        try:
            outcome = [total.hex() for total in _exact_sums_in_place(block.copy(), np.empty_like(block))]
        except (ValueError, OverflowError) as exc:
            outcome = (type(exc), str(exc))
        assert outcome == (raised[0] if raised else expected)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1.0, 2.0**-53], 1.0),
            ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
            # The law weights that pair_skeleton sums at k = 48 add up to 1 - 2**-54.
            ([1 / 2304] * 2304, 1.0),
        ],
    )
    def test_ties_round_to_even(self, values, expected):
        # The exact sums lie halfway between two floats; zero padding sends
        # them through the vectorized path as well.
        for padded in (values, values + [0.0] * EXACT_SUM_CUTOVER):
            assert exact_sum(np.array(padded)) == expected == math.fsum(padded)
