import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copula_ot.copulas import (
    Copula,
    checkerboard,
    comonotone,
    countermonotone,
    independence,
    push_through_quantiles,
    sklar_compose,
)
from copula_ot.instances import VerifyConfig, iter_campaign, random_marginal, random_shared_pair
from copula_ot.measures import EXACT_SUM_CUTOVER, group_rows, make_measure, make_measure_1d
from copula_ot.transport import (
    CostSpec,
    PairCountCapExceeded,
    diamond,
    exact_ot,
    plan_cost,
    plan_from_indices,
    plan_to_dict,
    separable_dual_bound,
    solve_transport,
    validate_plan,
    wasserstein_1d,
)

import copula_ot.transport as transport
from helpers import (
    as_1d,
    cdf_area_w1,
    dicts_close,
    fsum_plan_cost,
    grid_pushforward,
    inner_product_score,
    lp_reference,
    make_plan,
    map_coordinates,
    max_inner_product,
    norm_cost,
    plan_as_dict,
    plan_from_dict,
    plan_rows_oracle,
)


class TestCostSpec:
    @pytest.mark.parametrize("p,q", [(0.5, 2), (2, 0.0), (float("nan"), 1), (1, float("inf"))])
    def test_rejects_bad_exponents(self, p, q):
        with pytest.raises(ValueError):
            CostSpec(p, q)

    def test_norm_cost_frozen(self):
        assert norm_cost([0, 0], [3, 4], CostSpec(2, 2)) == 25.0
        assert norm_cost([0, 0], [3, 4], CostSpec(1, 2)) == 5.0
        assert norm_cost([0, 0], [3, 4], CostSpec(1, 1)) == 7.0
        assert norm_cost([1, 2], [1, 2], CostSpec(3, 1)) == 0.0

    def test_norm_cost_shape_mismatch(self):
        with pytest.raises(ValueError):
            norm_cost([0, 0], [1], CostSpec(2, 2))


class TestPlans:
    def test_merge_and_cost(self):
        plan = make_plan(
            [[0.0], [0.0], [1.0]],
            [[1.0], [1.0], [1.0]],
            [0.25, 0.25, 0.5],
        )
        assert len(plan) == 2
        assert plan_cost(plan, CostSpec(2, 2)) == 0.5

    def test_plan_cost_matches_norm_cost_sum(self):
        plan = make_plan([[0, 0], [1, 2]], [[3, 4], [1, 0]], [0.5, 0.5])
        spec = CostSpec(3, 2)
        expected = 0.5 * norm_cost([0, 0], [3, 4], spec) + 0.5 * norm_cost(
            [1, 2], [1, 0], spec
        )
        assert plan_cost(plan, spec) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9])
    def test_plan_cost_is_the_fsum_of_numpy_row_sums(self, n):
        # Bit for bit: fewer than 8 columns are added left to right, more
        # pairwise as np.sum does; long plans take the vectorized exact sum.
        rng = np.random.default_rng(n)
        for rows in (5, 3 * EXACT_SUM_CUTOVER):
            x = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, n))
            y = rng.standard_normal((rows, n))
            w = rng.random(rows)
            plan = make_plan(x, y, w / w.sum())
            for p, q in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1.5), (1.5, 3)):
                spec = CostSpec(p, q)
                assert plan_cost(plan, spec) == fsum_plan_cost(plan, spec)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_cost_matrix_equals_the_summed_difference_block(self, n):
        # Bit for bit: below 8 coordinates the per-coordinate matrices are
        # added left to right, as np.sum adds the block's last axis.
        rng = np.random.default_rng(n)
        for a, b in ((1, 3), (17, 29)):
            X = rng.standard_normal((a, n)) * 10.0 ** rng.integers(-3, 4, (a, n))
            Y = rng.standard_normal((b, n))
            for p, q in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1.5), (1.5, 3)):
                block = (np.abs(X[:, None] - Y[None]) ** q).sum(axis=2) ** (p / q)
                assert np.array_equal(transport._cost_matrix(X, Y, CostSpec(p, q)), block)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="sum"):
            make_plan([[0.0]], [[1.0]], [0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            make_plan([[0.0], [1.0]], [[0.0], [1.0]], [1.5, -0.5])
        with pytest.raises(ValueError, match="finite"):
            make_plan([[np.nan]], [[1.0]], [1.0])

    def test_marginals(self):
        plan = make_plan([[0], [0], [1]], [[5], [6], [5]], [0.25, 0.25, 0.5])
        first = plan.first_marginal()
        assert first.atoms.tolist() == [[0.0], [1.0]]
        assert first.weights.tolist() == [0.5, 0.5]
        second = plan.second_marginal()
        assert second.atoms.tolist() == [[5.0], [6.0]]
        assert second.weights.tolist() == [0.75, 0.25]

    def test_marginals_are_built_once(self):
        plan = make_plan([[0], [0], [1]], [[5], [6], [5]], [0.25, 0.25, 0.5])
        assert plan.first_marginal() is plan.first_marginal()
        assert plan.second_marginal() is plan.second_marginal()

    def test_validate_plan(self):
        mu = make_measure([[0], [1]], [0.5, 0.5])
        rho = make_measure([[5], [6]], [0.75, 0.25])
        good = make_plan([[0], [0], [1]], [[5], [6], [5]], [0.25, 0.25, 0.5])
        assert validate_plan(good, mu, rho)
        bad = make_plan([[0], [1]], [[5], [6]], [0.5, 0.5])
        assert not validate_plan(bad, mu, rho)
        shifted = make_plan([[0], [1]], [[5 + 1e-9], [6]], [0.75, 0.25])
        assert not validate_plan(shifted, mu, rho)

    def test_validate_plan_on_index_built_plans(self):
        mu = make_measure([[0], [1]], [0.5, 0.5])
        rho = make_measure([[5], [6]], [0.75, 0.25])
        i, j = [0, 0, 1], [0, 1, 0]
        assert validate_plan(plan_from_indices(mu.atoms, rho.atoms, i, j, [0.25, 0.25, 0.5]), mu, rho)
        # 2e-10 moves from target atom 6 to 5: the source marginal is intact
        off = plan_from_indices(mu.atoms, rho.atoms, i, j, [0.25 + 2e-10, 0.25 - 2e-10, 0.5])
        assert not validate_plan(off, mu, rho)
        nudged = mu.atoms.copy()
        nudged[1, 0] = np.nextafter(1.0, 2.0)
        ulp = plan_from_indices(nudged, rho.atoms, i, j, [0.25, 0.25, 0.5])
        assert not validate_plan(ulp, mu, rho)

    def test_index_form_and_derived_rows(self):
        plan = make_plan([[1, 0], [0, 1], [1, 0]], [[3, 3], [2, 2], [2, 2]], [0.25, 0.5, 0.25])
        assert plan.source.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert plan.target.tolist() == [[2.0, 2.0], [3.0, 3.0]]
        assert plan.i.tolist() == [0, 1, 1]
        assert plan.j.tolist() == [0, 0, 1]
        assert plan.x.tolist() == [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
        assert plan.y.tolist() == [[2.0, 2.0], [2.0, 2.0], [3.0, 3.0]]
        for arr in (plan.source, plan.target, plan.i, plan.j, plan.w, plan.x, plan.y):
            assert not arr.flags.writeable

    def test_plan_from_indices_sorts_and_merges_rows(self):
        source = np.array([[0.0], [1.0]])
        target = np.array([[5.0], [6.0]])
        plan = plan_from_indices(source, target, [1, 0, 1, 0], [0, 1, 0, 0], [0.1, 0.2, 0.3, 0.4])
        assert (plan.i.tolist(), plan.j.tolist()) == ([0, 0, 1], [0, 1, 0])
        assert plan.w.tolist() == [0.4, 0.2, math.fsum([0.1, 0.3])]
        # writable inputs are copied, so the caller cannot change the plan
        assert plan.source is not source and not plan.source.flags.writeable

    @pytest.mark.parametrize(
        "source,target,i,j,w,match",
        [
            ([[1.0], [0.0]], [[5.0]], [0, 1], [0, 0], [0.5, 0.5], "sorted"),
            ([[0.0], [0.0]], [[5.0]], [0, 1], [0, 0], [0.5, 0.5], "distinct"),
            ([[0.0, 1.0], [0.0, 0.0]], [[5.0, 5.0]], [0, 1], [0, 0], [0.5, 0.5], "sorted"),
            ([[0.0]], [[5.0, 1.0]], [0], [0], [1.0], "dimension"),
            ([[0.0], [1.0]], [[5.0]], [0, 2], [0, 0], [0.5, 0.5], "indices"),
            ([[0.0], [1.0]], [[5.0]], [0.0, 1.0], [0, 0], [0.5, 0.5], "indices"),
            ([[0.0], [1.0]], [[5.0]], [0, 1], [0, 0], [1.0, 0.0], "positive"),
            ([[0.0], [1.0]], [[5.0]], [0, 1], [0, 0], [0.5, 0.25], "sum"),
            ([[0.0], [1.0]], [[5.0]], [0, 0], [0, 0], [0.5, 0.5], "source atom 1 appears in no row"),
            ([[0.0]], [[5.0], [6.0]], [0], [1], [1.0], "target atom 0 appears in no row"),
            ([[0.0]], [[5.0]], [], [], [], "nonempty"),
            ([[0.0]], [[6.0], [5.0]], [0, 0], [0, 1], [0.5, 0.5], "target atoms must be sorted"),
            ([[0.0], [np.inf]], [[5.0]], [0, 1], [0, 0], [0.5, 0.5], "source must be .* finite atoms"),
            ([[0.0]], [[np.nan]], [0], [0], [1.0], "target must be .* finite atoms"),
        ],
    )
    def test_plan_from_indices_rejects_broken_invariants(self, source, target, i, j, w, match):
        with pytest.raises(ValueError, match=match):
            plan_from_indices(np.array(source), np.array(target), np.array(i), np.array(j), w)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_make_plan_canonical_form_matches_the_dict_oracle(self, data):
        n = data.draw(st.integers(1, 2))
        coord = st.integers(-2, 2).map(float)
        point = st.lists(coord, min_size=n, max_size=n)
        pairs = data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=6))
        # picking pairs with repetition repeats (x, y) pairs; the small grid repeats x alone
        picks = data.draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=14))
        counts = data.draw(
            st.lists(st.integers(0, 3), min_size=len(picks), max_size=len(picks)).filter(any)
        )
        x = np.array([pairs[r][0] for r in picks])
        y = np.array([pairs[r][1] for r in picks])
        w = np.array(counts, dtype=float) / sum(counts)
        expected = plan_rows_oracle(x, y, w)
        plan = make_plan(x, y, w)
        got = [(tuple(a), tuple(b), c) for a, b, c in zip(plan.x.tolist(), plan.y.tolist(), plan.w.tolist())]
        assert got == expected  # lexicographic (x, y) order, fsum weights bit for bit
        # an x or y carried only by zero weights is no atom
        assert plan.source.tolist() == [list(r) for r in sorted({row[0] for row in expected})]
        assert plan.target.tolist() == [list(r) for r in sorted({row[1] for row in expected})]
        assert np.array_equal(plan.x, plan.source[plan.i])
        assert np.array_equal(plan.y, plan.target[plan.j])
        assert plan_to_dict(plan)["entries"] == [
            {"x": list(a), "y": list(b), "w": c} for a, b, c in expected
        ]

    def test_json_roundtrip(self):
        plan = make_plan([[0, 1], [2, 3]], [[4, 5], [6, 7]], [0.25, 0.75])
        obj = plan_to_dict(plan)
        assert obj["entries"][0] == {"x": [0.0, 1.0], "y": [4.0, 5.0], "w": 0.25}
        again = plan_from_dict(obj)
        assert plan_as_dict(again) == plan_as_dict(plan)

    @pytest.mark.parametrize(
        "obj",
        [{}, {"entries": []}, {"entries": [{"x": [0], "y": [1]}]}, "nope"],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            plan_from_dict(obj)

    @pytest.mark.parametrize(
        "entry,field",
        [
            ({"x": {}, "y": [0], "w": 1}, "x"),
            ({"x": [0], "y": ["1"], "w": 1}, "y"),
            ({"x": [0], "y": [1], "w": True}, "w"),
            ({"x": [0], "y": [1], "w": None}, "w"),
        ],
    )
    def test_non_numeric_field_is_a_value_error_naming_it(self, entry, field):
        with pytest.raises(ValueError, match=f"plan: {field} "):
            plan_from_dict({"entries": [entry]})


class TestWasserstein1D:
    def test_frozen_values(self):
        u01 = make_measure_1d([0, 1], [1, 1])
        u02 = make_measure_1d([0, 2], [1, 1])
        point = make_measure_1d([0], [1])
        for p in (1.0, 2.0, 3.0):
            # quantile difference is 0 on (0, 1/2] and 1 on (1/2, 1]
            assert wasserstein_1d(u01, u02, p) == 0.5
        assert wasserstein_1d(point, u02, 1.0) == 1.0
        assert wasserstein_1d(point, u02, 2.0) == 2.0
        assert wasserstein_1d(point, u02, 3.0) == 4.0

    def test_identical_measures(self):
        m = make_measure_1d([-2, 0, 5], [1, 2, 1])
        assert wasserstein_1d(m, m, 2.0) == 0.0

    def test_rejects_bad_exponent(self):
        m = make_measure_1d([0], [1])
        with pytest.raises(ValueError):
            wasserstein_1d(m, m, 0.5)

    @pytest.mark.parametrize("weight", [1e-16, 5e-16])
    @pytest.mark.parametrize("light_side", ["mu", "rho"])
    def test_an_atom_too_light_for_the_refinement_raises(self, weight, light_side):
        # Its quantile interval is empty or under 1e-15; dropping it would
        # lose its mass and report a cost of 0.0 against the point mass.
        light = make_measure_1d([0, 5], [1, weight])
        point = make_measure_1d([0], [1])
        pair = (light, point) if light_side == "mu" else (point, light)
        with pytest.raises(ValueError, match=r"atom 5\.0 of coordinate 1 has weight .*e-16, below the 1e-15"):
            wasserstein_1d(*pair, 2.0)

    def test_matches_cdf_area_oracle_for_p1(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            mu = random_marginal(rng)
            rho = random_marginal(rng)
            assert wasserstein_1d(mu, rho, 1.0) == pytest.approx(
                cdf_area_w1(mu, rho), abs=1e-12
            )

    @given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=40)
    def test_translation_invariance(self, seed, p):
        rng = np.random.default_rng(seed)
        mu = random_marginal(rng)
        rho = random_marginal(rng)
        mu_shift = as_1d(map_coordinates(mu.to_multivariate(), [(1.0, 2.5)]))
        rho_shift = as_1d(map_coordinates(rho.to_multivariate(), [(1.0, 2.5)]))
        assert wasserstein_1d(mu_shift, rho_shift, p) == pytest.approx(
            wasserstein_1d(mu, rho, p), rel=1e-12, abs=1e-12
        )


class TestSolveTransport:
    def test_degenerate_sizes(self):
        P = solve_transport(np.array([1.0]), np.array([1.0]), np.array([[7.0]]))
        assert np.allclose(P, [[1.0]], atol=1e-12)
        P = solve_transport(
            np.array([1.0]), np.array([0.5, 0.5]), np.array([[1.0, 2.0]])
        )
        assert np.allclose(P, [[0.5, 0.5]], atol=1e-12)

    def test_picks_cheap_matching(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = solve_transport(np.array([0.5, 0.5]), np.array([0.5, 0.5]), cost)
        assert np.allclose(P, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_weight_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_transport(np.array([1.0]), np.array([1.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="potentials"):
            solve_transport(np.full(2, 0.5), np.full(2, 0.5), np.zeros((2, 2)), np.zeros(3))

    def test_only_uniform_equal_size_weights_skip_the_lp(self, monkeypatch):
        calls = []
        linprog = transport.linprog

        def counting_linprog(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(transport, "linprog", counting_linprog)
        cost = np.array([[3.0, 1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 3.0, 1.0]])
        third = np.full(3, 1 / 3)
        P = solve_transport(third, third, cost)
        assert calls == []
        assert P.tolist() == [[0, 1 / 3, 0], [1 / 3, 0, 0], [0, 0, 1 / 3]]
        # one ulp off, or uniform at two sizes: not a scaled permutation polytope
        near = third.copy()
        near[0] = np.nextafter(near[0], 1.0)
        near[1] = 1.0 - near[0] - near[2]
        solve_transport(near, third, cost)
        solve_transport(np.full(2, 0.5), np.full(3, 1 / 3), cost[:2])
        assert calls == [1, 1]


class TestExactOT:
    def test_identical_measures_cost_zero(self):
        m = make_measure([[0, 0], [1, 2]], [0.5, 0.5])
        result = exact_ot(m, m, CostSpec(2, 2))
        assert result.value == 0.0
        assert validate_plan(result.plan, m, m)

    def test_two_by_two_matching_oracle(self):
        # uniform marginals on {0,2} and {1,3}: every coupling is
        # P(t) = [[t, .5-t], [.5-t, t]], so the optimum is an endpoint
        mu = make_measure([[0], [2]], [0.5, 0.5])
        rho = make_measure([[1], [3]], [0.5, 0.5])
        spec = CostSpec(1, 1)

        def cost_at(t):
            return t * 1 + (0.5 - t) * 3 + (0.5 - t) * 1 + t * 1

        oracle = min(cost_at(0.0), cost_at(0.5))
        result = exact_ot(mu, rho, spec)
        assert result.value == pytest.approx(oracle, abs=1e-12)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.value == pytest.approx(wasserstein_1d(
            mu.marginal(1), rho.marginal(1), 1.0
        ), abs=1e-12)

    def test_matches_1d_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            mu = random_marginal(rng)
            rho = random_marginal(rng)
            for p in (1.0, 2.0, 3.0):
                direct = wasserstein_1d(mu, rho, p)
                lp = exact_ot(
                    mu.to_multivariate(), rho.to_multivariate(), CostSpec(p, p)
                ).value
                assert abs(direct - lp) <= 1e-10 * max(1.0, abs(direct))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_ot(
                make_measure([[0]], [1]),
                make_measure([[0, 0]], [1]),
                CostSpec(2, 2),
            )

    def test_pair_cap(self):
        mu = make_measure([[float(t)] for t in range(20)], np.ones(20))
        with pytest.raises(PairCountCapExceeded):
            exact_ot(mu, mu, CostSpec(2, 2), pair_cap=399)

    def test_unresolvable_tiny_atom_raises_instead_of_losing_mass(self):
        rho = make_measure([[0.0], [5.0]], [0.5, 0.5])
        mu = make_measure([[0.0], [1.0], [2.0]], [0.5, 1e-17, 0.5])
        with pytest.raises(ValueError, match="weight 1e-17, below"):
            exact_ot(mu, rho, CostSpec(2, 2))
        mu = make_measure([[0.0], [1.0], [2.0]], [0.5, 1e-13, 0.5])
        result = exact_ot(mu, rho, CostSpec(2, 2))
        assert len(result.plan) == 3
        assert validate_plan(result.plan, mu, rho)

    def test_feasible_plans_sandwich_the_optimum(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            c, mu_m, rho_m = random_shared_pair(rng, 2)
            mu = sklar_compose(c, mu_m)
            rho = sklar_compose(c, rho_m)
            spec = CostSpec(2.0, 2.0)
            best = exact_ot(mu, rho, spec).value
            feasible = plan_cost(diamond(c, mu_m, rho_m), spec)
            assert best <= feasible + 1e-10 * max(1.0, feasible)


@st.composite
def uniform_equal_size_pair(draw):
    """Two measures with m distinct small-integer atoms each, all of weight 1/m."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 30))
    span = 15 if n == 1 else 3  # enough distinct points for 30 atoms, and many cost ties
    point = st.tuples(*[st.integers(-span, span)] * n)
    supports = [draw(st.lists(point, min_size=m, max_size=m, unique=True)) for _ in range(2)]
    return tuple(make_measure(atoms, np.ones(m)) for atoms in supports)


def assert_optimal_assignment(value, plan, mu, rho, cost):
    """``value`` minimizes ``cost``: it is the HiGHS optimum up to rounding and
    clears the weak-duality bound of HiGHS's own duals.  ``plan`` is a
    permutation: one row per atom, each of weight exactly 1/m."""
    objective, bound = lp_reference(mu.weights, rho.weights, cost)
    assert value <= objective + 1e-12 * max(1.0, abs(value))
    assert value >= bound - 1e-9
    assert len(plan) == len(mu)
    assert np.all(plan.w == 1 / len(mu))
    assert validate_plan(plan, mu, rho)


class TestAssignmentPath:
    """Uniform equal-size supports are solved as assignments; cross-check with HiGHS."""

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 3), (2, 1), (1, 2), (3, 1.5)])
    @settings(max_examples=25, deadline=None)
    @given(pair=uniform_equal_size_pair())
    def test_exact_ot_matches_lp_reference(self, pair, p, q):
        mu, rho = pair
        spec = CostSpec(p, q)
        result = exact_ot(mu, rho, spec)
        cost = np.array([[norm_cost(x, y, spec) for y in rho.atoms] for x in mu.atoms])
        assert_optimal_assignment(result.value, result.plan, mu, rho, cost)

    @settings(max_examples=50, deadline=None)
    @given(pair=uniform_equal_size_pair())
    def test_max_inner_product_matches_lp_reference(self, pair):
        mu, rho = pair
        best = max_inner_product(mu, rho)
        cost = -np.array([[float(np.dot(x, y)) for y in rho.atoms] for x in mu.atoms])
        assert_optimal_assignment(-best.value, best.plan, mu, rho, cost)

    def test_non_uniform_input_matches_lp_reference(self):
        mu = make_measure([[0, 1], [1, 0.5], [2, 2], [3, -1]], [0.1, 0.3, 0.2, 0.4])
        rho = make_measure([[1, 1], [-1, 2], [0.5, 0]], [0.2, 0.45, 0.35])
        spec = CostSpec(2, 1)
        result = exact_ot(mu, rho, spec)
        cost = np.array([[norm_cost(x, y, spec) for y in rho.atoms] for x in mu.atoms])
        objective, _ = lp_reference(mu.weights, rho.weights, cost)
        assert abs(result.value - objective) <= 1e-12 * max(1.0, abs(objective))
        assert validate_plan(result.plan, mu, rho)
        # The LP ignores column potentials: its vertex stays the cold one.
        P = solve_transport(mu.weights, rho.weights, cost)
        assert np.array_equal(solve_transport(mu.weights, rho.weights, cost, np.array([5.0, -1.0, 1e3])), P)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("size", [2, 3, 8, 31, 64])
    def test_column_potentials_change_no_output(self, size, n):
        # Every permutation's cost moves by the same sum of g.  Random
        # distinct atoms leave a unique optimum whose margin over the next
        # permutation is far above the rounding of cost - g, so the warm
        # solve must return the cold plan row for row and the same value.
        # In one dimension |x - y| is not strictly convex and ties
        # matchings, so there p = 1 is left out.
        rng = np.random.default_rng(100 * size + n)
        mu, rho = (make_measure(rng.random((size, n)), np.ones(size)) for _ in range(2))
        specs = [CostSpec(2, 1), CostSpec(2, 2), CostSpec(3, 1.5)] + ([CostSpec(1, 2)] if n > 1 else [])
        for spec in specs:
            cold = exact_ot(mu, rho, spec)
            for g in (rng.random(size), 1e6 * rng.standard_normal(size), -1e3 - rng.random(size)):
                warm = exact_ot(mu, rho, spec, col_potentials=g)
                assert warm.value.hex() == cold.value.hex()
                for rows in ("i", "j", "w"):
                    assert np.array_equal(getattr(warm.plan, rows), getattr(cold.plan, rows))


@st.composite
def staircase_pair(draw):
    """Two 1-D measures whose cumulative weights share breakpoints.

    Both group the same run of integer parts into consecutive atoms, so every
    cut they have in common is a tie of the north-west-corner walk.
    """
    parts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    measures = []
    for _ in range(2):
        cuts = draw(st.lists(st.booleans(), min_size=len(parts) - 1, max_size=len(parts) - 1))
        weights = [float(parts[0])]
        for part, cut in zip(parts[1:], cuts):
            if cut:
                weights.append(0.0)
            weights[-1] += part
        # Quarter-integer atoms; TestLpReference covers atoms 1e-8 apart.
        size = len(weights)
        quarters = draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size, unique=True))
        measures.append(make_measure_1d(np.sort(quarters) / 4.0, weights))
    return tuple(measures)


class TestLpReference:
    def test_resolves_atoms_1e8_apart(self):
        # At HiGHS's default tolerances the reference returned 0.5 here.
        a = np.array([0.0, 1e-8, 1.0])
        b = np.array([0.0, 1.0])
        cost = np.abs(a[:, None] - b[None, :])
        objective, bound = lp_reference([0.25, 0.5, 0.25], [0.25, 0.75], cost)
        assert objective == 0.499999995
        assert abs(bound - objective) <= 1e-15
        mu = make_measure_1d(a, [0.25, 0.5, 0.25])
        rho = make_measure_1d(b, [0.25, 0.75])
        assert exact_ot(mu.to_multivariate(), rho.to_multivariate(), CostSpec(1, 1)).value == objective


class TestSeparableDualBound:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @settings(max_examples=40, deadline=None)
    @given(pair=staircase_pair())
    def test_matches_lp_on_degenerate_staircases(self, pair, p):
        mu, rho = pair
        bound, violation = separable_dual_bound(diamond(independence(1, 1), [mu], [rho]), p)
        cost = np.abs(mu.atoms[:, None] - rho.atoms[None, :]) ** p
        objective, lp_bound = lp_reference(mu.weights, rho.weights, cost)
        assert objective - 1e-9 <= bound <= objective + 1e-12 * max(1.0, abs(objective))
        assert bound >= lp_bound - 1e-12 * max(1.0, abs(objective))
        assert violation <= 1e-12 * max(1.0, float(cost.max()))

    def test_one_dimensional_frozen(self):
        # cumulative weights 1/2, 1 against 1/4, 1/2, 1: the tie at 1/2 steps
        # onto a zero-mass cell, and the bound is the exact 1-D cost
        mu = make_measure_1d([0, 1], [1, 1])
        rho = make_measure_1d([0, 2, 3], [1, 1, 2])
        plan = diamond(independence(1, 1), [mu], [rho])
        assert separable_dual_bound(plan, 2.0) == (3.0, 0.0)

    def test_lower_bound_for_plans_that_are_not_comonotone(self):
        # any plan's coordinate marginals are coupled at least this cheaply
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.integers(-3, 4, size=(6, 2)).astype(float)
            y = rng.integers(-3, 4, size=(6, 2)).astype(float)
            w = rng.integers(1, 5, size=6)
            plan = make_plan(x, y, w / w.sum())
            mu, rho = plan.first_marginal(), plan.second_marginal()
            for p in (1.0, 2.0):
                bound, violation = separable_dual_bound(plan, p)
                assert violation == 0.0
                assert bound <= exact_ot(mu, rho, CostSpec(p, p)).value + 1e-12

    @settings(max_examples=80)
    @given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0]), min_size=1, max_size=30))
    def test_column_grouping_matches_np_unique(self, values):
        values = np.array(values)
        got, got_inverse = group_rows(values[:, None])
        want, want_inverse = np.unique(values, return_inverse=True)
        assert np.array_equal(got.ravel(), want)
        assert got_inverse.tolist() == want_inverse.tolist()

    @pytest.mark.parametrize("p", [0.5, float("inf"), float("nan")])
    def test_rejects_bad_exponent(self, p):
        plan = make_plan([[0.0]], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            separable_dual_bound(plan, p)


class TestDiamond:
    def test_one_dimensional_frozen(self):
        u01 = make_measure_1d([0, 1], [1, 1])
        u02 = make_measure_1d([0, 2], [1, 1])
        plan = diamond(independence(1, 1), [u01], [u02])
        assert plan_as_dict(plan) == {((0.0,), (0.0,)): 0.5, ((1.0,), (2.0,)): 0.5}

    def test_identical_marginals_zero_cost(self):
        rng = np.random.default_rng(21)
        for n in (2, 3):
            c, mu_m, _ = random_shared_pair(rng, n)
            plan = diamond(c, mu_m, mu_m)
            assert plan_cost(plan, CostSpec(2, 2)) == 0.0

    def test_matches_grid_oracle_exactly(self):
        c = checkerboard(2, 2, [[0.375, 0.125], [0.125, 0.375]])
        mu_m = [make_measure_1d([-1, 0, 2], [1, 2, 1]), make_measure_1d([0, 5], [3, 1])]
        rho_m = [make_measure_1d([0, 1], [1, 1]), make_measure_1d([0, 4], [1, 3])]
        plan = diamond(c, mu_m, rho_m)
        oracle: dict = {}
        for (xk, yk), w in grid_pushforward(c, [mu_m, rho_m], 8).items():
            oracle[(xk, yk)] = oracle.get((xk, yk), 0.0) + w
        assert dicts_close(plan_as_dict(plan), oracle, 1e-14)

    def test_marginals_are_the_composed_laws(self):
        rng = np.random.default_rng(31)
        for n in (2, 3):
            for _ in range(5):
                c, mu_m, rho_m = random_shared_pair(rng, n)
                plan = diamond(c, mu_m, rho_m)
                assert validate_plan(
                    plan, sklar_compose(c, mu_m), sklar_compose(c, rho_m)
                )

    def test_cost_splits_into_coordinate_integrals(self):
        # for p = q the shared-copula coupling pays coordinate by coordinate
        rng = np.random.default_rng(41)
        for n in (2, 3):
            for p in (1.0, 2.0, 3.0):
                for _ in range(4):
                    c, mu_m, rho_m = random_shared_pair(rng, n)
                    total = plan_cost(diamond(c, mu_m, rho_m), CostSpec(p, p))
                    split = math.fsum(
                        wasserstein_1d(mu_m[d], rho_m[d], p) for d in range(n)
                    )
                    assert abs(total - split) <= 1e-10 * max(1.0, abs(split))

    def test_mismatched_marginal_tuples(self):
        u = make_measure_1d([0], [1])
        with pytest.raises(ValueError):
            diamond(independence(2, 1), [u, u], [u])

    def test_monotone_copulas_give_monotone_rearrangements(self):
        a = make_measure_1d([0, 1], [1, 1])
        b = make_measure_1d([10, 20], [1, 1])
        up = diamond(comonotone(2), [a, a], [b, b])
        assert plan_as_dict(up) == {
            ((0.0, 0.0), (10.0, 10.0)): 0.5,
            ((1.0, 1.0), (20.0, 20.0)): 0.5,
        }
        down = diamond(countermonotone(), [a, a], [b, b])
        assert plan_as_dict(down) == {
            ((0.0, 1.0), (10.0, 20.0)): 0.5,
            ((1.0, 0.0), (20.0, 10.0)): 0.5,
        }

    @staticmethod
    def _points_plan(copula, mu_m, rho_m):
        """``make_plan`` of the pushforward's points: the float-sorted oracle."""
        (ix, iy), masses = push_through_quantiles(copula, [mu_m, rho_m])
        x = np.column_stack([m.atoms[ix[:, d]] for d, m in enumerate(mu_m)])
        y = np.column_stack([m.atoms[iy[:, d]] for d, m in enumerate(rho_m)])
        return make_plan(x, y, masses)

    def test_equals_the_plan_of_the_pushforward_points(self):
        # Grouping quantile indices builds the plan that sorting and merging
        # the points builds, array for array, marginal weights included.
        uneven = [make_measure_1d([-1, 0, 2], [1, 2, 1]), make_measure_1d([0, 5], [3, 1])]
        uneven += [make_measure_1d([0, 1, 3, 7], [5, 1, 1, 2])]
        cases = [
            (independence(3, 4), uneven, uneven[::-1]),
            (comonotone(3), uneven, uneven[1:] + uneven[:1]),
            (countermonotone(), uneven[:2], uneven[1:]),
        ]
        cases += [case[4:] for case in itertools.islice(iter_campaign(VerifyConfig()), 200)]
        for copula, mu_m, rho_m in cases:
            plan = diamond(copula, mu_m, rho_m)
            oracle = self._points_plan(copula, mu_m, rho_m)
            for name in ("source", "target", "i", "j", "w"):
                assert np.array_equal(getattr(plan, name), getattr(oracle, name)), name
            for side in ("first_marginal", "second_marginal"):
                got, want = getattr(plan, side)(), getattr(oracle, side)()
                assert np.array_equal(got.atoms, want.atoms) and np.array_equal(got.weights, want.weights)

    @pytest.mark.parametrize("copula", [independence(2, 2), comonotone(2), countermonotone()], ids=Copula.describe)
    @pytest.mark.parametrize("weight", [1e-16, 5e-16])
    @pytest.mark.parametrize("build", ["diamond", "sklar_compose"])
    def test_an_atom_too_light_for_the_refinement_raises(self, copula, weight, build):
        # Its quantile interval is empty or under 1e-15; dropping it would lose its mass.
        m = make_measure_1d([0, 5], [1, weight])
        with pytest.raises(ValueError, match=r"atom 5\.0 of coordinate 1 has weight .*e-16, below the 1e-15"):
            diamond(copula, [m, m], [m, m]) if build == "diamond" else sklar_compose(copula, [m, m])

    @pytest.mark.parametrize("copula", [independence(2, 2), comonotone(2), countermonotone()], ids=Copula.describe)
    def test_an_atom_of_weight_1e_15_keeps_its_mass(self, copula):
        m = make_measure_1d([0, 5], [1, 1e-15])
        plan = diamond(copula, [m, m], [m, m])
        law = sklar_compose(copula, [m, m])
        for measure in (plan.first_marginal(), plan.second_marginal(), law):
            assert measure.marginal(1).atoms.tolist() == [0.0, 5.0]
        assert validate_plan(plan, law, law)


class TestInnerProduct:
    def test_score_frozen(self):
        plan = make_plan([[1, 2], [0, 1]], [[3, 4], [1, 1]], [0.5, 0.5])
        assert inner_product_score(plan) == 0.5 * (1 * 3 + 2 * 4) + 0.5 * 1

    def test_quadratic_cost_identity(self):
        # ||x-y||_2^2 integrates to E||x||^2 + E||y||^2 - 2 E<x, y>
        rng = np.random.default_rng(55)
        c, mu_m, rho_m = random_shared_pair(rng, 2)
        plan = diamond(c, mu_m, rho_m)
        mu = plan.first_marginal()
        rho = plan.second_marginal()
        sq = lambda m: math.fsum(
            w * float(np.dot(a, a)) for a, w in zip(m.atoms, m.weights)
        )
        lhs = plan_cost(plan, CostSpec(2, 2))
        rhs = sq(mu) + sq(rho) - 2 * inner_product_score(plan)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_max_inner_product_dominates_feasible_plans(self):
        rng = np.random.default_rng(66)
        for _ in range(8):
            c, mu_m, rho_m = random_shared_pair(rng, 2)
            mu = sklar_compose(c, mu_m)
            rho = sklar_compose(c, rho_m)
            best = max_inner_product(mu, rho)
            assert validate_plan(best.plan, mu, rho)
            feasible = inner_product_score(diamond(c, mu_m, rho_m))
            assert feasible <= best.value + 1e-9 * max(1.0, abs(best.value))

    def test_shared_copula_plan_attains_the_maximum_for_quadratic_cost(self):
        rng = np.random.default_rng(77)
        for n in (2, 3):
            for _ in range(5):
                c, mu_m, rho_m = random_shared_pair(rng, n)
                mu = sklar_compose(c, mu_m)
                rho = sklar_compose(c, rho_m)
                score = inner_product_score(diamond(c, mu_m, rho_m))
                best = max_inner_product(mu, rho).value
                assert abs(score - best) <= 1e-8 * max(1.0, abs(best))
