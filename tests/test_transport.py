import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copula_ot.copulas import (
    checkerboard,
    comonotone,
    countermonotone,
    independence,
    sklar_compose,
)
from copula_ot.instances import random_marginal, random_shared_pair
from copula_ot.measures import make_measure, make_measure_1d
from copula_ot.transport import (
    CostSpec,
    PairCountCapExceeded,
    diamond,
    exact_ot,
    make_plan,
    plan_cost,
    plan_from_dict,
    plan_to_dict,
    solve_transport,
    validate_plan,
    wasserstein_1d,
)

import copula_ot.transport as transport
from helpers import (
    as_1d,
    cdf_area_w1,
    dicts_close,
    grid_pushforward,
    inner_product_score,
    lp_reference,
    max_inner_product,
    norm_cost,
    plan_as_dict,
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
        mu_shift = as_1d(mu.to_multivariate().map_coordinates([(1.0, 2.5)]))
        rho_shift = as_1d(rho.to_multivariate().map_coordinates([(1.0, 2.5)]))
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
