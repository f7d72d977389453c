import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from copula_ot.copulas import (
    checkerboard,
    comonotone,
    countermonotone,
    discretize,
    independence,
)
from copula_ot.counterexample import (
    CAVEAT,
    NoViolatingPair,
    ScheduleExhausted,
    _adversary_index_map,
    _scaled_sides,
    adversary_copula,
    certificate_potentials,
    default_schedule,
    find_violating_pair,
    gap_search,
    limit_potentials,
    limit_scores,
    monge_cross_partial,
    pair_skeleton,
    report_to_dict,
)
from copula_ot.instances import random_copula
from copula_ot.measures import make_measure
from copula_ot.transport import CostSpec, TransportPlan, exact_ot, plan_cost, validate_plan

import copula_ot.counterexample as counterexample
import copula_ot.transport as transport
from helpers import (
    block_competitor_plan,
    construction_at,
    empirical_copula,
    fd_cross_partial,
    fsum_lengths,
    fsum_plan_cost,
    make_plan,
    rank_bin_copula,
    same_measure,
)


def direct_alt_cost(carrier, p, q, epsilon, adversary_variant):
    """Triple loop over carrier cells; no plan machinery involved (n=2)."""
    k = carrier.k
    C2 = np.asarray(carrier.masses)
    colsum = C2.sum(axis=0)
    mids = (np.arange(k) + 0.5) / k
    total = 0.0
    for a in range(k):
        b2 = a if adversary_variant == "comonotone" else k - 1 - a
        for b in range(k):
            if C2[a, b] == 0.0:
                continue
            for a2 in range(k):
                if C2[a2, b2] == 0.0:
                    continue
                w = C2[a, b] * C2[a2, b2] / colsum[b2]
                d1 = abs(mids[a] - epsilon * mids[a2])
                d2 = abs(epsilon * mids[b] - mids[b2])
                total += w * (d1**q + d2**q) ** (p / q)
    return total


def direct_diamond_cost(carrier, p, q, epsilon):
    k = carrier.k
    C2 = np.asarray(carrier.masses)
    mids = (np.arange(k) + 0.5) / k
    total = 0.0
    for a in range(k):
        for b in range(k):
            if C2[a, b] == 0.0:
                continue
            d1 = abs(mids[a] - epsilon * mids[a])
            d2 = abs(epsilon * mids[b] - mids[b])
            total += C2[a, b] * (d1**q + d2**q) ** (p / q)
    return total


def spy_on_assignment(monkeypatch) -> list:
    """Record each matrix the assignment solver receives, with the columns it returns."""
    calls = []
    solve = transport.linear_sum_assignment

    def spy(cost):
        rows, cols = solve(cost)
        calls.append((cost.copy(), cols))
        return rows, cols

    monkeypatch.setattr(transport, "linear_sum_assignment", spy)
    return calls


def spy_on_exact(monkeypatch) -> list:
    """Record each exact solve of gap_search: its column potentials and its plan's rows."""
    calls = []
    solve = counterexample.exact_ot

    def spy(*args):
        result = solve(*args)
        calls.append((args[4], result.plan))
        return result

    monkeypatch.setattr(counterexample, "exact_ot", spy)
    return calls


def spy_on_sweep_blocks(monkeypatch) -> list:
    """Record the number of epsilons in each block of row costs that the gap sweep sums."""
    blocks = []
    real = counterexample._row_cost_sums

    def spy(per_row, *args):
        blocks.append(len(per_row))
        return real(per_row, *args)

    monkeypatch.setattr(counterexample, "_row_cost_sums", spy)
    return blocks


def certificate_problem(report, carrier, p, q):
    """The cost matrix of the report's exact certificate and the two-level potentials of its target atoms."""
    skeleton = pair_skeleton(carrier, p, q, report.pair)
    source, target = _scaled_sides(skeleton, report.epsilon)
    cost = transport._cost_matrix(source, target, CostSpec(p, q))
    return cost, certificate_potentials(skeleton, p, q, report.epsilon)


def assignment_columns(plan: TransportPlan) -> np.ndarray:
    """The permutation of an assignment plan: row s of the source goes to column cols[s]."""
    rows = np.arange(len(plan.source))
    assert np.array_equal(plan.i, rows) and np.array_equal(np.sort(plan.j), rows)
    return np.asarray(plan.j)


def assert_certified(cost, g, cols):
    """``cols`` are each row's cheapest column of cost - g and the solver's answer on cost - g."""
    reduced = cost - g
    assert np.array_equal(cols, reduced.argmin(axis=1))
    assert np.array_equal(cols, linear_sum_assignment(reduced)[1])


def assert_warm_no_worse_than_cold(cost, warm):
    """The warm permutation's exact cost sum over the float matrix is at most the cold one's."""
    _, cold = linear_sum_assignment(cost)
    rows = np.arange(len(cost))

    def exact_sum(cols):
        return sum(map(Fraction, cost[rows, cols].tolist()))

    assert exact_sum(warm) <= exact_sum(cold)


EXPONENT_PAIRS = [(2.0, 1.0), (1.0, 2.0), (3.0, 1.5), (1.0, 3.0)]
# A skeleton built at one of these pairs rewires its pair through the named
# adversary, and may be costed at any exponents, p = q included.
PICKS = pytest.mark.parametrize("pick", [(1.0, 2.0), (2.0, 1.0)], ids=["comonotone", "countermonotone"])


class TestMongeCrossPartial:
    def test_frozen_value(self):
        # p(q-p) u1^{q-1} u2^{q-1} (u1^q+u2^q)^{p/q-2} at p=2, q=1, u=(1/2,1/2)
        assert monge_cross_partial(2.0, 1.0, 0.5, 0.5) == -2.0

    def test_exactly_zero_on_diagonal_exponents(self):
        for p in (1.0, 2.0, 2.5):
            assert monge_cross_partial(p, p, 0.3, 0.8) == 0.0

    def test_sign_flips_with_exponent_order(self):
        assert monge_cross_partial(1.0, 2.0, 0.5, 0.5) > 0
        assert monge_cross_partial(3.0, 1.5, 0.2, 0.9) < 0

    def test_rejects_boundary_and_bad_exponents(self):
        for u in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                monge_cross_partial(2, 1, u, 0.5)
            with pytest.raises(ValueError):
                monge_cross_partial(2, 1, 0.5, u)
        with pytest.raises(ValueError):
            monge_cross_partial(0.5, 1, 0.5, 0.5)

    @given(
        st.floats(1.0, 3.5),
        st.floats(1.0, 3.5),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=80)
    def test_matches_finite_differences(self, p, q, u1, u2):
        value = monge_cross_partial(p, q, u1, u2)
        fd = fd_cross_partial(p, q, u1, u2)
        if p == q:
            assert abs(fd) < 1e-5
        else:
            # abs floor sits above the finite-difference noise, eps / h^2
            assert value == pytest.approx(fd, rel=1e-4, abs=1e-5)
            if abs(q - p) > 1e-9:
                assert math.copysign(1.0, value) == math.copysign(1.0, q - p)


class TestAdversary:
    def test_direction(self):
        assert adversary_copula(1.0, 2.0).variant == "comonotone"
        assert adversary_copula(3.0, 1.0).variant == "countermonotone"

    def test_equal_exponents_rejected(self):
        with pytest.raises(ValueError, match="optimal"):
            adversary_copula(2.0, 2.0)


class TestFindViolatingPair:
    def test_independence_frozen(self):
        assert find_violating_pair(independence(2, 4), 1.0, 2.0) == (1, 2)

    def test_comonotone_blocks_one_direction_only(self):
        carrier = discretize(comonotone(3), 16)
        assert find_violating_pair(carrier, 1.0, 2.0) is None
        assert find_violating_pair(carrier, 2.0, 1.0) == (1, 2)

    def test_countermonotone_blocks_the_other(self):
        carrier = discretize(countermonotone(), 16)
        assert find_violating_pair(carrier, 2.0, 1.0) is None
        assert find_violating_pair(carrier, 1.0, 2.0) is not None

    def test_exact_variant_not_its_discretization(self):
        # the discretized diagonal sits on the identity cells at every k,
        # whether or not its cell boundaries line up with any lattice
        for k in (16, 17):
            assert find_violating_pair(discretize(comonotone(2), k), 1.0, 2.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            find_violating_pair(independence(2, 2), 2.0, 2.0)
        with pytest.raises(ValueError, match="discretize"):
            find_violating_pair(comonotone(2), 1.0, 2.0)

    @given(
        st.integers(0, 10_000),
        st.integers(2, 3),
        st.integers(1, 5),
        st.sampled_from([(2.0, 1.0), (1.0, 2.0)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_decision_matches_the_limit_gap(self, seed, n, k, exponents):
        p, q = exponents
        carrier = random_copula(np.random.default_rng(seed), n, k)
        found = find_violating_pair(carrier, p, q)
        if found is not None:
            limit_diamond, limit_alt = limit_scores(carrier, found, p, q)
            assert limit_diamond - limit_alt > 0
        else:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    limit_diamond, limit_alt = limit_scores(carrier, (i, j), p, q)
                    assert abs(limit_diamond - limit_alt) <= 1e-15


class TestConstructionAtEpsilon:
    # The library builds no plan at any epsilon; construction_at builds the
    # skeleton plans' rows on the scaled atoms with the checked
    # plan_from_indices, so these tests check the construction itself.
    def test_requires_checkerboard_and_valid_arguments(self):
        with pytest.raises(ValueError, match="discretize"):
            pair_skeleton(comonotone(2), 2.0, 1.0, (1, 2))
        carrier = independence(2, 4)
        with pytest.raises(ValueError, match="pair|1 <="):
            pair_skeleton(carrier, 2.0, 1.0, (2, 1))
        with pytest.raises(ValueError, match="optimal"):
            pair_skeleton(carrier, 2.0, 2.0, (1, 2))

    def test_costs_match_direct_summation_oracle(self):
        carrier = independence(2, 4)
        for p, q, adv in ((1.0, 2.0, "comonotone"), (2.0, 1.0, "countermonotone")):
            built = construction_at(pair_skeleton(carrier, p, q, (1, 2)), 0.25)
            spec = CostSpec(p, q)
            assert plan_cost(built.alt_plan, spec) == pytest.approx(
                direct_alt_cost(carrier, p, q, 0.25, adv), abs=1e-12
            )
            assert plan_cost(built.diamond_plan, spec) == pytest.approx(
                direct_diamond_cost(carrier, p, q, 0.25), abs=1e-12
            )

    def test_rewired_target_law_is_exactly_the_original(self):
        # dyadic carriers make the check exact, not just within tolerance
        for carrier in (independence(2, 8), discretize(comonotone(2), 8)):
            built = construction_at(pair_skeleton(carrier, 2.0, 1.0, (1, 2)), 0.25)
            rewired = built.alt_plan.second_marginal()
            assert same_measure(rewired, built.rho)

    def test_rewired_law_check_fires(self):
        # Moving 5e-11 between two diagonal cells keeps the margins within the
        # carrier's 1e-10 slack, but the rewired target law then drifts by
        # about 1.25e-11 on column 0, past the check's 1e-12 and still inside
        # validate_plan's 1e-10: only the rewired-law check can catch it.
        masses = np.full((4, 4), 1.0 / 16.0)
        masses[0, 0] += 5e-11
        masses[1, 1] -= 5e-11
        carrier = checkerboard(2, 4, masses)
        with pytest.raises(ValueError, match="rewired target law"):
            pair_skeleton(carrier, 2.0, 1.0, (1, 2))

    def test_plans_validate_and_preserve_source_law(self):
        carrier = random_copula(np.random.default_rng(17), 3, 4)
        built = construction_at(pair_skeleton(carrier, 1.0, 2.0, (1, 3)), 0.5)
        assert validate_plan(built.diamond_plan, built.mu, built.rho)
        assert validate_plan(built.alt_plan, built.mu, built.rho)

    def test_scaling_pattern(self):
        carrier = discretize(comonotone(2), 2)
        built = construction_at(pair_skeleton(carrier, 2.0, 1.0, (1, 2)), 0.5)
        # source keeps coordinate 1, target keeps coordinate 2
        assert built.mu.atoms.tolist() == [[0.25, 0.125], [0.75, 0.375]]
        assert built.rho.atoms.tolist() == [[0.125, 0.25], [0.375, 0.75]]

    def test_off_pair_coordinates_shrink_on_both_sides(self):
        carrier = independence(3, 2)
        built = construction_at(pair_skeleton(carrier, 2.0, 1.0, (1, 2)), 0.5)
        third_mu = built.mu.marginal(3)
        third_rho = built.rho.marginal(3)
        assert third_mu.atoms.tolist() == [0.125, 0.375]
        assert same_measure(third_mu, third_rho)

    def test_source_copula_is_preserved(self):
        # the construction only rescales coordinates, so the rank structure
        # of the source equals the carrier; same for the target
        carrier = random_copula(np.random.default_rng(23), 2, 4)
        built = construction_at(pair_skeleton(carrier, 1.0, 2.0, (1, 2)), 0.25)
        assert np.allclose(rank_bin_copula(built.mu, 4), carrier.masses, atol=1e-12)
        assert np.allclose(rank_bin_copula(built.rho, 4), carrier.masses, atol=1e-12)

    def test_control_at_equal_exponents_never_beats_quantile_plan(self):
        # Built at (1, 2), the skeleton rewires through the comonotone adversary.
        carrier = independence(2, 8)
        spec = CostSpec(2.0, 2.0)
        for eps in (0.5, 0.25, 0.125):
            built = construction_at(pair_skeleton(carrier, 1.0, 2.0, (1, 2)), eps)
            dc = plan_cost(built.diamond_plan, spec)
            ac = plan_cost(built.alt_plan, spec)
            exact = exact_ot(built.mu, built.rho, spec).value
            assert dc <= ac + 1e-12
            assert abs(dc - exact) <= 1e-8 * max(1.0, exact)


class TestPairSkeleton:
    @pytest.mark.parametrize(
        "carrier, pair",
        [
            (independence(2, 8), (1, 2)),
            (random_copula(np.random.default_rng(31), 3, 4), (1, 3)),
        ],
    )
    @PICKS
    def test_plans_equal_the_point_built_plans(self, carrier, pair, pick):
        # The rows built once on the unscaled midpoints are, at every epsilon,
        # the canonical plan of the scaled points, array for array.
        skeleton = pair_skeleton(carrier, *pick, pair)
        for eps in (0.5, 2.0**-8, 0.3):
            built = construction_at(skeleton, eps)
            for plan in (built.diamond_plan, built.alt_plan):
                canonical = make_plan(plan.x, plan.y, plan.w)
                for name in ("source", "target", "i", "j", "w"):
                    assert np.array_equal(getattr(plan, name), getattr(canonical, name)), name
                assert plan.first_marginal().weights.tolist() == canonical.first_marginal().weights.tolist()
                assert plan.second_marginal().weights.tolist() == canonical.second_marginal().weights.tolist()
                spec = CostSpec(2.0, 1.0)
                assert plan_cost(plan, spec) == fsum_plan_cost(plan, spec)

    @pytest.mark.parametrize(
        "carrier, pair",
        [
            (independence(2, 8), (1, 2)),
            (random_copula(np.random.default_rng(31), 3, 4), (1, 3)),
            (discretize(comonotone(3), 4), (2, 3)),
        ],
    )
    @pytest.mark.parametrize("pairs", [((2.0, 1.0), (3.0, 1.5)), ((1.0, 2.0), (1.5, 3.0))], ids=["q<p", "q>p"])
    def test_exponents_only_pick_the_adversary(self, carrier, pair, pairs):
        # Two exponent pairs that pick the same adversary build the same
        # skeleton, byte for byte.
        def arrays(skeleton):
            plans = (skeleton.diamond_plan, skeleton.alt_plan)
            rows = [getattr(plan, name) for plan in plans for name in ("i", "j", "w")]
            return [skeleton.law.atoms, skeleton.law.weights, skeleton.adversary, *rows]

        first, second = (arrays(pair_skeleton(carrier, p, q, pair)) for p, q in pairs)
        for a, b in zip(first, second):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_scaled_plans_keep_the_skeleton_rows(self):
        # The skeleton's rows are canonical, so plan_from_indices neither
        # sorts nor copies them on the scaled atoms.
        skeleton = pair_skeleton(independence(2, 4), 2.0, 1.0, (1, 2))
        built = construction_at(skeleton, 0.25)
        for plan, rows in ((built.diamond_plan, skeleton.diamond_plan), (built.alt_plan, skeleton.alt_plan)):
            assert plan.i is rows.i and plan.j is rows.j and plan.w is rows.w
            assert plan.source is built.mu.atoms and plan.target is built.rho.atoms

    @pytest.mark.parametrize(
        "carrier, pair, p, q",
        [
            (independence(2, 48), (1, 2), 2.0, 1.0),
            (random_copula(np.random.default_rng(17), 3, 4), (1, 3), 1.0, 2.0),
        ],
    )
    def test_measures_equal_the_point_built_measures(self, carrier, pair, p, q):
        # Reference: scale the carrier's cell midpoints and canonicalize them
        # with make_measure at every epsilon, as the construction once did.
        k = carrier.k
        cells = np.nonzero(carrier.masses)
        mids = np.column_stack([(c + 0.5) / k for c in cells])
        masses = carrier.masses[cells]
        skeleton = pair_skeleton(carrier, p, q, pair)
        for eps in default_schedule():
            built = construction_at(skeleton, eps)
            ref = []
            for kept in pair:
                scale = np.full(carrier.n, eps)
                scale[kept - 1] = 1.0
                ref.append(make_measure(mids * scale, masses))
            assert same_measure(built.mu, ref[0]), eps
            assert same_measure(built.rho, ref[1]), eps
            assert validate_plan(built.diamond_plan, *ref)
            assert validate_plan(built.alt_plan, *ref)

    @pytest.mark.parametrize(
        "carrier",
        [
            independence(2, 4),
            independence(2, 48),
            random_copula(np.random.default_rng(17), 3, 4),
            random_copula(np.random.default_rng(41), 4, 4),
            discretize(comonotone(2), 8),
        ],
    )
    def test_law_is_the_measure_of_the_cell_midpoints(self, carrier):
        # The cells' midpoints in the carrier's order, weighted by their
        # masses, equal make_measure's atoms and weights on every pair.
        k = carrier.k
        cells = np.nonzero(carrier.masses)
        mids = np.column_stack([(c + 0.5) / k for c in cells])
        reference = make_measure(mids, carrier.masses[cells])
        for pair in ((1, 2), (1, carrier.n)):
            law = pair_skeleton(carrier, 2.0, 1.0, pair).law
            assert np.array_equal(law.atoms, reference.atoms), pair
            assert np.array_equal(law.weights, reference.weights), pair

    @pytest.mark.parametrize(
        "carrier, pair, p, q",
        [
            (independence(2, 4), (1, 2), 2.0, 1.0),
            (independence(2, 4), (1, 2), 1.0, 2.0),
            (independence(2, 48), (1, 2), 2.0, 1.0),
            (independence(2, 48), (1, 2), 1.0, 2.0),
            (random_copula(np.random.default_rng(17), 3, 4), (1, 3), 1.0, 2.0),
            (random_copula(np.random.default_rng(41), 4, 4), (2, 4), 2.0, 1.0),
            (discretize(comonotone(2), 8), (1, 2), 2.0, 1.0),
            (independence(3, 3), (1, 3), 1.0, 2.0),
            (independence(4, 2), (2, 4), 2.0, 1.0),
            # Masses are multiples of 1/141: none is dyadic.
            (random_copula(np.random.default_rng(7), 5, 3), (2, 5), 1.0, 2.0),
            (random_copula(np.random.default_rng(7), 5, 3), (3, 4), 2.0, 1.0),
        ],
    )
    def test_competitor_rows_equal_the_block_loop(self, carrier, pair, p, q):
        alt_plan = pair_skeleton(carrier, p, q, pair).alt_plan
        reference = block_competitor_plan(carrier, p, q, pair)
        for name in ("i", "j", "w"):
            assert np.array_equal(getattr(alt_plan, name), getattr(reference, name)), name

    @pytest.mark.parametrize("n, k", [(2, 1), (2, 5), (3, 3), (4, 2), (4, 3)])
    @PICKS
    def test_grid_competitor_rows_equal_the_block_loop(self, n, k, pick):
        # A full grid's layout has no padding; its rows are the block loop's
        # bytes, dtypes included.
        carrier = independence(n, k)
        for pair in itertools.combinations(range(1, n + 1), 2):
            alt_plan = pair_skeleton(carrier, *pick, pair).alt_plan
            reference = block_competitor_plan(carrier, *pick, pair)
            for name in ("i", "j", "w"):
                built, expected = getattr(alt_plan, name), getattr(reference, name)
                assert built.dtype == expected.dtype and built.tobytes() == expected.tobytes(), (pair, name)

    @pytest.mark.parametrize(
        "carrier, pair",
        [
            (independence(2, 48), (1, 2)),
            (random_copula(np.random.default_rng(41), 4, 4), (2, 4)),
        ],
    )
    def test_sorted_skeleton_rows_are_kept_as_built(self, monkeypatch, carrier, pair):
        # The rows come read-only and sorted on every pair, so
        # plan_from_indices keeps the arrays instead of copying them.
        built = []

        def recorded(*args, _fn=counterexample.plan_from_indices):
            built.append((args, _fn(*args)))
            return built[-1][1]

        monkeypatch.setattr(counterexample, "plan_from_indices", recorded)
        pair_skeleton(carrier, 2.0, 1.0, pair)
        assert len(built) == 2
        for (source, target, i, j, w), plan in built:
            assert plan.i is i and plan.j is j and plan.w is w

    def test_epsilon_that_merges_atoms_is_named(self):
        # At 5e-324 the scaled midpoints round to 0 or 5e-324 and atoms merge.
        skeleton = pair_skeleton(independence(2, 4), 2.0, 1.0, (1, 2))
        with pytest.raises(ValueError, match=r"epsilon=5e-324 is too small"):
            counterexample._cost_sweep(skeleton, CostSpec(2.0, 1.0), [5e-324])


# Uniform margins with columns of unequal cell counts.
RAGGED = np.array([[1 / 3, 0.0, 0.0], [0.0, 1 / 6, 1 / 6], [0.0, 1 / 6, 1 / 6]])


class TestCostSweep:
    @pytest.mark.parametrize(
        "carrier, pair",
        [
            (independence(2, 4), (1, 2)),
            (independence(2, 16), (1, 2)),
            (independence(2, 48), (1, 2)),
            (random_copula(np.random.default_rng(17), 3, 4), (1, 3)),
            # Margin columns of 1 and 2 cells: the competitor's source atoms
            # have 1 or 2 rows each, which np.repeat spreads unevenly.
            (checkerboard(2, 3, RAGGED), (1, 2)),
            (checkerboard(3, 3, np.multiply.outer(RAGGED, np.full(3, 1 / 3))), (1, 2)),
            # Full grids: the rows are a product layout.
            (independence(3, 4), (1, 3)),
            (independence(3, 4), (2, 3)),
            (independence(4, 3), (1, 3)),
            (independence(4, 3), (2, 3)),
            (independence(4, 3), (2, 4)),
            (independence(7, 2), (3, 6)),
            # From 8 coordinates on the row sums are added pairwise, on the
            # grid and off it.
            (independence(8, 2), (1, 2)),
            (independence(9, 2), (4, 9)),
            (random_copula(np.random.default_rng(5), 8, 2), (3, 7)),
        ],
    )
    # q = 1.5 has no numpy fast path: the tables and plan_cost raise
    # different arrays to it.
    @pytest.mark.parametrize("p, q", [(2.0, 1.0), (1.0, 2.0), (3.0, 2.0), (1.5, 1.0), (1.0, 1.5)])
    def test_costs_equal_plan_cost_of_the_built_plans(self, monkeypatch, carrier, pair, p, q):
        # Bit for bit, at every epsilon: the sweep gathers per-coordinate
        # distance tables, the reference plans sit on the scaled atoms and
        # plan_cost subtracts the rows' points.
        spec = CostSpec(p, q)
        skeleton = pair_skeleton(carrier, p, q, pair)
        schedule = default_schedule()
        expected = []
        for eps in schedule:
            built = construction_at(skeleton, eps)
            expected.append((plan_cost(built.diamond_plan, spec), plan_cost(built.alt_plan, spec)))
            assert expected[-1] == (
                fsum_plan_cost(built.diamond_plan, spec),
                fsum_plan_cost(built.alt_plan, spec),
            ), eps
        assert counterexample._cost_sweep(skeleton, spec, schedule) == expected
        # Blocks of 1, 3 and 8 epsilons on 13 epsilons, which 3 and 8 do not
        # divide, at every number of coordinates.
        blocks = spy_on_sweep_blocks(monkeypatch)
        for block in (1, 3, 8):
            monkeypatch.setattr(counterexample, "_SWEEP_BLOCK_VALUES", block * len(skeleton.alt_plan))
            blocks.clear()
            assert counterexample._cost_sweep(skeleton, spec, schedule[:13]) == expected[:13], block
            sizes = [min(block, 13 - start) for start in range(0, 13, block)]
            assert blocks == [size for size in sizes for _plan in range(2)]

    @pytest.mark.parametrize(
        "carrier, pair, grid",
        [
            (independence(2, 16), (1, 2), True),
            (independence(3, 4), (2, 3), True),
            (independence(7, 2), (3, 6), True),
            (independence(8, 2), (1, 2), True),
            (checkerboard(2, 3, RAGGED), (1, 2), False),
            (random_copula(np.random.default_rng(17), 3, 4), (1, 3), False),
            (random_copula(np.random.default_rng(5), 8, 2), (3, 7), False),
        ],
    )
    def test_only_full_grids_take_the_grid_path(self, monkeypatch, carrier, pair, grid):
        # The quantile plan gathers by row codes on every carrier.  The
        # competitor is broadcast, with no row codes, exactly on a full grid,
        # at any number of coordinates; every other carrier gathers it too.
        # Each call is recorded with the row count of the plan it serves.
        calls = []
        for name in ("_grid_row_sums", "_row_codes", "_gathered_row_sums"):

            def spy(rows, *args, _name=name, _fn=getattr(counterexample, name)):
                calls.append((_name, len(rows) if isinstance(rows, TransportPlan) else rows.shape[1]))
                return _fn(rows, *args)

            monkeypatch.setattr(counterexample, name, spy)
        skeleton = pair_skeleton(carrier, 2.0, 1.0, pair)
        counterexample._cost_sweep(skeleton, CostSpec(2.0, 1.0), [0.5, 0.25])
        quantile, competitor = len(skeleton.diamond_plan), len(skeleton.alt_plan)
        assert quantile != competitor
        gathered = {("_row_codes", quantile), ("_gathered_row_sums", quantile)}
        if grid:
            assert set(calls) == gathered | {("_grid_row_sums", competitor)}
        else:
            assert set(calls) == gathered | {("_row_codes", competitor), ("_gathered_row_sums", competitor)}

    @pytest.mark.parametrize("carrier", [independence(2, 8), independence(3, 3), checkerboard(2, 3, RAGGED)])
    @PICKS
    def test_control_skeleton_at_equal_exponents_sweeps(self, carrier, pick):
        # At p = q there is no adversary of the cost's own: the sweep reads
        # the one that the skeleton's exponents picked.
        spec = CostSpec(2.0, 2.0)
        skeleton = pair_skeleton(carrier, *pick, (1, 2))
        schedule = (0.5, 0.25, 2.0**-10)
        expected = []
        for eps in schedule:
            built = construction_at(skeleton, eps)
            expected.append((plan_cost(built.diamond_plan, spec), plan_cost(built.alt_plan, spec)))
        assert counterexample._cost_sweep(skeleton, spec, schedule) == expected

    def test_gap_sweep_peak_allocation(self):
        # On independence(2, 48) a search's 16 epsilons hold the competitor's
        # two (1, rows) buffers, and beside them only what has the length of
        # the quantile plan or of the tables: the sweep's setup allocates
        # nothing of the competitor's length.
        p, q = 2.0, 1.0
        skeleton = pair_skeleton(independence(2, 48), p, q, (1, 2))
        size = len(skeleton.alt_plan) * 8
        tracemalloc.start()
        try:
            counterexample._cost_sweep(skeleton, CostSpec(p, q), default_schedule())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 * size <= peak < 2.5 * size

    @pytest.mark.parametrize("p, q", [(2.0, 1.0), (1.0, 2.0)])
    def test_gap_sweep_plans_need_no_fsum_fallback(self, monkeypatch, p, q):
        # A row that the first level leaves undecided is an fsum call of its
        # level sum and its remainders, and a row too small or too large for
        # the level an fsum call of the row.  Every row-cost sum of the sweep
        # is decided after its first level, with no fsum call: each total
        # sits at least 10**4 error bounds away from a rounding midpoint.
        spec = CostSpec(p, q)
        skeleton = pair_skeleton(independence(2, 48), p, q, (1, 2))
        lengths = fsum_lengths(monkeypatch)
        counterexample._cost_sweep(skeleton, spec, default_schedule())
        assert lengths == []

    def test_epsilon_that_merges_atoms_is_named(self):
        with pytest.raises(ValueError, match=r"epsilon=5e-324 is too small"):
            gap_search(independence(2, 4), 2.0, 1.0, carrier_resolution=4, schedule=[0.5, 5e-324])

    @pytest.mark.parametrize("schedule, named", [([0.5, 5e-324, 1e-323], "5e-324"), ([0.5, 1e-323, 5e-324], "1e-323")])
    def test_first_epsilon_that_merges_atoms_in_a_block_is_named(self, schedule, named):
        # At k = 4 the whole schedule is one block; the first epsilon that
        # merges atoms is named, as when epsilons were costed one at a time.
        with pytest.raises(ValueError, match=rf"epsilon={named} is too small"):
            gap_search(independence(2, 4), 2.0, 1.0, carrier_resolution=4, schedule=schedule)

    def test_merged_column_falls_back_to_the_full_atom_check(self, monkeypatch):
        # At 3e-323 the 16 scaled midpoints of the comonotone carrier keep 7
        # values, yet the atoms (m, eps m) and (eps m, m) stay sorted and
        # distinct: only the check of the whole scaled atoms accepts them.
        mids = (np.arange(16) + 0.5) / 16
        assert len(np.unique(mids * 3e-323)) == 7
        report = gap_search(comonotone(2), 2.0, 1.0, schedule=[0.5, 3e-323], attach_exact=False)
        assert (report.epsilon, report.diamond_cost, report.alt_cost) == (3e-323, 1.33203125, 1.0)

        checked = []

        def counted(atoms, *args, _fn=counterexample._check_atoms):
            checked.append(atoms)
            return _fn(atoms, *args)

        spec = CostSpec(2.0, 1.0)
        skeleton = pair_skeleton(discretize(comonotone(2), 16), 2.0, 1.0, (1, 2))
        monkeypatch.setattr(counterexample, "_check_atoms", counted)
        counterexample._cost_sweep(skeleton, spec, [0.5])
        assert checked == []
        (got,) = counterexample._cost_sweep(skeleton, spec, [3e-323])
        monkeypatch.undo()
        built = construction_at(skeleton, 3e-323)
        assert len(checked) == 2
        for atoms, measure in zip(checked, (built.mu, built.rho)):
            assert np.array_equal(atoms, measure.atoms)
        assert got == (plan_cost(built.diamond_plan, spec), plan_cost(built.alt_plan, spec))

    def test_epsilon_that_merges_grid_atoms_still_raises(self):
        # On the independence carrier merged columns merge atoms too.
        with pytest.raises(ValueError, match=r"gap_search: epsilon=3e-323 is too small"):
            gap_search(independence(2, 16), 2.0, 1.0, schedule=[0.5, 3e-323])

    def test_sweep_builds_no_pair_and_gathers_no_plan_points(self, monkeypatch):
        planned, solved = [], []

        def planned_rows(*args, _fn=counterexample.plan_from_indices):
            planned.append(args)
            return _fn(*args)

        def counted(mu, rho, *args, _fn=counterexample.exact_ot):
            solved.append((mu, rho))
            return _fn(mu, rho, *args)

        def refused(*args):
            raise AssertionError("the sweep read a plan's row points")

        copula = independence(2, 8)
        skeleton = pair_skeleton(discretize(copula, 16), 1.0, 2.0, (1, 2))
        monkeypatch.setattr(counterexample, "plan_from_indices", planned_rows)
        monkeypatch.setattr(counterexample, "exact_ot", counted)
        monkeypatch.setattr(TransportPlan, "x", property(refused))
        monkeypatch.setattr(TransportPlan, "y", property(refused))
        report = gap_search(copula, 1.0, 2.0, attach_exact=False)
        # Only pair_skeleton builds plans: the quantile plan and the competitor.
        assert len(report.curve) == 16 and len(planned) == 2 and solved == []
        monkeypatch.undo()
        monkeypatch.setattr(counterexample, "exact_ot", counted)
        report = gap_search(copula, 1.0, 2.0)
        assert report.exact_cost is not None and len(solved) == 1
        # The certificate solves between the scaled measures at the accepted epsilon.
        built = construction_at(skeleton, report.epsilon)
        assert same_measure(solved[0][0], built.mu) and same_measure(solved[0][1], built.rho)


class TestLimitScores:
    def test_frozen_midpoint_values(self):
        # E[(U1 + U2)^2] on a 16-grid: 2(1/3 - 1/(12*256)) + 1/2
        ld, la = limit_scores(independence(2, 16), (1, 2), 2.0, 1.0)
        assert ld == pytest.approx(7.0 / 6.0 - 1.0 / 1536.0, abs=1e-12)
        # (m + (1-m))^2 = 1 cell by cell, exactly
        assert la == 1.0

    def test_euclidean_limits_match_quadrature(self):
        ld, la = limit_scores(independence(2, 16), (1, 2), 1.0, 2.0)
        # oracle: very fine Riemann sums of the continuum integrals
        g = 4000
        u = (np.arange(g) + 0.5) / g
        diamond_cont = np.add.outer(u**2, u**2) ** 0.5
        assert ld == pytest.approx(float(diamond_cont.mean()), abs=1e-3)
        assert la == pytest.approx(float(np.mean(u * math.sqrt(2.0))), abs=1e-3)
        assert la == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)

    def test_monotone_copulas_on_their_carrier(self):
        ld, la = limit_scores(discretize(comonotone(2), 16), (1, 2), 2.0, 1.0)
        # diamond keeps U1 = U2: E[(2U)^2]; adversary flips: always 1
        assert ld == pytest.approx(4.0 * (1.0 / 3.0 - 1.0 / 3072.0), abs=1e-12)
        assert la == 1.0

    @pytest.mark.parametrize("copula", [comonotone(2), countermonotone()])
    def test_rejects_a_monotone_copula(self, copula):
        with pytest.raises(ValueError, match="discretize monotone copulas first"):
            limit_scores(copula, (1, 2), 2.0, 1.0)

    @pytest.mark.parametrize("p,q", [(3.0, 2.0), (1.0, 3.0), (3.0, 1.5), (1.5, 3.0)])
    @pytest.mark.parametrize(
        "carrier",
        [independence(2, 16), random_copula(np.random.default_rng(5), 2, 6)],
        ids=["independence", "random"],
    )
    def test_scores_are_exact_sums_of_the_midpoint_costs(self, carrier, p, q):
        # Each score is math.fsum of cell mass times the midpoint cost
        # (m_a^q + m_b^q)^(p/q), bit for bit: the diamond's over every cell,
        # the competitor's over the adversary's cells (a, adv[a]) with row mass.
        ld, la = limit_scores(carrier, (1, 2), p, q)
        k = carrier.k
        m = (np.arange(k) + 0.5) / k
        cost = (m[:, None] ** q + m[None, :] ** q) ** (p / q)
        adv = _adversary_index_map(p, q, k)
        masses = carrier.masses
        assert ld.hex() == math.fsum((masses * cost).ravel()).hex()
        assert la.hex() == math.fsum(masses.sum(axis=1) * cost[np.arange(k), adv]).hex()


class TestLimitPotentials:
    @pytest.mark.parametrize("p,q", EXPONENT_PAIRS)
    @pytest.mark.parametrize("k", range(1, 17))
    def test_staircase_potentials_of_the_limit_problem(self, k, p, q):
        # The average of the down-first and the right-first walk is tight on
        # the adversary's cells (a, adv[a]) only: each walk alone is also
        # tight on a neighbouring diagonal, and the strictly Monge L leaves
        # every other cell strictly positive slack.
        adv = _adversary_index_map(p, q, k)
        f, g = limit_potentials(adv, p, q)
        m = (np.arange(k) + 0.5) / k
        limit = (m[:, None] ** q + m[None, :] ** q) ** (p / q)
        slack = limit - f[:, None] - g[None, :]
        on_adversary = np.zeros((k, k), dtype=bool)
        on_adversary[np.arange(k), adv] = True
        assert np.abs(slack[on_adversary]).max() <= 4 * np.spacing(limit.max())
        assert (slack[~on_adversary] > 0).all()


def assert_blocks_match_staircase_walks(skeleton, p, q, epsilon):
    """Reference for ``certificate_potentials`` on an n = 2 skeleton, along the skeleton's own adversary.

    On each block of the cost matrix, rows by the source's j-cell b and
    columns by the target's i-cell c = adv[c'], run both staircase walks one
    cell at a time, average them and centre; the vectorised second level
    must agree up to the rounding of the two summation orders.
    """
    k, adv = len(skeleton.midpoints), skeleton.adversary
    _, g = limit_potentials(adv, p, q)
    source, target = _scaled_sides(skeleton, epsilon)
    cost = transport._cost_matrix(source, target, CostSpec(p, q))
    G = certificate_potentials(skeleton, p, q, epsilon)
    # Both sides hold the law's atoms: cell_i and cell_j index either.
    cell_i, cell_j = skeleton.cells
    cum = [(t + 1) / k for t in range(k)]
    for a in range(k):
        rows = np.flatnonzero(cell_i == a)[np.argsort(cell_j[cell_i == a])]
        in_block = np.flatnonzero(cell_j == adv[a])
        cols = in_block[np.argsort(adv[cell_i[in_block]])]
        block = cost[np.ix_(rows, cols)]
        _, down = transport._staircase_potentials(cum, cum, block.tolist())
        right, _ = transport._staircase_potentials(cum, cum, block.T.tolist())
        h = (down + right) / 2
        h -= h.mean()
        np.testing.assert_allclose(G[cols] - g[adv[a]], h, rtol=0, atol=4 * k * np.spacing(block.max()))


class TestCertificatePotentials:
    @pytest.mark.parametrize("p,q", EXPONENT_PAIRS)
    @pytest.mark.parametrize("k", [2, 5, 8])
    @pytest.mark.parametrize("epsilon", [0.1, 2.0**-16])
    def test_blocks_match_staircase_walks_on_the_cost_matrix(self, k, p, q, epsilon):
        skeleton = pair_skeleton(independence(2, k), p, q, (1, 2))
        assert_blocks_match_staircase_walks(skeleton, p, q, epsilon)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (2.0, 1.0), (1.0, 2.0)])
    @PICKS
    def test_a_control_skeleton_gets_potentials_of_its_own_adversary(self, p, q, pick):
        # Costed at other exponents than it was built at, p = q included, the
        # skeleton keeps its own adversary: both levels read it.
        skeleton = pair_skeleton(independence(2, 4), *pick, (1, 2))
        assert_blocks_match_staircase_walks(skeleton, p, q, 0.1)


class TestGapSearch:
    def test_schedule(self):
        sched = default_schedule()
        assert len(sched) == 16
        assert sched[0] == 0.5
        assert sched[-1] == 0.5 * 2.0**-15

    def test_success_report_structure(self):
        report = gap_search(independence(2, 8), 1.0, 2.0)
        assert report.pair == (1, 2)
        assert report.epsilon == 0.5 * 2.0**-15
        assert report.gap > 0
        assert report.diamond_cost - report.alt_cost == report.gap
        assert len(report.curve) == 16
        assert report.exact_cost is not None
        assert report.exact_cost <= report.alt_cost < report.diamond_cost
        assert report.copula == "checkerboard(n=2, k=8)"
        assert report.caveat == CAVEAT
        accepted = [pt for pt in report.curve if pt.epsilon == report.epsilon]
        assert accepted[0].exact_cost == report.exact_cost

    def test_costs_converge_to_limits_linearly(self):
        report = gap_search(independence(2, 8), 2.0, 1.0)
        for pt in report.curve:
            if pt.epsilon <= 0.25:
                assert abs(pt.diamond_cost - report.limit_diamond) <= 5 * pt.epsilon * (
                    report.limit_diamond + 1.0
                )
                assert abs(pt.alt_cost - report.limit_alt) <= 5 * pt.epsilon * (
                    report.limit_alt + 1.0
                )

    def test_deterministic(self):
        a = gap_search(independence(2, 8), 1.0, 2.0)
        b = gap_search(independence(2, 8), 1.0, 2.0)
        assert a == b

    def test_no_violating_pair(self):
        with pytest.raises(NoViolatingPair):
            gap_search(comonotone(2), 1.0, 2.0)
        with pytest.raises(NoViolatingPair):
            gap_search(countermonotone(), 2.0, 1.0)

    def test_antidiagonal_decided_on_its_carrier(self):
        # its carrier margin is the reversal at every k, whether or not the
        # cell boundaries line up with a 1/17 lattice
        for k in (16, 17):
            with pytest.raises(NoViolatingPair, match="on the carrier"):
                gap_search(discretize(countermonotone(), k), 2.0, 1.0)

    def test_picks_the_pair_with_a_positive_limit_gap(self):
        # pair (1, 2) of this carrier is the reversal; (1, 3) is not
        cop = random_copula(np.random.default_rng(10), 3, 2)
        report = gap_search(cop, 2.0, 1.0, carrier_resolution=2)
        assert report.pair == (1, 3)
        assert report.gap > 0

    def test_schedule_exhausted_when_cut_short(self):
        # the gap at epsilon = 0.5 is still negative for this configuration
        with pytest.raises(ScheduleExhausted) as err:
            gap_search(independence(2, 8), 2.0, 1.0, schedule=[0.5])
        assert len(err.value.curve) == 1
        assert err.value.curve[0].gap < 0

    def test_rejects_a_single_coordinate(self):
        # no pair exists, so this is a usage error, not NoViolatingPair
        for copula in (independence(1, 4), checkerboard(1, 2, [0.5, 0.5])):
            with pytest.raises(ValueError, match="coordinate pair, got n=1") as err:
                gap_search(copula, 2.0, 1.0)
            assert not isinstance(err.value, NoViolatingPair)

    def test_checks_run_once_per_search(self, monkeypatch):
        # The epsilon-free checks live in pair_skeleton, so a longer schedule
        # adds no plan construction, law comparison or plan validation.
        names = ("plan_from_indices", "measures_close", "validate_plan")
        counts = {}
        for name in names:
            def counted(*args, _name=name, _fn=getattr(counterexample, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(counterexample, name, counted)

        per_schedule = []
        for schedule in (default_schedule()[-2:], default_schedule()):
            counts.update(dict.fromkeys(names, 0))
            report = gap_search(independence(2, 8), 1.0, 2.0, schedule=schedule)
            assert len(report.curve) == len(schedule)
            per_schedule.append(dict(counts))
        assert per_schedule[0] == per_schedule[1]
        assert per_schedule[0] == {"plan_from_indices": 2, "measures_close": 1, "validate_plan": 2}

    def test_rejects_equal_exponents_and_bad_schedule(self):
        with pytest.raises(ValueError):
            gap_search(independence(2, 8), 2.0, 2.0)
        with pytest.raises(ValueError):
            gap_search(independence(2, 8), 1.0, 2.0, schedule=[0.5, 1.5])
        with pytest.raises(ValueError):
            gap_search(independence(2, 8), 1.0, 2.0, schedule=[])

    def test_empirical_copula_input(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(16, 2))
        pts[:, 1] += 0.5 * pts[:, 0]  # correlated but not extremal
        sample = make_measure(pts, np.full(16, 1.0))
        cop = empirical_copula(sample, 8)
        report = gap_search(cop, 1.0, 2.0, carrier_resolution=8)
        assert report.gap > 0

    def test_exact_certificate_solves_the_warm_started_assignment(self, monkeypatch):
        # counterexample --p 1 --q 3 --n 3 --k 4: the potentials leave the
        # n = 3 blocks' other coordinates out and certify no permutation, so
        # the solver runs.  It must receive cost - g: a silent return to a
        # cold start keeps every output and only costs time.
        calls = spy_on_assignment(monkeypatch)
        carrier = independence(3, 4)
        report = gap_search(carrier, 1.0, 3.0, carrier_resolution=4)
        cost, g = certificate_problem(report, carrier, 1.0, 3.0)
        ((shifted, _),) = calls
        assert np.ptp(g) > 0
        assert np.array_equal(shifted, cost - g)

    def test_builds_no_certificate_above_the_pair_cap(self, monkeypatch):
        # 64 atoms a side: 4096 pairs.  Above the cap exact_ot would only
        # raise, so neither it nor the potentials run.
        built = []
        for name in ("certificate_potentials", "exact_ot"):
            def counted(*args, _name=name, _fn=getattr(counterexample, name), **kwargs):
                built.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(counterexample, name, counted)
        report = gap_search(independence(2, 8), 2.0, 1.0, pair_cap=4095)
        assert report.exact_cost is None and built == []
        report = gap_search(independence(2, 8), 2.0, 1.0, pair_cap=4096)
        assert report.exact_cost is not None
        assert built == ["certificate_potentials", "exact_ot"]

    @pytest.mark.parametrize("p,q", EXPONENT_PAIRS)
    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_potentials_give_the_assignment(self, monkeypatch, k, p, q):
        # On independence(2, k) the two-level potentials are strictly
        # complementary: each row's cheapest column of cost - G is its
        # optimal column, so the certificate reads the permutation off them
        # and no solver runs.
        solver_calls = spy_on_assignment(monkeypatch)
        exact_calls = spy_on_exact(monkeypatch)
        carrier = independence(2, k)
        report = gap_search(carrier, p, q, carrier_resolution=k)
        cost, g = certificate_problem(report, carrier, p, q)
        ((used, plan),) = exact_calls
        assert solver_calls == []
        assert np.array_equal(used, g)
        assert_certified(cost, g, assignment_columns(plan))

    def test_certificate_cost_matrix_is_one_buffer(self):
        # The k = 16 certificate at (2, 1) on its N = 256 scaled grid atoms
        # a side: the N x N cost matrix is spread from per-axis tables into
        # one fresh buffer and cost - g is formed in it, so the solve's
        # traced peak stays below one and a half such buffers.
        p, q = 2.0, 1.0
        carrier = independence(2, 16)
        report = gap_search(carrier, p, q)
        skeleton = pair_skeleton(carrier, p, q, report.pair)
        built = construction_at(skeleton, report.epsilon)
        g = certificate_potentials(skeleton, p, q, report.epsilon)
        size = len(skeleton.law) ** 2 * 8
        tracemalloc.start()
        try:
            result = exact_ot(built.mu, built.rho, CostSpec(p, q), col_potentials=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.value == report.exact_cost
        assert size <= peak < 1.5 * size

    def test_warm_permutation_is_no_worse_in_exact_arithmetic(self, monkeypatch):
        # counterexample --p 1 --q 3 --n 3 --k 4: the cold solve returned a
        # permutation whose exact cost sum, over the float cost matrix, is
        # above the warm one's.  Here the potentials certify nothing and the
        # warm-started solver chooses the permutation.
        solver_calls = spy_on_assignment(monkeypatch)
        exact_calls = spy_on_exact(monkeypatch)
        carrier = independence(3, 4)
        report = gap_search(carrier, 1.0, 3.0, carrier_resolution=4)
        cost, _ = certificate_problem(report, carrier, 1.0, 3.0)
        ((_, plan),) = exact_calls
        ((_, solved),) = solver_calls
        warm = assignment_columns(plan)
        assert np.array_equal(warm, solved)
        assert_warm_no_worse_than_cold(cost, warm)

    @pytest.mark.parametrize("p,q", EXPONENT_PAIRS)
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("n", [2, 3])
    def test_warm_permutation_is_no_worse_on_random_carriers(self, monkeypatch, n, k, p, q):
        # Every seeded random carrier among the first 40 whose certificate
        # takes the assignment path, that is whose cells all weigh the same.
        # A search either certifies its permutation with no solver, or hands
        # cost - g to the solver and takes its columns; either way the
        # permutation's exact cost is no worse than the cold solve's.
        solver_calls = spy_on_assignment(monkeypatch)
        exact_calls = spy_on_exact(monkeypatch)
        solved = 0
        for seed in range(40):
            carrier = random_copula(np.random.default_rng([seed, n, k]), n, k)
            solver_calls.clear()
            exact_calls.clear()
            try:
                report = gap_search(carrier, p, q, carrier_resolution=k)
            except NoViolatingPair:
                continue
            ((g, plan),) = exact_calls
            cost, potentials = certificate_problem(report, carrier, p, q)
            assert np.array_equal(g, potentials)
            weights = pair_skeleton(carrier, p, q, report.pair).law.weights
            if not (weights == weights[0]).all():
                # exact_ot sends unequal weights to the LP, which ignores g.
                assert solver_calls == []
                continue
            warm = assignment_columns(plan)
            if solver_calls:
                ((shifted, cols),) = solver_calls
                assert np.array_equal(shifted, cost - g)
                assert np.array_equal(warm, cols)
            else:
                assert_certified(cost, g, warm)
            assert_warm_no_worse_than_cold(cost, warm)
            solved += 1
        assert solved >= 5

    def test_report_serialization(self):
        report = gap_search(independence(2, 8), 1.0, 2.0)
        obj = report_to_dict(report)
        assert set(obj) == {
            "p", "q", "copula", "pair", "epsilon", "diamond_cost", "alt_cost",
            "exact_cost", "gap", "limit_diamond", "limit_alt", "caveat",
        }
        assert obj["pair"] == [1, 2]
        assert obj["gap"] == report.gap
