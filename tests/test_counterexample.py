import math
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


def certificate_problem(report, carrier, p, q):
    """The cost matrix of the report's exact certificate and the limit potentials of its target atoms."""
    skeleton = pair_skeleton(carrier, p, q, report.pair)
    source, target = _scaled_sides(skeleton, report.epsilon)
    cost = transport._cost_matrix(source, target, CostSpec(p, q))
    _, g = limit_potentials(carrier.k, p, q)
    return cost, g[skeleton.cells[report.pair[1] - 1]]


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
        with pytest.raises(RuntimeError, match="rewired target law"):
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
        carrier = independence(2, 8)
        spec = CostSpec(2.0, 2.0)
        for eps in (0.5, 0.25, 0.125):
            built = construction_at(pair_skeleton(carrier, 2.0, 2.0, (1, 2), adversary=comonotone(2)), eps)
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
    @pytest.mark.parametrize("adversary", [comonotone(2), countermonotone()])
    def test_plans_equal_the_point_built_plans(self, carrier, pair, adversary):
        # The rows built once on the unscaled midpoints are, at every epsilon,
        # the canonical plan of the scaled points, array for array.
        skeleton = pair_skeleton(carrier, 2.0, 1.0, pair, adversary=adversary)
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
        costs = counterexample._cost_sweep(skeleton, CostSpec(2.0, 1.0))
        with pytest.raises(ValueError, match=r"epsilon=5e-324 is too small"):
            costs(5e-324)


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
            # From 8 columns on the sweep gathers into row-major distances.
            (independence(8, 2), (1, 2)),
            (random_copula(np.random.default_rng(5), 8, 2), (3, 7)),
        ],
    )
    # q = 1.5 has no numpy fast path: the tables and plan_cost raise
    # different arrays to it.
    @pytest.mark.parametrize("p, q", [(2.0, 1.0), (1.0, 2.0), (3.0, 2.0), (1.5, 1.0), (1.0, 1.5)])
    def test_costs_equal_plan_cost_of_the_built_plans(self, carrier, pair, p, q):
        # Bit for bit, at every epsilon: the sweep gathers per-coordinate
        # distance tables, the reference plans sit on the scaled atoms and
        # plan_cost subtracts the rows' points.
        spec = CostSpec(p, q)
        skeleton = pair_skeleton(carrier, p, q, pair)
        costs = counterexample._cost_sweep(skeleton, spec)
        for eps in default_schedule():
            built = construction_at(skeleton, eps)
            expected = (plan_cost(built.diamond_plan, spec), plan_cost(built.alt_plan, spec))
            assert costs(eps) == expected, eps
            assert expected == (
                fsum_plan_cost(built.diamond_plan, spec),
                fsum_plan_cost(built.alt_plan, spec),
            ), eps

    @pytest.mark.parametrize("p, q", [(2.0, 1.0), (1.0, 2.0)])
    def test_gap_sweep_plans_need_no_fsum_fallback(self, monkeypatch, p, q):
        # exact_sum's fallback is an fsum call of the whole row array and a
        # second level an fsum call of the level sums.  Every row-cost sum of
        # the sweep is decided after its first level, with no fsum call: each
        # total sits at least 10**4 error bounds away from a rounding midpoint.
        spec = CostSpec(p, q)
        costs = counterexample._cost_sweep(pair_skeleton(independence(2, 48), p, q, (1, 2)), spec)
        lengths = fsum_lengths(monkeypatch)
        for eps in default_schedule():
            costs(eps)
        assert lengths == []

    def test_epsilon_that_merges_atoms_is_named(self):
        with pytest.raises(ValueError, match=r"epsilon=5e-324 is too small"):
            gap_search(independence(2, 4), 2.0, 1.0, carrier_resolution=4, schedule=[0.5, 5e-324])

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
        costs = counterexample._cost_sweep(skeleton, spec)
        monkeypatch.setattr(counterexample, "_check_atoms", counted)
        costs(0.5)
        assert checked == []
        got = costs(3e-323)
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

    def test_adversary_override(self):
        ld_default, la_flip = limit_scores(independence(2, 8), (1, 2), 2.0, 1.0)
        ld2, la_keep = limit_scores(
            independence(2, 8), (1, 2), 2.0, 1.0, adversary=comonotone(2)
        )
        assert ld_default == ld2
        assert la_keep != la_flip


class TestLimitPotentials:
    @pytest.mark.parametrize("p,q", [(2.0, 1.0), (1.0, 2.0), (3.0, 1.5), (1.0, 3.0)])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_staircase_potentials_of_the_limit_problem(self, k, p, q):
        adv = _adversary_index_map(adversary_copula(p, q), k)
        f, g = limit_potentials(k, p, q)
        m = (np.arange(k) + 0.5) / k
        limit = (m[:, None] ** q + m[None, :] ** q) ** (p / q)
        # Tight on the staircase through the adversary's cells (a, adv[a])
        # and (a + 1, adv[a]): each potential is its cell's cost minus the
        # other side's, as the walk computes it.
        assert f[0] == 0.0 and g[adv[0]] == limit[0, adv[0]]
        for a in range(1, k):
            assert f[a] == limit[a, adv[a - 1]] - g[adv[a - 1]]
            assert g[adv[a]] == limit[a, adv[a]] - f[a]
        slack = limit - f[:, None] - g[None, :]
        assert slack.min() >= -1e-15 * limit.max()


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
        # The solver must receive cost - g: a silent return to a cold start
        # keeps every output and only costs time, so this test catches it.
        calls = spy_on_assignment(monkeypatch)
        carrier = independence(2, 8)
        report = gap_search(carrier, 2.0, 1.0)
        cost, g = certificate_problem(report, carrier, 2.0, 1.0)
        ((shifted, _),) = calls
        assert np.ptp(g) > 0
        assert np.array_equal(shifted, cost - g)

    def test_warm_permutation_is_no_worse_in_exact_arithmetic(self, monkeypatch):
        # counterexample --p 1 --q 3 --n 3 --k 4: the cold solve returned a
        # permutation whose exact cost sum, over the float cost matrix, is
        # above the warm one's.
        calls = spy_on_assignment(monkeypatch)
        carrier = independence(3, 4)
        report = gap_search(carrier, 1.0, 3.0, carrier_resolution=4)
        cost, _ = certificate_problem(report, carrier, 1.0, 3.0)
        ((_, warm),) = calls
        _, cold = linear_sum_assignment(cost)
        rows = np.arange(len(cost))

        def exact_sum(cols):
            return sum(map(Fraction, cost[rows, cols].tolist()))

        assert exact_sum(warm) <= exact_sum(cold)

    def test_report_serialization(self):
        report = gap_search(independence(2, 8), 1.0, 2.0)
        obj = report_to_dict(report)
        assert set(obj) == {
            "p", "q", "copula", "pair", "epsilon", "diamond_cost", "alt_cost",
            "exact_cost", "gap", "limit_diamond", "limit_alt", "caveat",
        }
        assert obj["pair"] == [1, 2]
        assert obj["gap"] == report.gap
