import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copula_ot.copulas import (
    CHECKERBOARD,
    Copula,
    bivariate_margin,
    checkerboard,
    comonotone,
    copula_from_dict,
    copula_to_dict,
    countermonotone,
    discretize,
    independence,
    sklar_compose,
)
from copula_ot.instances import random_copula, random_marginal
from copula_ot.measures import make_measure, make_measure_1d, measures_close

from helpers import (
    copula_cdf,
    dicts_close,
    empirical_copula,
    frechet_check,
    frechet_lower,
    frechet_upper,
    grid_pushforward,
    measure_as_dict,
)


def small_checkerboards():
    """Random permutation-mixture checkerboards, n=2, k<=4."""
    return st.builds(
        lambda seed, k: random_copula(np.random.default_rng(seed), 2, k),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=4),
    )


class TestConstructors:
    def test_single_cell(self):
        c = checkerboard(2, 1, [1.0])
        assert c.masses.shape == (1, 1)
        assert copula_cdf(c, (0.5, 0.5)) == 0.25

    def test_one_dimensional_carrier_allowed(self):
        c = checkerboard(1, 2, [0.5, 0.5])
        assert copula_cdf(c, (0.75,)) == 0.75

    def test_flat_input_reshaped_row_major(self):
        c = checkerboard(2, 2, [0.5, 0.0, 0.0, 0.5])
        assert c.masses[0, 0] == 0.5 and c.masses[1, 1] == 0.5

    def test_rejects_bad_slice_sums(self):
        with pytest.raises(ValueError, match="slice sums"):
            checkerboard(2, 2, [[0.5, 0.0], [0.5, 0.0]])

    def test_rejects_negative_and_wrong_size(self):
        with pytest.raises(ValueError, match="nonnegative"):
            checkerboard(2, 2, [[0.6, -0.1], [-0.1, 0.6]])
        with pytest.raises(ValueError, match="cell masses"):
            checkerboard(2, 2, [0.25] * 3)

    def test_independence_masses(self):
        c = independence(3, 2)
        assert np.all(c.masses == 0.125)

    def test_comonotone_needs_two_dims(self):
        with pytest.raises(ValueError):
            comonotone(1)

    def test_tensor_is_read_only(self):
        c = independence(2, 2)
        with pytest.raises(ValueError):
            c.masses[0, 0] = 1.0

    def test_describe(self):
        assert independence(2, 4).describe() == "checkerboard(n=2, k=4)"
        assert comonotone(3).describe() == "comonotone(n=3)"
        assert countermonotone().describe() == "countermonotone(n=2)"


class TestCdf:
    def test_independence_frozen(self):
        # product copula: C(u) = u1 * u2
        assert copula_cdf(independence(2, 2), (0.75, 0.5)) == 0.375

    def test_independence_matches_grid_oracle(self):
        c = independence(2, 4)
        u = (0.75, 0.5)
        # brute Riemann sum on a fine aligned grid: count density mass in the box
        g = 400
        mids = (np.arange(g) + 0.5) / g
        inside = 0.0
        for a in mids[mids < u[0]]:
            for b in mids[mids < u[1]]:
                cells = (min(int(a * 4), 3), min(int(b * 4), 3))
                inside += c.masses[cells] * 16 / g**2
        assert abs(copula_cdf(c, u) - inside) < 5e-3
        assert copula_cdf(c, u) == 0.375

    def test_monotone_frozen(self):
        assert copula_cdf(comonotone(2), (0.3, 0.7)) == 0.3
        assert copula_cdf(countermonotone(), (0.3, 0.7)) == 0.0
        assert copula_cdf(countermonotone(), (0.8, 0.9)) == pytest.approx(0.7, abs=1e-15)

    def test_boundary_values(self):
        for c in (independence(2, 3), comonotone(2), countermonotone()):
            assert copula_cdf(c, (0.0, 0.7)) == 0.0
            assert copula_cdf(c, (1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_outside_unit_cube(self):
        with pytest.raises(ValueError):
            copula_cdf(independence(2, 2), (0.5, 1.5))
        with pytest.raises(ValueError):
            copula_cdf(independence(2, 2), (0.5,))

    @given(small_checkerboards(), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=60)
    def test_monotone_in_each_argument(self, c, u, v, w):
        lo, hi = sorted((u, v))
        assert copula_cdf(c, (lo, w)) <= copula_cdf(c, (hi, w)) + 1e-12
        assert copula_cdf(c, (w, lo)) <= copula_cdf(c, (w, hi)) + 1e-12

    @given(small_checkerboards())
    @settings(max_examples=40)
    def test_uniform_margins_via_cdf(self, c):
        for u in (0.25, 0.5, 0.8):
            assert copula_cdf(c, (u, 1.0)) == pytest.approx(u, abs=1e-9)
            assert copula_cdf(c, (1.0, u)) == pytest.approx(u, abs=1e-9)


class TestFrechet:
    def test_constructed_copulas_pass(self):
        for c in (
            independence(2, 1),
            independence(3, 4),
            comonotone(2),
            comonotone(4),
            countermonotone(),
            random_copula(np.random.default_rng(7), 3, 3),
        ):
            assert frechet_check(c, 9)

    def test_corrupted_tensor_fails(self):
        # bypass the factory: column sums are broken, cdf exceeds min(u)
        bad = Copula(
            variant=CHECKERBOARD,
            n=2,
            k=2,
            masses=np.array([[0.5, 0.0], [0.5, 0.0]]),
        )
        assert not frechet_check(bad, 9)

    def test_bounds_helpers(self):
        assert frechet_lower((0.3, 0.4)) == 0.0
        assert frechet_lower((0.8, 0.9)) == pytest.approx(0.7, abs=1e-15)
        assert frechet_upper((0.3, 0.4)) == 0.3
        assert frechet_lower((0.9, 0.9, 0.9)) == pytest.approx(0.7, abs=1e-15)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            frechet_check(independence(2, 2), 0)


class TestBivariateMargin:
    def test_checkerboard_margin_frozen(self):
        diag = checkerboard(3, 2, np.array([
            [[0.5, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.5]],
        ]))
        m23 = bivariate_margin(diag, 2, 3)
        assert np.array_equal(m23.masses, [[0.5, 0.0], [0.0, 0.5]])

    def test_margin_of_monotone(self):
        assert bivariate_margin(comonotone(3), 1, 3).variant == "comonotone"
        assert bivariate_margin(countermonotone(), 1, 2).variant == "countermonotone"

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            bivariate_margin(independence(3, 2), 2, 2)
        with pytest.raises(ValueError):
            bivariate_margin(independence(3, 2), 1, 4)

    @given(st.integers(0, 1000))
    @settings(max_examples=25)
    def test_margin_cdf_consistency(self, seed):
        c = random_copula(np.random.default_rng(seed), 3, 3)
        m = bivariate_margin(c, 1, 3)
        for u, v in ((0.2, 0.7), (0.5, 0.5), (0.9, 0.1)):
            assert copula_cdf(m, (u, v)) == pytest.approx(
                copula_cdf(c, (u, 1.0, v)), abs=1e-12
            )


class TestEmpirical:
    def test_two_point_diagonal(self):
        sample = make_measure([[0, 0], [1, 1]], [0.5, 0.5])
        c = empirical_copula(sample, 2)
        assert np.array_equal(c.masses, [[0.5, 0.0], [0.0, 0.5]])

    def test_two_point_antidiagonal(self):
        sample = make_measure([[0, 1], [1, 0]], [0.5, 0.5])
        c = empirical_copula(sample, 2)
        assert np.array_equal(c.masses, [[0.0, 0.5], [0.5, 0.0]])

    def test_four_points_vs_rank_oracle(self):
        pts = np.array([[0.3, 5.0], [-1.0, 2.0], [2.5, -7.0], [1.0, 9.0]])
        sample = make_measure(pts, [1, 1, 1, 1])
        k = 2
        c = empirical_copula(sample, k)
        # oracle: ordinal ranks by scipy, pseudo-observations, midpoint bins
        from scipy.stats import rankdata

        tensor = np.zeros((k, k))
        cols = [rankdata(pts[:, d], method="ordinal") - 1 for d in range(2)]
        for t in range(4):
            cell = tuple(int((cols[d][t] + 0.5) * k / 4) for d in range(2))
            tensor[cell] += 0.25
        assert np.array_equal(c.masses, tensor)

    def test_rejects_ties_unequal_weights_bad_k(self):
        tied = make_measure([[0, 0], [0, 1]], [0.5, 0.5])
        with pytest.raises(ValueError, match="ties"):
            empirical_copula(tied, 2)
        uneven = make_measure([[0, 0], [1, 1]], [0.25, 0.75])
        with pytest.raises(ValueError, match="1/N"):
            empirical_copula(uneven, 2)
        ok = make_measure([[0, 0], [1, 1], [2, 2]], [1, 1, 1])
        with pytest.raises(ValueError, match="divide"):
            empirical_copula(ok, 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_invariant_under_increasing_affine_maps(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(8, 2))
        sample = make_measure(pts, np.full(8, 1.0))
        mapped = sample.map_coordinates([(2.5, -1.0), (0.25, 7.0)])
        a = empirical_copula(sample, 4)
        b = empirical_copula(mapped, 4)
        assert np.array_equal(a.masses, b.masses)


class TestSklar:
    def test_countermonotone_frozen(self):
        u01 = make_measure_1d([0, 1], [1, 1])
        joint = sklar_compose(countermonotone(), [u01, u01])
        assert joint.atoms.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert joint.weights.tolist() == [0.5, 0.5]

    def test_comonotone_frozen(self):
        u01 = make_measure_1d([0, 1], [1, 1])
        quarters = make_measure_1d([5, 6], [1, 3])
        joint = sklar_compose(comonotone(2), [u01, quarters])
        assert measure_as_dict(joint) == {
            (0.0, 5.0): 0.25,
            (0.0, 6.0): 0.25,
            (1.0, 6.0): 0.5,
        }

    def test_independence_product(self):
        a = make_measure_1d([0, 1], [1, 3])
        b = make_measure_1d([10, 20], [1, 1])
        joint = sklar_compose(independence(2, 1), [a, b])
        assert measure_as_dict(joint) == {
            (0.0, 10.0): 0.125,
            (0.0, 20.0): 0.125,
            (1.0, 10.0): 0.375,
            (1.0, 20.0): 0.375,
        }

    def test_matches_grid_oracle_exactly(self):
        # g = 8 is a common multiple of k = 2 and the dyadic jump points,
        # so the brute grid oracle is exact here
        c = checkerboard(2, 2, [[0.375, 0.125], [0.125, 0.375]])
        m1 = make_measure_1d([-1, 0, 2], [1, 2, 1])
        m2 = make_measure_1d([0, 5], [3, 1])
        joint = sklar_compose(c, [m1, m2])
        oracle: dict = {}
        for key, w in grid_pushforward(c, [[m1, m2]], 8).items():
            oracle[key[0]] = oracle.get(key[0], 0.0) + w
        assert dicts_close(measure_as_dict(joint), oracle, 1e-14)

    def test_monotone_grid_oracle(self):
        m1 = make_measure_1d([-1, 0, 2], [1, 2, 1])
        m2 = make_measure_1d([0, 5], [3, 1])
        for cop in (comonotone(2), countermonotone()):
            joint = sklar_compose(cop, [m1, m2])
            oracle: dict = {}
            for key, w in grid_pushforward(cop, [[m1, m2]], 16).items():
                oracle[key[0]] = oracle.get(key[0], 0.0) + w
            assert dicts_close(measure_as_dict(joint), oracle, 1e-14)

    def test_marginals_recovered(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            for _ in range(8):
                c = random_copula(rng, n, int(rng.integers(1, 5)))
                marginals = [random_marginal(rng) for _ in range(n)]
                joint = sklar_compose(c, marginals)
                for i in range(1, n + 1):
                    assert measures_close(joint.marginal(i), marginals[i - 1], 1e-12)

    def test_wrong_marginal_count(self):
        with pytest.raises(ValueError):
            sklar_compose(independence(2, 2), [make_measure_1d([0], [1])])

    def test_single_atom_marginals(self):
        point = make_measure_1d([3], [1])
        joint = sklar_compose(independence(2, 4), [point, point])
        assert joint.atoms.tolist() == [[3.0, 3.0]]
        assert joint.weights.tolist() == [1.0]


class TestGridAndDiscretize:
    def test_discretize_monotone(self):
        diag = discretize(comonotone(2), 4)
        assert diag.variant == CHECKERBOARD
        assert np.array_equal(np.diag(diag.masses), np.full(4, 0.25))
        anti = discretize(countermonotone(), 4)
        assert np.array_equal(np.diag(np.fliplr(anti.masses)), np.full(4, 0.25))

    def test_discretize_checkerboard_passthrough(self):
        c = independence(2, 3)
        assert discretize(c, 16) is c

    def test_discretized_comonotone_strictly_below_upper_bound(self):
        # a diagonal cell only contributes overlap^2, so at fractional
        # overlap theta the carrier sits theta(1-theta)/k below min(u);
        # violation searches read the carrier's cell masses, never its CDF,
        # so this dip cannot make a pair look violating
        c = discretize(comonotone(2), 4)
        u = (0.375, 0.375)
        theta = 0.375 * 4 - 1
        assert copula_cdf(c, u) < frechet_upper(u)
        assert frechet_upper(u) - copula_cdf(c, u) == pytest.approx(
            theta * (1 - theta) / 4, abs=1e-12
        )


class TestSerialization:
    def test_checkerboard_roundtrip_row_major(self):
        c = random_copula(np.random.default_rng(5), 2, 3)
        obj = copula_to_dict(c)
        assert obj["variant"] == "checkerboard"
        assert obj["masses"] == list(c.masses.ravel(order="C"))
        again = copula_from_dict(obj)
        assert np.array_equal(again.masses, c.masses)

    def test_monotone_roundtrip(self):
        assert copula_from_dict(copula_to_dict(comonotone(3))).n == 3
        assert copula_from_dict(copula_to_dict(countermonotone())).variant == "countermonotone"

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"variant": "gaussian"},
            {"variant": "checkerboard", "n": 2, "k": 2},
            {"variant": "comonotone"},
            {"variant": "countermonotone", "n": 3},
            {"variant": "checkerboard", "n": 2, "k": 2, "masses": [1, 0, 0]},
            # n and k must be integral JSON numbers, masses a list of numbers
            {"variant": "checkerboard", "n": [2], "k": 1, "masses": [1.0]},
            {"variant": "checkerboard", "n": 2, "k": 2.5, "masses": [0.25] * 4},
            {"variant": "checkerboard", "n": True, "k": 1, "masses": [1.0]},
            {"variant": "checkerboard", "n": 1, "k": 1, "masses": {"a": 1}},
            {"variant": "checkerboard", "n": 1, "k": 1, "masses": [{"a": 1}]},
            {"variant": "comonotone", "n": None},
            {"variant": "comonotone", "n": 2.7},
            {"variant": "comonotone", "n": float("inf")},
            {"variant": "countermonotone", "n": "2"},
        ],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            copula_from_dict(obj)

    def test_integral_floats_are_read_as_integers(self):
        assert copula_from_dict({"variant": "comonotone", "n": 3.0}).n == 3
        c = copula_from_dict({"variant": "checkerboard", "n": 2.0, "k": 1.0, "masses": [1.0]})
        assert (c.n, c.k) == (2, 1)
        assert copula_from_dict({"variant": "countermonotone", "n": 2.0}).n == 2
