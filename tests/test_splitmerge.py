import math

import numpy as np
import pytest
from scipy import integrate

from pdlab import (
    EXP_NEG_P1,
    P1,
    P1_P2,
    P1_PLUS_P2,
    P1_SQUARED,
    Configuration,
    CylinderFunction,
    OrderedPartition,
    SeededRng,
    WeightFamily,
    cutoff_generator_apply,
    discrete_generator_apply,
    generator_apply,
    lift_merge,
    lift_split,
    lift_split_append,
    merge,
    norms,
    reversibility_defect,
    rn_derivative_check,
    simulate,
    split,
    stick_breaking,
    time_averaged_l2,
)


def slow_discrete_apply(theta, N, eps, p: OrderedPartition, f) -> float:
    """Direct translation of the lattice generator via the partition ops."""
    arr = list(p.masses)
    base = f(p)
    tol = 1e-9
    total_merge = 0.0
    for i in range(len(arr)):
        for j in range(len(arr)):
            if i == j:
                continue
            if arr[i] >= eps - tol and arr[j] >= eps - tol:
                total_merge += arr[i] * arr[j] * (f(merge(p, i + 1, j + 1)) - base)
    total_split = 0.0
    for i in range(len(arr)):
        if arr[i] >= 2 * eps - tol:
            c = round(arr[i] * N)
            klo = max(1, math.ceil(eps * N - tol))
            khi = min(c - 1, math.floor(c - eps * N + tol))
            for k in range(klo, khi + 1):
                u = k / (N * arr[i])
                total_split += arr[i] * (f(split(p, i + 1, u)) - base)
    return N / (N - 1) * total_merge + theta / (N - 1) * total_split


class TestCylinderFunctions:
    def test_library_values(self):
        p = OrderedPartition.from_masses([0.5, 0.3, 0.2])
        assert P1(p) == 0.5
        assert P1_SQUARED(p) == 0.25
        assert P1_P2(p) == pytest.approx(0.15)
        assert P1_PLUS_P2(p) == pytest.approx(0.8)
        assert EXP_NEG_P1(p) == pytest.approx(math.exp(-0.5))

    def test_bounded_on_short_partitions(self):
        p = OrderedPartition.from_masses([0.4])
        assert P1_P2(p) == 0.0

    def test_depends_on(self):
        assert P1.depends_on == 1
        assert P1_P2.depends_on == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CylinderFunction.monomial({0: 1})


class TestMergeSplit:
    def test_merge_two_halves(self):
        p = OrderedPartition.from_masses([0.5, 0.5])
        assert merge(p, 1, 2).masses == (1.0,)

    def test_merge_reorders(self):
        p = OrderedPartition.from_masses([0.5, 0.3, 0.2])
        assert merge(p, 2, 3).masses == (0.5, 0.5)

    def test_merge_norm_algebra(self):
        p = OrderedPartition.from_masses([0.4, 0.3, 0.2])
        q = merge(p, 1, 3)
        assert q.total == pytest.approx(p.total, abs=1e-12)
        assert norms(q, 2) - norms(p, 2) == pytest.approx(2 * 0.4 * 0.2, abs=1e-12)

    def test_split_even_and_uneven(self):
        one = OrderedPartition.from_masses([1.0])
        assert split(one, 1, 0.5).masses == (0.5, 0.5)
        assert split(one, 1, 0.3).masses == pytest.approx((0.7, 0.3))

    def test_split_then_merge_identity(self):
        p = OrderedPartition.from_masses([0.6, 0.4])
        q = split(p, 1, 0.25)
        # pieces 0.45 and 0.15 sit at ranks 1 and 3
        back = merge(q, 1, 3)
        assert back.masses == pytest.approx(p.masses, abs=1e-12)

    def test_validation(self):
        p = OrderedPartition.from_masses([0.5, 0.5])
        with pytest.raises(ValueError):
            merge(p, 1, 1)
        with pytest.raises(ValueError):
            merge(p, 1, 3)
        with pytest.raises(ValueError):
            split(p, 1, 0.0)
        with pytest.raises(ValueError):
            split(p, 3, 0.5)


class TestGeneratorApply:
    def test_one_block_square_closed_value(self):
        one = OrderedPartition.from_masses([1.0])
        for theta in (0.3, 1.0, 2.5):
            got = generator_apply(theta, one, P1_SQUARED)
            assert got == pytest.approx(-5 * theta / 12, abs=1e-12)

    def test_two_halves_first_coordinate(self):
        p = OrderedPartition.from_masses([0.5, 0.5])
        for theta in (0.0, 0.7):
            assert generator_apply(theta, p, P1) == pytest.approx(0.25, abs=1e-12)

    def test_theta_zero_single_block(self):
        one = OrderedPartition.from_masses([1.0])
        assert generator_apply(0.0, one, P1) == 0.0

    def test_quadrature_matches_closed_form(self):
        one = OrderedPartition.from_masses([1.0])
        for f in (P1, P1_SQUARED):
            for theta in (0.5, 1.0):
                quad = generator_apply(theta, one, f, split_method="quadrature")
                closed = generator_apply(theta, one, f, split_method="closed_form")
                assert abs(quad - closed) < 1e-10

    def test_quadrature_against_adaptive_integration(self):
        # independent oracle: scipy adaptive quadrature of the split integrand
        p = OrderedPartition.from_masses([0.45, 0.35, 0.2])
        theta = 0.8
        f = EXP_NEG_P1

        def split_integrand(u, i):
            return f(split(p, i + 1, u))

        base = f(p)
        split_term = 0.0
        for i, v in enumerate(p.masses):
            val, err = integrate.quad(split_integrand, 0, 1, args=(i,), limit=200)
            assert err < 1e-7
            split_term += v * v * (val - base)
        merge_term = sum(
            p.masses[i] * p.masses[j] * (f(merge(p, i + 1, j + 1)) - base)
            for i in range(3)
            for j in range(3)
            if i != j
        )
        expected = merge_term + theta * split_term
        assert generator_apply(theta, p, f) == pytest.approx(expected, abs=1e-7)

    def test_closed_form_needs_one_block(self):
        p = OrderedPartition.from_masses([0.5, 0.5])
        with pytest.raises(ValueError):
            generator_apply(1.0, p, P1, split_method="closed_form")


class TestCutoffGenerator:
    def test_large_cutoff_kills_everything(self):
        p = OrderedPartition.from_masses([0.3, 0.3, 0.2])
        assert cutoff_generator_apply(1.0, 0.4, p, P1) == 0.0

    def test_converges_to_full_generator(self):
        p = OrderedPartition.from_masses([0.6, 0.4])
        full = generator_apply(1.0, p, P1_SQUARED)
        devs = [
            abs(cutoff_generator_apply(1.0, eps, p, P1_SQUARED) - full)
            for eps in (0.1, 0.01, 0.001)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 1e-2

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 2.3])
    def test_zero_cutoff_is_the_full_generator(self, theta):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = OrderedPartition.from_masses(rng.dirichlet(np.ones(4))[:3])
            for f in (P1, P1_SQUARED, P1_P2, P1_PLUS_P2, EXP_NEG_P1):
                assert cutoff_generator_apply(theta, 0.0, p, f) == generator_apply(theta, p, f)

    def test_negative_cutoff_rejected(self):
        p = OrderedPartition.from_masses([0.6, 0.4])
        with pytest.raises(ValueError, match="nonnegative"):
            cutoff_generator_apply(1.0, -0.1, p, P1)


class TestDiscreteGenerator:
    def test_all_blocks_below_cutoff(self):
        p = OrderedPartition.from_masses([0.1] * 4)
        assert discrete_generator_apply(1.0, 40, 0.2, p, P1) == 0.0

    def test_single_block_enumeration(self):
        # N=4, eps=0.25, p=(1): splits at k in {1,2,3}
        one = OrderedPartition.from_masses([1.0])
        for theta in (0.9, 2.0):
            got = discrete_generator_apply(theta, 4, 0.25, one, P1)
            expected = (theta / 3) * ((0.75 - 1) + (0.5 - 1) + (0.75 - 1))
            assert got == pytest.approx(expected, abs=1e-12)
            got_sq = discrete_generator_apply(theta, 4, 0.25, one, P1_SQUARED)
            expected_sq = (theta / 3) * ((0.5625 - 1) + (0.25 - 1) + (0.5625 - 1))
            assert got_sq == pytest.approx(expected_sq, abs=1e-12)

    def test_non_lattice_rejected(self):
        p = OrderedPartition.from_masses([0.55, 0.45])
        with pytest.raises(ValueError, match="multiples"):
            discrete_generator_apply(1.0, 7, 0.1, p, P1)

    def test_matches_slow_path(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            N = int(rng.integers(6, 40))
            L = int(rng.integers(2, 6))
            cuts = np.sort(rng.choice(np.arange(1, N), size=L - 1, replace=False))
            parts = np.diff(np.concatenate(([0], cuts, [N])))
            p = OrderedPartition.from_masses(parts / N)
            eps = float(rng.uniform(0.02, 0.3))
            theta = float(rng.uniform(0.1, 2.0))
            for f in (P1, P1_P2, EXP_NEG_P1):
                fast = discrete_generator_apply(theta, N, eps, p, f)
                slow = slow_discrete_apply(theta, N, eps, p, f)
                assert fast == pytest.approx(slow, abs=1e-11)

    def test_one_over_N_convergence_to_cutoff_generator(self):
        p = OrderedPartition.from_masses([0.6, 0.4])
        eps = 0.1
        limit = cutoff_generator_apply(1.0, eps, p, P1_SQUARED, quadrature_nodes=96)
        devs = []
        for N in (100, 1000, 10_000):
            devs.append(abs(discrete_generator_apply(1.0, N, eps, p, P1_SQUARED) - limit))
        assert devs[0] > devs[1] > devs[2]
        # one extra decade of N buys roughly a decade of accuracy
        assert 4 < devs[0] / devs[1] < 25
        assert 4 < devs[1] / devs[2] < 25


class TestSimulate:
    def test_theta_zero_absorbs(self):
        p0 = OrderedPartition.from_masses([0.4, 0.3, 0.2, 0.1])
        states = simulate(0.0, p0, 50.0, SeededRng(1), sample_times=[50.0])
        assert len(states[-1].partition) == 1
        assert states[-1].partition.total == pytest.approx(1.0, abs=1e-12)
        assert states[-1].splits == 0

    def test_mass_conserved_along_trajectory(self):
        p0 = OrderedPartition.from_masses([0.7, 0.3])
        states = simulate(1.0, p0, 20.0, SeededRng(2), sample_times=np.linspace(1, 20, 20))
        for st in states:
            assert st.partition.total == pytest.approx(1.0, abs=1e-12)

    def test_partial_mass_conserved(self):
        p0 = OrderedPartition.from_masses([0.4, 0.2])
        states = simulate(1.0, p0, 10.0, SeededRng(3), sample_times=[10.0])
        assert states[-1].partition.total == pytest.approx(0.6, abs=1e-12)

    def test_determinism(self):
        p0 = OrderedPartition.from_masses([1.0])
        a = simulate(1.0, p0, 15.0, SeededRng(4), sample_times=[5.0, 15.0])
        b = simulate(1.0, p0, 15.0, SeededRng(4), sample_times=[5.0, 15.0])
        assert [s.partition.masses for s in a] == [s.partition.masses for s in b]

    def test_missing_generator_rejected(self):
        p0 = OrderedPartition.from_masses([1.0])
        with pytest.raises(ValueError, match="explicit seeded generator"):
            simulate(1.0, p0, 1.0, rng=None)

    def test_validation(self):
        p0 = OrderedPartition.from_masses([1.0])
        with pytest.raises(ValueError):
            simulate(1.0, p0, 0.0, SeededRng(0))
        with pytest.raises(ValueError):
            simulate(-1.0, p0, 1.0, SeededRng(0))
        with pytest.raises(ValueError):
            simulate(1.0, OrderedPartition.from_masses([]), 1.0, SeededRng(0))

    @pytest.mark.parametrize("theta,seed", [(1.0, 5), (0.5, 91)])
    def test_stationarity_from_stick_breaking_start(self, theta, seed):
        # started in equilibrium, the time average reproduces the ensemble
        # mean 1 / (1 + theta); this pins the theta-scaling of split rates too
        rng = SeededRng(seed)
        avgs = []
        for _ in range(300):
            p0 = stick_breaking(theta, rng=rng).partition
            avg, _ = time_averaged_l2(theta, p0, 0.0, 40.0, rng)
            avgs.append(avg)
        avgs = np.asarray(avgs)
        se = avgs.std(ddof=1) / math.sqrt(avgs.size)
        assert abs(avgs.mean() - 1.0 / (1.0 + theta)) < 4 * se


class TestLiftedMoves:
    def test_merge_example(self):
        eta = Configuration(np.array([2, 3]))
        assert lift_merge(eta, 1, 2).occupations.tolist() == [5, 0]

    def test_split_example(self):
        eta = Configuration(np.array([5, 0]))
        assert lift_split(eta, 1, 2, 3).occupations.tolist() == [2, 3]

    def test_append_example(self):
        eta = Configuration(np.array([2, 2]))
        out = lift_split_append(eta, 1, 1)
        assert out.occupations.tolist() == [1, 2, 1]

    def test_involution_random_states(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            L = int(rng.integers(2, 7))
            occ = rng.integers(0, 6, size=L)
            if occ.sum() == 0:
                occ[0] = 1
            eta = Configuration(occ)
            x, y = rng.choice(L, size=2, replace=False) + 1
            k = int(eta.occupations[y - 1])
            if k == 0:
                continue
            merged = lift_merge(eta, x, y)
            back = lift_split(merged, x, y, k)
            assert back.occupations.tolist() == eta.occupations.tolist()

    def test_domain_violations(self):
        eta = Configuration(np.array([2, 1]))
        with pytest.raises(ValueError):
            lift_split(eta, 1, 2, 1)  # target not empty
        with pytest.raises(ValueError):
            lift_split_append(Configuration(np.array([2, 0])), 1, 1)  # empty site exists
        with pytest.raises(ValueError):
            lift_merge(eta, 1, 1)
        with pytest.raises(ValueError):
            lift_split_append(Configuration(np.array([2, 1])), 1, 3)  # k too large


class TestRnDerivative:
    def test_flat_table_ratio_formula(self):
        # eta=(1,1) merged to (2,0) with unit weights: the ratio is 1
        from pdlab import log_weight

        fam = WeightFamily.from_table([1.0, 1.0, 1.0])
        ratio = (
            log_weight(fam, 2, 1) + log_weight(fam, 2, 1)
            - log_weight(fam, 2, 2) - log_weight(fam, 2, 0)
        )
        assert ratio == 0.0

    def test_merge_onto_empty_source_is_identity(self):
        # moving zero particles changes nothing, so the probability ratio is 1
        eta = Configuration(np.array([3, 0, 2]))
        merged = lift_merge(eta, 3, 2)
        assert (merged.occupations == eta.occupations).all()

    def test_inclusion_identity_tight(self):
        fam = WeightFamily.inclusion(0.5)
        rep = rn_derivative_check(fam, 10, 20, samples=2000, rng=SeededRng(7))
        assert rep.value("max_abs_log_deviation") <= 1e-12

    def test_bulk_tail_identity_tight(self):
        rep = rn_derivative_check(
            WeightFamily.bulk_tail(1.0, 1, [0.5, 0.5]), 8, 16, samples=2000, rng=SeededRng(8)
        )
        assert rep.value("max_abs_log_deviation") <= 1e-12


class TestReversibilityDefect:
    FAM = WeightFamily.inclusion(0.5)

    def test_f_equals_g_vanishes(self):
        res = reversibility_defect(self.FAM, 3, 6, 0.1, 0.5, P1, P1, mode="exact")
        assert res.defect == 0.0

    def test_antisymmetry_exact(self):
        a = reversibility_defect(self.FAM, 3, 6, 0.1, 0.5, P1, P1_P2, mode="exact")
        b = reversibility_defect(self.FAM, 3, 6, 0.1, 0.5, P1_P2, P1, mode="exact")
        assert a.defect == -b.defect

    def test_huge_cutoff_vanishes(self):
        res = reversibility_defect(self.FAM, 3, 6, 0.95, 0.5, P1, P1_P2, mode="exact")
        assert res.defect == 0.0

    def test_exact_matches_direct_expectation(self):
        # independent route: enumeration oracle + the slow generator path
        from oracle import config_law, inclusion_weight

        L, N, eps, theta = 3, 5, 0.15, 0.5
        law = config_law(inclusion_weight(theta, L), L, N)
        expected = 0.0
        for cfg, prob in law.items():
            p = OrderedPartition.from_masses([v / N for v in cfg if v > 0])
            h = P1(p) * slow_discrete_apply(theta, N, eps, p, P1_P2) - P1_P2(
                p
            ) * slow_discrete_apply(theta, N, eps, p, P1)
            expected += prob * h
        res = reversibility_defect(self.FAM, L, N, eps, theta, P1, P1_P2, mode="exact")
        assert res.defect == pytest.approx(expected, abs=1e-12)

    def test_mc_cross_validates_exact(self):
        exact = reversibility_defect(self.FAM, 3, 6, 0.1, 0.5, P1, P1_P2, mode="exact")
        mc = reversibility_defect(
            self.FAM, 3, 6, 0.1, 0.5, P1, P1_P2, mode="mc", samples=40_000, rng=SeededRng(9)
        )
        assert abs(mc.defect - exact.defect) < 3 * mc.stderr

    def test_exact_cap_enforced(self):
        with pytest.raises(ValueError, match="mc"):
            reversibility_defect(self.FAM, 40, 80, 0.1, 0.5, P1, P1_P2, mode="exact")

    def test_mc_needs_samples(self):
        with pytest.raises(ValueError):
            reversibility_defect(self.FAM, 3, 6, 0.1, 0.5, P1, P1_P2, mode="mc")
