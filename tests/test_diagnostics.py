import math

import pytest
from scipy import stats

from pdlab import (
    Configuration,
    OrderedPartition,
    SeededRng,
    WeightFamily,
    alpha_from_second_moment,
    build_logz,
    condensed_fraction,
    pd_gof,
    sample_configurations,
    sample_size_biased_blocks,
    stick_breaking,
    strictly_decreasing,
    to_partition,
    trend_report,
    variance_one_norm,
)
from pdlab.diagnostics import scaled_beta_cdf
from pdlab.partitions import positive_size_biased

BULK = WeightFamily.bulk_tail(1.0, 1, [0.5, 0.5])
INCLUSION = WeightFamily.inclusion(1.0)


class TestCondensedFraction:
    def test_eps_one_is_zero(self):
        t = build_logz(BULK, 10, 20)
        assert condensed_fraction(t, 10, 20, 1.0) == 0.0

    def test_matches_size_biased_tail(self):
        t = build_logz(BULK, 20, 40)
        from pdlab import size_biased_marginals

        sb = size_biased_marginals(t, 20, 40)
        assert condensed_fraction(t, 20, 40, 0.05) == pytest.approx(sb[3:].sum(), abs=1e-14)

    def test_cross_validates_monte_carlo(self):
        L, N, eps, draws = 30, 60, 0.1, 100_000
        t = build_logz(BULK, L, N)
        exact = condensed_fraction(t, L, N, eps)
        blocks = sample_size_biased_blocks(t, L, N, draws, SeededRng(31))
        frac = (blocks > eps * N).mean()
        se = math.sqrt(exact * (1 - exact) / draws)
        assert abs(frac - exact) < 3 * se

    def test_subcritical_fraction_vanishes(self):
        # below the critical density no block reaches the macroscopic scale
        vals = []
        for L in (80, 160, 320):
            N = L // 4
            t = build_logz(BULK, L, N)
            vals.append(condensed_fraction(t, L, N, 0.05))
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] < 0.01

    def test_sub_lattice_cutoff_warns(self):
        t = build_logz(BULK, 8, 4)
        with pytest.warns(UserWarning, match="macroscopic"):
            assert condensed_fraction(t, 8, 4, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_inclusion_fraction_fully_condensed(self):
        # rho_c = 0: at fixed eps the size limit is P[uniform block > eps] = 1 - eps,
        # and letting eps shrink pushes the fraction to 1
        devs = []
        for L in (20, 40, 80):
            N = 2 * L
            t = build_logz(INCLUSION, L, N)
            devs.append(abs(condensed_fraction(t, L, N, 0.05) - 0.95))
        assert devs[0] > devs[1] > devs[2]
        t = build_logz(INCLUSION, 80, 160)
        assert condensed_fraction(t, 80, 160, 0.01) > condensed_fraction(t, 80, 160, 0.05)


class TestAlphaEstimate:
    def test_single_site_degenerate(self):
        t = build_logz(BULK, 1, 8)
        assert alpha_from_second_moment(t, 1, 8, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_bulk_tail_trend_toward_alpha(self):
        target = 0.75  # 1 - rho_c / rho at rho = 2
        devs = []
        for L in (25, 50, 100):
            N = 2 * L
            t = build_logz(BULK, L, N)
            devs.append(abs(alpha_from_second_moment(t, L, N, 1.0) - target))
        assert devs[-1] < devs[0]

    def test_requires_positive_theta(self):
        t = build_logz(BULK, 4, 8)
        with pytest.raises(ValueError):
            alpha_from_second_moment(t, 4, 8, 0.0)

    def test_rejects_nan_theta(self):
        t = build_logz(BULK, 4, 8)
        with pytest.raises(ValueError, match="theta"):
            alpha_from_second_moment(t, 4, 8, math.nan)

    def test_rejects_infinite_theta(self):
        # pdlab condense --theta inf would write alpha = inf
        t = build_logz(BULK, 4, 8)
        with pytest.raises(ValueError, match="finite"):
            alpha_from_second_moment(t, 4, 8, math.inf)

    def test_inclusion_estimate_tends_to_one(self):
        # with an empty bulk the whole mass is macroscopic: alpha = 1
        devs = []
        for L in (25, 50, 100):
            t = build_logz(INCLUSION, L, L)
            devs.append(abs(alpha_from_second_moment(t, L, L, 1.0) - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.02


class TestPdGof:
    def test_stick_breaking_samples_pass(self):
        rng = SeededRng(32)
        samples = [stick_breaking(1.0, rng=rng).partition for _ in range(4000)]
        rep = pd_gof(samples, 1.0, 1.0, rng)
        assert abs(rep.value("l2sq_mean") - rep.value("l2sq_target")) < 3 * rep.stderr("l2sq_mean")
        assert abs(rep.value("l3cube_mean") - rep.value("l3cube_target")) < 3 * rep.stderr("l3cube_mean")
        assert rep.value("ks_stat") < 0.03

    def test_canonical_partitions_against_scaled_law(self):
        # blocks above the cutoff, rescaled by the estimated alpha
        L, N = 60, 120
        t = build_logz(BULK, L, N)
        rng = SeededRng(33)
        occ = sample_configurations(t, L, N, 2000, rng)
        samples = [to_partition(Configuration(row)) for row in occ]
        alpha = alpha_from_second_moment(t, L, N, 1.0)
        rep = pd_gof(samples, 1.0, alpha, rng)
        # finite-size agreement is loose; the statistic only has to be sane
        assert 0.0 <= rep.value("ks_stat") <= 0.25
        assert rep.value("ks_n") == 2000

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pd_gof([], 1.0, 1.0, SeededRng(0))

    def test_no_positive_mass_gives_nan_statistic(self):
        rep = pd_gof([OrderedPartition(())] * 3, 1.0, 1.0, SeededRng(0))
        assert math.isnan(rep.value("ks_stat"))
        assert rep.value("ks_n") == 0.0

    @pytest.mark.parametrize("theta,alpha,seed", [(1.0, 1.0, 1), (0.4, 0.8, 2), (3.0, 0.5, 3)])
    def test_ks_stat_is_scipy_statistic_bitwise(self, theta, alpha, seed):
        rng = SeededRng(seed)
        samples = [stick_breaking(theta, alpha, rng=rng).partition for _ in range(300)]
        samples += [OrderedPartition(())]  # no positive mass: left out of the statistic
        rep = pd_gof(samples, theta, alpha, SeededRng(seed + 100))
        # the same first size-biased draws, from the same stream
        g = SeededRng(seed + 100).generator
        firsts = [positive_size_biased(p, 1, g).values[0] for p in samples if p.total > 0]
        ref = stats.kstest(firsts, scaled_beta_cdf(theta, alpha)).statistic
        assert rep.value("ks_n") == 300.0
        assert rep.value("ks_stat") == float(ref)

    def test_macroscopic_blocks_rescaled_pipeline(self):
        # two-pipeline comparison: canonical blocks above the cutoff, taken at
        # the estimated macroscopic mass, against the stick-breaking law
        L, N, eps = 100, 200, 0.05
        t = build_logz(BULK, L, N)
        rng = SeededRng(55)
        occ = sample_configurations(t, L, N, 3000, rng)
        alpha_hat = alpha_from_second_moment(t, L, N, 1.0)
        restricted = []
        for row in occ:
            big = row[row > eps * N]
            if big.size:
                restricted.append(OrderedPartition.from_masses(big / N))
        rep = pd_gof(restricted, 1.0, alpha_hat, rng)
        assert abs(rep.value("l2sq_mean") - rep.value("l2sq_target")) < 4 * rep.stderr("l2sq_mean")
        # finite-size bias is expected at this scale; the distance only has to be small
        assert rep.value("ks_stat") < 0.15


class TestVarianceOneNorm:
    def test_full_mass_variance_zero_for_canonical(self):
        L, N = 20, 40
        t = build_logz(BULK, L, N)
        occ = sample_configurations(t, L, N, 500, SeededRng(34))
        samples = [to_partition(Configuration(row)) for row in occ]
        macro, full = variance_one_norm(samples)
        assert full < 1e-30  # totals are 1 up to a final rounding ulp
        assert macro >= 0.0

    def test_stick_breaking_variance_tiny(self):
        rng = SeededRng(35)
        samples = [stick_breaking(1.0, rng=rng).partition for _ in range(200)]
        _, full = variance_one_norm(samples)
        assert full < 1e-23

    def test_macroscopic_variance_shrinks_with_size(self):
        rng = SeededRng(36)
        out = []
        for L in (20, 40, 80):
            N = 2 * L
            t = build_logz(BULK, L, N)
            occ = sample_configurations(t, L, N, 4000, rng)
            samples = [to_partition(Configuration(row)) for row in occ]
            macro, _ = variance_one_norm(samples, eps=0.05)
            out.append(macro)
        assert out[-1] < out[0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            variance_one_norm([])


class TestTrendTools:
    def test_strictly_decreasing(self):
        assert strictly_decreasing([3, 2, 1])
        assert not strictly_decreasing([3, 3, 1])
        assert not strictly_decreasing([1, 2])

    def test_trend_report_pass_fail(self):
        ok = trend_report("shrinks", [16, 64, 256], [0.3, 0.2, 0.1])
        assert ok.value("trend_strictly_decreasing") == 1.0
        assert ok.params["trend"] == "PASS"
        bad = trend_report("grows", [16, 64, 256], [0.1, 0.2, 0.3])
        assert bad.value("trend_strictly_decreasing") == 0.0
        assert bad.params["trend"] == "FAIL"

    def test_two_sizes_never_pass(self):
        rep = trend_report("short", [1, 2], [5.0, 4.0])
        assert rep.value("trend_strictly_decreasing") == 0.0


class TestReportSchema:
    def test_json_schema(self):
        rep = trend_report("demo", [1, 2, 3], [3.0, 2.0, 1.0], params={"seed": 7})
        doc = rep.to_json_dict()
        assert doc["name"] == "demo"
        assert doc["params"]["seed"] == 7
        assert {row["label"] for row in doc["series"]} >= {"size=1", "trend_strictly_decreasing"}

    def test_stderr_round_trip(self):
        from pdlab import DiagnosticsReport

        rep = DiagnosticsReport(name="x", params={})
        rep.add("a", 1.0, 0.1)
        doc = rep.to_json_dict()
        assert doc["series"][0]["stderr"] == 0.1
        assert rep.stderr("a") == 0.1
