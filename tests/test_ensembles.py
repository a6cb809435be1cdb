import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp
from scipy.stats import binom

from pdlab import (
    SupercriticalDensityError,
    WeightFamily,
    build_logz,
    critical_density,
    grand_canonical_stats,
    invert_density,
    local_clt_report,
    pair_zero_probability,
    phi_sequence,
    relative_entropy_bound,
    single_site_marginal,
    single_site_marginals,
    size_biased_marginal,
    size_biased_marginals,
    tv_distance_marginal,
    zratio_diagnostic,
)

from pdlab import ensembles
from pdlab.ensembles import _tilted_terms

from oracle import (
    bulk_tail_weight,
    inclusion_weight,
    log_space_grid,
    pair_zero,
    partition_function,
    site_marginal,
    size_biased_law,
    table_weight,
)

TABLE111 = WeightFamily.from_table([1.0, 1.0, 1.0])
BULK = WeightFamily.bulk_tail(1.0, 1, [0.5, 0.5])
INCLUSION05 = WeightFamily.inclusion(0.5)
BERNOULLI = WeightFamily.from_table([0.5, 0.5])


class TestBuildLogZ:
    def test_flat_table_2_2(self):
        # Omega_{2,2} = {(0,2),(1,1),(2,0)}, all weight 1
        t = build_logz(TABLE111, 2, 2)
        assert t.logz[2, 2] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_empty_system_row(self):
        t = build_logz(INCLUSION05, 7, 0)
        assert t.logz[7, 0] == pytest.approx(7 * 0.0, abs=1e-12)
        tb = build_logz(BULK, 5, 0)
        assert tb.logz[5, 0] == pytest.approx(5 * math.log(0.5), abs=1e-12)

    def test_single_site_row_equals_weights(self):
        t = build_logz(BULK, 1, 12)
        assert np.allclose(t.logz[1], t.log_w, equal_nan=True)

    def test_recursion_spot_reevaluation(self):
        t = build_logz(INCLUSION05, 9, 14)
        rng = np.random.default_rng(3)
        for _ in range(20):
            l = int(rng.integers(2, 10))
            n = int(rng.integers(0, 15))
            direct = logsumexp(t.log_w[: n + 1] + t.logz[l - 1, n::-1])
            assert t.logz[l, n] == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize(
        "family,w",
        [
            (INCLUSION05, "inclusion"),
            (BULK, "bulk"),
            (TABLE111, "table"),
        ],
    )
    def test_matches_enumeration(self, family, w):
        L, N = 4, 7
        wf = {
            "inclusion": inclusion_weight(0.5, L),
            "bulk": bulk_tail_weight(1.0, 1, [0.5, 0.5], L),
            "table": table_weight([1.0, 1.0, 1.0]),
        }[w]
        t = build_logz(family, L, N)
        z = partition_function(wf, L, N)
        if z == 0.0:
            assert t.logz[L, N] == -math.inf
        else:
            assert t.logz[L, N] == pytest.approx(math.log(z), abs=1e-10)

    def test_unreachable_mass_warns(self):
        fam = WeightFamily.from_table([1.0])  # only empty sites possible
        with pytest.warns(UserWarning, match="exactly zero"):
            t = build_logz(fam, 3, 2)
        assert t.logz[3, 2] == -math.inf

    @given(
        # weights scaled away from the subnormal range: the linear-space
        # enumeration oracle underflows there while the log-space table does not
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=3.0)),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_tables_match_enumeration(self, weights, L, N):
        if max(weights) == 0.0:
            weights[0] = 1.0
        fam = WeightFamily.from_table(weights)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            t = build_logz(fam, L, N)
        z = partition_function(table_weight(weights), L, N)
        if z == 0.0:
            assert t.logz[L, N] == -math.inf
        else:
            assert float(t.logz[L, N]) == pytest.approx(math.log(z), abs=1e-10)

    def test_underflowing_cells_are_repaired(self):
        # Z_{l,0} = 1e-200^l leaves the double range from l = 2 on, so those
        # cells take the log-space repair instead of the linear convolution
        t = build_logz(WeightFamily.from_table([1e-200, 1.0]), 6, 6)
        assert t.logz[6, 0] < math.log(np.finfo(float).tiny)
        assert t.logz[6, 0] == pytest.approx(6 * math.log(1e-200), rel=1e-14)
        ref = log_space_grid(t.log_w, 6)
        assert np.allclose(t.logz, ref, rtol=1e-14, atol=0.0)

    @given(
        st.one_of(
            st.builds(WeightFamily.inclusion, st.floats(min_value=0.05, max_value=5.0)),
            st.builds(
                lambda theta, bulk: WeightFamily.bulk_tail(
                    theta, len(bulk) - 1, [b / sum(bulk) for b in bulk]
                ),
                st.floats(min_value=0.05, max_value=5.0),
                st.lists(
                    st.sampled_from([0.0, 1e-3, 0.25, 1.0]), min_size=1, max_size=4
                ).filter(lambda b: max(b) > 0.0),
            ),
            # exact interior zeros and weights hundreds of orders of magnitude
            # apart, which drive cells below the linear kernel's floor
            st.builds(
                WeightFamily.from_table,
                st.lists(
                    st.sampled_from([0.0, 1e-250, 1e-200, 1e-3, 0.5, 1.0, 3.0])
                    | st.floats(min_value=1e-3, max_value=3.0),
                    min_size=1,
                    max_size=5,
                ).filter(lambda w: max(w) > 0.0),
            ),
        ),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=30),
    )
    @example(WeightFamily.from_table([1.0, 0.0, 1.0]), 12, 30)
    @example(WeightFamily.from_table([1e-200, 1.0]), 12, 30)
    @example(WeightFamily.from_table([1.0, 1e-250, 1e-250, 1.0]), 12, 30)
    # support {1, 3}: row l lies on l + 2Z, and its lowest cells underflow
    @example(WeightFamily.from_table([0.0, 1e-200, 0.0, 1.0]), 12, 30)
    # w(0) = 0: the cells below n = l are outside the sumset of row l - 1 and the support
    @example(WeightFamily.bulk_tail(1.0, 1, [0.0, 1.0]), 12, 30)
    # even support whose top cell n = 2l underflows
    @example(WeightFamily.from_table([1.0, 0.0, 1e-200]), 12, 30)
    # support {0} and the run [4, 5]: the hole 1..3 stays empty, and in row 2
    # the cells 8 and 10 underflow and are reached only through 4 + 4 and 5 + 5
    @example(WeightFamily.from_table([1.0, 0.0, 0.0, 0.0, 1e-200, 1e-200]), 12, 30)
    # support {0, 7, 9, 11, 13}: many runs of one point, a hole below them, and
    # underflowing terms, so most cells below the floor are decided by the sumset
    @example(WeightFamily.from_table([1.0] + [0.0] * 6 + [1e-200, 0.0] * 4), 12, 30)
    # N = 2 ks[-1]: in row 2 the only cell below the floor is n = 0, reached
    # only by the largest shift the bound allows, k = n - (first finite cell) = 0
    @example(WeightFamily.from_table([1e-200, 1.0, 1.0]), 12, 4)
    @settings(max_examples=80, deadline=None)
    def test_linear_kernel_matches_log_space_oracle(self, family, L, N):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            t = build_logz(family, L, N)
        ref = log_space_grid(t.log_w, L)
        assert not np.isnan(t.logz).any()
        assert (np.isneginf(t.logz) == np.isneginf(ref)).all()
        fin = np.isfinite(ref)
        err = np.abs(t.logz[fin] - ref[fin])
        assert (err <= 1e-12 * np.maximum(1.0, np.abs(ref[fin]))).all()


class TestMarginals:
    def test_flat_table_values(self):
        t = build_logz(TABLE111, 2, 2)
        assert single_site_marginal(t, 2, 2, 1) == pytest.approx(1 / 3, abs=1e-12)
        assert size_biased_marginal(t, 2, 2, 1) == pytest.approx(1 / 3, abs=1e-12)
        assert size_biased_marginal(t, 2, 2, 2) == pytest.approx(2 / 3, abs=1e-12)

    def test_single_site_system(self):
        t = build_logz(BULK, 1, 9)
        assert single_site_marginal(t, 1, 9, 9) == pytest.approx(1.0, abs=1e-12)
        assert size_biased_marginal(t, 1, 9, 9) == pytest.approx(1.0, abs=1e-12)

    def test_normalisation_and_mean_identity(self):
        t = build_logz(INCLUSION05, 50, 100)
        probs = single_site_marginals(t, 50, 100)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        n = np.arange(101)
        assert float(n @ probs) == pytest.approx(100 / 50, abs=1e-10)
        sb = size_biased_marginals(t, 50, 100)
        assert sb.sum() == pytest.approx(1.0, abs=1e-12)

    def test_size_biased_consistency(self):
        t = build_logz(BULK, 12, 30)
        probs = single_site_marginals(t, 12, 30)
        sb = size_biased_marginals(t, 12, 30)
        n = np.arange(31)
        assert np.allclose(sb, (12 / 30) * n * probs, atol=1e-15)

    def test_inclusion_3_6_matches_enumeration(self):
        fam = WeightFamily.inclusion(1.0)
        t = build_logz(fam, 3, 6)
        w = inclusion_weight(1.0, 3)
        expected_sb = size_biased_law(w, 3, 6)
        got = size_biased_marginals(t, 3, 6)
        assert np.max(np.abs(got - expected_sb)) < 1e-12
        expected_marg = site_marginal(w, 3, 6)
        assert np.max(np.abs(single_site_marginals(t, 3, 6) - expected_marg)) < 1e-12

    def test_out_of_range_rejected(self):
        t = build_logz(TABLE111, 2, 2)
        with pytest.raises(ValueError):
            single_site_marginal(t, 2, 2, 3)
        with pytest.raises(ValueError):
            size_biased_marginals(t, 2, 0)

    @pytest.mark.parametrize("marginals", [single_site_marginals, size_biased_marginals])
    def test_zero_partition_function_rejected(self, marginals):
        # w(n) = 0 for n > 2: five sites cannot hold eleven particles
        with pytest.warns(UserWarning, match="exactly zero"):
            t = build_logz(TABLE111, 5, 11)
        with pytest.raises(ValueError, match=r"Z_\{5,11\} is exactly zero"):
            marginals(t, 5, 11)


class TestPairZero:
    def test_incompatible_with_full_mass(self):
        t = build_logz(TABLE111, 2, 2)
        assert pair_zero_probability(t, 2, 2) == pytest.approx(0.0, abs=1e-15)

    def test_three_sites_one_particle(self):
        fam = WeightFamily.from_table([1.0, 1.0])
        t = build_logz(fam, 3, 1)
        w = table_weight([1.0, 1.0])
        assert pair_zero_probability(t, 3, 1) == pytest.approx(pair_zero(w, 3, 1), abs=1e-12)
        assert pair_zero_probability(t, 3, 1) == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_system(self):
        t = build_logz(BULK, 4, 0)
        assert pair_zero_probability(t, 4, 0) == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_sites(self):
        t = build_logz(BULK, 1, 3)
        with pytest.raises(ValueError):
            pair_zero_probability(t, 1, 3)


class TestGrandCanonical:
    def test_limit_measure_at_phi_one(self):
        gc = grand_canonical_stats(BULK, None, 1.0)
        assert gc.mean == pytest.approx(0.5, abs=1e-12)

    def test_limit_density_curve(self):
        # mean density of the limiting law is phi / (1 + phi)
        for phi in (0.2, 0.5, 0.8):
            gc = grand_canonical_stats(BULK, None, phi)
            assert gc.mean == pytest.approx(phi / (1 + phi), abs=1e-12)

    def test_phi_zero(self):
        gc = grand_canonical_stats(BULK, 10, 0.0)
        assert gc.mean == 0.0
        assert gc.log_z == pytest.approx(math.log(0.5))

    def test_finite_L_mean_against_direct_sum(self):
        L, phi = 25, 0.7
        w = bulk_tail_weight(1.0, 1, [0.5, 0.5], L)
        ns = np.arange(0, 4000)
        terms = np.array([w(int(n)) * phi ** int(n) for n in ns])
        mean = float((ns * terms).sum() / terms.sum())
        gc = grand_canonical_stats(BULK, L, phi)
        assert gc.mean == pytest.approx(mean, rel=1e-10)
        assert gc.variance >= 0.0

    def test_density_monotone_in_phi(self):
        means = [grand_canonical_stats(BULK, 40, phi).mean for phi in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_truncation_tail_below_budget(self):
        gc = grand_canonical_stats(BULK, 30, 0.6)
        w = bulk_tail_weight(1.0, 1, [0.5, 0.5], 30)
        tail = sum(w(n) * 0.6**n for n in range(gc.n_trunc + 1, gc.n_trunc + 4000))
        assert tail / math.exp(gc.log_z) < 1e-12

    def test_pmf_is_the_stored_truncation(self):
        gc = grand_canonical_stats(BULK, 30, 0.6)
        terms, n_trunc = _tilted_terms(BULK, 30, 0.6)
        assert n_trunc == gc.n_trunc and np.array_equal(gc.terms, terms)
        assert not gc.terms.flags.writeable
        p = np.exp(terms - logsumexp(terms))
        assert np.array_equal(gc.pmf(), p / p.sum())

    @pytest.mark.parametrize("L", [None, 10])
    @pytest.mark.parametrize("phi", [-0.5, math.nan, math.inf])
    def test_bad_fugacity_rejected(self, L, phi):
        with pytest.raises(ValueError, match="phi must be >= 0"):
            grand_canonical_stats(BULK, L, phi)

    @pytest.mark.parametrize(
        "diagnostic",
        [
            lambda: relative_entropy_bound(BULK, 20, 10, 0.6),
            lambda: tv_distance_marginal(build_logz(BULK, 20, 10), 20, 10, 0.6),
            lambda: local_clt_report(BULK, 20),
        ],
        ids=["relative_entropy_bound", "tv_distance_marginal", "local_clt_report"],
    )
    def test_one_truncation_per_tilted_law(self, diagnostic, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _tilted_terms(*args)

        monkeypatch.setattr(ensembles, "_tilted_terms", counted)
        diagnostic()
        assert len(calls) == 1


class TestInvertDensity:
    def test_limit_examples(self):
        assert invert_density(BULK, None, 1 / 3) == pytest.approx(0.5, abs=1e-9)
        assert invert_density(BULK, None, 0.0) == 0.0
        assert invert_density(BULK, None, 0.5) == pytest.approx(1.0, abs=1e-7)

    def test_supercritical_rejected_for_limit(self):
        with pytest.raises(SupercriticalDensityError):
            invert_density(BULK, None, 0.75)

    def test_finite_L_round_trip(self):
        phi = invert_density(BULK, 50, 0.8)
        assert grand_canonical_stats(BULK, 50, phi).mean == pytest.approx(0.8, abs=1e-9)

    @pytest.mark.parametrize("L", [None, 10])
    @pytest.mark.parametrize("rho", [-0.1, math.nan])
    def test_bad_density_rejected(self, L, rho):
        # every comparison with NaN is false, so a bisection on it would return a number
        with pytest.raises(ValueError, match="rho must be >= 0"):
            invert_density(BULK, L, rho)


class TestPhiSequence:
    def test_engineered_distance(self):
        fam = WeightFamily.from_table([0.5, 0.5], per_L={7: (0.5 + 1e-4, 0.5)})
        assert phi_sequence(fam, 7) == pytest.approx(0.9, abs=1e-12)

    def test_bulk_tail_value(self):
        assert phi_sequence(BULK, 20) == pytest.approx(1.0 - (1 / 40) ** 0.25, abs=1e-12)

    def test_degenerate_clips_and_warns(self):
        with pytest.warns(UserWarning, match="clipping"):
            phi = phi_sequence(BERNOULLI, 9)
        assert 0.0 < phi < 1.0
        assert 1.0 - phi < 1e-15


class TestRelativeEntropy:
    def test_single_factor(self):
        # one Bernoulli(1/2) site: bound is -log 1/2 at N = 1
        val = relative_entropy_bound(BERNOULLI, 1, 1, 1.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_binomial_two_sites(self):
        val = relative_entropy_bound(BERNOULLI, 2, 1, 1.0)
        assert val == pytest.approx(-0.5 * math.log(0.5), abs=1e-12)

    def test_decreasing_in_L_at_fixed_density(self):
        phi = invert_density(BULK, None, 0.25)
        vals = [relative_entropy_bound(BULK, L, L // 4, phi) for L in (32, 128, 512)]
        assert vals[0] > vals[1] > vals[2]

    def test_unreachable_mass_reports_inf(self):
        fam = WeightFamily.from_table([1.0, 1.0])
        with pytest.warns(UserWarning, match="underflow"):
            assert relative_entropy_bound(fam, 2, 40, 1.0) == math.inf


class TestTvDistance:
    def test_point_mass_case(self):
        # at (L, N) = (1, N) the marginal is a point mass: distance is 1 - nu[N]
        t = build_logz(BULK, 1, 4)
        gc = grand_canonical_stats(BULK, 1, 0.5)
        nu = gc.pmf()
        val = tv_distance_marginal(t, 1, 4, 0.5)
        assert val == pytest.approx(1.0 - nu[4], abs=1e-12)

    def test_decreasing_over_sizes(self):
        phi = invert_density(BULK, None, 0.25)
        vals = []
        for L in (16, 64, 256):
            N = L // 4
            t = build_logz(BULK, L, N)
            vals.append(tv_distance_marginal(t, L, N, phi))
        assert vals[0] > vals[1] > vals[2]


class TestLocalClt:
    def test_bernoulli_matches_binomial(self):
        with pytest.warns(UserWarning):
            rep = local_clt_report(BERNOULLI, 64)
        # the tilted law at phi ~ 1 is Bernoulli(1/2): the sum is Binomial(64, 1/2)
        assert rep.value("a_L") == pytest.approx(32.0, rel=1e-9)
        assert rep.value("b_L") == pytest.approx(4.0, rel=1e-9)
        assert rep.value("Q_L") == pytest.approx(32.0, rel=1e-9)
        n = np.arange(65)
        pmf = binom.pmf(n, 64, 0.5)
        gauss = np.exp(-0.5 * ((n - 32) / 4.0) ** 2) / math.sqrt(2 * math.pi)
        expected_sup = float(np.max(np.abs(4.0 * pmf - gauss)))
        assert rep.value("clt_sup_error") == pytest.approx(expected_sup, rel=1e-6)
        assert rep.value("clt_sup_error") < 0.01

    def test_sup_error_decreasing(self):
        vals = [local_clt_report(BULK, L).value("clt_sup_error") for L in (16, 64, 256)]
        assert vals[0] > vals[1] > vals[2]

    def test_scale_grows_like_sqrt_L(self):
        # b_{4L}/b_L -> 2; the variance at the near-critical tilt converges
        # like L^{-1/2}, so the 5% window needs sizes beyond ~10^3
        def b(L):
            phi_l = phi_sequence(BULK, L)
            return math.sqrt(L * grand_canonical_stats(BULK, L, phi_l).variance)

        ratios = [b(4 * L) / b(L) for L in (64, 256, 1024)]
        assert all(later > earlier for earlier, later in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(2.0, rel=0.05)

    def test_lindeberg_sums_shrink(self):
        reps = {L: local_clt_report(BULK, L) for L in (64, 256)}
        for eps in (0.1, 0.5, 1.0):
            small = reps[64].value(f"lindeberg_eps={eps}")
            large = reps[256].value(f"lindeberg_eps={eps}")
            assert 0.0 <= large < small
        # larger thresholds exclude more mass
        r = reps[256]
        assert r.value("lindeberg_eps=1.0") <= r.value("lindeberg_eps=0.1")

    def test_degenerate_variance_flagged(self):
        fam = WeightFamily.from_table([1.0])
        with pytest.warns(UserWarning):
            rep = local_clt_report(fam, 8)
        assert rep.value("degenerate_variance") == 1.0


class TestCriticalDensity:
    def test_values(self):
        assert critical_density(INCLUSION05) == 0.0
        assert critical_density(BULK) == pytest.approx(0.5)
        assert critical_density(WeightFamily.from_table([1.0])) == 0.0


class TestZRatio:
    def test_kappa_zero_tends_to_one(self):
        vals = []
        for L in (25, 50, 100):
            N = 2 * L
            t = build_logz(BULK, L, N)
            vals.append(zratio_diagnostic(t, L, N, 0.0))
        assert abs(vals[-1] - 1.0) < 0.05
        assert abs(vals[-1] - 1.0) < abs(vals[0] - 1.0)

    def test_kappa_one_identity(self):
        t = build_logz(BULK, 20, 40)
        expected = math.exp(19 * math.log(0.5) - t.logz[20, 40])
        assert zratio_diagnostic(t, 20, 40, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_bounded_at_large_sizes(self):
        # kappa = 0.1 at rho = 2: the limiting bound is (1 - 0.1/0.75)^(-1)
        t = build_logz(BULK, 200, 400)
        ratio = zratio_diagnostic(t, 200, 400, 0.1)
        assert ratio <= (1 - 0.1 / 0.75) ** -1 + 1e-9


# entries of log-weight rows: exact zeros, ties on a coarse integer grid, and
# spreads up to the edge of the double range
LOG_ENTRIES = st.one_of(
    st.just(-math.inf),
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(min_value=-700.0, max_value=700.0),
)


def same_bits(got, want) -> bool:
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


class TestLogSumExp:
    """The private log-sum-exp is bit for bit scipy.special.logsumexp on real input."""

    @given(st.lists(LOG_ENTRIES, min_size=1, max_size=40))
    @example([-math.inf, -math.inf])
    @example([2.0, 2.0, -math.inf, 1.0])
    @settings(max_examples=300, deadline=None)
    def test_axis_none(self, values):
        a = np.array(values)
        assert same_bits(ensembles._logsumexp(a), logsumexp(a))

    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=LOG_ENTRIES))
    @example(np.array([[0.0, -math.inf], [-math.inf, -math.inf], [1.0, 1.0]]))
    @settings(max_examples=200, deadline=None)
    def test_axis_one(self, a):
        assert same_bits(ensembles._logsumexp(a, axis=1), logsumexp(a, axis=1))

    def test_all_minus_inf_is_minus_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ensembles._logsumexp(np.full(3, -math.inf)) == -math.inf
            assert (ensembles._logsumexp(np.full((2, 3), -math.inf), axis=1) == -math.inf).all()
