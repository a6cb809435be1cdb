import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp
from scipy.stats import binom

from pdlab import (
    OutOfDomainError,
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

from pdlab import cli, ensembles
from pdlab.cli import main
from pdlab.ensembles import _tilted_terms
from pdlab.weights import log_weight_row

from oracle import (
    blocked_head,
    build_logz_masked_rows,
    bulk_tail_weight,
    inclusion_weight,
    log_space_grid,
    pair_zero,
    partition_function,
    site_marginal,
    size_biased_law,
    span_power_convolve,
    table_weight,
    toeplitz_block,
)

TABLE111 = WeightFamily.from_table([1.0, 1.0, 1.0])
BULK = WeightFamily.bulk_tail(1.0, 1, [0.5, 0.5])
INCLUSION05 = WeightFamily.inclusion(0.5)
BERNOULLI = WeightFamily.from_table([0.5, 0.5])
GAP = WeightFamily.bulk_tail(1.0, 2, [0.5, 0.0, 0.5])


# the families and sizes the linear kernel is checked on
KERNEL_FAMILIES = st.one_of(
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
)
KERNEL_EXAMPLES = [
    (WeightFamily.from_table([1.0, 0.0, 1.0]), 12, 30),
    (WeightFamily.from_table([1e-200, 1.0]), 12, 30),
    (WeightFamily.from_table([1.0, 1e-250, 1e-250, 1.0]), 12, 30),
    # support {1, 3}: row l lies on l + 2Z, and its lowest cells underflow
    (WeightFamily.from_table([0.0, 1e-200, 0.0, 1.0]), 12, 30),
    # w(0) = 0: the cells below n = l are outside the sumset of row l - 1 and the support
    (WeightFamily.bulk_tail(1.0, 1, [0.0, 1.0]), 12, 30),
    # even support whose top cell n = 2l underflows
    (WeightFamily.from_table([1.0, 0.0, 1e-200]), 12, 30),
    # support {0} and the run [4, 5]: the hole 1..3 stays empty, and in row 2
    # the cells 8 and 10 underflow and are reached only through 4 + 4 and 5 + 5
    (WeightFamily.from_table([1.0, 0.0, 0.0, 0.0, 1e-200, 1e-200]), 12, 30),
    # support {0, 7, 9, 11, 13}: many runs of one point, a hole below them, and
    # underflowing terms, so most cells below the floor are decided by the sumset
    (WeightFamily.from_table([1.0] + [0.0] * 6 + [1e-200, 0.0] * 4), 12, 30),
    # N = 2 ks[-1]: in row 2 the only cell below the floor is n = 0, reached
    # only by the largest shift the bound allows, k = n - (first finite cell) = 0
    (WeightFamily.from_table([1e-200, 1.0, 1.0]), 12, 4),
]


def kernel_cases(test):
    """Run test(self, family, L, N) on KERNEL_FAMILIES at L <= 12, N <= 30 and on KERNEL_EXAMPLES."""
    for case in KERNEL_EXAMPLES:
        test = example(*case)(test)
    test = settings(max_examples=80, deadline=None)(test)
    sizes = (st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=30))
    return given(KERNEL_FAMILIES, *sizes)(test)


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

    # w(0) = 0 and N = 0: the weight row is all -inf, so the build must stop after row 1
    @example(WeightFamily.bulk_tail(1.0, 1, [0.0, 1.0]), 2, 0)
    @kernel_cases
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

    def test_all_weights_zero_is_out_of_domain(self):
        with pytest.raises(OutOfDomainError, match="all tilted weights vanish"):
            grand_canonical_stats(WeightFamily.from_table([0.0]), None, 0.5)

    @pytest.mark.parametrize(
        "diagnostic",
        [
            lambda: relative_entropy_bound(build_logz(BULK, 20, 10), 20, 10, 0.6),
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
        with pytest.raises(SupercriticalDensityError, match="exceeds the critical density"):
            invert_density(BULK, None, 0.75)

    def test_unattained_density_rejected_for_finite_L(self):
        # five sites of at most one particle hold density <= 1 at every phi; the
        # bracket doubles phi up to 1e9 before giving up
        with pytest.raises(SupercriticalDensityError, match="not attained"):
            invert_density(WeightFamily.from_table([1, 1]), 5, 2.0)

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


def entropy_bound(family, L, N, phi):
    """relative_entropy_bound on the log Z table built at (L, N)."""
    return relative_entropy_bound(build_logz(family, L, N), L, N, phi)


def oracle_entropy_bound(family, L, N, phi):
    """-(1/L) log P[S_L = N] = -(1/L) (log Z_{L,N} + N log phi - L log z(phi)), Z in log space."""
    log_z = grand_canonical_stats(family, L, phi).log_z
    grid = log_space_grid(np.asarray(log_weight_row(family, L, N)), L)
    return -(grid[L, N] + N * math.log(phi) - L * log_z) / L


def tilted_row(family, L, N, phi):
    """log w_L(n) + n log phi - log z(phi) for n = 0..N, the row relative_entropy_bound folds."""
    log_z = grand_canonical_stats(family, L, phi).log_z
    return np.asarray(log_weight_row(family, L, N)) + math.log(phi) * np.arange(N + 1) - log_z


class TestRelativeEntropy:
    def test_single_factor(self):
        # one Bernoulli(1/2) site: bound is -log 1/2 at N = 1
        val = entropy_bound(BERNOULLI, 1, 1, 1.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_binomial_two_sites(self):
        val = entropy_bound(BERNOULLI, 2, 1, 1.0)
        assert val == pytest.approx(-0.5 * math.log(0.5), abs=1e-12)

    def test_decreasing_in_L_at_fixed_density(self):
        phi = invert_density(BULK, None, 0.25)
        vals = [entropy_bound(BULK, L, L // 4, phi) for L in (32, 128, 512)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize(
        "weights,L,N,phi",
        [([1.0, 1.0], 2, 40, 1.0), ([1.0, 0.0, 1.0], 301, 301, 1.0), ([0.0, 1.0, 1.0], 8, 2, 0.5)],
        ids=["past_the_top", "off_the_lattice", "below_the_support"],
    )
    def test_unreachable_total_is_refused(self, weights, L, N, phi):
        # two sites of at most one particle carry at most 2; an odd total is off
        # the lattice 2Z; eight sites of at least one particle carry at least 8
        fam = WeightFamily.from_table(weights)
        with pytest.warns(UserWarning, match="exactly zero"):
            table = build_logz(fam, L, N)
        with pytest.raises(ValueError, match="exactly zero"):
            relative_entropy_bound(table, L, N, phi)

    def test_underflowed_mass_is_retilted(self):
        # P[S_1100 = 1100] = 2^-1100 lies inside the support and below the smallest
        # double; the re-tilted law puts it back in range, so the bound is ln 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = entropy_bound(BERNOULLI, 1100, 1100, 1.0)
            assert abs(got - math.log(2)) <= 4 * np.spacing(math.log(2))
            # one step inside the top end: P = 1100 * 2^-1100 is subnormal-small too
            want = -(math.log(1100) - 1100 * math.log(2)) / 1100
            got = entropy_bound(BERNOULLI, 1100, 1099, 1.0)
            assert abs(got - want) <= 4 * np.spacing(want)

    @pytest.mark.parametrize("L,N", [(32, 3), (32, 8), (32, 40), (128, 20), (7, 7)])
    def test_retilted_folds_equal_direct_folds(self, L, N):
        # log P[S_L = N] = log P_t[S_L = N] + L c holds for every tilt; where the
        # direct window does not underflow both routes agree to rounding
        phi = invert_density(BULK, None, 0.25)
        logp = tilted_row(BULK, L, N, phi)
        vec, log_scale = ensembles._power_convolve(np.exp(logp), L, N + 1)
        tilted, c = ensembles._retilt(logp, L, N)
        assert abs(np.dot(np.arange(tilted.size), tilted) / tilted.sum() - N / L) < 1e-9
        tvec, t_scale = ensembles._power_convolve(tilted, L, N + 1)
        direct = math.log(vec[N]) + log_scale
        assert math.log(tvec[N]) + t_scale + L * c == pytest.approx(direct, rel=1e-12)

    def test_lattice_is_read_from_the_terms_not_the_pmf(self):
        # table [1, 1e-300, 1]: w(1) phi > 0 puts every total on the lattice Z
        fam = WeightFamily.from_table([1.0, 1e-300, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entropy_bound(fam, 301, 301, 1e-10) == pytest.approx(24.6212, rel=1e-5)
            # at phi = 1e-30 the pmf's cell 1 (1e-330) underflows to 0, but the
            # tilted row keeps it in log space, and the re-tilt brings it back
            assert grand_canonical_stats(fam, 301, 1e-30).pmf()[1] == 0.0
            got = entropy_bound(fam, 301, 301, 1e-30)
        want = oracle_entropy_bound(fam, 301, 301, 1e-30)
        assert got == pytest.approx(70.6729108608753, rel=1e-14)
        assert got == pytest.approx(want, rel=1e-13)

    def test_mass_past_the_pmf_top_is_exact(self):
        # phi = 1e-200 puts w(2) phi^2 = 1e-400 below the double range, but only
        # S_3 = 6 = 2 + 2 + 2 reaches N: P = (1e-400 / z)^3 and the bound 400 ln 10
        fam = WeightFamily.from_table([1.0, 1.0, 1.0])
        want = 400 * math.log(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = entropy_bound(fam, 3, 6, 1e-200)
        assert abs(got - want) <= 4 * np.spacing(want)

    @pytest.mark.parametrize(
        "family,L,N,phi",
        [(BULK, 64, 200, 0.5), (BULK, 100, 400, 0.3), (GAP, 50, 150, 0.6), (INCLUSION05, 40, 120, 0.7)],
        ids=["bulk_tail_64", "bulk_tail_100", "gap", "inclusion"],
    )
    def test_condensed_regime_matches_the_log_space_grid(self, family, L, N, phi):
        # N lies far above the tilted law's bulk, where a law cut at n_trunc
        # would miss the cells that carry the mass
        got = entropy_bound(family, L, N, phi)
        assert got == pytest.approx(oracle_entropy_bound(family, L, N, phi), rel=1e-13)

    def test_underflowed_window_is_retilted(self):
        # P[S_L = L] = p(1)^L with p(1) = 1e-200 / (1 + 1e-200): the window's one
        # product underflows, and the law re-tilted onto its end cell n = 1
        # gives -(1/L) log P = 200 ln 10
        fam = WeightFamily.from_table([0.0, 1e-200, 1.0])
        want = 200 * math.log(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for L in (2, 3):
                got = entropy_bound(fam, L, L, 1.0)
                assert abs(got - want) <= 4 * np.spacing(want)

    def test_window_with_no_nonzero_cell_is_retilted(self):
        # 1000 equal weights at phi = 1e300: p(0) and p(1), about 1e300^-999 and
        # 1e300^-998, both underflow, so the window [0, 1] holds no nonzero cell;
        # the re-tilt puts the law on n = 1, and -log P = 998 log 1e300
        fam = WeightFamily.from_table([1.0] * 1000)
        want = 998 * math.log(1e300)
        got = entropy_bound(fam, 1, 1, 1e300)
        assert abs(got - want) <= 4 * np.spacing(want)

    def test_small_totals_at_large_L(self):
        # the window [0, N] is scaled by its own peak: cell 5 of Binomial(1100, 1/2)
        # is 4e-317 of the whole law's peak (subnormal), and cell 0 underflows there
        L = 1100
        want = -(math.log(math.comb(L, 5)) - L * math.log(2)) / L
        got = entropy_bound(BERNOULLI, L, 5, 1.0)
        assert abs(got - want) <= 4 * np.spacing(want)
        assert entropy_bound(BERNOULLI, L, 0, 1.0) == math.log(2)

    @pytest.mark.parametrize("L,N,phi", [(512, 900, 0.5), (256, 2000, 0.9), (100, 400, 0.3)])
    def test_mass_past_the_first_horizon(self, L, N, phi):
        # N + 1 lies past the Chernoff horizon, so the window holds the law's peak
        p = np.exp(tilted_row(BULK, L, N, phi))
        horizon = ensembles._chernoff_horizon(p, L)
        assert N >= horizon
        vec, log_scale = span_power_convolve(p, L)
        assert vec[N] > 0.0
        want = -(math.log(vec[N]) + log_scale) / L
        assert same_bits(entropy_bound(BULK, L, N, phi), want)


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

    def test_larger_table_tilts_its_pinned_row(self):
        # a 40 x 20 table pins w_40, so at (20, 10) the tilted law is w_40's too
        t = build_logz(BULK, 40, 20)
        pi = single_site_marginals(t, 20, 10)
        nu = grand_canonical_stats(BULK, 40, 0.6).pmf()
        k = max(pi.size, nu.size)
        direct = 0.5 * float(np.abs(np.pad(pi, (0, k - pi.size)) - np.pad(nu, (0, k - nu.size))).sum())
        assert tv_distance_marginal(t, 20, 10, 0.6) == pytest.approx(direct, rel=1e-12)


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
        # the mean of w normalised, nu_{rho_c} = w, whether or not w sums to 1
        assert critical_density(TABLE111) == 1.0
        assert critical_density(WeightFamily.from_table([0.2, 0.3])) == pytest.approx(0.6, rel=1e-15)

    def test_bounds_the_densities_invert_density_attains(self):
        rho_c = critical_density(TABLE111)
        assert 0.0 < invert_density(TABLE111, None, 0.999 * rho_c) < 1.0
        with pytest.raises(SupercriticalDensityError, match="exceeds the critical density"):
            invert_density(TABLE111, None, 1.001 * rho_c)


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

    @pytest.mark.parametrize("kappa", [1.5, -0.5, math.nan])
    def test_kappa_outside_unit_interval_rejected(self, kappa):
        # 1.5 would index row L - 1 at n = -5 (its end), -0.5 a cell past N
        t = build_logz(INCLUSION05, 10, 20)
        with pytest.raises(ValueError, match=r"kappa must lie in \[0, 1\]"):
            zratio_diagnostic(t, 10, 10, kappa)


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


def full_power_convolve(p, L):
    """L-fold convolution by binary exponentiation over full-length operands."""
    result, log_result = np.array([1.0]), 0.0
    base, log_base = p.copy(), 0.0
    k = L
    while k:
        if k & 1:
            out = np.convolve(result, base)
            peak = out.max()
            result, log_result = out / peak, log_result + log_base + math.log(peak)
        k >>= 1
        if k:
            out = np.convolve(base, base)
            peak = out.max()
            base, log_base = out / peak, 2 * log_base + math.log(peak)
    return result, log_result


FOLD_FAMILIES = [BULK, GAP, INCLUSION05, WeightFamily.from_table([0.0, 1.0, 1.0]),
                 WeightFamily.from_table([1.0]), BERNOULLI]
FOLD_IDS = ["bulk_tail", "gap", "inclusion", "table011", "point", "bernoulli"]


def chernoff_window(p, L):
    """The first window local_clt_report folds on."""
    return ensembles._chernoff_horizon(p, L)


def exact_fold_law(p, L):
    """The L-fold law of the doubles in p, in exact rational arithmetic."""
    law = [Fraction(1)]
    for _ in range(L):
        law = [sum((law[i] * Fraction(p[k - i]) for i in range(max(0, k - p.size + 1), min(k + 1, len(law)))),
                   Fraction(0)) for k in range(len(law) + p.size - 1)]
    return law


# clt_sup_error is |b_L * pmf - Gaussian| at its sup, a difference of terms up to
# 50 times larger than itself: the window's cells, within 1.6e-15 of the span
# folds', move it by up to 8.1e-14 relative (bulk_tail at L = 1023)
SUP_ERROR_RTOL = 1e-13


class TestPowerConvolve:
    """The folds against full-length folds, span-only folds and exact rational folds.

    On the full-length window the folds are the span-only folds kept in
    oracle.py bit for bit.  Against full-length folds, at the flatter tilts of
    relative_entropy_bound a few cells above 1e-250 of the peak can also move
    by an ulp or two (bulk_tail at L = 333, rho = 0.25);
    test_cli_output_unchanged pins what that path reports.  On a window, each
    fold takes its operands' first H cells, longer first, and scales by the
    window's own peak: the cells match the span folds to a measured relative
    bound, and exact folds to a few ulps.
    """

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 64, 100, 333, 512])
    @pytest.mark.parametrize(
        "family",
        [BULK, GAP, INCLUSION05, WeightFamily.from_table([0.0, 1.0, 1.0]),
         WeightFamily.from_table([1.0]), BERNOULLI],
        ids=["bulk_tail", "gap", "inclusion", "table011", "point", "bernoulli"],
    )
    def test_matches_full_length_folds(self, family, L):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # phi_L clipped below 1 for the tables
            p = grand_canonical_stats(family, L, phi_sequence(family, L)).pmf()
        got, log_got = ensembles._power_convolve(p, L, L * (p.size - 1) + 1)
        want, log_want = full_power_convolve(p, L)
        assert got.shape == want.shape and same_bits(log_got, log_want)
        big = want >= 1e-250 * want.max()
        assert np.array_equal(got[big], want[big])
        assert (np.abs(got - want) <= 4 * np.spacing(np.maximum(got, want))).all()

    @pytest.mark.parametrize("tilt", ["phi_L", 0.3, 0.9])
    @pytest.mark.parametrize("family", FOLD_FAMILIES, ids=FOLD_IDS)
    def test_window_equals_span_folds(self, family, tilt):
        # on local_clt_report's first window, which holds the peak, and on one left
        # of the peak: each cell >= 2^-64 of the window's peak within 4e-15 of the
        # span folds' cell relative to the same peak (1.6e-15 measured over this
        # sweep), the log scale within 4 ulps
        for L in [*range(1, 71), 127, 128, 129, 255, 256, 511, 512, 1023, 1024, 2048]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # phi_L clipped below 1 for the tables
                phi = phi_sequence(family, L) if tilt == "phi_L" else tilt
            p = grand_canonical_stats(family, L, phi).pmf()
            want, log_want = span_power_convolve(p, L)
            low = L * int(np.flatnonzero(p)[0])
            for H in (chernoff_window(p, L), low + 1 + (want.size - low) // 7):
                got, log_got = ensembles._power_convolve(p, L, H)
                assert got.size == min(H, want.size), (L, H)
                j = int(got.argmax())
                ref = want[: got.size] / want[j]
                big = ref >= 2.0**-64
                assert got[j] == 1.0 and (np.abs(got - ref)[big] <= 4e-15 * ref[big]).all(), (L, H)
                log_ref = log_want + math.log(want[j])
                assert abs(log_got - log_ref) <= 4 * np.spacing(abs(log_ref)), (L, H)
            if L < 1000:  # the full length, by the same folds
                got, log_got = ensembles._power_convolve(p, L, L * (p.size - 1) + 1)
                assert same_bits(got, want) and same_bits(log_got, log_want), L

    @pytest.mark.parametrize("p", [[0.5, 0.5], [0.25, 0.5, 0.25], [0.0, 1 / 3, 2 / 3]],
                             ids=["half", "quarter", "third"])
    def test_window_matches_exact_rational_folds(self, p):
        # every window of every L <= 12 (measured worst: 3 ulps on cells, 2 on the log scale)
        p = np.array(p)
        low = int(np.flatnonzero(p)[0])
        for L in range(1, 13):
            law = exact_fold_law(p, L)
            for H in range(L * low + 1, len(law) + 1):
                got, log_got = ensembles._power_convolve(p, L, H)
                cells = law[: got.size]
                peak = max(cells)
                want = np.array([float(c / peak) for c in cells])
                assert (np.abs(got - want) <= 4 * np.spacing(want)).all(), (L, H)
                log_want = math.log(peak)
                assert abs(log_got - log_want) <= 4 * np.spacing(abs(log_want)), (L, H)

    @pytest.mark.parametrize("L", [1000, 1023])
    def test_folds_stay_on_the_window(self, L, monkeypatch):
        # L not a power of two: no fold runs on an operand longer than the window
        p = grand_canonical_stats(GAP, L, phi_sequence(GAP, L)).pmf()
        H = chernoff_window(p, L)
        lengths, convolve = [], np.convolve
        monkeypatch.setattr(np, "convolve", lambda a, v: lengths.extend([a.size, v.size]) or convolve(a, v))
        ensembles._power_convolve(p, L, H)
        assert lengths and max(lengths) <= H < L * (p.size - 1) + 1

    @pytest.mark.parametrize("L", [2, 7, 64, 100, 333, 512, 1024])
    @pytest.mark.parametrize("family", FOLD_FAMILIES, ids=FOLD_IDS)
    def test_local_clt_report_equals_full_folds(self, family, L, monkeypatch):
        # bit for bit at powers of two, whose only multiplication is by the
        # one-cell start; elsewhere the order of a multiplication can differ
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = local_clt_report(family, L)
            monkeypatch.setattr(ensembles, "_power_convolve", lambda p, L, horizon=None: span_power_convolve(p, L))
            want = local_clt_report(family, L)
        assert got.labels() == want.labels()
        values = {k: (got.value(k), want.value(k)) for k in got.labels()}
        if L & (L - 1):
            g, w = values.pop("clt_sup_error", (0.0, 0.0))
            assert abs(g - w) <= SUP_ERROR_RTOL * w
        assert same_bits(np.array([g for g, _ in values.values()]), np.array([w for _, w in values.values()]))

    @pytest.mark.parametrize("L", [7, 100])
    @pytest.mark.parametrize("family", [GAP, BULK], ids=["gap", "bulk_tail"])
    def test_window_too_short_folds_the_whole_law_once(self, family, L, monkeypatch):
        # a one-cell first window cannot hold the sup, so the second fold takes
        # the whole law, which is the span folds' law bit for bit
        windows, fold = [], ensembles._power_convolve
        monkeypatch.setattr(ensembles, "_chernoff_horizon", lambda p, L: 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            monkeypatch.setattr(ensembles, "_power_convolve", lambda p, L, H: windows.append(H) or fold(p, L, H))
            got = local_clt_report(family, L)
            monkeypatch.setattr(ensembles, "_power_convolve", lambda p, L, H: span_power_convolve(p, L))
            want = local_clt_report(family, L)
        nu = grand_canonical_stats(family, L, phi_sequence(family, L)).pmf()
        assert windows == [1, L * (nu.size - 1) + 1]
        assert got.labels() == want.labels()
        assert same_bits(np.array([got.value(k) for k in got.labels()]),
                         np.array([want.value(k) for k in want.labels()]))

    def test_cli_output_unchanged(self, tmp_path, monkeypatch):
        # bulk_tail at 32, 128, 512 byte for byte; gap at 100 and 333 to the bound
        families = {
            "bulk": ({"kind": "bulk_tail", "theta": 1.0, "A": 1, "bulk": [0.5, 0.5]}, "0.25", "32,128,512"),
            "gap": ({"kind": "bulk_tail", "theta": 1.0, "A": 2, "bulk": [0.5, 0.0, 0.5]}, "0.4", "100,333"),
        }

        def csv_bytes(tag):
            out = {}
            for name, (spec, rho, sizes) in families.items():
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(spec))
                dest = tmp_path / tag / name
                assert main(["--family", str(path), "--out", str(dest), "ensembles",
                             "--rho", rho, "--sizes", sizes]) == 0
                out[name] = (dest / "ensembles.csv").read_bytes()
            return out

        windows = csv_bytes("windows")
        monkeypatch.setattr(ensembles, "_power_convolve", lambda p, L, horizon=None: full_power_convolve(p, L))
        full = csv_bytes("full")
        assert windows["bulk"] == full["bulk"]
        got, want = (table.decode().splitlines() for table in (windows["gap"], full["gap"]))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if g != w:
                *key, g_value = g.split(",")
                *w_key, w_value = w.split(",")
                assert key == w_key and key[0] == "clt_clt_sup_error"
                assert abs(float(g_value) - float(w_value)) <= SUP_ERROR_RTOL * float(w_value)


class TestMaskedRows:
    """build_logz, which writes each row once, against the boolean-mask loop it replaced."""

    @kernel_cases
    def test_grids_equal_bit_for_bit(self, family, L, N):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got, want = build_logz(family, L, N), build_logz_masked_rows(family, L, N)
        assert same_bits(got.logz, want.logz) and same_bits(got.log_w, want.log_w)

    @pytest.mark.parametrize(
        "family,L,N",
        [
            (BULK, 400, 800),
            (BULK, 512, 128),
            (GAP, 200, 400),
            (TABLE111, 100, 200),
            (WeightFamily.from_table([1e-200, 1.0]), 400, 800),
            (WeightFamily.from_table([1.0] + [0.0] * 399 + [1.0] * 401), 400, 800),
            # row l is finite on the even cells up to 2l, and from 2l to 4l: every
            # other cell is an exact zero that the sumset test must leave at -inf
            (WeightFamily.from_table([1.0, 0.0, 1.0]), 400, 800),
            (WeightFamily.from_table([0.0, 0.0, 1.0, 0.0, 1.0]), 200, 400),
        ],
        ids=["bulk_400x800", "bulk_512x128", "gap_200x400", "table111_100x200",
             "tiny_400x800", "hole_400x800", "table101_400x800", "table00101_200x400"],
    )
    def test_large_grids_equal_bit_for_bit(self, family, L, N):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # [1e-200, 1] reaches no N > L
            got, want = build_logz(family, L, N), build_logz_masked_rows(family, L, N)
        assert same_bits(got.logz, want.logz)

    def test_rows_peaking_past_n(self):
        # weights rising to n = 2: from l = 6 on, row l's full convolution peaks
        # near 2l > N, so the row's maximum is a reduction, not the offset
        family, L, N = WeightFamily.from_table([1.0, 2.0, 4.0]), 20, 10
        got, want = build_logz(family, L, N), build_logz_masked_rows(family, L, N)
        assert same_bits(got.logz, want.logz)
        w = np.exp(got.log_w - got.log_w.max())
        peaks = [int(np.argmax(np.convolve(np.exp(row - row.max()), w))) for row in got.logz[1:L]]
        assert max(peaks) > N

    @pytest.mark.parametrize("weights", [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1e-200]])
    def test_cells_above_l_max_ks(self, weights):
        # row l is -inf past 2l; those cells are dropped before the sumset test,
        # and with w(2) = 1e-200 the cell 2l itself underflows and is repaired
        family, L, N = WeightFamily.from_table(weights), 12, 40
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # Z_{12,40} = 0
            got, want = build_logz(family, L, N), build_logz_masked_rows(family, L, N)
        assert same_bits(got.logz, want.logz)
        for l in range(1, L + 1):
            assert np.isfinite(got.logz[l, 2 * l]) and np.isneginf(got.logz[l, 2 * l + 1:]).all()

    def test_cli_output_unchanged(self, tmp_path, monkeypatch):
        specs = {
            "bulk": {"kind": "bulk_tail", "theta": 1.0, "A": 1, "bulk": [0.5, 0.5]},
            "gap": {"kind": "bulk_tail", "theta": 1.0, "A": 2, "bulk": [0.5, 0.0, 0.5]},
            "table111": {"kind": "table", "weights": [1.0, 1.0, 1.0]},
        }
        runs = [
            ("bulk", "zn", ["zn", "--L", "200", "--N", "400"], "zn_L200_N400.csv"),
            ("bulk", "zn", ["zn", "--L", "200", "--N", "400"], "zn_L200_N400.csv"),  # warm: from the cache
            ("bulk", "condense", ["condense", "--rho", "2", "--theta", "1", "--sizes", "50,100,200"], "condense.csv"),
            ("bulk", "ensembles", ["ensembles", "--rho", "0.25", "--sizes", "32,128,512"], "ensembles.csv"),
            ("gap", "zn", ["zn", "--L", "200", "--N", "400"], "zn_L200_N400.csv"),
            ("table111", "zn", ["zn", "--L", "200", "--N", "400"], "zn_L200_N400.csv"),
        ]
        for name, spec in specs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))

        def outputs(tag):
            out = []
            for name, command, argv, result in runs:
                dest = tmp_path / tag / name / command
                assert main(["--family", str(tmp_path / f"{name}.json"), "--out", str(dest), *argv]) == 0
                out.append((dest / result).read_bytes())
            out += [path.read_bytes() for path in sorted((tmp_path / tag).rglob("logz_*.npy"))]
            return out

        once = outputs("once")
        monkeypatch.setattr(ensembles, "build_logz", build_logz_masked_rows)
        monkeypatch.setattr(cli, "build_logz", build_logz_masked_rows)
        assert once == outputs("masked")


def row_operands(m: int, shape: str):
    """Two length-m rows in [0, 1] for the row product, shaped as build_logz can meet them."""
    rng = np.random.default_rng(m)
    a, w = rng.random(m), rng.random(m)
    if shape == "leading_zeros":  # w(0) = 0, and the row starts with empty cells
        w[0] = 0.0
        a[: m // 3] = 0.0
    elif shape == "trailing_zeros":  # a weight row and a previous row that end early
        w[m - m // 3 :] = 0.0
        a[m - m // 2 :] = 0.0
    elif shape == "subnormal":  # entries down to the smallest subnormal, products that underflow
        a *= 2.0 ** -rng.integers(0, 1075, m).astype(float)
        w *= 2.0 ** -rng.integers(0, 600, m).astype(float)
        a[-1], w[0] = 5e-324, 2.0**-1022
    return a, w


class TestRowProduct:
    """The blocked row product of build_logz, written out in oracle.py (TestMaskedRows ties the two bit for bit)."""

    @pytest.mark.parametrize("shape", ["dense", "leading_zeros", "trailing_zeros", "subnormal"])
    @pytest.mark.parametrize("m", [1, 2, ensembles._ROW_BLOCK - 1, ensembles._ROW_BLOCK,
                                   ensembles._ROW_BLOCK + 1, 3 * ensembles._ROW_BLOCK + 5])
    def test_head_within_m_rounding_units(self, m, shape):
        # a cell sums at most m nonnegative products, in whatever order the BLAS
        # takes: within m * u relative (Jeannerod & Rump 2013), plus half the
        # subnormal spacing for each product that underflows
        a, w = row_operands(m, shape)
        got = blocked_head(a, toeplitz_block(w))
        assert got.shape == (m,)
        fa, fw = [Fraction(x) for x in a], [Fraction(x) for x in w]
        u, eta = Fraction(1, 2**53), Fraction(1, 2**1075)
        for n in range(m):
            exact = sum((fa[n - k] * fw[k] for k in range(n + 1)), Fraction(0))
            assert abs(Fraction(got[n]) - exact) <= m * u * exact + m * eta, (n, got[n], float(exact))

    @kernel_cases
    def test_grid_within_rounding_of_convolve_loop(self, family, L, N):
        # each row adds at most N + 1 rounding units from its product and one each
        # from the subtraction, exp, log and offset, on the scale of the grid's
        # largest log; both builds round, so twice that
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got, want = build_logz(family, L, N).logz, build_logz_masked_rows(family, L, N, blocked=False).logz
        assert (np.isneginf(got) == np.isneginf(want)).all()
        fin = np.isfinite(want)
        scale = max(1.0, float(np.abs(want[fin]).max()))
        assert (np.abs(got[fin] - want[fin]) <= 2 * L * (N + 4) * np.finfo(float).eps / 2 * scale).all()

    @pytest.mark.parametrize("weights", [[1.0, 2.0, 4.0], [1e-150, 1e-80, 1.0]], ids=["124", "steep"])
    def test_repairs_exactly_the_cells_below_the_floor(self, weights):
        # both rows peak past N = 10; in the steep one the kept head peaks near
        # 1e-150, most cells are repaired, and cell 8 (about 1e-300) lies below
        # the floor but above the floor times that peak
        family, L, N = WeightFamily.from_table(weights), 20, 10
        table = build_logz(family, L, N)
        logz, w_off = table.logz, table.log_w.max()
        KT = toeplitz_block(np.exp(table.log_w - w_off))
        ks = np.flatnonzero(table.log_w > -math.inf)
        floor = (N + 1) * np.finfo(float).tiny / np.finfo(float).eps
        for l in range(2, L + 1):
            off = logz[l - 1].max()
            lin = blocked_head(np.exp(logz[l - 1] - off), KT)
            below = lin < floor
            assert same_bits(logz[l, ~below], np.log(lin[~below]) + (off + w_off)), l
            shift = np.flatnonzero(below)[:, None] - ks
            terms = np.where(shift >= 0, table.log_w[ks] + logz[l - 1, np.maximum(shift, 0)], -math.inf)
            assert same_bits(logz[l, below], ensembles._logsumexp(terms, axis=1)), l

    def test_bytes_do_not_depend_on_blas_threads(self):
        # the row product is a threaded BLAS call; a thread splits cells, never a cell's sum
        src = Path(__file__).resolve().parents[1] / "src"
        script = ("import sys; from pdlab import WeightFamily, build_logz; "
                  "sys.stdout.buffer.write(build_logz(WeightFamily.bulk_tail(1.0, 1, [0.5, 0.5]), 400, 800).logz.tobytes())")
        grids = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            grids.append(proc.stdout)
        assert len(grids[0]) == 401 * 801 * 8 and grids[0] == grids[1]
