import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pdlab import (
    OrderedPartition,
    SeededRng,
    norms,
    pd_degenerate,
    pd_moment_targets,
    positive_size_biased,
    size_biased,
    stick_breaking,
    stick_breaking_batch,
)
from pdlab.partitions import K_MAX, positive_size_biased_first_batch


masses_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=0, max_size=12
).map(lambda vals: [v / max(sum(vals), 1.0) for v in vals])


class TestOrderedPartition:
    def test_from_masses_sorts_and_trims(self):
        p = OrderedPartition.from_masses([0.0, 0.2, 0.5, 0.0, 0.3])
        assert p.masses == (0.5, 0.3, 0.2)
        assert p.total == pytest.approx(1.0)

    def test_rejects_unsorted_raw(self):
        with pytest.raises(ValueError):
            OrderedPartition((0.2, 0.5))

    def test_rejects_excess_mass(self):
        with pytest.raises(ValueError):
            OrderedPartition.from_masses([0.8, 0.8])

    @pytest.mark.parametrize("masses", [(math.nan,), (0.5, math.nan)])
    def test_rejects_nan_mass(self, masses):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            OrderedPartition(masses)

    def test_entry_is_one_based_with_zero_padding(self):
        p = OrderedPartition.from_masses([0.5, 0.25])
        assert p.entry(1) == 0.5
        assert p.entry(3) == 0.0

    def test_csv_round_shape(self):
        p = OrderedPartition.from_masses([0.5, 0.25])
        lines = p.to_csv().strip().splitlines()
        assert lines[0] == "rank,mass"
        assert len(lines) == 3

    @given(masses_strategy)
    @settings(max_examples=60, deadline=None)
    def test_from_masses_invariants(self, vals):
        p = OrderedPartition.from_masses(vals)
        arr = p.as_array()
        assert (np.diff(arr) <= 0).all()
        assert p.total <= 1.0 + 1e-12
        assert all(m > 0 for m in p.masses)


class TestStickBreaking:
    def test_rejects_bad_parameters(self):
        rng = SeededRng(0)
        with pytest.raises(ValueError):
            stick_breaking(0.0, rng=rng)
        with pytest.raises(ValueError):
            stick_breaking(1.0, alpha=0.0, rng=rng)

    def test_rejects_nan_theta(self):
        with pytest.raises(ValueError, match="theta"):
            stick_breaking(math.nan, rng=SeededRng(1))
        with pytest.raises(ValueError, match="theta"):
            stick_breaking_batch(math.nan, 1.0, 3, SeededRng(1).generator)

    def test_rejects_infinite_theta(self):
        # the fractions would all be 0: a row of K_MAX zero sticks and the whole remainder
        with pytest.raises(ValueError, match="finite"):
            stick_breaking(math.inf, rng=SeededRng(1))
        with pytest.raises(ValueError, match="finite"):
            stick_breaking_batch(math.inf, 0.8, 3, SeededRng(1))

    def test_partition_is_sorted_gem_multiset(self):
        res = stick_breaking(0.7, rng=SeededRng(5))
        assert sorted(res.gem, reverse=True) == list(res.partition.masses)
        assert res.residual < 1e-12
        assert res.partition.total + res.residual == pytest.approx(1.0, abs=1e-9)

    def test_reordering_preserves_norms(self):
        res = stick_breaking(1.0, rng=SeededRng(8))
        gem = np.asarray(res.gem)
        for k in (1, 2, 3):
            assert norms(res.partition, k) == pytest.approx(float((gem**k).sum()), rel=1e-12)

    def test_first_stick_mean_theta_one(self):
        # V_1 ~ Beta(1,1) = Uniform: mean 1/2
        rng = SeededRng(101)
        firsts = np.array([stick_breaking(1.0, rng=rng).gem[0] for _ in range(20_000)])
        se = firsts.std(ddof=1) / math.sqrt(firsts.size)
        assert abs(firsts.mean() - 0.5) < 3 * se

    def test_first_stick_mean_scaled(self):
        # E V_1 = alpha / (1 + theta)
        rng = SeededRng(102)
        m, _ = stick_breaking_batch(0.5, 0.6, 100_000, rng.generator)
        firsts = m[:, 0]
        se = firsts.std(ddof=1) / math.sqrt(firsts.size)
        assert abs(firsts.mean() - 0.4) < 3 * se

    def test_batch_takes_seeded_rng_like_every_sampler(self):
        m, res = stick_breaking_batch(1.0, 1.0, 3, SeededRng(1))
        m_gen, res_gen = stick_breaking_batch(1.0, 1.0, 3, SeededRng(1).generator)
        assert m.tobytes() == m_gen.tobytes() and res.tobytes() == res_gen.tobytes()
        with pytest.raises(ValueError, match="seeded generator"):
            stick_breaking_batch(1.0, 1.0, 3, None)

    def test_batch_matches_norm_targets(self):
        rng = SeededRng(103)
        m, res = stick_breaking_batch(1.0, 1.0, 50_000, rng.generator)
        assert res.max() < 1e-12
        l2 = (m**2).sum(axis=1)
        se = l2.std(ddof=1) / math.sqrt(l2.size)
        assert abs(l2.mean() - 0.5) < 3 * se

    @pytest.mark.parametrize("theta", [0.3, 3.0])
    def test_batch_first_piece_law(self, theta):
        # P(V_1 <= x) = 1 - (1 - x/alpha)^theta; theta > 1 is the case numpy's
        # beta draws through gammas
        alpha, n = 0.8, 50_000
        m, _ = stick_breaking_batch(theta, alpha, n, SeededRng(104).generator)
        ks = stats.kstest(m[:, 0], lambda x: 1.0 - (1.0 - x / alpha) ** theta).statistic
        assert ks < math.sqrt(math.log(2 / 1e-6) / (2 * n))  # DKW at delta = 1e-6

    @pytest.mark.parametrize("theta", [0.3, 1.0, 3.0, 50.0])
    def test_batch_rows_keep_their_mass(self, theta):
        m, res = stick_breaking_batch(theta, 0.8, 2_000, SeededRng(105).generator)
        assert np.abs(m.sum(axis=1) + res - 0.8).max() <= 1e-12
        assert (m >= 0).all() and res.max() < 1e-12

    def test_batch_carries_the_residual_across_blocks(self):
        # theta = 50 breaks ~1,400 sticks a row: the first piece of the second
        # 64-column block over what the first block left is again Beta(1, theta)
        theta, alpha, n = 50.0, 0.8, 2_000
        m, _ = stick_breaking_batch(theta, alpha, n, SeededRng(106).generator)
        assert m.shape[1] > 64
        v = m[:, 64] / (alpha - m[:, :64].sum(axis=1))
        ks = stats.kstest(v, lambda x: 1.0 - (1.0 - x) ** theta).statistic
        assert ks < math.sqrt(math.log(2 / 1e-6) / (2 * n))

    def test_k_max_truncation_reports_residual(self):
        # theta = 1e6 breaks off about 1e-6 a stick: K_MAX sticks leave ~0.99
        res = stick_breaking(1e6, rng=SeededRng(9))
        assert len(res.gem) == K_MAX
        assert res.residual > 0.98

    def test_json_tags(self):
        res = stick_breaking(1.0, rng=SeededRng(10))
        doc = res.to_json_dict()
        assert doc["gem"]["order"] == "gem"
        assert doc["sorted"]["order"] == "sorted"
        assert doc["sorted"]["masses"] == sorted(doc["gem"]["masses"], reverse=True)
        assert doc["residual"] == res.residual


class TestPdDegenerate:
    def test_full_interval(self):
        assert pd_degenerate(1.0).masses == (1.0,)

    def test_empty(self):
        assert pd_degenerate(0.0).masses == ()

    def test_partial(self):
        assert pd_degenerate(0.75).masses == (0.75,)


class TestSizeBiased:
    def test_two_equal_halves_always_half(self):
        p = OrderedPartition.from_masses([0.5, 0.5])
        rng = SeededRng(11)
        for _ in range(50):
            q = size_biased(p, 1, rng)
            assert q.values == (0.5,)

    def test_full_partition_then_zeros(self):
        p = OrderedPartition.from_masses([1.0])
        q = size_biased(p, 4, SeededRng(12))
        assert q.values == (1.0, 0.0, 0.0, 0.0)

    def test_half_mass_law(self):
        p = OrderedPartition.from_masses([0.5])
        rng = SeededRng(13)
        draws = np.array([size_biased(p, 1, rng).values[0] for _ in range(100_000)])
        frac = (draws == 0.5).mean()
        se = math.sqrt(0.25 / draws.size)
        assert abs(frac - 0.5) < 3 * se

    def test_exhaustion_conserves_mass(self):
        p = OrderedPartition.from_masses([0.4, 0.3, 0.2, 0.1])
        q = size_biased(p, 10, SeededRng(14))
        assert sum(q.values) == pytest.approx(p.total, abs=1e-12)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            size_biased(OrderedPartition.from_masses([0.5]), 0, SeededRng(0))


class TestPositiveSizeBiased:
    def test_single_block(self):
        p = OrderedPartition.from_masses([0.5])
        q = positive_size_biased(p, 1, SeededRng(15))
        assert q.values == (0.5,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            positive_size_biased(OrderedPartition.from_masses([]), 1, SeededRng(0))

    def test_first_component_beta_law(self):
        # q'_1 of a full stick-breaking draw is Beta(1, theta)
        from scipy import stats

        theta = 0.5
        rng = SeededRng(16)
        draws = []
        for _ in range(4000):
            part = stick_breaking(theta, rng=rng).partition
            draws.append(positive_size_biased(part, 1, rng).values[0])
        ks = stats.kstest(draws, lambda x: 1 - (1 - np.clip(x, 0, 1)) ** theta)
        assert ks.statistic < 0.03

    def test_conditional_equality_with_size_biased(self):
        # law of q_1 given q_1 > 0 equals the positive-size-biased law
        from scipy import stats

        p = OrderedPartition.from_masses([0.35, 0.25, 0.15])
        rng = SeededRng(17)
        plain = [size_biased(p, 1, rng).values[0] for _ in range(30_000)]
        plain_pos = [v for v in plain if v > 0]
        positive = [positive_size_biased(p, 1, rng).values[0] for _ in range(30_000)]
        ks = stats.ks_2samp(plain_pos, positive)
        assert ks.pvalue > 1e-4

    def test_no_zero_before_exhaustion(self):
        p = OrderedPartition.from_masses([0.3, 0.2, 0.1])
        q = positive_size_biased(p, 3, SeededRng(18))
        assert all(v > 0 for v in q.values)
        assert sorted(q.values, reverse=True) == [0.3, 0.2, 0.1]


class TestPositiveSizeBiasedFirstBatch:
    def test_pick_law_chi_square(self):
        # three row patterns of distinct masses, totals below 1, one zero entry each
        patterns = np.array([
            [0.1, 0.0, 0.3, 0.2],
            [0.05, 0.4, 0.15, 0.0],
            [0.0, 0.25, 0.25 + 1e-3, 0.5],
        ])
        reps = 20_000
        masses = np.repeat(patterns, reps, axis=0)
        picked = positive_size_biased_first_batch(masses, SeededRng(31).generator)
        for k, row in enumerate(patterns):
            got = picked[k * reps : (k + 1) * reps]
            positive = row[row > 0]
            assert np.isin(got, positive).all()
            counts = np.array([(got == v).sum() for v in positive])
            result = stats.chisquare(counts, reps * positive / positive.sum())
            assert result.pvalue > 1e-3

    def test_takes_seeded_rng_like_every_sampler(self):
        masses = np.array([[0.5, 0.5], [0.1, 0.3]])
        picked = positive_size_biased_first_batch(masses, SeededRng(1))
        assert picked.tobytes() == positive_size_biased_first_batch(masses, SeededRng(1).generator).tobytes()
        with pytest.raises(ValueError, match="seeded generator"):
            positive_size_biased_first_batch(masses, None)


class TestNorms:
    def test_single_block(self):
        p = OrderedPartition.from_masses([1.0])
        for k in (1, 2, 5):
            assert norms(p, k) == 1.0

    def test_two_halves(self):
        p = OrderedPartition.from_masses([0.5, 0.5])
        assert norms(p, 2) == pytest.approx(0.5)

    def test_three_blocks(self):
        p = OrderedPartition.from_masses([0.5, 1 / 3, 1 / 6])
        assert norms(p, 2) == pytest.approx(14 / 36, rel=1e-12)

    def test_empty_partition(self):
        assert norms(OrderedPartition.from_masses([]), 2) == 0.0


class TestMomentTargets:
    def test_k1_is_alpha(self):
        assert pd_moment_targets(0.7, 0.3, 1) == pytest.approx(0.3)

    def test_theta_one_values(self):
        assert pd_moment_targets(1.0, 1.0, 2) == pytest.approx(0.5)
        assert pd_moment_targets(1.0, 1.0, 3) == pytest.approx(1 / 3)

    def test_scaling_in_alpha(self):
        assert pd_moment_targets(0.5, 0.5, 2) == pytest.approx(0.25 * (1 / 1.5))

    @given(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_recursion_in_k(self, theta, alpha, k):
        # target(k+1) = target(k) * alpha * k / (k + theta)
        lhs = pd_moment_targets(theta, alpha, k + 1)
        rhs = pd_moment_targets(theta, alpha, k) * alpha * k / (k + theta)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMonteCarloMoments:
    @pytest.mark.parametrize("theta", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_stick_breaking_matches_targets(self, theta, alpha):
        rng = SeededRng(hash((theta, alpha)) % 2**32)
        m, _ = stick_breaking_batch(theta, alpha, 30_000, rng.generator)
        for k in (2, 3, 4):
            vals = (m**k).sum(axis=1)
            target = pd_moment_targets(theta, alpha, k)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - target) < 3 * se + 1e-12
