import math
import tracemalloc

import numpy as np
import pytest

from pdlab import (
    Configuration,
    SeededRng,
    WeightFamily,
    build_logz,
    sample_configuration,
    sample_configurations,
    sample_size_biased_block,
    sample_size_biased_blocks,
    single_site_marginals,
    to_partition,
    zero_fraction_stats,
)

from oracle import config_law, table_weight

TABLE111 = WeightFamily.from_table([1.0, 1.0, 1.0])
BULK = WeightFamily.bulk_tail(1.0, 1, [0.5, 0.5])
INCLUSION = WeightFamily.inclusion(0.5)
GAP = WeightFamily.bulk_tail(1.0, 2, [0.5, 0.0, 0.5])

# (family, L, N) with zero weights or a wide dynamic range
EDGE_CELLS = {
    "gap": (GAP, 40, 80),
    "inclusion": (INCLUSION, 30, 60),
    "table_1_0_1": (WeightFamily.from_table([1.0, 0.0, 1.0]), 12, 16),
    "table_1e-200_1": (WeightFamily.from_table([1e-200, 1.0]), 12, 7),
}


class _AlwaysNearOne:
    """Stand-in stream whose every uniform is the largest double below 1."""

    class generator:
        @staticmethod
        def random(size=None):
            u = 1.0 - 2.0**-53
            return u if size is None else np.full(size, u)


class TestSeededRng:
    def test_bitwise_reproducibility(self):
        a = SeededRng(123, stream=4).generator.random(10)
        b = SeededRng(123, stream=4).generator.random(10)
        assert (a == b).all()

    def test_streams_differ(self):
        a = SeededRng(123, stream=0).generator.random(10)
        b = SeededRng(123, stream=1).generator.random(10)
        assert (a != b).any()


class TestConfiguration:
    def test_validates(self):
        with pytest.raises(ValueError):
            Configuration(np.array([1, -1]))
        c = Configuration(np.array([2, 0, 3, 1]))
        assert c.N == 6 and c.L == 4 and c.zero_count() == 1


class TestSampleConfiguration:
    def test_trivial_cases(self):
        t = build_logz(BULK, 3, 0)
        cfg = sample_configuration(t, 3, 0, SeededRng(1))
        assert cfg.occupations.tolist() == [0, 0, 0]
        t1 = build_logz(BULK, 1, 5)
        cfg1 = sample_configuration(t1, 1, 5, SeededRng(1))
        assert cfg1.occupations.tolist() == [5]

    def test_conservation_every_draw(self):
        t = build_logz(INCLUSION, 6, 9)
        rng = SeededRng(2)
        for _ in range(200):
            assert sample_configuration(t, 6, 9, rng).N == 9

    def test_determinism(self):
        t = build_logz(BULK, 5, 8)
        a = [sample_configuration(t, 5, 8, SeededRng(7)).occupations.tolist() for _ in range(1)]
        b = [sample_configuration(t, 5, 8, SeededRng(7)).occupations.tolist() for _ in range(1)]
        assert a == b
        batch1 = sample_configurations(t, 5, 8, 64, SeededRng(9))
        batch2 = sample_configurations(t, 5, 8, 64, SeededRng(9))
        assert (batch1 == batch2).all()

    def test_flat_table_frequency(self):
        t = build_logz(TABLE111, 2, 2)
        occ = sample_configurations(t, 2, 2, 100_000, SeededRng(3))
        freq = (occ[:, 0] == 1).mean()
        se = math.sqrt((1 / 3) * (2 / 3) / occ.shape[0])
        assert abs(freq - 1 / 3) < 3 * se

    def test_exactness_against_enumeration(self):
        # every configuration's empirical frequency within 4 se of the exact law
        L, N, draws = 3, 6, 200_000
        t = build_logz(TABLE111, L, N)
        occ = sample_configurations(t, L, N, draws, SeededRng(4))
        law = config_law(table_weight([1.0, 1.0, 1.0]), L, N)
        counts: dict[tuple, int] = {}
        for row in occ:
            key = tuple(int(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(law)
        for key, p in law.items():
            if p == 0.0:
                assert key not in counts
                continue
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(counts.get(key, 0) / draws - p) < 4 * se + 1e-9

    def test_scalar_path_matches_exact_marginal(self):
        t = build_logz(BULK, 4, 6)
        rng = SeededRng(5)
        first = np.array([sample_configuration(t, 4, 6, rng).occupations[0] for _ in range(50_000)])
        probs = single_site_marginals(t, 4, 6)
        for n in range(7):
            p = probs[n]
            se = math.sqrt(p * (1 - p) / first.size) + 1e-9
            assert abs((first == n).mean() - p) < 4 * se


class TestScalarPath:
    @pytest.mark.parametrize("cell", EDGE_CELLS.values(), ids=EDGE_CELLS.keys())
    def test_scalar_draws_equal_batch_draws(self, cell):
        fam, L, N = cell
        t = build_logz(fam, L, N)
        for seed in range(50):
            one = sample_configuration(t, L, N, SeededRng(seed)).occupations
            batch = sample_configurations(t, L, N, 1, SeededRng(seed))[0]
            assert one.tolist() == batch.tolist()
            block = sample_size_biased_block(t, L, N, SeededRng(seed))
            assert block == sample_size_biased_blocks(t, L, N, 1, SeededRng(seed))[0]

    @pytest.mark.parametrize("cell", EDGE_CELLS.values(), ids=EDGE_CELLS.keys())
    def test_walk_past_the_row_total_keeps_positive_weights(self, cell):
        # u just below 1 can exceed the rounded row sum; the draw must stay legal
        fam, L, N = cell
        t = build_logz(fam, L, N)
        occ = sample_configuration(t, L, N, _AlwaysNearOne()).occupations
        assert occ.sum() == N
        assert np.isfinite(t.log_w[occ]).all()

    def test_memory_stays_flat(self):
        L, N = 200, 400
        t = build_logz(GAP, L, N)
        rng = SeededRng(11)
        sample_configuration(t, L, N, rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1_000):
                sample_configuration(t, L, N, rng)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1_000_000

    def test_missing_generator_rejected(self):
        t = build_logz(BULK, 3, 4)
        with pytest.raises(ValueError, match="explicit seeded generator"):
            sample_configurations(t, 3, 4, 5, rng=None)


class TestSizeBiasedBlocks:
    def test_single_site_always_N(self):
        t = build_logz(BULK, 1, 7)
        assert sample_size_biased_block(t, 1, 7, SeededRng(6)) == 7

    def test_rejects_empty(self):
        t = build_logz(BULK, 2, 0)
        with pytest.raises(ValueError):
            sample_size_biased_block(t, 2, 0, SeededRng(0))

    def test_flat_table_frequencies(self):
        t = build_logz(TABLE111, 2, 2)
        draws = sample_size_biased_blocks(t, 2, 2, 100_000, SeededRng(7))
        freq1 = (draws == 1).mean()
        se = math.sqrt((1 / 3) * (2 / 3) / draws.size)
        assert abs(freq1 - 1 / 3) < 3 * se

    def test_mean_equals_normalised_second_moment(self):
        # E[block] = (L/N) E[eta^2] under the plain marginal
        L, N = 5, 9
        t = build_logz(INCLUSION, L, N)
        draws = sample_size_biased_blocks(t, L, N, 200_000, SeededRng(8))
        probs = single_site_marginals(t, L, N)
        second = float(np.arange(N + 1) ** 2 @ probs)
        target = (L / N) * second
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 3 * se

    def test_equals_particle_picked_occupancy(self):
        # drawing a block equals reading the occupancy at a uniform particle's site
        L, N, draws = 3, 5, 120_000
        t = build_logz(BULK, L, N)
        rng = SeededRng(9)
        occ = sample_configurations(t, L, N, draws, rng)
        # pick one particle per configuration, vectorised by cumulative mass
        u = rng.generator.integers(1, N + 1, size=draws)
        cum = np.cumsum(occ, axis=1)
        site = (cum < u[:, None]).sum(axis=1)
        picked = occ[np.arange(draws), site]
        blocks = sample_size_biased_blocks(t, L, N, draws, rng)
        for n in range(1, N + 1):
            p = (blocks == n).mean()
            q = (picked == n).mean()
            se = math.sqrt((p * (1 - p) + q * (1 - q)) / draws) + 1e-9
            assert abs(p - q) < 4 * se


class TestRejectedCells:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda t, L, N, rng: sample_configuration(t, L, N, rng),
            lambda t, L, N, rng: sample_configurations(t, L, N, 3, rng),
            lambda t, L, N, rng: sample_size_biased_block(t, L, N, rng),
            lambda t, L, N, rng: sample_size_biased_blocks(t, L, N, 3, rng),
        ],
        ids=["configuration", "configurations", "block", "blocks"],
    )
    def test_zero_partition_function(self, draw):
        # w(n) = 0 for n > 2: five sites cannot hold eleven particles
        with pytest.warns(UserWarning, match="exactly zero"):
            t = build_logz(TABLE111, 5, 11)
        with pytest.raises(ValueError, match=r"Z_\{5,11\} is exactly zero"):
            draw(t, 5, 11, SeededRng(0))

    def test_blocks_outside_table(self):
        t = build_logz(BULK, 2, 4)
        with pytest.raises(ValueError, match="covers up to"):
            sample_size_biased_blocks(t, 3, 4, 10, SeededRng(0))


class TestToPartition:
    def test_example(self):
        p = to_partition(Configuration(np.array([2, 0, 3, 1])))
        assert p.masses == pytest.approx((0.5, 1 / 3, 1 / 6))

    def test_single_site(self):
        p = to_partition(Configuration(np.array([9])))
        assert p.masses == (1.0,)

    def test_round_trip_multiset(self):
        occ = np.array([4, 0, 2, 6, 0])
        p = to_partition(Configuration(occ))
        recovered = sorted(round(m * 12) for m in p.masses)
        assert recovered == sorted(v for v in occ if v > 0)

    def test_empty_warns(self):
        with pytest.warns(UserWarning):
            p = to_partition(Configuration(np.array([0, 0])))
        assert p.masses == ()

    def test_sampled_partitions_have_unit_mass(self):
        t = build_logz(INCLUSION, 6, 11)
        rng = SeededRng(10)
        for _ in range(100):
            cfg = sample_configuration(t, 6, 11, rng)
            assert to_partition(cfg).total == pytest.approx(1.0, abs=1e-12)


class TestZeroFraction:
    def test_empty_system(self):
        t = build_logz(BULK, 5, 0)
        rep = zero_fraction_stats(t, 5, 0)
        assert rep.value("mean") == pytest.approx(1.0, abs=1e-12)
        assert rep.value("variance") == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumeration(self):
        L, N = 4, 5
        t = build_logz(TABLE111, L, N)
        law = config_law(table_weight([1.0, 1.0, 1.0]), L, N)
        mean = sum(p * sum(1 for v in c if v == 0) / L for c, p in law.items())
        second = sum(p * (sum(1 for v in c if v == 0) / L) ** 2 for c, p in law.items())
        rep = zero_fraction_stats(t, L, N)
        assert rep.value("mean") == pytest.approx(mean, abs=1e-12)
        assert rep.value("variance") == pytest.approx(second - mean**2, abs=1e-12)

    def test_supercritical_trend_toward_half(self):
        vals = []
        means = []
        for L in (20, 40, 80):
            N = 2 * L
            t = build_logz(BULK, L, N)
            rep = zero_fraction_stats(t, L, N)
            vals.append(rep.value("variance"))
            means.append(rep.value("mean"))
        assert vals[0] > vals[1] > vals[2]
        assert abs(means[-1] - 0.5) < abs(means[0] - 0.5)
