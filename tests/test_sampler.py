import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from pdlab.sampler import HEAD, _check_draws

from oracle import (
    config_law,
    partition_by_from_masses,
    sample_configuration_by_item,
    sample_configurations_by_group,
    table_weight,
)

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
    # w(0) = 0: no site takes 0, so the scalar walk's n = 0 test never passes
    "table_0_1_1": (WeightFamily.from_table([0.0, 1.0, 1.0]), 10, 15),
    # 3 particles on 40 sites: the mass runs out after a few sites
    "inclusion_40x3": (INCLUSION, 40, 3),
}


class _AlwaysNearOne:
    """Stand-in stream whose every uniform is the largest double below 1."""

    class generator:
        @staticmethod
        def random(size=None):
            u = 1.0 - 2.0**-53
            return u if size is None else np.full(size, u)


class _ConstantStream:
    """Stand-in stream whose every uniform is u."""

    def __init__(self, u):
        self.u = u
        self.generator = self

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


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
    def test_scalar_draw_leaves_the_stream_where_a_batch_of_one_does(self, cell):
        fam, L, N = cell
        t = build_logz(fam, L, N)
        for seed in range(5):
            one, batch = SeededRng(seed), SeededRng(seed)
            sample_configuration(t, L, N, one)
            sample_configurations(t, L, N, 1, batch)
            assert one.generator.random() == batch.generator.random()

    @pytest.mark.parametrize(
        "cell",
        [*EDGE_CELLS.values(), (GAP, 200, 400), (INCLUSION, 100, 200)],
        ids=[*EDGE_CELLS.keys(), "gap_200x400", "inclusion_100x200"],
    )
    def test_draws_equal_item_walk(self, cell):
        # the memoryview reads the same doubles in the same order as ndarray.item
        fam, L, N = cell
        t = build_logz(fam, L, N)
        for seed in range(200):
            got, want = SeededRng(seed), SeededRng(seed)
            occ = sample_configuration(t, L, N, got).occupations.tolist()
            assert occ == sample_configuration_by_item(t.logz, t.log_w, L, N, want.generator)
            assert got.generator.random() == want.generator.random()

    def test_fortran_ordered_grid_gives_the_same_draws(self):
        fam, L, N = EDGE_CELLS["gap"]
        t = build_logz(fam, L, N)
        f = dataclasses.replace(t, logz=np.asfortranarray(t.logz))
        assert not f.logz.flags.c_contiguous
        for seed in range(50):
            want = sample_configuration(t, L, N, SeededRng(seed)).occupations
            assert sample_configuration(f, L, N, SeededRng(seed)).occupations.tolist() == want.tolist()

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


class TestBatchMatchesGroupLoop:
    """The one-matrix-per-site batch draw against the per-remainder loop it replaced."""

    @staticmethod
    def _assert_equal_draws(fam, L, N, count, seed):
        t = build_logz(fam, L, N)
        got_rng, want_rng = SeededRng(seed), SeededRng(seed)
        got = sample_configurations(t, L, N, count, got_rng)
        want = sample_configurations_by_group(t.logz, t.log_w, L, N, count, want_rng.generator)
        assert np.array_equal(got, want)
        # both read one uniform per lane and site, so the streams stay in step
        assert got_rng.generator.random() == want_rng.generator.random()
        return got

    @given(
        cell=st.sampled_from(sorted(EDGE_CELLS)),
        seed=st.integers(0, 2**32 - 1),
        count=st.sampled_from([1, 2, 5, 64, 500]),
    )
    @example(cell="table_1e-200_1", seed=0, count=1)
    @example(cell="gap", seed=76, count=500)
    @settings(max_examples=30, deadline=None)
    def test_draws_equal_group_loop(self, cell, seed, count):
        self._assert_equal_draws(*EDGE_CELLS[cell], count, seed)

    @pytest.mark.parametrize("cell", EDGE_CELLS.values(), ids=EDGE_CELLS.keys())
    def test_rounded_up_targets_clamp_like_group_loop(self, cell):
        # u just below 1 can round u * cum[r] up to cum[r]; both must take r
        fam, L, N = cell
        t = build_logz(fam, L, N)
        got = sample_configurations(t, L, N, 3, _AlwaysNearOne())
        want = sample_configurations_by_group(t.logz, t.log_w, L, N, 3, _AlwaysNearOne.generator)
        assert np.array_equal(got, want)

    def test_uniform_on_a_partial_sum_moves_past_it(self):
        # table [1, 1] at (2, 1): p = (1/2, 1/2), and u = 1/2 lands on cum[0]
        # exactly; "first n with cum > u" is n = 1 on both paths
        t = build_logz(WeightFamily.from_table([1.0, 1.0]), 2, 1)
        got = sample_configurations(t, 2, 1, 4, _ConstantStream(0.5))
        want = sample_configurations_by_group(t.logz, t.log_w, 2, 1, 4, _ConstantStream(0.5))
        assert np.array_equal(got, want)
        assert got.tolist() == [[1, 0]] * 4

    def test_row_that_underflows_takes_r(self):
        # a grid whose row L-2 is e^1000 times too small makes every second-site
        # row underflow to zero: cum[r] = 0 = u * cum[r], and the clamp hands
        # the lane its whole remainder r, never more
        L, N = 6, 10
        t = build_logz(INCLUSION, L, N)
        logz = t.logz.copy()
        logz[L - 2] -= 1e3
        t = dataclasses.replace(t, logz=logz)
        got = sample_configurations(t, L, N, 500, SeededRng(8))
        want = sample_configurations_by_group(t.logz, t.log_w, L, N, 500, SeededRng(8).generator)
        assert np.array_equal(got, want)
        assert (got[:, 2:].sum(axis=1) == 0).all() and (got[:, 0] < N).any()

    @pytest.mark.parametrize("fam, L, N", [(GAP, 200, 400), (INCLUSION, 100, 200)], ids=["gap", "inclusion"])
    def test_benchmark_sizes_equal_group_loop(self, fam, L, N):
        # most lanes settle on the head cells, a few search their row
        occ = self._assert_equal_draws(fam, L, N, 10_000, 1)[:, :-1]
        assert 0 < (occ >= HEAD).mean() < 0.1

    def test_dense_family_equals_group_loop(self):
        # a flat weight on 0..40: most draws take n >= HEAD and search the matrix
        occ = self._assert_equal_draws(WeightFamily.from_table([1.0] * 41), 20, 400, 2_000, 2)[:, :-1]
        assert (occ >= HEAD).mean() > 0.9

    @pytest.mark.parametrize("table, L, N", [([1.0, 1.0], 2, 1), ([1.0] * 3, 3, 2), ([1.0] * 3, 4, 3)])
    @pytest.mark.parametrize("count", [1, 500])
    def test_rows_narrower_than_the_head_equal_group_loop(self, table, L, N, count):
        # every remainder r < HEAD, or the row ends before the head does
        self._assert_equal_draws(WeightFamily.from_table(table), L, N, count, 4)

    def test_narrow_row_that_underflows_takes_r(self):
        # table [1, 1] at (3, 1): the first site's row is two cells wide, and a
        # grid whose row 2 is e^1000 times too small makes it underflow to zero;
        # both cells then sit at the target 0, and the lane takes r = 1, not 2
        L, N = 3, 1
        t = build_logz(WeightFamily.from_table([1.0, 1.0]), L, N)
        logz = t.logz.copy()
        logz[L - 1] -= 1e3
        t = dataclasses.replace(t, logz=logz)
        got = sample_configurations(t, L, N, 50, SeededRng(5))
        want = sample_configurations_by_group(t.logz, t.log_w, L, N, 50, SeededRng(5).generator)
        assert np.array_equal(got, want)
        assert (got[:, 0] == 1).all()

    def test_lanes_that_run_out_early_stay_equal(self):
        # w(0) = 1e-200 at 12 sites and 7 particles: lanes spend their mass
        # before the last sites, so later sites mix r = 0 lanes with others
        fam, L, N = EDGE_CELLS["table_1e-200_1"]
        t = build_logz(fam, L, N)
        got = sample_configurations(t, L, N, 2_000, SeededRng(3))
        want = sample_configurations_by_group(t.logz, t.log_w, L, N, 2_000, SeededRng(3).generator)
        assert np.array_equal(got, want)
        spent_early = got[:, : L - 2].sum(axis=1) == N
        assert spent_early.any() and not spent_early.all()


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

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize(
        "draw",
        [sample_configurations, sample_size_biased_blocks],
        ids=["configurations", "blocks"],
    )
    def test_count_below_one(self, draw, count):
        t = build_logz(BULK, 3, 4)
        with pytest.raises(ValueError, match="count must be >= 1"):
            draw(t, 3, 4, count, SeededRng(0))

    def test_blocks_outside_table(self):
        t = build_logz(BULK, 2, 4)
        with pytest.raises(ValueError, match="covers up to"):
            sample_size_biased_blocks(t, 3, 4, 10, SeededRng(0))


def corrupt_table():
    """Table [1, 1, 1] at (2, 4), where only (2, 2) carries weight, with two
    cells of row 1 swapped in value: Z_{1,4} = 1 and Z_{1,2} = 0.  Every draw
    then leaves the first site empty and hands the last site w(4) = 0."""
    t = build_logz(TABLE111, 2, 4)
    logz = t.logz.copy()
    logz[1, 4], logz[1, 2] = 0.0, -np.inf
    return dataclasses.replace(t, logz=logz)


class TestDrawCheck:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda t, rng: sample_configuration(t, 2, 4, rng),
            lambda t, rng: sample_configurations(t, 2, 4, 5, rng),
        ],
        ids=["configuration", "configurations"],
    )
    def test_zero_weight_last_site_rejected(self, draw):
        with pytest.raises(FloatingPointError, match="zero-weight"):
            draw(corrupt_table(), SeededRng(0))

    @given(
        log_w=st.lists(st.sampled_from([0.0, -1.5, -math.inf]), min_size=1, max_size=7),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_draw_refused_as_a_batch_of_one(self, log_w, data):
        # a single draw gathers its weights, a batch reads the zero-weight mask
        N = len(log_w) - 1
        row = np.array(data.draw(st.lists(st.integers(0, N), min_size=1, max_size=5)), dtype=np.int64)
        table = types.SimpleNamespace(log_w=np.array(log_w + [0.0]))

        def refused(occ):
            try:
                _check_draws(table, occ, N)
            except FloatingPointError:
                return True
            return False

        assert refused(row) == refused(row[None, :])

    def test_check_survives_optimised_mode(self):
        script = textwrap.dedent(
            """
            import dataclasses, sys
            import numpy as np
            from pdlab import SeededRng, WeightFamily, build_logz, sample_configurations
            if __debug__:
                sys.exit("not running under -O")
            t = build_logz(WeightFamily.from_table([1.0, 1.0, 1.0]), 2, 4)
            logz = t.logz.copy()
            logz[1, 4], logz[1, 2] = 0.0, -np.inf
            try:
                sample_configurations(dataclasses.replace(t, logz=logz), 2, 4, 5, SeededRng(0))
            except FloatingPointError:
                sys.exit(0)
            sys.exit("corrupt grid accepted")
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_exits_3(self, tmp_path, monkeypatch, capsys):
        from pdlab import cli

        family = tmp_path / "t111.json"
        family.write_text('{"kind": "table", "weights": [1, 1, 1]}')
        monkeypatch.setattr(cli, "build_logz", lambda fam, L, N: corrupt_table())
        code = cli.main(["--family", str(family), "--out", str(tmp_path / "o"),
                         "sample", "--L", "2", "--N", "4", "--count", "3"])
        assert code == 3
        assert "zero-weight" in capsys.readouterr().err
        assert not (tmp_path / "o" / "configurations.txt").exists()


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

    @pytest.mark.parametrize("cell", ["gap", "inclusion", "table_0_1_1"])
    def test_masses_equal_from_masses(self, cell):
        fam, L, N = EDGE_CELLS[cell]
        t = build_logz(fam, L, N)
        rng = SeededRng(12)
        for _ in range(1_000):
            cfg = sample_configuration(t, L, N, rng)
            assert to_partition(cfg).masses == partition_by_from_masses(cfg.occupations).masses

    @pytest.mark.parametrize(
        "occ", [[0, 0, 7, 0], [5], [3, 3, 3, 3], [1] * 9], ids=["one_site", "one_of_one", "equal", "equal_ninths"]
    )
    def test_hand_cases_equal_from_masses(self, occ):
        occ = np.array(occ)
        assert to_partition(Configuration(occ)).masses == partition_by_from_masses(occ).masses


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
