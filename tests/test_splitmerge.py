import math

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
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
    FUNCTION_LIBRARY,
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
    sample_configurations,
    simulate,
    split,
    stick_breaking,
    stick_breaking_batch,
    time_averaged_l2,
)
from pdlab import splitmerge
from pdlab.ensembles import cached_logz
from pdlab.partitions import _first_above
from pdlab.splitmerge import (
    _SplitMergeCore,
    _lattice_apply,
    _panel_points,
    _partition_count,
    _partitions,
    _tops_after,
)

from oracle import (
    LATTICE_TOL,
    MethodSplitMergeCore,
    NumpySplitMergeCore,
    simulate_by_methods,
    time_averaged_l2_by_methods,
    bulk_tail_weight,
    cutoff_apply_per_row,
    defect_integrand,
    enumerate_configs,
    inclusion_weight,
    lattice_apply_per_row,
    one_block_monomial_split,
    partition_function,
    reference_defect,
    searchsorted_pick,
    table_weight,
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


def slow_cutoff_apply(theta, eps, p: OrderedPartition, f) -> float:
    """Direct translation of the cutoff generator via the partition ops.

    The split integral is taken at the library's panel nodes, so quadrature
    error is the same on both sides and only the assembly is checked.
    """
    arr = list(p.masses)
    base = f(p)
    tol = 1e-9
    total_merge = 0.0
    for i in range(len(arr)):
        for j in range(len(arr)):
            if i != j and arr[i] >= eps - tol and arr[j] >= eps - tol:
                total_merge += arr[i] * arr[j] * (f(merge(p, i + 1, j + 1)) - base)
    total_split = 0.0
    for i, v in enumerate(arr):
        if v < 2 * eps:
            continue
        breaks = {0.5}
        for t, q in enumerate(arr):
            if t != i and 0 < q < v:
                breaks.update((q / v, 1.0 - q / v))
        us, ws = _panel_points(eps / v, 1.0 - eps / v, breaks)
        for u, w in zip(us, ws):
            total_split += v * v * w * (f(split(p, i + 1, u)) - base)
    return total_merge + theta * total_split


def tops_after_per_row(arr, owner, drop_i, drop_j, new_a, new_b, m):
    """Remove the owner row's dropped blocks, add the new values, sort, zero-pad to m: per move."""
    out = []
    for r in range(len(drop_i)):
        vals = [v for t, v in enumerate(arr[owner[r]]) if t not in (drop_i[r], drop_j[r])]
        vals += [new_a[r], new_b[r]]
        vals.sort(reverse=True)
        out.append((vals + [0.0] * m)[:m])
    return out


@st.composite
def moves_on_partitions(draw):
    """Descending mass rows zero-padded to one width, m, and merge and split moves on them.

    One to three rows; each move carries the index of the row it acts on.
    """
    grid = [0.5, 0.25, 0.2, 0.125, 0.1, 0.0625]
    masses = st.lists(st.sampled_from(grid) | st.floats(1e-6, 1.0), min_size=1, max_size=9)
    parts = [sorted(draw(masses), reverse=True) for _ in range(draw(st.integers(1, 3)))]
    width = max(map(len, parts))
    arr = np.array([p + [0.0] * (width - len(p)) for p in parts])
    m = draw(st.integers(1, 4))
    moves = []
    for _ in range(draw(st.integers(1, 6))):
        owner = draw(st.integers(0, len(parts) - 1))
        size, row = len(parts[owner]), arr[owner]
        if size >= 2 and draw(st.booleans()):
            i, j = sorted(draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True)))
            moves.append((owner, i, j, row[i] + row[j], 0.0))
        else:
            i = draw(st.integers(0, size - 1))
            # a piece equal to another block's mass makes a tie
            piece = min(draw(st.sampled_from(grid) | st.floats(0.0, 1.0)), row[i])
            moves.append((owner, i, i, piece, row[i] - piece))
    owner, drop_i, drop_j, new_a, new_b = (np.array(col) for col in zip(*moves))
    return arr, m, owner, drop_i, drop_j, new_a, new_b


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

    def test_split_pieces_sum_to_the_block(self):
        # the larger piece is rounded and the other is the block minus it, exact
        # by Sterbenz's lemma; two rounded products missed v for 3,426 of these pairs
        pairs = np.random.default_rng(0).random((100_000, 2)).tolist()
        for v, u in pairs:
            if v > 0.0 and u > 0.0:
                assert math.fsum(split(OrderedPartition.from_masses([v]), 1, u).masses) == v

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
                quad = generator_apply(theta, one, f)
                closed = one_block_monomial_split(theta, 1.0, f)
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

    def test_matches_slow_path(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = OrderedPartition.from_masses(rng.dirichlet(np.ones(5))[: int(rng.integers(1, 5))])
            eps = float(rng.choice([0.0, 0.02, 0.1, 0.3]))
            theta = float(rng.uniform(0.0, 2.0))
            for f in (P1, P1_P2, EXP_NEG_P1):
                fast = cutoff_generator_apply(theta, eps, p, f)
                slow = slow_cutoff_apply(theta, eps, p, f)
                assert fast == pytest.approx(slow, abs=1e-11)

    def test_negative_cutoff_rejected(self):
        p = OrderedPartition.from_masses([0.6, 0.4])
        with pytest.raises(ValueError, match="nonnegative"):
            cutoff_generator_apply(1.0, -0.1, p, P1)

    @pytest.mark.parametrize("theta", [-2.0, -1e-300, math.nan, math.inf])
    @pytest.mark.parametrize(
        "apply",
        [
            lambda theta: cutoff_generator_apply(theta, 0.1, OrderedPartition.from_masses([0.6, 0.4]), P1),
            lambda theta: generator_apply(theta, OrderedPartition.from_masses([0.6, 0.4]), P1),
        ],
        ids=["cutoff", "quadrature"],
    )
    def test_negative_theta_rejected(self, apply, theta):
        with pytest.raises(ValueError, match="theta must be >= 0"):
            apply(theta)


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

    def test_merged_block_is_the_lattice_point(self):
        # 2 + 1 particles merge into 3: mass 3/10, where 0.2 + 0.1 rounds above it
        got = discrete_generator_apply(0.0, 10, 0.1, OrderedPartition((0.2, 0.1)), P1)
        assert got == 2 * (10 / 9) * 0.2 * 0.1 * (3 / 10 - 0.2)

    def test_split_pieces_are_lattice_points(self):
        # 3 particles split into 2 + 1 or 1 + 2: p1 = 2/10, where 0.3 - 0.1 rounds below it
        got = discrete_generator_apply(1.0, 10, 0.1, OrderedPartition((0.3,)), P1)
        assert got == 2 * (1 / 9 * 0.3 * (0.2 - 0.3))

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_one_cutoff_for_merges_and_splits(self, theta):
        # eps N = 1 + 5e-9 is cutoff e = 2 for both moves, as at eps = 0.2: the
        # 1-particle block neither merges nor is split off
        p = OrderedPartition((0.5, 0.1))
        got = discrete_generator_apply(theta, 10, 0.1 + 5e-10, p, P1)
        assert got == discrete_generator_apply(theta, 10, 0.2, p, P1)
        if theta == 0.0:
            assert got == 0.0

    @pytest.mark.parametrize("eps", [1.1, 1e300, 1.7e308])
    def test_cutoff_past_n_admits_no_move(self, eps):
        # e = N + 1 at any eps N past N + 1, also where eps N overflows to inf
        p = OrderedPartition((0.5, 0.3, 0.2))
        assert discrete_generator_apply(1.0, 10, eps, p, P1) == 0.0

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

    @pytest.mark.parametrize(
        "theta,N,eps", [(-2.0, 10, 0.1), (1.0, 1, 0.1), (1.0, 10, 0.0), (1.0, 10, -0.3), (math.inf, 10, 0.1)]
    )
    def test_parameters_rejected(self, theta, N, eps):
        with pytest.raises(ValueError):
            discrete_generator_apply(theta, N, eps, OrderedPartition.from_masses([1.0]), P1)

    def test_one_over_N_convergence_to_cutoff_generator(self):
        p = OrderedPartition.from_masses([0.6, 0.4])
        eps = 0.1
        limit = cutoff_generator_apply(1.0, eps, p, P1_SQUARED)
        devs = []
        for N in (100, 1000, 10_000):
            devs.append(abs(discrete_generator_apply(1.0, N, eps, p, P1_SQUARED) - limit))
        assert devs[0] > devs[1] > devs[2]
        # one extra decade of N buys roughly a decade of accuracy
        assert 4 < devs[0] / devs[1] < 25
        assert 4 < devs[1] / devs[2] < 25


@st.composite
def lattice_cases(draw):
    """N, rows of descending counts of different lengths, and a cutoff.

    The rows are zero-padded to one width, with up to three more zero
    columns.  N runs to 10^6, where c_i / N + c_j / N often differs from
    (c_i + c_j) / N; a row holds at most 3000 particles, so the split moves
    stay few.  Some cutoffs lie on the 1/N grid.  Past N = 120, eps N lies on
    a count or at least 0.01 particle above one: the per-block reference
    admits merges of blocks LATTICE_TOL N particles below eps N, a band the
    kernel's integer cutoff ceil(eps N) leaves out.
    """
    N = draw(st.integers(2, 120) | st.integers(121, 10**6))
    top = min(N, 3000)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        total = draw(st.integers(0, top))
        cuts = draw(st.lists(st.integers(0, total), max_size=7))
        parts = np.diff(np.array(sorted([0, *cuts, total])))
        rows.append(sorted(parts[parts > 0].tolist(), reverse=True))
    width = max(map(len, rows)) + draw(st.integers(0, 3))
    counts = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.int64)
    if N <= 120:
        eps = draw(st.floats(1e-3, 0.6) | st.integers(1, 12).map(lambda j: j / N))
    else:
        count = draw(st.integers(1, 12) | st.integers(1, top // 2))
        eps = (count + draw(st.just(0.0) | st.floats(0.01, 0.99))) / N
    return N, counts, eps


class TestKernelsAgainstPerBlockReference:
    """The batched move sums against the per-block generators in the oracle."""

    @staticmethod
    def assert_close(got, want, arr, theta, eps):
        """Within 1e-12, and exactly 0 when the masses arr admit no move.

        A split needs theta > 0 and a block >= 2 eps, a merge two blocks >= eps
        (two positive blocks at eps = 0); blocks within LATTICE_TOL of a cut
        count as admitting it.  Where moves exist their terms can cancel
        exactly, and the two sums may round that zero differently.
        """
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        splits = theta != 0.0 and (arr >= 2 * eps - LATTICE_TOL).any()
        merges = (arr >= eps - LATTICE_TOL if eps > 0.0 else arr > 0.0).sum() >= 2
        if not (splits or merges):
            assert got == want == 0.0

    @given(case=lattice_cases(), theta=st.just(0.0) | st.floats(0.0, 3.0))
    @example(case=(12, np.array([[4, 4, 4, 0]]), 1 / 12), theta=1.0)
    @example(case=(12, np.array([[4, 4, 4, 0], [6, 3, 0, 0], [12, 0, 0, 0]]), 1 / 12), theta=1.0)
    @example(case=(10, np.array([[10]]), 0.5), theta=0.0)
    # the merges of p1*p2 cancel in exact arithmetic: -4.3e-19 batched, 0.0 per row
    @example(case=(32, np.array([[18, 6, 3, 3]]), 2 / 32), theta=0.0)
    @settings(max_examples=300, deadline=None)
    def test_lattice(self, case, theta):
        N, counts, eps = case
        fs = tuple(FUNCTION_LIBRARY.values())
        got, got_base = _lattice_apply(theta, N, eps, counts, fs)
        for r, row in enumerate(counts):
            arr = row[row > 0] / N
            want, want_base = lattice_apply_per_row(theta, N, eps, arr, fs)
            assert [base[r] for base in got_base] == want_base
            for a, b in zip(got, want):
                self.assert_close(a[r], b, arr, theta, eps)

    @given(
        weights=st.lists(st.sampled_from([1.0, 0.5, 0.25]) | st.floats(1e-3, 1.0), min_size=1, max_size=6),
        slack=st.just(0.0) | st.floats(0.0, 2.0),
        eps=st.just(0.0) | st.floats(0.0, 0.4),
        theta=st.just(0.0) | st.floats(0.0, 3.0),
        name=st.sampled_from(sorted(FUNCTION_LIBRARY)),
    )
    @example(weights=[1.0], slack=0.0, eps=0.0, theta=0.5, name="p1+p2")
    # masses (0.4, 0.4, 0.2) at eps = 0.1: a block of exactly 2 eps has no split points
    @example(weights=[1.0, 1.0, 0.5], slack=0.0, eps=0.1, theta=1.0, name="p1*p2")
    @settings(max_examples=300, deadline=None)
    def test_cutoff(self, weights, slack, eps, theta, name):
        p = OrderedPartition.from_masses(np.array(weights) / (sum(weights) + slack))
        f, arr = FUNCTION_LIBRARY[name], p.as_array()
        got, want = cutoff_generator_apply(theta, eps, p, f), cutoff_apply_per_row(theta, eps, arr, f)
        self.assert_close(got, want, arr, theta, eps)


class TestTopsAfterMoves:
    @given(case=moves_on_partitions())
    @settings(max_examples=300, deadline=None)
    def test_matches_remove_add_sort(self, case):
        arr, m, owner, drop_i, drop_j, new_a, new_b = case
        got = _tops_after(arr, owner, drop_i, drop_j, new_a, new_b, m)
        assert got.tolist() == tops_after_per_row(arr.tolist(), owner, drop_i, drop_j, new_a, new_b, m)


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

    @pytest.mark.parametrize("seed,stream", [(4, 0), (76, 3)])
    def test_equal_streams_replay_equal_states(self, seed, stream):
        # uniforms are read in whole blocks, so both runs also leave their
        # generators at the same place
        p0 = OrderedPartition.from_masses([0.6, 0.4])
        a_rng, b_rng = SeededRng(seed, stream), SeededRng(seed, stream)
        a = simulate(1.0, p0, 30.0, a_rng, sample_times=[1.0, 10.0, 30.0])
        b = simulate(1.0, p0, 30.0, b_rng, sample_times=[1.0, 10.0, 30.0])
        assert [(s.partition.masses, s.time, s.merges, s.splits) for s in a] == [
            (s.partition.masses, s.time, s.merges, s.splits) for s in b
        ]
        assert a_rng.generator.random() == b_rng.generator.random()

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_end_state_is_the_one_before_the_next_event(self, theta):
        # step the NumPy reference until its clock passes t = 5: the blocks
        # before that event are the state at t = 5 of both loops
        masses = [0.5, 0.25, 0.125, 0.0625]
        ref = NumpySplitMergeCore(masses, theta, SeededRng(9).generator)
        t, before = 0.0, OrderedPartition.from_masses(masses)
        while (t := t + ref.step()) < 5.0:
            before = OrderedPartition.from_masses(ref.blocks)
        p0 = OrderedPartition.from_masses(masses)
        state = simulate(theta, p0, 5.0, SeededRng(9), sample_times=[5.0])[0]
        _, end = time_averaged_l2(theta, p0, 0.0, 5.0, SeededRng(9))
        assert state.partition.masses == end.partition.masses == before.masses
        assert state.merges + state.splits == end.merges + end.splits == ref.merges + ref.splits - 1

    def test_records_the_state_at_each_sample_time(self):
        # PD(0.5) is stationary, so the state at t = 0.5 has mean sum p^2 = 2/3.
        # At theta != 1 the total rate depends on the state: the state after the
        # next event, recorded in its place, reads 0.638 here (z = -18)
        rng = SeededRng(1)
        pieces, _ = stick_breaking_batch(0.5, 1.0, 20_000, rng.generator)
        l2 = np.empty(len(pieces))
        for r, row in enumerate(pieces):
            state = simulate(0.5, OrderedPartition.from_masses(row), 0.5, rng, sample_times=[0.5])[0]
            l2[r] = math.fsum(v * v for v in state.partition.masses)
        se = l2.std(ddof=1) / math.sqrt(l2.size)
        assert abs(l2.mean() - 2.0 / 3.0) < 5 * se

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

    def test_time_average_validation(self):
        p0 = OrderedPartition.from_masses([1.0])
        with pytest.raises(ValueError, match="theta"):
            time_averaged_l2(-1.0, p0, 0.0, 1.0, SeededRng(0))
        with pytest.raises(ValueError, match="initial mass"):
            time_averaged_l2(1.0, OrderedPartition.from_masses([]), 0.0, 1.0, SeededRng(0))

    def test_nan_theta_rejected(self):
        # a NaN rate never stops the event loop, so it must be refused up front
        p0 = OrderedPartition.from_masses([1.0])
        with pytest.raises(ValueError, match="theta must be >= 0"):
            simulate(math.nan, p0, 5.0, SeededRng(1), sample_times=[5.0])
        with pytest.raises(ValueError, match="theta must be >= 0"):
            time_averaged_l2(math.nan, p0, 0.0, 1.0, SeededRng(0))

    def test_infinite_theta_rejected(self):
        # every wait would be 0 and splits repeat forever: the core refuses it
        # before any loop runs (pdlab splitmerge --theta inf is tested in a subprocess)
        with pytest.raises(ValueError, match="theta must be >= 0 and finite"):
            _SplitMergeCore([1.0], math.inf, SeededRng(0).generator)

    @pytest.mark.parametrize(
        "t_max,sample_times",
        [(math.nan, ()), (math.inf, ()), (5.0, [1.0, math.nan]), (5.0, [-1.0, 1.0]), (5.0, [6.0])],
        ids=["t_max_nan", "t_max_inf", "time_nan", "time_negative", "time_past_t_max"],
    )
    def test_times_must_be_finite_and_in_range(self, t_max, sample_times):
        # a time the clock never passes would keep the event loop running forever
        p0 = OrderedPartition.from_masses([1.0])
        with pytest.raises(ValueError):
            simulate(1.0, p0, t_max, SeededRng(1), sample_times=sample_times)

    @pytest.mark.parametrize(
        "burn_in,duration",
        [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (0.0, math.nan), (0.0, math.inf), (0.0, 0.0)],
        ids=["burn_in_nan", "burn_in_inf", "burn_in_negative", "duration_nan", "duration_inf", "duration_zero"],
    )
    def test_time_average_needs_finite_window(self, burn_in, duration):
        p0 = OrderedPartition.from_masses([1.0])
        with pytest.raises(ValueError, match="finite"):
            time_averaged_l2(1.0, p0, burn_in, duration, SeededRng(0))

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


class TestEventLoop:
    """The Python-list event step against the NumPy step it replaced."""

    @given(
        weights=st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.3, 1.0, 1e-300, 7.0]), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_pick_matches_searchsorted(self, weights, data):
        cum = list(itertools.accumulate(weights))
        # a partial sum exactly, a point inside the range, the total and past it
        x = data.draw(
            st.one_of(
                st.sampled_from([0.0, *cum]),
                st.floats(0.0, cum[-1]),
                st.floats(cum[-1], 2.0 * cum[-1] + 1.0),
            )
        )
        assert _first_above(cum, x) == searchsorted_pick(weights, x)

    def test_pick_skips_zero_mass_and_clamps(self):
        cum = list(itertools.accumulate([0.0, 0.5, 0.0, 0.5]))
        assert _first_above(cum, 0.0) == 1
        assert _first_above(cum, 0.5) == 3
        assert _first_above(cum, 1.0) == 3
        assert _first_above(cum, 5.0) == 3

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("masses", [[1.0], [0.4, 0.2], [0.5, 0.25, 0.125, 0.0625]])
    def test_states_equal_numpy_step(self, theta, masses):
        for seed in range(4):
            g, g_ref = SeededRng(seed).generator, SeededRng(seed).generator
            core, ref = _SplitMergeCore(masses, theta, g), NumpySplitMergeCore(masses, theta, g_ref)
            loop = core.events()
            dt = next(loop)
            for _ in range(5_000):
                assert dt == ref.step()
                if math.isinf(dt):
                    break
                # resuming applies the jump; the next yield shows the state after it
                dt = next(loop)
                assert core.blocks == ref.blocks
            assert (core.merges, core.splits, core.s2) == (ref.merges, ref.splits, ref.s2)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 50.0])
    @pytest.mark.parametrize(
        "masses", [[1.0], [0.5, 0.25, 0.125, 0.0625], [1 / 40] * 40], ids=["one", "halving", "forty"]
    )
    def test_loop_equals_method_calls(self, theta, masses):
        # from 0.65 events per unit time at theta = 0.5 to 2 at theta = 50, so at
        # theta > 0 t_max = 8000 passes at least one s2 refresh (every 4096 events)
        p0 = OrderedPartition.from_masses(masses)
        times = [0.0, 0.5, 10.0, 100.0, 1000.0, 4000.0, 8000.0]
        for seed in (3, 8):
            g, g_ref = SeededRng(seed).generator, SeededRng(seed).generator
            got = simulate(theta, p0, 8000.0, g, sample_times=times)
            want = simulate_by_methods(theta, p0, 8000.0, g_ref, sample_times=times)
            assert [(s.partition.masses, s.time, s.merges, s.splits) for s in got] == [
                (s.partition.masses, s.time, s.merges, s.splits) for s in want
            ]
            avg, end = time_averaged_l2(theta, p0, 100.0, 7000.0, g)
            avg_ref, end_ref = time_averaged_l2_by_methods(theta, p0, 100.0, 7000.0, g_ref)
            assert avg.hex() == avg_ref.hex()
            assert (end.partition.masses, end.merges, end.splits) == (
                end_ref.partition.masses, end_ref.merges, end_ref.splits
            )
            # both read whole uniform blocks, so the generators end at the same place
            assert g.random() == g_ref.random()

    @pytest.mark.parametrize("theta", [0.5, 1.0, 50.0])
    @pytest.mark.parametrize(
        "masses", [[1.0], [0.5, 0.25, 0.125, 0.0625], [1 / 40] * 40], ids=["one", "halving", "forty"]
    )
    def test_loop_parks_where_method_calls_wait(self, theta, masses):
        # at every wait the loop shows the state and the running s2 the method form
        # holds before its wait, across two s2 refreshes
        core = _SplitMergeCore(masses, theta, SeededRng(5).generator)
        ref = MethodSplitMergeCore(masses, theta, SeededRng(5).generator)
        for dt in itertools.islice(core.events(), 9_000):
            s2 = ref.s2
            assert dt.hex() == ref.wait().hex()
            assert (core.blocks, core.merges, core.splits, core.s2.hex()) == (
                ref.blocks, ref.merges, ref.splits, s2.hex()
            )
            ref.jump()

    def test_sent_values_are_ignored(self):
        # the loop has one protocol: resuming it by send(True) is the same as next()
        a = _SplitMergeCore([0.5, 0.5], 1.0, SeededRng(2).generator)
        b = _SplitMergeCore([0.5, 0.5], 1.0, SeededRng(2).generator)
        loop = a.events()
        sent = [next(loop), *(loop.send(True) for _ in range(500))]
        assert sent == list(itertools.islice(b.events(), 501))
        assert (a.blocks, a.merges, a.splits) == (b.blocks, b.merges, b.splits)

    def test_splits_keep_the_exact_total(self):
        # pieces are stored as v - (rounded larger piece): their sum is v exactly,
        # so the exactly rounded sum of all blocks never moves on a split
        core = _SplitMergeCore([0.3, 0.1], 1.0, SeededRng(12).generator)
        before, splits = math.fsum(core.blocks), core.splits
        # each yield after the first shows the state after one more event
        for _ in itertools.islice(core.events(), 2_001):
            if core.splits > splits:
                assert math.fsum(core.blocks) == before
            before, splits = math.fsum(core.blocks), core.splits

    def test_merges_never_pass_the_total(self):
        core = _SplitMergeCore([0.4, 0.2], 1.0, SeededRng(76).generator)
        for _ in itertools.islice(core.events(), 20_001):
            assert max(core.blocks) <= core.s1

    def test_scaled_waits_are_standard_exponential(self):
        # dt * rate is Exp(1) whatever uniforms feed -log1p(-u); the KS distance
        # of 20,000 scaled waits must stay inside the DKW band at delta = 1e-6
        n, delta = 20_000, 1e-6
        core = _SplitMergeCore([0.5, 0.25, 0.125, 0.0625], 0.5, SeededRng(31).generator)
        scaled = np.empty(n)
        for k, dt in enumerate(itertools.islice(core.events(), n)):
            # the rate of the state each wait leaves
            total = max(core.s1 * core.s1 - core.s2, 0.0) + core.theta * core.s2
            scaled[k] = dt * total
        scaled.sort()
        cdf = -np.expm1(-scaled)
        ranks = np.arange(1, n + 1) / n
        ks = max((ranks - cdf).max(), (cdf - (ranks - 1.0 / n)).max())
        assert ks < math.sqrt(math.log(2.0 / delta) / (2.0 * n))


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

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            rn_derivative_check(WeightFamily.inclusion(0.5), 5, 10, samples, SeededRng(0))

    def test_inclusion_identity_tight(self):
        fam = WeightFamily.inclusion(0.5)
        rep = rn_derivative_check(fam, 10, 20, samples=2000, rng=SeededRng(7))
        assert rep.value("max_abs_log_deviation") <= 1e-12

    def test_bulk_tail_identity_tight(self):
        rep = rn_derivative_check(
            WeightFamily.bulk_tail(1.0, 1, [0.5, 0.5]), 8, 16, samples=2000, rng=SeededRng(8)
        )
        assert rep.value("max_abs_log_deviation") <= 1e-12


# (family, oracle weight as a function of L): smooth, a gap at w(1) = 0, and w(0) = 0
DEFECT_FAMILIES = {
    "inclusion": (WeightFamily.inclusion(0.5), lambda L: inclusion_weight(0.5, L)),
    "gap": (
        WeightFamily.bulk_tail(1.0, 2, [0.5, 0.0, 0.5]),
        lambda L: bulk_tail_weight(1.0, 2, [0.5, 0.0, 0.5], L),
    ),
    "w0_zero": (WeightFamily.from_table([0.0, 1.0, 1.0]), lambda L: table_weight([0.0, 1.0, 1.0])),
}


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

    def test_mc_cross_validates_exact_at_10_40(self):
        # and at (14, 50), 127,786 partitions, which batched rows make a second's work
        for L, N, n_states in [(10, 40, 16_928), (14, 50, 127_786)]:
            exact = reversibility_defect(self.FAM, L, N, 0.1, 0.5, P1, P1_P2, mode="exact")
            mc = reversibility_defect(
                self.FAM, L, N, 0.1, 0.5, P1, P1_P2, mode="mc", samples=20_000, rng=SeededRng(40)
            )
            assert exact.n == n_states
            assert abs(mc.defect - exact.defect) < 3 * mc.stderr

    def test_exact_cap_enforced(self):
        with pytest.raises(ValueError, match="mc"):
            reversibility_defect(self.FAM, 40, 80, 0.1, 0.5, P1, P1_P2, mode="exact")

    def test_partition_count_matches_enumeration(self):
        for L in range(1, 7):
            for N in range(13):
                parts = list(_partitions(N, L, N))
                sorted_configs = {tuple(sorted(c, reverse=True)) for c in enumerate_configs(L, N)}
                assert set(parts) == sorted_configs
                assert _partition_count(N, L) == len(parts) == len(sorted_configs)

    @given(
        kind=st.sampled_from(sorted(DEFECT_FAMILIES)),
        L=st.integers(1, 5),
        N=st.integers(2, 12),
        eps=st.floats(0.02, 0.6),
        theta=st.floats(0.0, 3.0),
        fg=st.sampled_from(list(itertools.product(sorted(FUNCTION_LIBRARY), repeat=2))),
    )
    @example(kind="w0_zero", L=4, N=6, eps=0.1, theta=0.5, fg=("p1", "p1*p2"))
    @example(kind="gap", L=5, N=12, eps=0.1, theta=0.5, fg=("p1", "p1"))
    @settings(max_examples=40, deadline=None)
    def test_exact_matches_composition_walk(self, kind, L, N, eps, theta, fg):
        family, w = DEFECT_FAMILIES[kind]
        # w(0) = 0 and w(n > 2) = 0 leave only L <= N <= 2L
        assume(partition_function(w(L), L, N) > 0.0)
        f, g = (FUNCTION_LIBRARY[name] for name in fg)
        want = reference_defect(w(L), L, N, eps, theta, f, g)
        got = reversibility_defect(family, L, N, eps, theta, f, g, mode="exact").defect
        assert abs(got - want) <= 1e-12
        if want == 0.0:
            assert got == 0.0

    def test_exact_past_composition_cap(self):
        # 10,295,472 compositions but only 2,462 partitions
        res = reversibility_defect(self.FAM, 8, 30, 0.1, 0.5, P1, P1_P2, mode="exact")
        assert res.n == 2462
        assert math.isfinite(res.defect)

    def test_exact_zero_partition_function_rejected(self):
        # w(n) = 0 for n > 2: three sites cannot hold seven particles
        fam = WeightFamily.from_table([1.0, 1.0, 1.0])
        with pytest.warns(UserWarning, match="exactly zero"):
            with pytest.raises(ValueError, match="exactly zero"):
                reversibility_defect(fam, 3, 7, 0.1, 0.5, P1, P1_P2, mode="exact")

    def test_mc_groups_match_per_row_loop(self, monkeypatch):
        L, N, samples, chunk = 6, 12, 3000, 1000
        monkeypatch.setattr(splitmerge, "MC_CHUNK", chunk)
        res = reversibility_defect(
            self.FAM, L, N, 0.1, 0.5, P1, P1_P2, mode="mc", samples=samples, rng=SeededRng(4),
        )
        rng, table = SeededRng(4), cached_logz(self.FAM, L, N)
        total = total_sq = 0.0
        for _ in range(samples // chunk):
            for row in sample_configurations(table, L, N, chunk, rng):
                h = defect_integrand(0.5, N, 0.1, P1, P1_P2, row)
                total += h
                total_sq += h * h
        mean = total / samples
        stderr = math.sqrt((total_sq - samples * mean * mean) / (samples - 1) / samples)
        assert res.defect == pytest.approx(mean, rel=1e-12)
        assert res.stderr == pytest.approx(stderr, rel=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize(
        "L,N,eps,theta",
        [(1, 1, 0.1, 1.0), (3, 6, -0.3, 1.0), (3, 6, 0.1, -2.0), (3, 6, 0.1, math.inf), (3, 6, math.inf, 1.0)],
    )
    def test_lattice_parameters_rejected(self, mode, L, N, eps, theta):
        with pytest.raises(ValueError):
            reversibility_defect(
                self.FAM, L, N, eps, theta, P1, P1_P2, mode=mode, samples=10, rng=SeededRng(0)
            )

    def test_mc_needs_samples(self):
        with pytest.raises(ValueError):
            reversibility_defect(self.FAM, 3, 6, 0.1, 0.5, P1, P1_P2, mode="mc")
