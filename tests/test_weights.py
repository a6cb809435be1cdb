import json
import math

import numpy as np
import pytest

from pdlab import (
    WeightFamily,
    assumption_report,
    limit_weight_row,
    log_limit_weight,
    log_weight,
    log_weight_row,
    weight_sup_distance,
)

from pdlab.weights import limit_support

from oracle import inclusion_weight


INCLUSION = WeightFamily.inclusion(0.5)
BULK = WeightFamily.bulk_tail(1.0, 1, [0.5, 0.5])
TABLE = WeightFamily.from_table([1.0, 1.0, 1.0])


class TestLogWeight:
    def test_inclusion_n0_is_one(self):
        assert log_weight(INCLUSION, 17, 0) == 0.0

    def test_inclusion_first_weight_is_d(self):
        # w_L(1) = d = theta / L
        assert log_weight(INCLUSION, 10, 1) == pytest.approx(math.log(0.05), abs=1e-14)

    def test_bulk_tail_tail_value(self):
        assert log_weight(BULK, 20, 5) == pytest.approx(math.log(0.01), abs=1e-14)

    def test_bulk_tail_bulk_values(self):
        assert log_weight(BULK, 20, 0) == pytest.approx(math.log(0.5))
        assert log_weight(BULK, 20, 1) == pytest.approx(math.log(0.5))

    def test_table_beyond_support_is_minus_inf(self):
        assert log_weight(TABLE, 4, 3) == -math.inf

    @pytest.mark.parametrize("L", [10, 100, 10_000])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_inclusion_matches_log_gamma(self, L, theta):
        fam = WeightFamily.inclusion(theta)
        w = inclusion_weight(theta, L)
        row = log_weight_row(fam, L, 10_000)
        for n in (1, 2, 7, 99, 1234, 10_000):
            expected = math.log(w(n))
            assert row[n] == pytest.approx(expected, rel=1e-10)

    def test_bulk_tail_scaling_exact(self):
        # n * w_L(n) * L = theta for every n above the cutoff
        for L in (7, 20, 400):
            row = np.exp(log_weight_row(BULK, L, 300))
            n = np.arange(301)
            dev = np.abs(n[2:] * row[2:] * L - BULK.theta)
            assert dev.max() <= 1e-13

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_weight(INCLUSION, 0, 1)
        with pytest.raises(ValueError):
            log_weight(INCLUSION, 5, -1)


class TestLimitWeight:
    def test_inclusion_limit_concentrates_at_zero(self):
        assert log_limit_weight(INCLUSION, 0) == 0.0
        assert log_limit_weight(INCLUSION, 3) == -math.inf

    def test_bulk_tail_limit(self):
        assert log_limit_weight(BULK, 1) == pytest.approx(math.log(0.5))
        assert log_limit_weight(BULK, 2) == -math.inf

    @pytest.mark.parametrize("fam,n", [(INCLUSION, 1), (INCLUSION, 3), (BULK, 2), (BULK, 5)])
    def test_pointwise_limit_rate(self, fam, n):
        # |w_L(n) - w(n)| <= C / L, checked over three decades of L
        devs = []
        for L in (100, 1000, 10_000):
            wl = math.exp(log_weight(fam, L, n))
            w = math.exp(log_limit_weight(fam, n))
            devs.append(abs(wl - w) * L)
        assert max(devs) <= 2.0 * min(devs) + 1e-12

    # fresh parameters, so the cached row builder runs inside the warning filter
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fam,head", [
        (WeightFamily.inclusion(0.123), [1.0]),
        (WeightFamily.bulk_tail(0.7, 2, [0.25, 0.75, 0.0]), [0.25, 0.75]),
        (WeightFamily.from_table([1.0, 0.0, 3.0]), [1.0, 0.0, 3.0]),
    ], ids=["inclusion", "bulk_tail", "table"])
    def test_limit_row_is_the_L_none_row_and_its_closed_form(self, fam, head):
        N = 5000
        expected = np.full(N + 1, -math.inf)
        with np.errstate(divide="ignore"):
            expected[: len(head)] = np.log(head)
        row = limit_weight_row(fam, N)
        assert np.array_equal(row, expected)
        assert np.array_equal(log_weight_row(fam, None, N), expected)

    def test_per_L_table_limit_is_its_default_table(self):
        fam = WeightFamily.from_table([1.0, 2.0], per_L={5: [3.0, 0.0, 1.0]})
        inf = -math.inf
        assert limit_weight_row(fam, 3).tolist() == [0.0, math.log(2.0), inf, inf]
        assert log_weight_row(fam, 5, 3).tolist() == [math.log(3.0), inf, 0.0, inf]
        assert log_weight_row(fam, 4, 3).tolist() == [0.0, math.log(2.0), inf, inf]

    @pytest.mark.parametrize("fam,top", [
        (INCLUSION, 0),
        (BULK, 1),
        (WeightFamily.bulk_tail(1.0, 2, [0.5, 0.5, 0.0]), 1),
        (WeightFamily.from_table([0.0, 1.0, 1.0]), 2),
        (WeightFamily.from_table([1.0, 0.0, 0.0]), 0),
        (WeightFamily.from_table([0.0, 0.0]), 0),
    ])
    def test_limit_support(self, fam, top):
        assert limit_support(fam) == top


class TestSupDistance:
    def test_bulk_tail_formula(self):
        # max deviation sits at the first tail entry: theta / ((A+1) L)
        assert weight_sup_distance(BULK, 20) == pytest.approx(1.0 / 40.0, rel=1e-12)

    def test_inclusion_sup_at_n1(self):
        assert weight_sup_distance(INCLUSION, 50) == pytest.approx(0.5 / 50, rel=1e-9)

    def test_table_family_is_its_own_limit(self):
        assert weight_sup_distance(TABLE, 12) == 0.0


class TestAssumptionReport:
    def test_bulk_tail_b3_supremum_zero(self):
        rep = assumption_report(BULK, 50, 100, eps=0.1, J=BULK.A)
        assert rep.value("tail_sup_beyond_J") <= 1e-13

    def test_inclusion_a3_matches_direct_evaluation(self):
        L, N, eps = 100, 200, 0.1
        rep = assumption_report(WeightFamily.inclusion(0.5), L, N, eps=eps, J=1)
        w = inclusion_weight(0.5, L)
        direct = max(
            abs(n * w(n) * L - 0.5) for n in range(math.ceil(eps * N), N + 1)
        )
        assert rep.value("macroscopic_tail_sup") == pytest.approx(direct, rel=1e-9)
        assert direct < 0.05

    def test_bernoulli_overlap_uniform_bulk(self):
        rep = assumption_report(BULK, 30, 60, eps=0.1, J=1)
        assert rep.value("bernoulli_overlap") == pytest.approx(0.5)

    def test_rejects_empty_supremum_range(self):
        with pytest.raises(ValueError):
            assumption_report(BULK, 10, 5, eps=0.1, J=1)

    def test_subexponential_scan_present(self):
        rep = assumption_report(BULK, 64, 128, eps=0.1, J=1)
        labels = rep.labels()
        for a in (0.25, 0.5, 1.0):
            assert f"log_weight_rate_a={a}" in labels


class TestSerialization:
    def test_json_round_trip(self):
        for fam in (INCLUSION, BULK, TABLE):
            again = WeightFamily.from_json(json.dumps(fam.to_json_dict()))
            assert again == fam

    def test_from_json_dict(self):
        fam = WeightFamily.from_json({"kind": "bulk_tail", "theta": 1, "A": 1, "bulk": [0.5, 0.5]})
        assert fam == BULK

    def test_csv_table(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("L,n,w\n0,0,1\n0,1,1\n0,2,1\n7,0,1\n7,1,0.5\n")
        fam = WeightFamily.from_csv(path)
        assert math.exp(log_weight(fam, 7, 1)) == pytest.approx(0.5)
        assert math.exp(log_weight(fam, 9, 1)) == pytest.approx(1.0)

    def test_bulk_must_normalise(self):
        with pytest.raises(ValueError):
            WeightFamily.bulk_tail(1.0, 1, [0.5, 0.6])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightFamily.from_table([1.0, -0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightFamily.from_table([1.0, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            WeightFamily.from_table([1.0, 1.0], per_L={3: [1.0, bad]})
        with pytest.raises(ValueError, match="finite"):
            WeightFamily.bulk_tail(1.0, 2, [0.5, 0.5, bad])

    @pytest.mark.parametrize("doc", [
        '{"kind": "inclusion", "theta": Infinity}',
        '{"kind": "bulk_tail", "theta": Infinity, "A": 1, "bulk": [0.5, 0.5]}',
        '{"kind": "table", "theta": -Infinity, "weights": [1, 1]}',
    ], ids=["inclusion", "bulk_tail", "table"])
    def test_infinite_theta_rejected(self, doc):
        # Python's json parser reads Infinity; an inclusion family would get log Z = inf
        with pytest.raises(ValueError, match="theta must be finite"):
            WeightFamily.from_json(doc)
