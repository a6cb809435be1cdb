import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pdlab import (
    Configuration, SeededRng, WeightFamily, build_logz, cli, sample_configurations, to_partition,
)
from pdlab import ensembles
from pdlab.cli import main

from oracle import partition_blocks_by_concatenation


@pytest.fixture
def bulk_family(tmp_path):
    path = tmp_path / "bulk.json"
    path.write_text(json.dumps({"kind": "bulk_tail", "theta": 1.0, "A": 1, "bulk": [0.5, 0.5]}))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestWritePath:
    COMMANDS = {
        "zn": ["zn", "--L", "4", "--N", "6"],
        "sample": ["sample", "--L", "4", "--N", "6", "--count", "3", "--partitions"],
        "reversibility": ["reversibility", "--theta", "1", "--eps", "0.2", "--sizes", "3:6", "--mode", "exact"],
        "ensembles": ["ensembles", "--rho", "0.25", "--sizes", "8"],
        "condense": ["condense", "--rho", "2", "--theta", "1", "--sizes", "50"],
        "assumptions": ["assumptions", "--L", "8", "--N", "16"],
    }

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_family_file_parsed_once(self, tmp_path, bulk_family, monkeypatch, argv):
        parse, calls = WeightFamily.from_json, []

        def counted(source):
            calls.append(source)
            return parse(source)

        monkeypatch.setattr(WeightFamily, "from_json", counted)
        out = tmp_path / "o"
        assert run("--family", bulk_family, "--out", str(out), *argv) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, code", [
        (["zn", "--L", "8", "--N", "6"], 3),
        (["ensembles", "--rho", "0.25", "--sizes", "4,8"], 3),
        (["reversibility", "--theta", "1", "--eps", "0.1", "--sizes", "3:6,1:1", "--mode", "exact"], 2),
    ], ids=["zn", "ensembles", "reversibility"])
    def test_failed_command_writes_no_result_file(self, tmp_path, bulk_family, monkeypatch, argv, code):
        # a grid of L >= 8 fails after the smaller ones were built, and
        # reversibility refuses its second size (N < 2) after the first
        def build(family, L, N):
            if L >= 8:
                raise FloatingPointError(f"no grid for L = {L}")
            return build_logz(family, L, N)

        monkeypatch.setattr(cli, "build_logz", build)
        out = tmp_path / "o"
        assert run("--family", bulk_family, "--out", str(out), *argv) == code
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("argv", [
        ["zn", "--L", "5", "--N", "7"],
        ["condense", "--rho", "2", "--theta", "1", "--sizes", "10"],
    ], ids=["zn", "condense"])
    def test_out_that_is_a_file_is_config_error(self, tmp_path, bulk_family, capsys, argv):
        # zn fails creating the cache directory, condense creating the result directory
        out = tmp_path / "o"
        out.write_text("kept\n")
        assert run("--family", bulk_family, "--out", str(out), *argv) == 2
        assert "config error" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_family_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("--family", str(tmp_path), "--out", str(out), "zn", "--L", "5", "--N", "7") == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["zn", "--L", "100000000000000", "--N", "1"],
        ["sample", "--L", "1000", "--N", "10", "--count", "1000000000000"],
    ], ids=["zn", "sample"])
    def test_request_too_large_to_allocate_is_config_error(self, tmp_path, bulk_family, capsys, argv):
        # 1.42 PiB of grid and 7.11 PiB of draws: NumPy refuses them at once and touches no memory
        out = tmp_path / "o"
        assert run("--family", bulk_family, "--out", str(out), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("pdlab: config error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()


class TestZn:
    def test_writes_cache_and_csv(self, tmp_path, bulk_family):
        out = tmp_path / "out"
        assert run("--family", bulk_family, "--out", str(out), "zn", "--L", "8", "--N", "12") == 0
        csvs = list(out.glob("zn_*.csv"))
        caches = list(out.glob("logz_*.npy"))
        assert len(csvs) == 1 and len(caches) == 1
        body = csvs[0].read_text()
        assert body.startswith("# pdlab")
        assert '"command": "zn"' in body

    def test_byte_identical_rerun(self, tmp_path, bulk_family):
        a, b = tmp_path / "a", tmp_path / "b"
        run("--family", bulk_family, "--out", str(a), "zn", "--L", "6", "--N", "9")
        run("--family", bulk_family, "--out", str(b), "zn", "--L", "6", "--N", "9")
        fa = next(a.glob("zn_*.csv")).read_bytes()
        fb = next(b.glob("zn_*.csv")).read_bytes()
        assert fa == fb
        na = next(a.glob("logz_*.npy")).read_bytes()
        nb = next(b.glob("logz_*.npy")).read_bytes()
        assert na == nb

    def test_bad_L_is_config_error(self, tmp_path, bulk_family):
        assert run("--family", bulk_family, "--out", str(tmp_path), "zn", "--L", "0", "--N", "5") == 2

    def test_missing_family_is_config_error(self, tmp_path):
        assert run("--out", str(tmp_path), "zn", "--L", "2", "--N", "2") == 2

    @pytest.mark.parametrize("row", ["0,0", "0", "-1,1,0.5", "0,-1,0.5"])
    def test_malformed_family_csv_row_is_config_error(self, tmp_path, capsys, row):
        family = tmp_path / "short.csv"
        family.write_text(f"L,n,w\n0,0,1\n{row}\n0,1,1\n")
        out = tmp_path / "o"
        assert run("--family", str(family), "--out", str(out), "zn", "--L", "2", "--N", "2") == 2
        assert repr(row.split(",")) in capsys.readouterr().err
        assert not out.exists()


class TestSample:
    def test_seed_reproducibility(self, tmp_path, bulk_family):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("--family", bulk_family, "--seed", "11", "--out", str(out),
                "sample", "--L", "4", "--N", "6", "--count", "20")
        assert (a / "configurations.txt").read_bytes() == (b / "configurations.txt").read_bytes()

    def test_config_records_no_thread_count(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--seed", "5", "--out", str(out),
            "sample", "--L", "3", "--N", "4", "--count", "2")
        header = (out / "configurations.txt").read_text().splitlines()[1]
        config = json.loads(header.removeprefix("# config: "))
        assert config["seed"] == 5 and "threads" not in config

    def test_zero_mass_writes_all_zero_rows(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--out", str(out), "sample", "--L", "3", "--N", "0", "--count", "4")
        rows = [
            line for line in (out / "configurations.txt").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows == ["0 0 0"] * 4

    def test_count_matches(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--out", str(out), "sample", "--L", "4", "--N", "7", "--count", "13")
        rows = [
            line for line in (out / "configurations.txt").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(rows) == 13
        assert all(sum(map(int, r.split())) == 7 for r in rows)

    @pytest.mark.parametrize("N", [0, 14])
    def test_files_match_per_row_formatting(self, tmp_path, bulk_family, N):
        # the files as the per-row loop wrote them: str(int(v)) per entry, and
        # one sort, cut and division per configuration of positive mass
        L, count = 9, 400
        out = tmp_path / "o"
        run("--family", bulk_family, "--seed", "7", "--out", str(out),
            "sample", "--L", str(L), "--N", str(N), "--count", str(count), "--partitions")
        family = WeightFamily.bulk_tail(1.0, 1, [0.5, 0.5])
        occ = sample_configurations(build_logz(family, L, N), L, N, count, SeededRng(7))
        lines = [" ".join(str(int(v)) for v in row) for row in occ]
        rows = ["sample,rank,mass"]
        for s, row in enumerate(occ):
            if row.sum() == 0:
                continue
            desc = np.sort(row)[::-1]
            desc = desc[desc > 0]
            masses = (desc / int(row.sum())).tolist()
            rows += [f"{s},{r},{mass!r}" for r, mass in enumerate(masses, start=1)]
        for name, body in (("configurations.txt", lines), ("partitions.csv", rows)):
            text = (out / name).read_text()
            header = "".join(line + "\n" for line in text.splitlines()[:2])
            assert header.startswith("# pdlab")
            assert text == header + "\n".join(body) + "\n"

    @pytest.mark.parametrize("doc, L, N", [
        ({"kind": "bulk_tail", "theta": 1.0, "A": 2, "bulk": [0.5, 0.0, 0.5]}, 50, 100),
        ({"kind": "inclusion", "theta": 0.5}, 30, 90),
        ({"kind": "table", "weights": [0, 1, 1]}, 4, 7),  # w(0) = 0: every site positive
        ({"kind": "inclusion", "theta": 0.5}, 5, 0),
    ])
    def test_files_match_partition_masses_formatting(self, tmp_path, doc, L, N):
        # the text the lookup tables replace: str per entry, and repr of each
        # float that to_partition divides out of its row
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        out, count = tmp_path / "o", 2_000
        assert run("--family", str(path), "--seed", "3", "--out", str(out),
                   "sample", "--L", str(L), "--N", str(N), "--count", str(count), "--partitions") == 0
        occ = sample_configurations(build_logz(WeightFamily.from_json(doc), L, N), L, N, count, SeededRng(3))
        assert doc["kind"] != "table" or (occ > 0).all()
        lines = [" ".join(map(str, row)) for row in occ.tolist()]
        rows = ["sample,rank,mass"]
        for s, row in enumerate(occ):
            masses = to_partition(Configuration(row)).masses if N else ()
            rows += [f"{s},{r},{mass!r}" for r, mass in enumerate(masses, start=1)]
        assert len(rows) == 1 + (occ > 0).sum()
        for name, body in (("configurations.txt", lines), ("partitions.csv", rows)):
            # compared as lists: pytest's diff of two long unequal strings takes minutes
            got = (out / name).read_text().split("\n")
            assert all(line.startswith("# ") for line in got[:2])
            assert got[2:] == body + [""]

    @pytest.mark.parametrize("L, N, count", [
        (50, 100, 1),
        (50, 100, cli.PARTITION_CHUNK),
        (50, 100, cli.PARTITION_CHUNK + 1),
        (50, 100, 10_000),
        (6, 0, 5),
        (1, 7, 40),
    ])
    def test_partition_file_equals_concatenated_lines(self, tmp_path, monkeypatch, L, N, count):
        # the chunked writer against the per-line concatenation it replaced, byte for byte
        path = tmp_path / "gap.json"
        path.write_text(json.dumps({"kind": "bulk_tail", "theta": 1.0, "A": 2, "bulk": [0.5, 0.0, 0.5]}))
        argv = ["--family", str(path), "--seed", "4", "sample", "--L", str(L), "--N", str(N),
                "--count", str(count), "--partitions"]
        assert run("--out", str(tmp_path / "new"), *argv) == 0
        monkeypatch.setattr(
            cli, "_partition_blocks", lambda occ, N: partition_blocks_by_concatenation(occ.tolist(), occ.shape[1], N)
        )
        assert run("--out", str(tmp_path / "old"), *argv) == 0
        new, old = ((tmp_path / d / "partitions.csv").read_bytes() for d in ("new", "old"))
        # two comment lines, the column names, and at least one line per sample of positive mass
        assert new.count(b"\n") >= 3 + (count if N else 0)
        assert new == old

    def test_partition_file_memory_stays_small(self, tmp_path):
        # the sampling benchmark's draw; a string per partition line holds ~19 MB here
        path = tmp_path / "gap.json"
        path.write_text(json.dumps({"kind": "bulk_tail", "theta": 1.0, "A": 2, "bulk": [0.5, 0.0, 0.5]}))
        argv = ["--family", str(path), "--out", str(tmp_path / "o"),
                "sample", "--L", "50", "--N", "100", "--count", "10000", "--partitions"]
        tracemalloc.start()
        try:
            assert run(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_zero_partition_function_exits_2(self, tmp_path, capsys):
        family = tmp_path / "t111.json"
        family.write_text(json.dumps({"kind": "table", "weights": [1, 1, 1]}))
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="exactly zero"):
            code = run("--family", str(family), "--out", str(out),
                       "sample", "--L", "5", "--N", "11", "--count", "3")
        assert code == 2
        assert "Z_{5,11} is exactly zero" in capsys.readouterr().err
        assert not (out / "configurations.txt").exists()


class TestSplitMerge:
    def test_mass_column_constant(self, tmp_path):
        out = tmp_path / "o"
        run("--seed", "2", "--out", str(out), "splitmerge", "--theta", "1.0",
            "--t-max", "8", "--records", "8")
        rows = (out / "trajectory.csv").read_text().splitlines()
        header = rows[2].split(",")
        assert header == ["time", "p1", "p2", "p3", "l2sq", "merges", "splits"]
        for line in rows[3:]:
            parts = line.split(",")
            l2sq = float(parts[4])
            assert 0.0 < l2sq <= 1.0 + 1e-12

    def test_theta_zero_absorbs(self, tmp_path):
        out = tmp_path / "o"
        run("--seed", "3", "--out", str(out), "splitmerge", "--theta", "0.0",
            "--t-max", "50", "--records", "2", "--p0", "[0.5, 0.5]")
        last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, abs=1e-12)
        assert int(last[6]) == 0

    def test_seed_76_mass_stays_bounded(self, tmp_path):
        # this run once wrote p1 = 1 + 4.2e-15: splits then lost no mass to
        # rounding, but merges could still add it up past the total
        out = tmp_path / "o"
        run("--seed", "76", "--out", str(out), "splitmerge", "--theta", "1",
            "--t-max", "20000", "--records", "500")
        rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()[3:]]
        assert len(rows) == 500
        for row in rows:
            assert float(row[1]) <= 1.0
            assert 0.0 < float(row[4]) <= 1.0

    def test_seed_reproducibility(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run("--seed", "4", "--out", str(out), "splitmerge", "--theta", "0.7",
                "--t-max", "5", "--records", "5")
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("t_max", ["nan", "inf", "0"])
    def test_t_max_must_be_finite_and_positive(self, tmp_path, t_max):
        code = run("--seed", "1", "--out", str(tmp_path), "splitmerge", "--theta", "1",
                   "--t-max", t_max, "--records", "5")
        assert code == 2

    def test_zero_records_is_config_error(self, tmp_path, capsys):
        code = run("--seed", "1", "--out", str(tmp_path), "splitmerge", "--theta", "1",
                   "--t-max", "5", "--records", "0")
        assert code == 2
        assert "--records" in capsys.readouterr().err

    def test_family_is_refused(self, tmp_path, bulk_family, capsys):
        # the chain has no weights, so a family would be recorded in the header and do nothing
        out = tmp_path / "o"
        code = run("--family", bulk_family, "--out", str(out), "splitmerge", "--theta", "1",
                   "--t-max", "2", "--records", "2")
        assert code == 2
        assert "splitmerge takes no --family" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("p0", ["5", "[null]", "[[0.5]]", "[true]"])
    def test_p0_must_be_a_list_of_reals(self, tmp_path, p0):
        out = tmp_path / "o"
        code = run("--seed", "1", "--out", str(out), "splitmerge", "--theta", "1",
                   "--t-max", "5", "--records", "5", "--p0", p0)
        assert code == 2
        assert not (out / "trajectory.csv").exists()


class TestReversibility:
    def test_f_equals_g_zero_row(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--out", str(out), "reversibility", "--theta", "0.5",
            "--eps", "0.2", "--sizes", "3:6", "--mode", "exact", "--f", "p1", "--g", "p1")
        doc = json.loads((out / "reversibility.json").read_text())
        assert doc["result"][0]["defect"] == 0.0
        assert doc["result"][0]["mode"] == "exact"

    def test_exact_mc_cross_validation(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--seed", "5", "--out", str(out), "reversibility",
            "--theta", "0.5", "--eps", "0.2", "--sizes", "3:6", "--mode", "exact")
        exact = json.loads((out / "reversibility.json").read_text())["result"][0]["defect"]
        out2 = tmp_path / "o2"
        run("--family", bulk_family, "--seed", "5", "--out", str(out2), "reversibility",
            "--theta", "0.5", "--eps", "0.2", "--sizes", "3:6", "--mode", "mc",
            "--samples", "20000")
        mc = json.loads((out2 / "reversibility.json").read_text())["result"][0]
        assert abs(mc["defect"] - exact) < 3 * mc["se"]

    def test_schema_fields(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--out", str(out), "reversibility", "--theta", "1.0",
            "--eps", "0.25", "--sizes", "2:4,3:6", "--mode", "exact")
        rows = json.loads((out / "reversibility.json").read_text())["result"]
        assert len(rows) == 2
        for row in rows:
            assert {"L", "N", "eps", "theta", "f", "g", "defect", "se", "mode"} <= set(row)

    def test_unknown_function_rejected(self, tmp_path, bulk_family):
        code = run("--family", bulk_family, "--out", str(tmp_path), "reversibility",
                   "--theta", "1.0", "--eps", "0.1", "--sizes", "3:6", "--f", "nope")
        assert code == 2

    @pytest.mark.parametrize(
        "theta,eps,sizes",
        [("1", "0.1", "1:1"), ("1", "-0.3", "3:6"), ("-2", "0.1", "3:6"), ("inf", "0.1", "3:6"), ("1", "inf", "3:6")],
    )
    def test_lattice_parameters_rejected(self, tmp_path, theta, eps, sizes):
        family = tmp_path / "inc.json"
        family.write_text(json.dumps({"kind": "inclusion", "theta": 0.5}))
        out = tmp_path / "o"
        code = run("--family", str(family), "--out", str(out), "reversibility", "--theta", theta,
                   "--eps", eps, "--sizes", sizes, "--mode", "exact")
        assert code == 2
        assert not (out / "reversibility.json").exists()

    def test_cutoff_past_every_block_admits_no_move(self, tmp_path):
        # eps N = 6e300 is a cutoff past N: no merge or split, as at eps = 2
        family = tmp_path / "inc.json"
        family.write_text(json.dumps({"kind": "inclusion", "theta": 0.5}))
        out = tmp_path / "o"
        code = run("--family", str(family), "--out", str(out), "reversibility", "--theta", "1",
                   "--eps", "1e300", "--sizes", "3:6", "--mode", "exact")
        assert code == 0
        assert json.loads((out / "reversibility.json").read_text())["result"][0]["defect"] == 0.0

    def test_bad_sizes_rejected(self, tmp_path, bulk_family):
        code = run("--family", bulk_family, "--out", str(tmp_path), "reversibility",
                   "--theta", "1.0", "--eps", "0.1", "--sizes", "3x6")
        assert code == 2

    def test_exact_mode_refuses_a_sample_count(self, tmp_path, bulk_family, capsys):
        # exact mode sums over every partition: a count would be recorded and do nothing
        out = tmp_path / "o"
        code = run("--family", bulk_family, "--out", str(out), "reversibility", "--theta", "1",
                   "--eps", "0.1", "--sizes", "3:6", "--mode", "exact", "--samples", "100")
        assert code == 2
        assert "exact mode takes no sample count" in capsys.readouterr().err
        assert not out.exists()


class TestEnsembles:
    def test_rows_per_size_and_phi_echo(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--out", str(out), "ensembles",
            "--rho", "0.25", "--sizes", "8,16,32")
        lines = (out / "ensembles.csv").read_text().splitlines()
        ent_rows = [l for l in lines if l.startswith("entropy_bound")]
        assert len(ent_rows) == 3
        # the inverted fugacity Phi(0.25) = 1/3 is echoed in each row
        assert all(abs(float(l.split(",")[3]) - 1 / 3) < 1e-6 for l in ent_rows)

    def test_explicit_phi_honoured(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--out", str(out), "ensembles",
            "--rho", "0.25", "--sizes", "8", "--phi", "0.4")
        lines = (out / "ensembles.csv").read_text().splitlines()
        row = next(l for l in lines if l.startswith("entropy_bound"))
        assert float(row.split(",")[3]) == 0.4

    @pytest.mark.parametrize(
        "argv", [["--rho", "0.25", "--phi", "nan"], ["--rho", "nan"]], ids=["phi", "rho"]
    )
    def test_nan_fugacity_or_density_is_config_error(self, tmp_path, bulk_family, argv):
        code = run("--family", bulk_family, "--out", str(tmp_path), "ensembles",
                   *argv, "--sizes", "4")
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [["--rho", "0.25", "--phi", "inf"], ["--rho", "inf", "--phi", "0.5"]], ids=["phi", "rho"]
    )
    def test_infinite_fugacity_or_density_is_config_error(self, tmp_path, bulk_family, argv):
        out = tmp_path / "o"
        code = run("--family", bulk_family, "--out", str(out), "ensembles", *argv, "--sizes", "4")
        assert code == 2
        assert not (out / "ensembles.csv").exists()


    def test_phi_zero_reports_n_past_the_support(self, tmp_path, bulk_family):
        # phi = 0 tilts to a point mass at 0, so S_4 = 0 and N = 1 lies past its support
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run("--family", bulk_family, "--out", str(out), "ensembles",
                       "--rho", "0.25", "--sizes", "4", "--phi", "0")
        assert code == 0
        assert not [w for w in seen if "underflow" in str(w.message)]
        assert "entropy_bound,4,1,0.0,inf" in (out / "ensembles.csv").read_text()

    def test_unreachable_total_exits_2_before_any_fold(self, tmp_path, monkeypatch, capsys):
        # table [0,1,1]: every site holds >= 1, so no configuration of 8 sites carries N = 2
        family = tmp_path / "t011.json"
        family.write_text(json.dumps({"kind": "table", "weights": [0, 1, 1]}))
        folds = []
        fold = ensembles._power_convolve
        monkeypatch.setattr(ensembles, "_power_convolve", lambda p, L, horizon=None: folds.append(L) or fold(p, L, horizon))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run("--family", str(family), "--out", str(out), "ensembles", "--rho", "0.25", "--sizes", "8")
        assert code == 2
        assert "Z_{8,2} is exactly zero" in capsys.readouterr().err
        assert folds == []
        assert not [w for w in seen if "underflowed" in str(w.message)]
        assert not out.exists()

class TestNumericFailure:
    def test_supercritical_density_exits_3(self, tmp_path, bulk_family, capsys):
        # rho above the critical density has no limiting fugacity
        code = run("--family", bulk_family, "--out", str(tmp_path), "ensembles",
                   "--rho", "0.6", "--sizes", "8,16")
        assert code == 3
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "numeric"


class TestZnCache:
    def test_rerun_reuses_cache(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--out", str(out), "zn", "--L", "5", "--N", "7")
        cache = next(out.glob("logz_*.npy"))
        stamp = cache.stat().st_mtime_ns
        run("--family", bulk_family, "--out", str(out), "zn", "--L", "5", "--N", "7")
        assert cache.stat().st_mtime_ns == stamp  # not rebuilt

    def test_cache_round_trip(self, tmp_path, bulk_family):
        from pdlab.cli import load_logz_cache, save_logz_cache

        fam = WeightFamily.from_json(bulk_family)
        table = build_logz(fam, 6, 9)
        save_logz_cache(table, tmp_path)
        again = load_logz_cache(fam, 6, 9, tmp_path)
        assert again is not None
        assert again.logz.tobytes() == table.logz.tobytes()
        assert not again.logz.flags.writeable
        assert load_logz_cache(WeightFamily.inclusion(1.0), 6, 9, tmp_path) is None

    def test_grid_file_alone_is_a_hit(self, tmp_path, bulk_family):
        from pdlab.cli import load_logz_cache, save_logz_cache

        fam, cache = WeightFamily.from_json(bulk_family), tmp_path / "cache"
        cache.mkdir()
        table = build_logz(fam, 6, 9)
        path = save_logz_cache(table, cache)
        assert list(cache.iterdir()) == [path]
        # a sidecar left by an older version is not read
        path.with_suffix(".json").write_text("not json")
        again = load_logz_cache(fam, 6, 9, cache)
        assert again is not None and again.logz.tobytes() == table.logz.tobytes()

    def test_other_familys_grid_is_a_miss(self, tmp_path, bulk_family):
        from dataclasses import replace
        from pdlab.cli import load_logz_cache, save_logz_cache

        fam, other = WeightFamily.from_json(bulk_family), WeightFamily.inclusion(1.0)
        grid = build_logz(other, 6, 9)
        assert not np.array_equal(grid.logz[1], build_logz(fam, 6, 9).logz[1])
        save_logz_cache(replace(grid, family=fam), tmp_path)
        assert load_logz_cache(fam, 6, 9, tmp_path) is None

    def test_equal_weight_rows_share_a_grid(self, tmp_path):
        # the digests differ, the weight rows do not, so neither do the grids:
        # a check of the digest beyond the file name could only refuse a right grid
        from dataclasses import replace
        from pdlab.cli import load_logz_cache, save_logz_cache

        short, padded = WeightFamily.from_table([1, 1, 1]), WeightFamily.from_table([1, 1, 1, 0, 0])
        assert short.digest() != padded.digest()
        for fam, other in [(short, padded), (padded, short)]:
            want, theirs = build_logz(fam, 6, 9), build_logz(other, 6, 9)
            assert np.array_equal(want.log_w, theirs.log_w)
            save_logz_cache(replace(theirs, family=fam), tmp_path)
            got = load_logz_cache(fam, 6, 9, tmp_path)
            assert got is not None and got.logz.tobytes() == want.logz.tobytes()

    def test_untagged_grid_is_a_miss(self, tmp_path, bulk_family):
        # the name of a grid from the one-row-per-product kernel, which carried no
        # kernel tag; one ulp off in cell (L, N), it passes every value check
        from pdlab.cli import load_logz_cache

        fam, argv = WeightFamily.from_json(bulk_family), ("zn", "--L", "20", "--N", "40")
        grid = build_logz(fam, 20, 40).logz.copy()
        grid[20, 40] = np.nextafter(grid[20, 40], np.inf)
        warm, cold = tmp_path / "warm", tmp_path / "cold"
        warm.mkdir()
        np.save(warm / f"logz_{fam.digest()}_20_40.npy", grid)
        assert load_logz_cache(fam, 20, 40, warm) is None
        assert run("--family", bulk_family, "--out", str(warm), *argv) == 0
        assert run("--family", bulk_family, "--out", str(cold), *argv) == 0
        assert (warm / "zn_L20_N40.csv").read_bytes() == (cold / "zn_L20_N40.csv").read_bytes()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda grid: np.zeros((10, 10)),
            lambda grid: np.full((21, 41), np.nan),
            lambda grid: np.full((21, 41), np.inf),
            # the right shape, dtype and value range, but the wrong numbers
            lambda grid: np.zeros((21, 41)),
            lambda grid: np.concatenate([grid[:1], grid[1:2] + 1e-6, grid[2:]]),
        ],
        ids=["shape", "nan", "inf", "zeros", "row1_moved"],
    )
    def test_corrupt_cache_is_rebuilt(self, tmp_path, bulk_family, corrupt):
        out = tmp_path / "o"
        argv = ("--family", bulk_family, "--out", str(out), "zn", "--L", "20", "--N", "40")
        assert run(*argv) == 0
        csv, cache = next(out.glob("zn_*.csv")), next(out.glob("logz_*.npy"))
        good_csv, good_cache = csv.read_bytes(), cache.read_bytes()
        np.save(cache, corrupt(np.load(cache)))
        assert run(*argv) == 0
        assert csv.read_bytes() == good_csv
        assert cache.read_bytes() == good_cache


class TestCondense:
    def test_schema_and_target(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--out", str(out), "condense",
            "--rho", "2", "--theta", "1", "--sizes", "20,40")
        lines = (out / "condense.csv").read_text().splitlines()
        assert lines[2] == "quantity,L,N,eps,value"
        frac_rows = [l for l in lines if l.startswith("condensed_fraction")]
        assert len(frac_rows) == 2
        target = next(l for l in lines if l.startswith("alpha_target"))
        assert float(target.split(",")[4]) == pytest.approx(0.75)

    def test_infinite_density_is_config_error(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        code = run("--family", bulk_family, "--out", str(out), "condense",
                   "--rho", "inf", "--theta", "1", "--sizes", "4")
        assert code == 2
        assert not (out / "condense.csv").exists()

    def test_weights_that_all_vanish_are_config_error(self, tmp_path, capsys):
        # no configuration carries any mass: the table refuses the cell before
        # the critical density meets a tilted law with no terms
        family = tmp_path / "t00.json"
        family.write_text(json.dumps({"kind": "table", "weights": [0, 0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # build_logz warns that Z_{4,4} is zero
            code = run("--family", str(family), "--out", str(tmp_path / "o"), "condense",
                       "--rho", "1", "--theta", "1", "--sizes", "4")
        assert code == 2
        assert "Z_{4,4} is exactly zero" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["-1", "nan"])
    def test_eps_below_zero_is_config_error(self, tmp_path, bulk_family, eps):
        out = tmp_path / "o"
        code = run("--family", bulk_family, "--out", str(out), "condense",
                   "--rho", "2", "--theta", "1", "--eps", eps, "--sizes", "50")
        assert code == 2
        assert not (out / "condense.csv").exists()


class TestNonFiniteInput:
    @pytest.mark.parametrize("weights", ["[1.0, NaN, 1.0]", "[1.0, Infinity]"])
    def test_non_finite_table_weight_is_config_error(self, tmp_path, weights):
        # Python's json parser reads NaN and Infinity
        family = tmp_path / "t.json"
        family.write_text('{"kind": "table", "weights": %s}' % weights)
        out = tmp_path / "o"
        assert run("--family", str(family), "--out", str(out), "zn", "--L", "3", "--N", "4") == 2
        assert not out.exists()

    def test_infinite_family_theta_is_config_error(self, tmp_path):
        # an inclusion family with theta = inf would write log Z = inf
        family = tmp_path / "inc.json"
        family.write_text('{"kind": "inclusion", "theta": Infinity}')
        out = tmp_path / "o"
        assert run("--family", str(family), "--out", str(out), "zn", "--L", "3", "--N", "4") == 2
        assert not out.exists()

    def test_infinite_theta_in_splitmerge_is_config_error(self, tmp_path):
        # with theta = inf every wait is 0 and the event loop never ends, so
        # the run gets its own process and a timeout
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "o"
        script = "import sys; from pdlab.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["--out", str(out), "splitmerge", "--theta", "inf", "--t-max", "5", "--records", "2"]
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "theta must be >= 0 and finite" in proc.stderr
        assert not out.exists()

    def test_huge_theta_in_splitmerge_is_numeric_error(self, tmp_path):
        # theta = 1e300 makes every wait about 1e-300 while each split adds a
        # block: the loop stops at EVENT_WORK_CAP events x blocks, exit 3
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "o"
        script = "import sys; from pdlab.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["--out", str(out), "splitmerge", "--theta", "1e300", "--t-max", "5", "--records", "2"]
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert "EVENT_WORK_CAP" in json.loads(proc.stderr)["message"]
        assert not out.exists()

    def test_nan_theta_in_condense_is_config_error(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        code = run("--family", bulk_family, "--out", str(out), "condense",
                   "--rho", "2", "--theta", "nan", "--sizes", "20")
        assert code == 2
        assert not (out / "condense.csv").exists()


class TestImport:
    def test_import_loads_no_scipy(self):
        # numpy is the one runtime dependency; scipy is only a test reference
        script = (
            "import sys, pdlab, pdlab.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestAssumptions:
    def test_report_written(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        run("--family", bulk_family, "--out", str(out), "assumptions",
            "--L", "25", "--N", "50", "--eps", "0.1", "--J", "1")
        doc = json.loads((out / "assumptions.json").read_text())
        labels = {row["label"] for row in doc["result"]["series"]}
        assert "tail_sup_beyond_J" in labels
        assert doc["config"]["version"]

    @pytest.mark.parametrize("eps", ["inf", "nan", "2"])
    def test_eps_without_a_supremum_range_is_config_error(self, tmp_path, bulk_family, eps, capsys):
        # inf and nan have no ceil(eps N); at eps = 2 the range ceil(eps N)..N is empty
        out = tmp_path / "o"
        code = run("--family", bulk_family, "--out", str(out), "assumptions",
                   "--L", "4", "--N", "8", "--eps", eps)
        assert code == 2
        assert "empty supremum range" in capsys.readouterr().err
        assert not (out / "assumptions.json").exists()

    def test_negative_J_is_config_error(self, tmp_path, bulk_family):
        out = tmp_path / "o"
        code = run("--family", bulk_family, "--out", str(out), "assumptions",
                   "--L", "20", "--N", "40", "--J", "-5")
        assert code == 2
        assert not (out / "assumptions.json").exists()
