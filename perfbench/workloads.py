"""The benchmark's workloads: inputs made from a seed, one round of timed
operations, and the checks run on the outputs of the last round.

Every round repeats the same operations on the same inputs, with the same
random streams, so rounds are interchangeable and a run's median is a median
over identical jobs.  Library calls go through ``pdlab.<name>`` at call time,
so the traced run sees them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from functools import partial
from pathlib import Path

import numpy as np

import pdlab as P
import pdlab.cli

import checks
import reference as ref

# criterion-5 family: w(0) = w(1) = 1/2 and a theta / (n L) tail; rho_c = 1/2
BULK = {"kind": "bulk_tail", "theta": 1.0, "A": 1, "bulk": [0.5, 0.5]}
# w(1) = 0, so a singly occupied site is impossible in a correct draw; rho_c = 1
GAP = {"kind": "bulk_tail", "theta": 1.0, "A": 2, "bulk": [0.5, 0.0, 0.5]}
FLAT = {"kind": "table", "weights": [1.0, 1.0, 1.0]}
INCLUSION_THETA = 0.5
# lattice reversibility defect of p1 and p1*p2 on the inclusion family
DEFECT_EPS, DEFECT_THETA = 0.1, 0.5


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def critical_density(doc: dict) -> float:
    return math.fsum(n * w for n, w in enumerate(doc["bulk"]))


def allowed_occupations(doc: dict, N: int) -> np.ndarray:
    """Occupations of positive weight, read from the family's definition."""
    if doc.get("kind") != "bulk_tail":
        return np.ones(N + 1, dtype=bool)
    return np.array([n > doc["A"] or doc["bulk"][n] > 0 for n in range(N + 1)])


def csv_rows(text: str) -> list[list[str]]:
    """Data rows of a pdlab CSV output: comment lines and the header dropped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.reader(lines[1:]))


class Workload:
    """One set of inputs; ``operations`` lists one round of the timed job."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out: dict = {}

    def setup(self) -> None:
        """Prepare inputs; counted in setup_s."""

    def operations(self) -> list:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def begin_round(self) -> None:
        shutil.rmtree(self.work / "round", ignore_errors=True)
        (self.work / "round").mkdir(parents=True)
        self.out = {}

    def family_file(self, name: str, doc: dict) -> str:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def cli(self, out: str, *argv) -> Path:
        """Run one pdlab command in this process; returns its output directory."""
        out_dir = self.work / "round" / out
        args = ["--out", str(out_dir), *(str(a) for a in argv)]
        code = P.cli.main(args)
        if code != 0:
            raise RuntimeError(f"pdlab {' '.join(args)} exited with {code}")
        return out_dir


class Exact(Workload):
    """log Z builds, exact marginals and diagnostics, and exact enumeration."""

    BULK_SIZES = (100, 200, 400)  # the criterion-5 grid, N = 2L
    SMALL = (100, 200)  # inclusion and table [1,1,1] grids
    ZN = (200, 400)
    CONDENSE = ("2", "1", "50,100,200")  # rho, theta, sizes
    ENSEMBLES = (0.25, (32, 128, 512))  # rho, sizes (criterion 6)
    DEFECT = (5, 20)  # 10,626 compositions
    CORNER = (20, 40)  # bulk_tail cells checked by exact rational recursion

    def setup(self):
        self.bulk = P.WeightFamily.from_json(BULK)
        self.inclusion = P.WeightFamily.inclusion(INCLUSION_THETA)
        self.flat = P.WeightFamily.from_json(FLAT)
        self.bulk_file = self.family_file("bulk", BULK)

    def operations(self):
        ops = [
            (f"build_logz bulk_tail {L}x{2 * L}", partial(self.build, ("bulk", L), self.bulk, L, 2 * L))
            for L in self.BULK_SIZES
        ]
        return ops + [
            ("build_logz inclusion", partial(self.build, "inclusion", self.inclusion, *self.SMALL)),
            ("build_logz table", partial(self.build, "flat", self.flat, *self.SMALL)),
            ("marginals", self.marginals),
            ("condensation", self.condensation),
            ("pdlab zn cold", partial(self.zn, "zn cold")),
            ("pdlab zn warm", partial(self.zn, "zn warm")),
            ("pdlab condense", self.condense),
            ("pdlab ensembles", self.ensembles),
            ("reversibility_defect exact", self.defect),
        ]

    def build(self, key, family, L, N):
        self.out[key] = P.build_logz(family, L, N)

    def tables(self):
        yield "inclusion", self.out["inclusion"]
        yield "table [1,1,1]", self.out["flat"]
        for L in self.BULK_SIZES:
            yield f"bulk_tail {L}x{2 * L}", self.out["bulk", L]

    def marginals(self):
        self.out["marginals"] = {}
        for label, t in self.tables():
            L, N = t.L_max, t.N_max
            self.out["marginals"][label] = P.single_site_marginals(t, L, N)
            self.out["marginals"][label + " size-biased"] = P.size_biased_marginals(t, L, N)

    def condensation(self):
        t = self.out["bulk", self.BULK_SIZES[-1]]
        L, N = t.L_max, t.N_max
        self.out["condensation"] = (
            P.condensed_fraction(t, L, N, 0.05),
            P.alpha_from_second_moment(t, L, N, BULK["theta"]),
        )

    def zn(self, key):
        L, N = self.ZN
        out = self.cli("zn", "--family", self.bulk_file, "zn", "--L", L, "--N", N)
        self.out[key] = (out / f"zn_L{L}_N{N}.csv").read_bytes()

    def condense(self):
        rho, theta, sizes = self.CONDENSE
        out = self.cli(
            "condense", "--family", self.bulk_file, "condense", "--rho", rho, "--theta", theta, "--sizes", sizes
        )
        self.out["condense"] = (out / "condense.csv").read_text()

    def ensembles(self):
        rho, sizes = self.ENSEMBLES
        out = self.cli(
            "ensembles", "--family", self.bulk_file, "ensembles", "--rho", rho,
            "--sizes", ",".join(map(str, sizes)),
        )
        self.out["ensembles"] = (out / "ensembles.csv").read_text()

    def defect(self):
        L, N = self.DEFECT
        self.out["defect"] = P.reversibility_defect(
            self.inclusion, L, N, DEFECT_EPS, DEFECT_THETA, P.P1, P.P1_P2, mode="exact"
        )

    def check(self):
        o = self.out
        fails = checks.inclusion_grid(o["inclusion"].logz, INCLUSION_THETA, "inclusion log Z")
        fails += checks.flat_table_grid(o["flat"].logz, len(FLAT["weights"]) - 1, "table [1,1,1] log Z")
        for L in self.BULK_SIZES:
            fails += checks.bulk_tail_corner(
                o["bulk", L].logz, BULK["theta"], BULK["A"], BULK["bulk"], *self.CORNER,
                f"bulk_tail {L}x{2 * L} log Z",
            )
        fails += checks.same_bytes(o["zn cold"], o["zn warm"], "pdlab zn warm rerun")
        for label, vec in o["marginals"].items():
            fails += checks.sums_to_one(vec, f"{label} marginal")

        rho_c = critical_density(BULK)
        target = 1.0 - rho_c / 2.0  # N = 2L
        frac, alpha = o["condensation"]
        fails += checks.near(frac, target, 0.05, "condensed fraction at 400x800")
        fails += checks.near(alpha, target, 0.05, "alpha estimate at 400x800")
        rows = {r[0]: float(r[4]) for r in csv_rows(o["condense"]) if not r[1]}
        fails += checks.near(rows.get("critical_density", math.nan), rho_c, 1e-12, "pdlab condense rho_c")
        fails += checks.near(rows.get("alpha_target", math.nan), target, 1e-12, "pdlab condense alpha target")

        rho, sizes = self.ENSEMBLES
        series: dict[str, list[float]] = {}
        for q, L, _, phi, value in csv_rows(o["ensembles"]):
            if q in ("entropy_bound", "tv_distance"):
                # limit law w(0) = w(1) = 1/2 has mean phi / (1 + phi)
                fails += checks.near(float(phi), rho / (1.0 - rho), 1e-8, f"pdlab ensembles phi at L={L}")
                series.setdefault(q, []).append(float(value))
        for q in ("entropy_bound", "tv_distance"):
            fails += checks.strictly_decreasing(series.get(q, []), f"pdlab ensembles {q} over L={sizes}")
            if len(series.get(q, [])) != len(sizes):
                fails.append(f"pdlab ensembles: {q} rows missing")

        L, N = self.DEFECT
        want = ref.lattice_defect(INCLUSION_THETA, L, N, DEFECT_EPS, DEFECT_THETA, ref.p1, ref.p1_p2)
        fails += checks.near(o["defect"].defect, want, 1e-12, f"exact defect at ({L},{N})")
        return fails


class Sampling(Workload):
    """Draws from tables built in set-up, the sampling CLI, stick-breaking, and
    split-merge replicas, a CLI trajectory and Monte Carlo defects."""

    GAP_SIZE = (200, 400)
    INCLUSION_SIZE = (100, 200)
    BATCH = 10_000
    SCALAR = {"gap": 1_000, "inclusion": 500}  # scalar draws grow a per-table cache
    SIZE_BIASED = 100_000
    SIZE_BIASED_SCALAR = 1_000
    CLI_SAMPLE = (50, 100, 10_000)  # L, N, count
    STICK = (1.0, 0.8, 50_000)  # theta, alpha, rows
    THETA = 1.0  # split-merge
    REPLICAS = 600
    BURN_IN, HORIZON = 10.0, 50.0  # the criterion-3 protocol
    T_MAX, RECORDS = 20_000.0, 500  # about one event per unit time at theta = 1
    DEFECTS = ((50, 100, 2_000), (3, 6, 4_000))  # L, N, samples

    def setup(self):
        self.families = {"gap": P.WeightFamily.from_json(GAP), "inclusion": P.WeightFamily.inclusion(INCLUSION_THETA)}
        self.sizes = {"gap": self.GAP_SIZE, "inclusion": self.INCLUSION_SIZE}
        self.cache = self.work / "tables"
        self.cache.mkdir()
        for name, family in self.families.items():
            P.save_logz_cache(P.build_logz(family, *self.sizes[name]), self.cache)
        self.gap_file = self.family_file("gap", GAP)
        self.p0 = P.OrderedPartition.from_masses([1.0])

    def operations(self):
        return [
            ("load_logz_cache", self.load),
            ("sample_configurations gap", partial(self.batch, "gap", 1)),
            ("sample_configurations inclusion", partial(self.batch, "inclusion", 2)),
            ("sample_configuration gap", partial(self.scalar, "gap", 3)),
            ("sample_configuration inclusion", partial(self.scalar, "inclusion", 4)),
            ("sample_size_biased_blocks", self.size_biased),
            ("pdlab sample --partitions", self.cli_sample),
            ("stick_breaking_batch", self.stick),
            ("pd_gof", self.diagnostics),
            ("simulate replicas", self.replicas),
            ("pdlab splitmerge", self.trajectory),
        ] + [(f"reversibility_defect mc {L}x{N}", partial(self.defect, L, N, samples)) for L, N, samples in self.DEFECTS]

    def load(self):
        # a fresh table object per round, so every round starts with empty per-table caches
        self.tables = {}
        for name, family in self.families.items():
            table = P.load_logz_cache(family, *self.sizes[name], self.cache)
            if table is None:
                raise RuntimeError(f"no cached table for {name}")
            self.tables[name] = table

    def batch(self, name, stream):
        L, N = self.sizes[name]
        self.out[name, "batch"] = P.sample_configurations(
            self.tables[name], L, N, self.BATCH, P.SeededRng(self.seed, stream)
        )

    def scalar(self, name, stream):
        L, N = self.sizes[name]
        table, rng = self.tables[name], P.SeededRng(self.seed, stream)
        rows = np.empty((self.SCALAR[name], L), dtype=np.int64)
        partitions = []
        before = rss_mb()
        for i in range(rows.shape[0]):
            cfg = P.sample_configuration(table, L, N, rng)
            rows[i] = cfg.occupations
            partitions.append(P.to_partition(cfg))
            P.size_biased(partitions[-1], 2, rng)
        # the first round's growth, in a fresh process, is sampler.scalar.rss_growth_mb
        self.out["rss growth mb"] = self.out.get("rss growth mb", 0.0) + rss_mb() - before
        self.out[name, "scalar"] = rows
        self.out[name, "partitions"] = partitions

    def diagnostics(self):
        partitions = self.out["gap", "partitions"]
        rng = P.SeededRng(self.seed, 7)
        self.out["pd_gof"] = P.pd_gof(partitions, GAP["theta"], 0.5, rng)
        self.out["variance_one_norm"] = P.variance_one_norm(partitions)

    def size_biased(self):
        L, N = self.GAP_SIZE
        table, rng = self.tables["gap"], P.SeededRng(self.seed, 5)
        self.out["size-biased"] = P.sample_size_biased_blocks(table, L, N, self.SIZE_BIASED, rng)
        self.out["size-biased scalar"] = np.array(
            [P.sample_size_biased_block(table, L, N, rng) for _ in range(self.SIZE_BIASED_SCALAR)]
        )

    def cli_sample(self):
        L, N, count = self.CLI_SAMPLE
        out = self.cli(
            "sample", "--family", self.gap_file, "--seed", self.seed,
            "sample", "--L", L, "--N", N, "--count", count, "--partitions",
        )
        lines = [x for x in (out / "configurations.txt").read_text().splitlines() if not x.startswith("#")]
        self.out["cli configurations"] = np.array([[int(v) for v in x.split()] for x in lines], dtype=np.int64)
        self.out["cli partitions"] = (out / "partitions.csv").read_text()

    def stick(self):
        theta, alpha, rows = self.STICK
        gen = P.SeededRng(self.seed, 6).generator
        self.out["stick"] = P.stick_breaking_batch(theta, alpha, rows, gen)[0]

    def replicas(self):
        g = P.SeededRng(self.seed, 8).generator
        t_end = self.BURN_IN + self.HORIZON
        totals, l2, firsts = (np.empty(self.REPLICAS) for _ in range(3))
        for r in range(self.REPLICAS):
            state = P.simulate(self.THETA, self.p0, t_end, g, sample_times=[t_end])[0]
            masses = state.partition.masses
            totals[r] = math.fsum(masses)
            l2[r] = math.fsum(m * m for m in masses)
            firsts[r] = P.positive_size_biased(state.partition, 1, g).values[0]
        self.out["replicas"] = (totals, l2, firsts)

    def trajectory(self):
        out = self.cli(
            "splitmerge", "--seed", self.seed, "splitmerge", "--theta", self.THETA,
            "--t-max", self.T_MAX, "--records", self.RECORDS,
        )
        self.out["trajectory"] = (out / "trajectory.csv").read_text()

    def defect(self, L, N, samples):
        self.out["defect", L, N] = P.reversibility_defect(
            self.families["inclusion"], L, N, DEFECT_EPS, DEFECT_THETA, P.P1, P.P1_P2,
            mode="mc", samples=samples, rng=P.SeededRng(self.seed, 10 + L),
        )

    def check(self):
        o = self.out
        pick = np.random.default_rng([self.seed, 2026])  # benchmark-side, not the program's
        fails = []
        for name, (L, N) in self.sizes.items():
            allowed = allowed_occupations(GAP if name == "gap" else {}, N)
            pooled = []
            for kind in ("batch", "scalar"):
                occ = o[name, kind]
                fails += checks.configurations(occ, N, allowed, f"{name} {kind} draws")
                # one uniformly chosen site per draw: draws are independent, sites within one are not
                pooled.append(occ[np.arange(occ.shape[0]), pick.integers(L, size=occ.shape[0])])
            if name == "inclusion":
                law = ref.inclusion_marginal(INCLUSION_THETA, L, N)
            else:
                law = P.single_site_marginals(self.tables[name], L, N)
            fails += checks.occupation_law(np.concatenate(pooled), law, f"{name} occupation law")
        L, N = self.GAP_SIZE
        sb_law = P.size_biased_marginals(self.tables["gap"], L, N)
        blocks = np.concatenate([o["size-biased"], o["size-biased scalar"]])
        fails += checks.occupation_law(blocks, sb_law, "size-biased block law")
        L, N, count = self.CLI_SAMPLE
        occ = o["cli configurations"]
        if occ.shape != (count, L):
            fails.append(f"pdlab sample: configurations have shape {occ.shape}, expected {(count, L)}")
        fails += checks.configurations(occ, N, allowed_occupations(GAP, N), "pdlab sample configurations")
        fails += checks.partitions_csv(o["cli partitions"], count, "pdlab sample partitions.csv")
        theta, alpha, _ = self.STICK
        fails += checks.stick_moments(o["stick"], theta, alpha, "stick-breaking moments")
        L, N = self.GAP_SIZE
        l2 = ((o["gap", "scalar"] / N) ** 2).sum(axis=1).mean()
        fails += checks.near(o["pd_gof"].value("l2sq_mean"), l2, 1e-12, "pd_gof mean ||p||^2 of the scalar draws")
        # every canonical partition carries mass exactly 1
        fails += checks.near(o["variance_one_norm"][1], 0.0, 1e-20, "variance of the partitions' total mass")

        totals, l2, firsts = o["replicas"]
        fails += checks.mass_conserved(totals, "replica states")
        fails += checks.mean_within_se(l2, 1.0 / (1.0 + self.THETA), "replica mean ||p||^2")
        fails += checks.ks_uniform(firsts, "first size-biased block vs U[0,1]")
        fails += checks.trajectory_csv(o["trajectory"], self.RECORDS, "pdlab splitmerge trajectory.csv")
        for L, N, samples in self.DEFECTS:
            res = o["defect", L, N]
            if res.n != samples or not math.isfinite(res.defect):
                fails.append(f"MC defect at ({L},{N}): n = {res.n}, defect = {res.defect!r}")
        exact = ref.lattice_defect(INCLUSION_THETA, 3, 6, DEFECT_EPS, DEFECT_THETA, ref.p1, ref.p1_p2)
        res = o["defect", 3, 6]
        fails += checks.mc_matches_exact(res.defect, res.stderr, exact, "MC defect at (3,6)")
        return fails


WORKLOADS = {"exact": Exact, "sampling": Sampling}
