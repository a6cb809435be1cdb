"""Show that every check the workloads run can fail.

    python3 perfbench/selftest.py      # from the root of a pdlab checkout

Each case feeds one check a correct output of the program, which must pass,
and a wrong one, which must be rejected.  The inputs are small versions of
the workloads' outputs.  Exits non-zero if any check passes a wrong answer or
rejects a right one.
"""

from __future__ import annotations

import json
import shutil
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np

import pdlab as P
import pdlab.cli

import checks
import reference as ref
import workloads as W


def perturbed(grid: np.ndarray, cell, delta: float) -> np.ndarray:
    out = np.array(grid)
    out[cell] += delta
    return out


def cases(work: Path):
    # --- exact ---------------------------------------------------------
    incl = P.build_logz(P.WeightFamily.inclusion(0.5), 20, 40).logz
    yield "inclusion log Z, one cell +1e-6", lambda g: checks.inclusion_grid(g, 0.5, "x"), incl, perturbed(incl, (7, 13), 1e-6)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Z_{10,25} = 0 is wanted here: the grid has exact-zero cells
        flat = P.build_logz(P.WeightFamily.from_json(W.FLAT), 10, 25).logz
    flat_check = lambda g: checks.flat_table_grid(g, 2, "x")
    yield "table [1,1,1] log Z, one cell +1e-6", flat_check, flat, perturbed(flat, (9, 4), 1e-6)
    finite = np.array(flat)
    finite[5, 11] = -50.0  # 11 > 2 * 5 particles: an exact zero
    yield "table [1,1,1] log Z, exact-zero cell made finite", flat_check, flat, finite

    bulk = P.build_logz(P.WeightFamily.from_json(W.BULK), 30, 60).logz
    corner = lambda g: checks.bulk_tail_corner(g, 1.0, 1, [0.5, 0.5], 20, 40, "x")
    yield "bulk_tail log Z corner, one cell +1e-6", corner, bulk, perturbed(bulk, (12, 30), 1e-6)

    yield "zn warm rerun bytes", lambda b: checks.same_bytes(b"n,logz\n0,0.0\n", b, "x"), b"n,logz\n0,0.0\n", b"n,logz\n0,0.0000001\n"

    marg = P.single_site_marginals(P.build_logz(P.WeightFamily.from_json(W.BULK), 30, 60), 30, 60)
    yield "marginal sums to 1", lambda v: checks.sums_to_one(v, "x"), marg, perturbed(marg, 3, 1e-6)

    yield "condensed fraction within 0.05", lambda v: checks.near(v, 0.75, 0.05, "x"), 0.72, 0.69

    exact = P.reversibility_defect(P.WeightFamily.inclusion(0.5), 3, 6, 0.1, 0.5, P.P1, P.P1_P2, mode="exact").defect
    want = ref.lattice_defect(0.5, 3, 6, 0.1, 0.5, ref.p1, ref.p1_p2)
    yield "exact defect vs enumeration", lambda v: checks.near(v, want, 1e-12, "x"), exact, exact + 1e-9

    # --- sampling ------------------------------------------------------
    gap_family = P.WeightFamily.from_json(W.GAP)
    gap = P.build_logz(gap_family, 20, 40)
    occ = P.sample_configurations(gap, 20, 40, 4000, P.SeededRng(1))
    allowed = W.allowed_occupations(W.GAP, 40)
    bad = occ.copy()
    bad[0, :2] = (1, bad[0, 0] + bad[0, 1] - 1)
    yield "configurations, one draw with a zero-weight occupation", lambda o: checks.configurations(o, 40, allowed, "x"), occ, bad
    bad = occ.copy()
    bad[5, 0] += 1
    yield "configurations, one draw with N + 1 particles", lambda o: checks.configurations(o, 40, allowed, "x"), occ, bad

    law = P.single_site_marginals(gap, 20, 40)
    site = occ[:, 0]
    yield "occupation law, occupation 2 shifted to 3", lambda v: checks.occupation_law(v, law, "x"), site, np.where(site == 2, 3, site)

    incl_table = P.build_logz(P.WeightFamily.inclusion(0.5), 20, 40)
    incl_site = P.sample_configurations(incl_table, 20, 40, 4000, P.SeededRng(2))[:, 3]
    incl_law = ref.inclusion_marginal(0.5, 20, 40)
    yield "inclusion law (closed form), occupation 0 shifted to 1", lambda v: checks.occupation_law(v, incl_law, "x"), incl_site, np.where(incl_site == 0, 1, incl_site)

    rows = P.stick_breaking_batch(1.0, 0.8, 20_000, P.SeededRng(3).generator)[0]
    other = P.stick_breaking_batch(1.2, 0.8, 20_000, P.SeededRng(3).generator)[0]
    yield "stick-breaking moments, theta 1.2 for 1.0", lambda m: checks.stick_moments(m, 1.0, 0.8, "x"), rows, other

    out = work / "sample"
    family = work / "gap.json"
    family.write_text(json.dumps(W.GAP))
    P.cli.main(["--family", str(family), "--seed", "4", "--out", str(out), "sample", "--L", "10", "--N", "20", "--count", "50", "--partitions"])
    text = (out / "partitions.csv").read_text()
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("0,2,"))
    swapped = lines[:]
    swapped[i - 1], swapped[i] = lines[i - 1].replace("0,1,", "0,2,"), lines[i].replace("0,2,", "0,1,")
    yield "partitions.csv, two masses swapped", lambda t: checks.partitions_csv(t, 50, "x"), text, "\n".join(swapped)
    yield "partitions.csv, one mass dropped", lambda t: checks.partitions_csv(t, 50, "x"), text, "\n".join(lines[:i] + lines[i + 1 :])

    # --- splitmerge ----------------------------------------------------
    g = P.SeededRng(5).generator
    one = P.OrderedPartition.from_masses([1.0])
    states = [P.simulate(1.0, one, 60.0, g, sample_times=[60.0])[0].partition for _ in range(500)]
    totals = [s.total for s in states]
    yield "mass conserved, 1% removed", lambda t: checks.mass_conserved(t, "x"), totals, [0.99 * t for t in totals]

    l2 = [float((s.as_array() ** 2).sum()) for s in states]
    l2_theta2 = [
        float((P.simulate(2.0, one, 60.0, g, sample_times=[60.0])[0].partition.as_array() ** 2).sum())
        for _ in range(500)
    ]
    yield "mean ||p||^2, theta 2 dynamics for theta 1", lambda v: checks.mean_within_se(v, 0.5, "x"), l2, l2_theta2

    firsts = np.array([P.positive_size_biased(s, 1, g).values[0] for s in states])
    yield "KS of first size-biased block, squared", lambda v: checks.ks_uniform(v, "x"), firsts, firsts**2

    P.cli.main(["--seed", "6", "--out", str(work / "sm"), "splitmerge", "--theta", "1", "--t-max", "200", "--records", "20"])
    traj = (work / "sm" / "trajectory.csv").read_text()
    tl = traj.splitlines()
    yield "trajectory.csv, two records swapped", lambda t: checks.trajectory_csv(t, 20, "x"), traj, "\n".join(tl[:5] + [tl[6], tl[5]] + tl[7:])

    mc = P.reversibility_defect(
        P.WeightFamily.inclusion(0.5), 3, 6, 0.1, 0.5, P.P1, P.P1_P2, mode="mc", samples=10_000, rng=P.SeededRng(7)
    )
    yield "MC defect vs exact, exact off by 0.01", lambda e: checks.mc_matches_exact(mc.defect, mc.stderr, e, "x"), want, want + 0.01


def main() -> int:
    work = Path(__file__).resolve().parent / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bad = 0
    try:
        for label, check, right, wrong in cases(work):
            passes = not check(right)
            rejects = bool(check(wrong))
            ok = passes and rejects
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label}: right {'passes' if passes else 'REJECTED'}, wrong {'rejected' if rejects else 'PASSES'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
