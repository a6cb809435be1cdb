"""Command-line front end: builds, samples, simulations, and report emission.

``main`` reads the family file once, runs the subcommand, and only when it
succeeds writes the result files it returned as ``{name: body}``: text strings
joined by newlines (a line each, or a block of lines) after two header lines,
or a ``.json`` payload as ``{"config", "result"}``.
Both record the run configuration and the library version, so a rerun with
the same arguments reproduces every file byte for byte.  θ must be finite.
Exit codes: 0 success, 2 configuration error (an I/O error on the family file
or on --out included, and a request too large to allocate), 3 numeric failure
(JSON message on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import count
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import alpha_from_second_moment, condensed_fraction
from .ensembles import (
    OutOfDomainError,
    SupercriticalDensityError,
    build_logz,
    critical_density,
    invert_density,
    load_logz_cache,
    local_clt_report,
    relative_entropy_bound,
    save_logz_cache,
    tv_distance_marginal,
)
from .sampler import SeededRng, sample_configurations
from .splitmerge import FUNCTION_LIBRARY, reversibility_defect, simulate
from .partitions import OrderedPartition, norms
from .weights import WeightFamily, assumption_report


# rows of draws sorted at a time for partitions.csv: a 1024 x L copy and its lists
PARTITION_CHUNK = 1024


class ConfigError(ValueError):
    pass


def _load_family(path: str) -> WeightFamily:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"family file {path} does not exist")
    if path.suffix == ".csv":
        return WeightFamily.from_csv(path)
    return WeightFamily.from_json(path)


# ---------------------------------------------------------------------------
# subcommands: each returns {file name: lines of a text file, or a JSON payload}
# ---------------------------------------------------------------------------


def cmd_zn(args, family: WeightFamily) -> dict:
    out = Path(args.out)
    table = load_logz_cache(family, args.L, args.N, out)
    if table is None:
        table = build_logz(family, args.L, args.N)
        out.mkdir(parents=True, exist_ok=True)
        save_logz_cache(table, out)
    rows = ["n,logz"]
    rows += [f"{n},{float(table.logz[args.L, n])!r}" for n in range(args.N + 1)]
    return {f"zn_L{args.L}_N{args.N}.csv": rows}


def cmd_sample(args, family: WeightFamily) -> dict:
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    table = build_logz(family, args.L, args.N)
    occ = sample_configurations(table, args.L, args.N, args.count, SeededRng(args.seed))
    names = [str(n) for n in range(args.N + 1)]
    files = {"configurations.txt": [" ".join([names[n] for n in row]) for row in occ.tolist()]}
    if args.partitions:
        files["partitions.csv"] = _partition_blocks(occ, args.N)
    return files


def _partition_blocks(occ: np.ndarray, N: int) -> list[str]:
    """partitions.csv below its comment lines: the column names, then one string per sample, its lines joined.

    A string per line would cost ~50 bytes of object header each, 13 MB at
    10,000 draws of 50 sites.  Rows are sorted PARTITION_CHUNK at a time, so
    the sorted copy and its lists stay small too.  Line r of sample s is
    s + suffix[r][n], with suffix[r][n] = ",r,mass"; the r-th largest entry
    of a row of sum N is at most N // r, so the suffix table holds about
    N (1 + ln L) strings.
    """
    # every row sums to N (sample_configurations checks it), so each mass is
    # n / N, and Python's n / N is the same double as NumPy's division
    masses = [repr(n / max(N, 1)) for n in range(N + 1)]
    suffixes = [[f",{r},{masses[n]}" for n in range(N // r + 1)] for r in range(1, min(occ.shape[1], N) + 1)]
    blocks = ["sample,rank,mass"]
    for start in range(0, occ.shape[0], PARTITION_CHUNK):
        rows = np.sort(occ[start : start + PARTITION_CHUNK], axis=1)[:, ::-1]
        sizes = np.count_nonzero(rows, axis=1).tolist()
        for s, row, k in zip(count(start), rows.tolist(), sizes):
            if k:
                head = str(s)
                blocks.append(head + ("\n" + head).join(map(list.__getitem__, suffixes, row[:k])))
    return blocks


def cmd_splitmerge(args, _family: None) -> dict:
    if not 0 < args.t_max < np.inf:
        raise ConfigError("--t-max must be positive and finite")
    if args.records < 1:
        raise ConfigError("--records must be >= 1")
    masses = json.loads(args.p0)
    if not isinstance(masses, list) or any(type(v) not in (int, float) for v in masses):
        raise ConfigError("--p0 must be a JSON list of real numbers")
    p0 = OrderedPartition.from_masses(masses)
    times = np.linspace(args.t_max / args.records, args.t_max, args.records)
    states = simulate(args.theta, p0, args.t_max, SeededRng(args.seed), sample_times=times)
    rows = ["time,p1,p2,p3,l2sq,merges,splits"]
    for st in states:
        p1, p2, p3 = (st.partition.entry(i) for i in (1, 2, 3))
        l2sq = norms(st.partition, 2)
        rows.append(f"{float(st.time)!r},{p1!r},{p2!r},{p3!r},{l2sq!r},{st.merges},{st.splits}")
    return {"trajectory.csv": rows}


def cmd_reversibility(args, family: WeightFamily) -> dict:
    sizes = _parse_sizes(args.sizes)
    try:
        f = FUNCTION_LIBRARY[args.f]
        g = FUNCTION_LIBRARY[args.g]
    except KeyError as exc:
        raise ConfigError(f"unknown test function {exc}; choose from {sorted(FUNCTION_LIBRARY)}")
    results = []
    for i, (L, N) in enumerate(sizes):
        res = reversibility_defect(
            family, L, N, args.eps, args.theta, f, g,
            mode=args.mode, samples=args.samples, rng=SeededRng(args.seed, stream=i),
        )
        results.append(res.to_json_dict())
    return {"reversibility.json": results}


def _density_cells(args) -> list[tuple[int, int]]:
    """(L, N = round(rho L)) for each L of --sizes, with --rho finite and >= 0."""
    if not 0.0 <= args.rho < np.inf:
        raise ConfigError("--rho must be finite and >= 0")
    return [(L, int(round(args.rho * L))) for L in map(int, args.sizes.split(","))]


def cmd_ensembles(args, family: WeightFamily) -> dict:
    cells = _density_cells(args)
    rows = ["quantity,L,N,phi,value"]
    phi = args.phi if args.phi is not None else invert_density(family, None, args.rho)
    for L, N in cells:
        table = build_logz(family, L, N)
        ent = relative_entropy_bound(table, L, N, phi)
        tv = tv_distance_marginal(table, L, N, phi)
        rows.append(f"entropy_bound,{L},{N},{phi!r},{ent!r}")
        rows.append(f"tv_distance,{L},{N},{phi!r},{tv!r}")
        clt = local_clt_report(family, L)
        phi_l = clt.params["phi_L"]
        for row in clt.series:
            rows.append(f"clt_{row.label},{L},{N},{phi_l!r},{row.value!r}")
    return {"ensembles.csv": rows}


def cmd_condense(args, family: WeightFamily) -> dict:
    cells = _density_cells(args)
    rows = ["quantity,L,N,eps,value"]
    for L, N in cells:
        table = build_logz(family, L, N)
        frac = condensed_fraction(table, L, N, args.eps)
        alpha = alpha_from_second_moment(table, L, N, args.theta)
        rows.append(f"condensed_fraction,{L},{N},{args.eps!r},{frac!r}")
        rows.append(f"alpha_second_moment,{L},{N},{args.eps!r},{alpha!r}")
    rho_c = critical_density(family)
    rows.append(f"critical_density,,,,{rho_c!r}")
    target = 1.0 - rho_c / args.rho if args.rho > rho_c else 0.0
    rows.append(f"alpha_target,,,,{target!r}")
    return {"condense.csv": rows}


def cmd_assumptions(args, family: WeightFamily) -> dict:
    report = assumption_report(family, args.L, args.N, args.eps, args.J)
    return {"assumptions.json": report.to_json_dict()}


def _parse_sizes(spec: str) -> list[tuple[int, int]]:
    sizes = []
    for part in spec.split(","):
        try:
            L, N = part.split(":")
            sizes.append((int(L), int(N)))
        except ValueError:
            raise ConfigError(f"bad size entry {part!r}; expected L:N")
    return sizes


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdlab",
        description="Exact ensembles, Poisson-Dirichlet sampling, and split-merge dynamics",
    )
    parser.add_argument("--family", help="weight family JSON (or CSV of L,n,w rows)")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    zn = sub.add_parser("zn", help="build and dump a log partition-function table")
    zn.add_argument("--L", type=int, required=True)
    zn.add_argument("--N", type=int, required=True)

    sample = sub.add_parser("sample", help="exact canonical configurations / partitions")
    sample.add_argument("--L", type=int, required=True)
    sample.add_argument("--N", type=int, required=True)
    sample.add_argument("--count", type=int, default=100)
    sample.add_argument("--partitions", action="store_true")

    sm = sub.add_parser("splitmerge", help="split-merge trajectory")
    sm.add_argument("--theta", type=float, required=True)
    sm.add_argument("--t-max", dest="t_max", type=float, required=True)
    sm.add_argument("--records", type=int, default=100)
    sm.add_argument("--p0", default="[1.0]", help="JSON list of initial masses")

    rev = sub.add_parser("reversibility", help="reversibility-defect scan over sizes")
    rev.add_argument("--theta", type=float, required=True)
    rev.add_argument("--eps", type=float, required=True)
    rev.add_argument("--sizes", required=True, help="comma-separated L:N pairs")
    rev.add_argument("--samples", type=int, default=None)
    rev.add_argument("--mode", choices=("exact", "mc"), default="mc")
    rev.add_argument("--f", default="p1")
    rev.add_argument("--g", default="p1*p2")

    ens = sub.add_parser("ensembles", help="entropy/TV/local-CLT sweep over L")
    ens.add_argument("--rho", type=float, required=True)
    ens.add_argument("--sizes", required=True, help="comma-separated L values")
    ens.add_argument("--phi", type=float, default=None)

    cond = sub.add_parser("condense", help="condensed fraction and alpha scan")
    cond.add_argument("--rho", type=float, required=True)
    cond.add_argument("--theta", type=float, required=True)
    cond.add_argument("--eps", type=float, default=0.05)
    cond.add_argument("--sizes", required=True, help="comma-separated L values")

    asm = sub.add_parser("assumptions", help="weight-scaling assumption report")
    asm.add_argument("--L", type=int, required=True)
    asm.add_argument("--N", type=int, required=True)
    asm.add_argument("--eps", type=float, default=0.1)
    asm.add_argument("--J", type=int, default=1)
    return parser


_COMMANDS = {
    "zn": cmd_zn,
    "sample": cmd_sample,
    "splitmerge": cmd_splitmerge,
    "reversibility": cmd_reversibility,
    "ensembles": cmd_ensembles,
    "condense": cmd_condense,
    "assumptions": cmd_assumptions,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the split-merge chain has no weights: a family there would be recorded and do nothing
        if args.command == "splitmerge" and args.family:
            raise ConfigError("splitmerge takes no --family")
        if args.command != "splitmerge" and not args.family:
            raise ConfigError("--family is required for this command")
        family = _load_family(args.family) if args.family else None
    except (ValueError, KeyError, OSError) as exc:  # a json.JSONDecodeError is a ValueError
        print(f"pdlab: config error: {exc}", file=sys.stderr)
        return 2
    try:
        files = _COMMANDS[args.command](args, family)
        config = {
            "version": __version__,
            "command": args.command,
            "family": family.to_json_dict() if family else None,
            "seed": args.seed,
            "options": {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in ("command", "family", "seed", "out") and v is not None
            },
        }
        header = f"# pdlab {__version__}\n# config: {json.dumps(config, sort_keys=True)}\n"
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, body in files.items():
            if name.endswith(".json"):
                text = json.dumps({"config": config, "result": body}, sort_keys=True, indent=2) + "\n"
            else:
                text = header + "\n".join(body) + "\n"
            (out / name).write_text(text)
    except (OutOfDomainError, SupercriticalDensityError, FloatingPointError) as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}), file=sys.stderr)
        return 3
    # ConfigError included; OSError: --out or the cache in it; MemoryError: arrays too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"pdlab: config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
