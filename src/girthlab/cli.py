"""Command-line frontend.

Subcommands: graph, kernel, perc, saw, verify, report.  MC subcommands
require an explicit --seed; outputs are CSV/JSON/SVG files whose bytes
are a pure function of the flags and the seed.
"""

from __future__ import annotations

import argparse
import io
import csv
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import blocks, percolation, plots, saw as saw_mod
from .groups import GroupSpecError, ball as build_ball, parse_group_spec
from .kernels import estimate_spectral_radius, kesten_interval, nbw_kernel, srw_kernel
from .verify import parse_verify_config, run_certificate


class CliError(Exception):
    pass


def _out_dir(args) -> Path:
    base = getattr(args, "out", None) or os.environ.get("GIRTHLAB_OUT") or "."
    return Path(base)


class OutputSet:
    """Tracks written files so a failed run leaves nothing partial behind."""

    def __init__(self):
        self.paths: list[Path] = []

    def write(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        self.paths.append(path)

    def discard_all(self) -> None:
        for p in self.paths:
            try:
                p.unlink()
            except OSError:
                pass


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _parse_grid(text: str) -> list[float]:
    vals = [float(t) for t in text.replace(",", " ").split()]
    if not vals:
        raise CliError("grid needs at least one value")
    if vals != sorted(vals):
        raise CliError("grid values must be sorted ascending")
    return vals


def cmd_graph(args, outputs: OutputSet) -> int:
    spec = parse_group_spec(args.spec)
    print(f"girth={spec.known_girth or 'inf'} degree={spec.degree}")
    if args.R is not None:
        b = build_ball(spec, args.R)
        path = _out_dir(args) / f"ball_{spec.describe().replace('*', 'x')}_R{args.R}.txt"
        outputs.write(path, b.export_edge_list())
        print(f"ball R={args.R}: {b.n_vertices} vertices, {b.n_edges} edges -> {path}")
    return 0


def cmd_kernel(args, outputs: OutputSet) -> int:
    spec = parse_group_spec(args.spec)
    b = build_ball(spec, args.R)
    n = args.N if args.N is not None else args.R
    rows = []
    kinds = ("srw", "nbw") if args.kind == "both" else (args.kind,)
    for kind in kinds:
        table = (srw_kernel if kind == "srw" else nbw_kernel)(b, n, exact=args.exact)
        rows.extend(table.to_csv_rows())
        print(f"{kind}: horizon={table.horizon} p^{n}(0,0)={float(table.prob(n, 0)):.6g}")
    path = _out_dir(args) / f"kernel_{spec.describe().replace('*', 'x')}.csv"
    outputs.write(path, _csv_text(["kind", "n", "vertex", "probability"], rows))
    print(f"wrote {path}")
    if spec.is_tree:  # both ends rounded outward to 6 decimals, in Fractions
        lo = math.floor(Fraction(estimate_spectral_radius(spec, 200).lower_bound) * 10**6)
        hi = math.ceil(Fraction(kesten_interval(spec.degree)[1]) * 10**6)
        print(f"rho: lower_bound={lo / 10**6:.6f} upper={hi / 10**6:.6f} (exact-formula)")
    return 0


def cmd_perc(args, outputs: OutputSet) -> int:
    spec = parse_group_spec(args.spec)
    p_values = _parse_grid(args.p_grid) if args.p_grid is not None else [args.p]
    if any(not 0.0 <= p <= 1.0 for p in p_values):
        raise CliError("p values must lie in [0, 1]")
    b = build_ball(spec, args.R)
    rows = []
    for p in p_values:
        est = percolation.crossing_probability(b, p, args.trials, args.seed)
        rows.append((p, args.R, f"{est.value:.8f}", f"{est.ci_lo:.8f}",
                     f"{est.ci_hi:.8f}", args.trials, args.seed))
        print(f"crossing p={p} R={args.R}: {est.value:.4f} "
              f"[{est.ci_lo:.4f}, {est.ci_hi:.4f}]")
    path = _out_dir(args) / f"crossing_{spec.describe().replace('*', 'x')}.csv"
    outputs.write(path, _csv_text(["p", "R", "estimate", "ci_lo", "ci_hi", "T", "seed"], rows))
    print(f"wrote {path}")
    if args.pc:
        est = percolation.pc_bracket(b, args.trials, args.seed)
        print(f"pc interval at R={args.R}: [{est.lo:.4f}, {est.hi:.4f}] "
              "(theta*=0.5, finite-size biased)")
        if spec.degree >= 3:  # p_c < 1
            d = spec.degree
            lo, hi = (1 / (d - 1),) * 2 if spec.is_tree else blocks.pc_interval(spec)
            exact = (f"1/{d - 1} on trees" if spec.is_tree
                     else f"[{float(lo):.9f}, {float(hi):.9f}] (block-tree rule)")
            bias = (est.lo + est.hi - float(lo + hi)) / 2
            print(f"exact pc: {exact}, bisection midpoint bias {bias:+.4f}")
    if args.tail:
        if not spec.is_tree:
            raise CliError("--tail runs on tree specs (branching oracle)")
        ns, curve, fit = percolation.cluster_size_tail(
            spec, p_values[0], args.nmax, args.trials, args.seed)
        tail_rows = [(int(n), f"{c:.8f}") for n, c in zip(ns, curve)]
        tpath = _out_dir(args) / f"tail_{spec.describe().replace('*', 'x')}.csv"
        outputs.write(tpath, _csv_text(["n", "survival_fraction"], tail_rows))
        status = "rejected: " + fit.reason if fit.rejected else f"slope={fit.slope:.4f}"
        print(f"cluster-size tail fit ({fit.name}): {status} -> {tpath}")
    return 0


def cmd_saw(args, outputs: OutputSet) -> int:
    spec = parse_group_spec(args.spec)
    if args.trials and (args.nmax is None or args.seed is None):
        raise CliError("--trials needs " + ("--nmax" if args.nmax is None else "--seed"))
    if args.nmax is None and args.z_grid is None and args.bubble_z is None:
        raise CliError("saw needs --nmax, --z-grid or --bubble-z")
    if args.nmax is not None and args.nmax > saw_mod.CENSUS_N_MAX:
        raise CliError(f"--nmax {args.nmax} is above the census ceiling {saw_mod.CENSUS_N_MAX}")
    # printed only once every step has succeeded: a failure discards the files
    lines = []
    if args.nmax is not None:
        census = saw_mod.enumerate_saw(spec, args.nmax)
        rows = [(n, str(census.counts[n])) for n in range(args.nmax + 1)]
        path = _out_dir(args) / f"census_{spec.describe().replace('*', 'x')}.csv"
        outputs.write(path, _csv_text(["n", "c_n"], rows))
        mu = saw_mod.connective_constant(census)
        lines.append(f"census: c_{args.nmax}={census.counts[args.nmax]} "
                     f"mu_ub={mu.best_upper:.6f} -> {path}")
    if args.z_grid is not None:
        zs = _parse_grid(args.z_grid)
        crows = [(r["z"], f"{r['chi']:.10g}", f"{r['ratio_lo']:.10g}", f"{r['ratio_hi']:.10g}")
                 for r in saw_mod.susceptibility_saw(spec, zs)]
        cpath = _out_dir(args) / f"chi_{spec.describe().replace('*', 'x')}.csv"
        outputs.write(cpath, _csv_text(["z", "value", "ratio_lo", "ratio_hi"], crows))
        lines.append(f"chi curve ({len(zs)} points) -> {cpath}")
    if args.bubble_z is not None:
        try:
            bub = saw_mod.bubble_diagram(spec, args.bubble_z)
        except OverflowError as exc:
            raise CliError(f"--bubble-z {args.bubble_z}: z^e overflows a float") from exc
        lines.append(f"bubble z={args.bubble_z}: value={bub:.6f} certified={bub < float('inf')}")
    if args.trials:
        res = saw_mod.rosenbluth_sampler(spec, args.nmax, args.trials, args.seed)
        est = res.c_n_estimate
        lines.append(f"rosenbluth n={args.nmax} T={args.trials}: c_n_hat={est.value:.2f} "
                     f"(exact {census.counts[args.nmax]}), speed={res.speed_estimate:.4f}")
    print("\n".join(lines))
    return 0


def cmd_verify(args, outputs: OutputSet) -> int:
    cert = run_certificate(parse_verify_config(Path(args.config).read_text()))
    path = _out_dir(args) / "certificate.json"
    outputs.write(path, cert.to_json())
    for g in cert.graphs:
        for e in g["entries"]:
            line = f"{g['graph']:>12} {e['id']:<24} {e['status']:<12} margin={e['margin']}"
            if e["status"] != "pass":  # say why: both brackets and the note
                line += f" lhs=[{e['lhs_lo']}, {e['lhs']}] rhs=[{e['rhs']}, {e['rhs_hi']}]"
                if e["note"]:
                    line += f" note: {e['note']}"
            print(line)
    print(f"certificate -> {path}")
    if cert.failed:
        return 1
    if cert.inconclusive_count and args.strict:
        return 1
    return 0


def cmd_report(args, outputs: OutputSet) -> int:
    csv_text = Path(args.input).read_text()
    svg = plots.render_plot(args.kind, csv_text)
    out = Path(args.out) if args.out else _out_dir(args) / f"{args.kind}.svg"
    outputs.write(out, svg)
    print(f"plot -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="girthlab")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="print girth and degree, export ball edge lists")
    g.add_argument("--spec", required=True)
    g.add_argument("--R", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_graph)

    k = sub.add_parser("kernel", help="SRW/NBW kernels and spectral radius")
    k.add_argument("--spec", required=True)
    k.add_argument("--R", type=int, required=True)
    k.add_argument("--N", type=int, default=None)
    k.add_argument("--kind", choices=("srw", "nbw", "both"), default="both")
    k.add_argument("--exact", action="store_true")
    k.add_argument("--out", default=None)
    k.set_defaults(func=cmd_kernel)

    pc = sub.add_parser("perc", help="percolation estimators")
    pc.add_argument("--spec", required=True)
    pc.add_argument("--R", type=int, required=True)
    pc.add_argument("--p", type=float, default=None)
    pc.add_argument("--p-grid", default=None, dest="p_grid")
    pc.add_argument("--trials", type=int, required=True)
    pc.add_argument("--seed", type=int, required=True)
    pc.add_argument("--pc", action="store_true", help="bisection interval for pc")
    pc.add_argument("--tail", action="store_true", help="cluster-size tail (tree oracle)")
    pc.add_argument("--nmax", type=int, default=10_000)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_perc)

    s = sub.add_parser("saw", help="SAW census, chi curve, bubble, Rosenbluth")
    s.add_argument("--spec", required=True)
    s.add_argument("--nmax", type=int, default=None)
    s.add_argument("--z-grid", default=None, dest="z_grid")
    s.add_argument("--bubble-z", type=float, default=None, dest="bubble_z")
    s.add_argument("--trials", type=int, default=0)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_saw)

    v = sub.add_parser("verify", help="run the full inequality certificate")
    v.add_argument("--config", required=True)
    v.add_argument("--strict", action="store_true",
                   help="nonzero exit when any entry is inconclusive")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("report", help="deterministic SVG plots from CSV")
    r.add_argument("--kind", required=True, choices=plots.PLOT_KINDS)
    r.add_argument("--input", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "perc" and args.p is None and args.p_grid is None:
        parser.error("perc needs --p or --p-grid")
    outputs = OutputSet()
    try:
        return args.func(args, outputs)
    except (CliError, GroupSpecError, plots.PlotError, ValueError, OSError, OverflowError) as exc:
        outputs.discard_all()
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
