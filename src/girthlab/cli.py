"""Command-line frontend.

Subcommands: graph, kernel, perc, saw, verify, report.  MC subcommands
require an explicit --seed; outputs are CSV/JSON/SVG files whose bytes
are a pure function of the flags and the seed.
"""

from __future__ import annotations

import argparse
import configparser
import io
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import branching, percolation, plots, saw as saw_mod
from .groups import GroupSpecError, ball as build_ball, girth as girth_of, parse_group_spec, word_str
from .kernels import estimate_spectral_radius, nbw_kernel, srw_kernel
from .verify import GraphJob, VerifyConfig, run_certificate


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
    if vals != sorted(vals):
        raise CliError("grid values must be sorted ascending")
    return vals


def cmd_graph(args, outputs: OutputSet) -> int:
    spec = parse_group_spec(args.spec)
    if args.girth_rmax:
        rep = girth_of(spec, args.girth_rmax)
        print(f"girth={rep} degree={spec.degree}")
    if args.R is not None:
        b = build_ball(spec, args.R)
        path = _out_dir(args) / f"ball_{spec.describe().replace('*', 'x')}_R{args.R}.txt"
        outputs.write(path, b.export_edge_list())
        print(f"ball R={args.R}: {b.n_vertices} vertices, {b.n_edges} edges -> {path}")
    if args.girth_rmax is None and args.R is None:
        print(f"degree={spec.degree} tree={spec.is_tree}")
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
    rho = estimate_spectral_radius(spec, 200, rho_ub=args.rho_ub) if spec.is_tree else None
    if rho is not None:
        print(f"rho: lower_bound={rho.lower_bound:.6f} upper={rho.rho_ub:.6f} "
              f"({rho.rho_ub_provenance})")
    return 0


def cmd_perc(args, outputs: OutputSet) -> int:
    spec = parse_group_spec(args.spec)
    p_values = _parse_grid(args.p_grid) if args.p_grid else [args.p]
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
        est = percolation.estimate_pc(spec, args.R, args.trials, args.seed,
                                      theta_star=args.theta_star)
        print(f"pc interval at R={args.R}: [{est.lo:.4f}, {est.hi:.4f}] "
              f"(theta*={args.theta_star}, finite-size biased)")
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
    census = saw_mod.enumerate_saw(spec, args.nmax)
    rows = [(n, str(census.counts[n])) for n in range(args.nmax + 1)]
    path = _out_dir(args) / f"census_{spec.describe().replace('*', 'x')}.csv"
    outputs.write(path, _csv_text(["n", "c_n"], rows))
    mu = saw_mod.connective_constant(census)
    print(f"census: c_{args.nmax}={census.counts[args.nmax]} "
          f"mu_ub={mu.best_upper:.6f} -> {path}")
    if args.z_grid:
        zs = _parse_grid(args.z_grid)
        curve = saw_mod.susceptibility_saw(spec, zs, args.nmax, census=census)
        crows = [(r["z"], f"{r['chi']:.10g}", f"{r['tail']:.6g}", r["certified"],
                  f"{r['ratio_lo']:.10g}", f"{r['ratio_hi']:.10g}") for r in curve]
        cpath = _out_dir(args) / f"chi_{spec.describe().replace('*', 'x')}.csv"
        outputs.write(cpath, _csv_text(["z", "value", "tail", "certified",
                                        "ratio_lo", "ratio_hi"], crows))
        print(f"chi curve ({len(zs)} points) -> {cpath}")
    if args.bubble_z is not None:
        n_trunc = args.N if args.N is not None else args.nmax
        if spec.is_tree:
            bub = saw_mod.bubble_diagram(spec, args.bubble_z, n_trunc)
        else:
            bub = saw_mod.bubble_diagram(spec, args.bubble_z, min(n_trunc, args.nmax),
                                         census=census, rho_ub=args.rho_ub)
        print(f"bubble z={args.bubble_z}: value={bub.value:.6f} "
              f"tail={bub.tail_bound:.3g} certified={bub.certified}")
    if args.trials:
        res = saw_mod.rosenbluth_sampler(spec, args.nmax, args.trials, args.seed)
        est = res.c_n_estimate
        print(f"rosenbluth n={args.nmax} T={args.trials}: c_n_hat={est.value:.2f} "
              f"(exact {census.counts[args.nmax]}), speed={res.speed_estimate:.4f}")
    return 0


def parse_verify_config(text: str) -> VerifyConfig:
    cp = configparser.ConfigParser()
    cp.read_string(text)
    cfg = VerifyConfig()
    if cp.has_section("verify"):
        sec = cp["verify"]
        cfg.seed = sec.getint("seed", 0)
        cfg.theta_star = sec.getfloat("theta_star", 0.5)
        if "eps" in sec:
            cfg.eps = sec.getfloat("eps")
    for name in cp.sections():
        if not name.startswith("graph:"):
            continue
        sec = cp[name]
        job = GraphJob(spec_text=name.split(":", 1)[1])
        job.radius = sec.getint("radius", job.radius)
        job.kernel_steps = sec.getint("kernel_steps", job.kernel_steps)
        job.saw_n_max = sec.getint("saw_n_max", job.saw_n_max)
        job.trials = sec.getint("trials", job.trials)
        job.pc_radius = sec.getint("pc_radius", job.pc_radius)
        job.pc_trials = sec.getint("pc_trials", job.pc_trials)
        if "rho_ub" in sec and sec["rho_ub"].strip():
            job.rho_ub = sec.getfloat("rho_ub")
        if "bnp_C" in sec and sec["bnp_C"].strip():
            job.bnp_c = sec.getfloat("bnp_C")
        cfg.jobs.append(job)
    return cfg


def serialize_verify_config(cfg: VerifyConfig) -> str:
    lines = ["[verify]", f"seed = {cfg.seed}", f"theta_star = {cfg.theta_star}"]
    if cfg.eps is not None:
        lines.append(f"eps = {cfg.eps}")
    for job in cfg.jobs:
        lines += ["", f"[graph:{job.spec_text}]",
                  f"radius = {job.radius}",
                  f"kernel_steps = {job.kernel_steps}",
                  f"saw_n_max = {job.saw_n_max}",
                  f"trials = {job.trials}",
                  f"pc_radius = {job.pc_radius}",
                  f"pc_trials = {job.pc_trials}"]
        if job.rho_ub is not None:
            lines.append(f"rho_ub = {job.rho_ub}")
        if job.bnp_c is not None:
            lines.append(f"bnp_C = {job.bnp_c}")
    return "\n".join(lines) + "\n"


def cmd_verify(args, outputs: OutputSet) -> int:
    cfg = parse_verify_config(Path(args.config).read_text())
    if args.seed is not None:
        cfg.seed = args.seed
    cert = run_certificate(cfg)
    path = _out_dir(args) / "certificate.json"
    outputs.write(path, cert.to_json())
    for g in cert.graphs:
        for e in g["entries"]:
            print(f"{g['graph']:>12} {e['id']:<24} {e['status']:<12} "
                  f"margin={e['margin']}")
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

    g = sub.add_parser("graph", help="build balls, compute girth, export edge lists")
    g.add_argument("--spec", required=True)
    g.add_argument("--girth-rmax", type=int, default=None)
    g.add_argument("--R", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_graph)

    k = sub.add_parser("kernel", help="SRW/NBW kernels and spectral radius")
    k.add_argument("--spec", required=True)
    k.add_argument("--R", type=int, required=True)
    k.add_argument("--N", type=int, default=None)
    k.add_argument("--kind", choices=("srw", "nbw", "both"), default="both")
    k.add_argument("--exact", action="store_true")
    k.add_argument("--rho-ub", type=float, default=None, dest="rho_ub")
    k.add_argument("--out", default=None)
    k.set_defaults(func=cmd_kernel)

    pc = sub.add_parser("perc", help="percolation estimators")
    pc.add_argument("--spec", required=True)
    pc.add_argument("--R", type=int, required=True)
    pc.add_argument("--p", type=float, default=None)
    pc.add_argument("--p-grid", default=None, dest="p_grid")
    pc.add_argument("--trials", type=int, required=True)
    pc.add_argument("--seed", type=int, required=True)
    pc.add_argument("--theta-star", type=float, default=0.5, dest="theta_star")
    pc.add_argument("--pc", action="store_true", help="bisection interval for pc")
    pc.add_argument("--tail", action="store_true", help="cluster-size tail (tree oracle)")
    pc.add_argument("--nmax", type=int, default=10_000)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_perc)

    s = sub.add_parser("saw", help="SAW census, chi curve, bubble, Rosenbluth")
    s.add_argument("--spec", required=True)
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--N", type=int, default=None)
    s.add_argument("--z-grid", default=None, dest="z_grid")
    s.add_argument("--bubble-z", type=float, default=None, dest="bubble_z")
    s.add_argument("--rho-ub", type=float, default=None, dest="rho_ub")
    s.add_argument("--trials", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_saw)

    v = sub.add_parser("verify", help="run the full inequality certificate")
    v.add_argument("--config", required=True)
    v.add_argument("--seed", type=int, default=None)
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
    except (CliError, GroupSpecError, plots.PlotError, ValueError, OSError) as exc:
        outputs.discard_all()
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
