"""Aggregate inequality certificate: one JSON record per configured check.

Every estimated quantity enters a check at its conservative end, inputs
carry provenance, and a check that cannot run (missing spectral-radius
bound, missing universal constant) is emitted as `inconclusive` rather
than skipped.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict

from . import branching, percolation, saw as saw_mod
from .groups import ball as build_ball, parse_group_spec
from .kernels import (
    check_nbw_le_rho_power,
    check_nbw_le_srw_tail,
    estimate_spectral_radius,
    nbw_kernel,
    srw_kernel,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Entry:
    id: str
    anchor: str  # which inequality/quantity this certifies, or "plumbing"
    lhs: float
    rhs: float
    status: str
    note: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "lhs": _num(self.lhs),
            "rhs": _num(self.rhs),
            "margin": _num(self.margin),
            "status": self.status,
            "note": self.note,
        }


def _num(x: float):
    if x is None or isinstance(x, str):
        return x
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(x)


def check_perccond(d: int, pc_hi: float, rho_ub: float | None) -> Entry:
    """p_c (d-1) rho < 1, evaluated at the conservative interval ends."""
    if rho_ub is None:
        return Entry("perccond", "pc*(d-1)*rho<1", math.nan, 1.0, INCONCLUSIVE,
                     note="no certified spectral-radius upper bound")
    lhs = pc_hi * (d - 1) * rho_ub
    return Entry("perccond", "pc*(d-1)*rho<1", lhs, 1.0,
                 PASS if lhs < 1.0 else FAIL)


def girth_threshold(rho_ub: float, big_c: float) -> float:
    """L = C log(1 + (1-rho)^{-2}) / (rho^{-1} - 1)."""
    if not 0.0 < rho_ub < 1.0:
        raise ValueError("need 0 < rho_ub < 1")
    return big_c * math.log(1.0 + (1.0 - rho_ub) ** -2) / (1.0 / rho_ub - 1.0)


def check_girth_threshold(
    rho_ub: float | None, big_c: float | None, girth: float
) -> Entry:
    """Compare the graph's exact girth against the sufficient threshold L."""
    if rho_ub is None or big_c is None:
        return Entry("girth_threshold", "girth>=L(rho,C)", math.nan, math.nan,
                     INCONCLUSIVE, note="needs rho_ub and the universal constant C")
    L = girth_threshold(rho_ub, big_c)
    return Entry("girth_threshold", "girth>=L(rho,C)", L, girth,
                 PASS if girth >= L else FAIL,
                 note="rhs is the exact girth (inf on trees)")


def check_bnp_bound(
    d: int,
    girth: float,
    rho_ub: float | None,
    big_c: float | None,
    pc_lo: float,
    pc_hi: float,
) -> Entry:
    """p_c <= 1/(d-1) + C log(1+(1-rho)^{-2}) / (d*girth).

    Pass when the whole p_c interval is under the bound, fail when none of
    it is, and inconclusive when the interval straddles the bound.
    """
    anchor = "pc<=1/(d-1)+C*log(...)/(d*g)"
    if rho_ub is None or big_c is None:
        return Entry("pc_degree_girth_bound", anchor, math.nan, math.nan, INCONCLUSIVE,
                     note="needs rho_ub and the universal constant C")
    bound = 1.0 / (d - 1) + big_c * math.log(1.0 + (1.0 - rho_ub) ** -2) / (d * girth)
    if pc_hi <= bound:
        return Entry("pc_degree_girth_bound", anchor, pc_hi, bound, PASS)
    if pc_lo > bound:
        return Entry("pc_degree_girth_bound", anchor, pc_hi, bound, FAIL)
    return Entry("pc_degree_girth_bound", anchor, pc_hi, bound, INCONCLUSIVE,
                 note=f"pc interval [{pc_lo:.6g}, {pc_hi:.6g}] straddles the bound")


def check_mu_pc(mu_ub: float, pc_lo: float, pc_hi: float) -> Entry:
    """mu * p_c >= 1 consistency: with an upper bound on mu the product at
    the upper p_c end must not fall below 1."""
    product_hi = mu_ub * pc_hi
    product_lo = mu_ub * pc_lo
    return Entry("mu_pc_product", "mu*pc>=1", 1.0, product_hi,
                 PASS if product_hi >= 1.0 else FAIL,
                 note=f"interval ends: [{product_lo:.6g}, {product_hi:.6g}]")


@dataclass
class GraphJob:
    spec_text: str
    radius: int = 6
    kernel_steps: int = 6
    saw_n_max: int = 6
    trials: int = 200
    rho_ub: float | None = None  # mandatory for non-tree rho-dependent checks
    bnp_c: float | None = None  # universal constant: input, never a default
    pc_radius: int = 6
    pc_trials: int = 100


@dataclass
class VerifyConfig:
    jobs: list[GraphJob] = field(default_factory=list)
    seed: int = 0
    theta_star: float = 0.5
    eps: float | None = None

    def to_dict(self) -> dict:
        return {"jobs": [asdict(j) for j in self.jobs], "seed": self.seed,
                "theta_star": self.theta_star, "eps": self.eps}


@dataclass
class Certificate:
    graphs: list[dict]
    meta: dict

    @property
    def entries(self) -> list[dict]:
        return [e for g in self.graphs for e in g["entries"]]

    @property
    def failed(self) -> bool:
        return any(e["status"] == FAIL for e in self.entries)

    @property
    def inconclusive_count(self) -> int:
        return sum(1 for e in self.entries if e["status"] == INCONCLUSIVE)

    def to_json(self, include_meta: bool = True) -> str:
        doc = {"graphs": self.graphs}
        if include_meta:
            doc["meta"] = self.meta
        return json.dumps(doc, indent=2, sort_keys=True)


def _graph_certificate(job: GraphJob, seed: int, theta_star: float,
                       eps: float | None) -> dict:
    spec = parse_group_spec(job.spec_text)
    d = spec.degree
    entries: list[Entry] = []

    # girth is the smallest cyclic order >= 3, infinite on trees
    girth = math.inf if spec.known_girth is None else float(spec.known_girth)

    # one ball and one SRW table serve the kernel checks and, off trees, rho
    b = build_ball(spec, job.radius)
    srw = srw_kernel(b, job.radius)
    rho = estimate_spectral_radius(spec, 200 if spec.is_tree else 2 * (job.radius // 2),
                                   rho_ub=job.rho_ub, srw=srw)
    rho_ub = rho.rho_ub

    # p_c: the closed form 1/(d-1) on trees, crossing bisection otherwise
    if spec.is_tree:
        pc_lo = pc_hi = branching.critical_probability(d)
        pc_prov = "closed form 1/(d-1), Lyons-Peres ch. 5"
    else:
        est = percolation.estimate_pc(spec, job.pc_radius, job.pc_trials, seed,
                                      theta_star=theta_star)
        pc_lo, pc_hi = est.lo, est.hi
        pc_prov = f"crossing-bisection R={job.pc_radius}"

    n_check = min(job.kernel_steps, job.radius)
    if rho_ub is not None and rho_ub < 1.0:
        nbw = nbw_kernel(b, n_check)
        tail_entries = check_nbw_le_srw_tail(b, n_check, rho_ub, srw=srw, nbw=nbw)
        rho_entries = check_nbw_le_rho_power(b, n_check, rho_ub, nbw=nbw)
        for name, chk in (("nbw_le_srw_tail", tail_entries), ("nbw_le_rho_power", rho_entries)):
            worst = min(chk, key=lambda e: e.margin)
            entries.append(Entry(name, "walk-kernel inequality", worst.lhs, worst.rhs,
                                 PASS if all(e.passed for e in chk) else FAIL,
                                 note=f"worst margin over {len(chk)} (x,n) pairs"))
    else:
        for name in ("nbw_le_srw_tail", "nbw_le_rho_power"):
            entries.append(Entry(name, "walk-kernel inequality", math.nan, math.nan,
                                 INCONCLUSIVE, note="no certified rho upper bound"))

    # spectral-radius sequence sanity: every element <= rho_ub
    if rho_ub is not None:
        worst = max(rho.sequence) if rho.sequence else 0.0
        entries.append(Entry("return_rate_le_rho", "p^{2n}(0,0)^{1/2n}<=rho",
                             worst, rho_ub, PASS if worst <= rho_ub + 1e-12 else FAIL))
    else:
        entries.append(Entry("return_rate_le_rho", "p^{2n}(0,0)^{1/2n}<=rho",
                             max(rho.sequence) if rho.sequence else 0.0, math.nan,
                             INCONCLUSIVE, note="no certified rho upper bound"))

    entries.append(check_perccond(d, pc_hi, rho_ub))
    entries.append(check_girth_threshold(rho_ub, job.bnp_c, girth))
    entries.append(check_bnp_bound(d, girth, rho_ub, job.bnp_c, pc_lo, pc_hi))

    census = saw_mod.enumerate_saw(spec, job.saw_n_max)
    mu = saw_mod.connective_constant(census)
    entries.append(check_mu_pc(mu.best_upper, pc_lo, pc_hi))

    # triangle diagram at the conservative end of the p_c interval
    if spec.is_tree:
        tri = percolation.triangle_diagram(spec, pc_hi, min(job.radius, 5),
                                           method="exact-tree", rho_ub=rho_ub)
    else:
        tri = percolation.triangle_diagram(spec, pc_hi, min(job.radius, 4),
                                           method="mc", rho_ub=rho_ub,
                                           trials=job.trials, seed=seed)
    entries.append(Entry("triangle_finite", "triangle diagram finite at pc",
                         tri.value, tri.value + tri.tail_bound,
                         PASS if tri.certified else INCONCLUSIVE,
                         note=f"method={tri.method} truncation={tri.truncation}"))

    # bubble diagram at z = 1/mu_hat
    z = 1.0 / mu.mu_hat
    if spec.is_tree:
        bub = saw_mod.bubble_diagram(spec, z, 40)
    else:
        bub = saw_mod.bubble_diagram(spec, z, census.n_max, census=census, rho_ub=rho_ub)
    entries.append(Entry("bubble_finite", "bubble diagram finite at 1/mu",
                         bub.value, bub.value + bub.tail_bound,
                         PASS if bub.certified else INCONCLUSIVE,
                         note=f"method={bub.method} truncation={bub.truncation}"))

    # endpoint decay envelope and positive speed
    decay = saw_mod.saw_endpoint_law(census, rho_ub=rho_ub, eps=eps)
    if decay.bound_applies:
        entries.append(Entry("endpoint_decay", "sup_x law(n,x) <= C*lambda^n",
                             decay.bound_base, 1.0, PASS,
                             note=f"envelope constant {decay.bound_constant:.6g}, "
                                  f"fitted rate {decay.fitted_rate:.6g}"))
    else:
        entries.append(Entry("endpoint_decay", "sup_x law(n,x) <= C*lambda^n",
                             decay.bound_base if not math.isnan(decay.bound_base) else math.nan,
                             1.0, INCONCLUSIVE,
                             note="envelope base >= 1 or rho_ub missing"))
    n_speed = census.n_max
    speed = saw_mod.speed_exact(census, n_speed)
    entries.append(Entry("saw_speed_positive", "E dist(0,SAW(n))/n > 0",
                         0.0, speed, PASS if speed > 0 else FAIL,
                         note=f"exact census speed at n={n_speed}"))

    return {
        "graph": spec.describe(),
        "inputs": {
            "degree": d,
            "girth": "infinite (tree)" if spec.is_tree else str(spec.known_girth),
            "rho_ub": {"value": _num(rho_ub) if rho_ub is not None else None,
                       "provenance": rho.rho_ub_provenance},
            "pc_interval": {"lo": pc_lo, "hi": pc_hi, "provenance": pc_prov},
            "mu_ub": {"value": mu.best_upper,
                      "tree_exact": mu.tree_exact,
                      "provenance": f"census min c_n^(1/n), n<={census.n_max}"},
            "bnp_C": job.bnp_c,
        },
        "entries": [e.to_record() for e in entries],
    }


def run_certificate(config: VerifyConfig) -> Certificate:
    start = time.time()
    graphs = [_graph_certificate(job, config.seed, config.theta_star, config.eps)
              for job in config.jobs]
    meta = {
        "seed": config.seed,
        "config": config.to_dict(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "duration_s": round(time.time() - start, 3),
    }
    return Certificate(graphs, meta)
