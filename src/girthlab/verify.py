"""Aggregate inequality certificate: one JSON record per configured check.

A job is a spec and `bnp_C`, and it builds no ball.  Every input is a
`Bracket` (lo, hi) with its provenance, from one input function per graph
family, and none is sampled: rho, p_c and the SAW critical point z_c are
closed forms or exact Fraction witnesses rounded outward, and mu = 1/z_c,
the bubble and the SAW speed follow by `blocks`.  Claims that cannot fail
for true inputs (a certified rho's kernel theorems, mu p_c >= 1, the
triangle diagram finite at p_c) are tests.
Every entry compares two brackets, derived ends rounded outward from
Fractions, by the one rule `status`: NaN ends (no bnp_C) are inconclusive.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from typing import NamedTuple

from . import blocks, branching, saw as saw_mod
from .groups import GroupSpec, parse_group_spec
from .kernels import float_above, kesten_interval, rho_upper

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class Bracket(NamedTuple):
    """A certified interval [lo, hi]; a NaN end means nothing certifies it."""

    lo: float
    hi: float

    def record(self, provenance: str) -> dict:
        return {"lo": _num(self.lo), "hi": _num(self.hi), "provenance": provenance}


def point(x: float) -> Bracket:
    return Bracket(x, x)


ONE = point(1.0)
INF = point(math.inf)
OUTWARD = (-math.inf, math.inf)  # the rounding sides of a bracket's (lo, hi)


def _exact(f, side: float, *xs: float) -> float:
    """f of the ends xs in Fractions, rounded toward `side`; NaN on a NaN x."""
    if any(map(math.isnan, xs)):
        return math.nan
    q = f(*map(Fraction, xs))
    return float_above(q) if side > 0 else -float_above(-q)


def status(lhs: Bracket, rhs: Bracket, strict: bool) -> str:
    """The one rule for `lhs < rhs` (`lhs <= rhs` when not strict): pass iff
    the whole of lhs clears the whole of rhs, fail iff no part of it does,
    inconclusive otherwise.  A NaN end compares False, so it never decides."""
    if lhs.hi < rhs.lo if strict else lhs.hi <= rhs.lo:
        return PASS
    if lhs.lo >= rhs.hi if strict else lhs.lo > rhs.hi:
        return FAIL
    return INCONCLUSIVE


@dataclass
class Entry:
    id: str
    anchor: str  # which inequality/quantity this certifies
    lhs: Bracket
    rhs: Bracket
    strict: bool
    note: str = ""

    @property
    def status(self) -> str:
        return status(self.lhs, self.rhs, self.strict)

    @property
    def margin(self) -> float:
        return self.rhs.lo - self.lhs.hi

    def to_record(self) -> dict:
        """`lhs` = lhs.hi, `rhs` = rhs.lo and `margin` = rhs - lhs, plus
        `lhs_lo`, `rhs_hi` and `strict`: enough to recompute the status."""
        ends = {"lhs": self.lhs.hi, "lhs_lo": self.lhs.lo, "rhs": self.rhs.lo,
                "rhs_hi": self.rhs.hi, "margin": self.margin}
        return {"id": self.id, "anchor": self.anchor, **{k: _num(v) for k, v in ends.items()},
                "strict": self.strict, "status": self.status, "note": self.note}


def _num(x: float):
    """x as a JSON value: an infinity or NaN as its string."""
    return float(x) if math.isfinite(x) else str(float(x))


def check_perccond(d: int, pc: Bracket, rho: Bracket) -> Entry:
    """p_c (d-1) rho < 1."""
    lhs = Bracket(*(_exact(lambda p, r: p * (d - 1) * r, s, p, r)
                    for p, r, s in zip(pc, rho, OUTWARD)))
    return Entry("perccond", "pc*(d-1)*rho<1", lhs, ONE, True)


def _bnp_term(rho: float, big_c: float, side: float) -> float:
    """C log(1 + (1-rho)^{-2}), the term both girth bounds share, rounded
    toward `side` (-inf or inf): the log moved 2 ulps past the rounding of
    log and its argument, and its product with C 1 ulp more."""
    log = math.log(1.0 + (1.0 - rho) ** -2)
    return math.nextafter(big_c * math.nextafter(math.nextafter(log, side), side), side)


def girth_threshold(rho: float, big_c: float, side: float) -> float:
    """L = C log(1 + (1-rho)^{-2}) / (rho^{-1} - 1), increasing in rho,
    rounded toward `side`; NaN when an input is NaN."""
    if rho <= 0.0 or rho >= 1.0:
        raise ValueError("need 0 < rho < 1")
    return _exact(lambda t, r: t * r / (1 - r), side, _bnp_term(rho, big_c, side), rho)


def check_girth_threshold(rho: Bracket, big_c: float, girth: float) -> Entry:
    """L(rho, C) <= the graph's exact girth."""
    lhs = Bracket(*(girth_threshold(r, big_c, s) for r, s in zip(rho, OUTWARD)))
    return Entry("girth_threshold", "girth>=L(rho,C)", lhs, point(girth), False,
                 note="rhs is the exact girth (inf on trees)")


def check_bnp_bound(d: int, girth: float, rho: Bracket, big_c: float, pc: Bracket) -> Entry:
    """p_c <= 1/(d-1) + C log(1+(1-rho)^{-2}) / (d*girth), increasing in rho.
    Given C, a tree's bound is 1/(d-1), the float point its closed-form p_c
    takes: outward ends could not show their tie.  No C: NaN ends."""
    rhs = point(1 / (d - 1)) if girth == math.inf and not math.isnan(big_c) else Bracket(*(
        _exact(lambda t: Fraction(1, d - 1) + t / (d * Fraction(girth)), s, _bnp_term(r, big_c, s))
        for r, s in zip(rho, OUTWARD)))
    return Entry("pc_degree_girth_bound", "pc<=1/(d-1)+C*log(...)/(d*g)", pc, rhs, False)


def check_endpoint_decay(d: int, rho: Bracket, mu: Bracket) -> Entry:
    """sup_x c_n(x)/c_n <= C lambda^n, C = d/((d-1)(1-rho)), needs lambda =
    (d-1) rho / mu < 1: every SAW is a non-backtracking walk, so c_n(x) <=
    d (d-1)^{n-1} rho^n/(1-rho), and c_n >= mu^n.  lambda is at most
    (d-1) rho.hi / mu.lo, and 0 is its only lower end: the entry never fails."""
    return Entry("endpoint_decay", "sup_x law(n,x) <= C*lambda^n",
                 Bracket(0.0, _exact(lambda r, m: (d - 1) * r / m, math.inf, rho.hi, mu.lo)),
                 ONE, True, f"envelope constant {d / ((d - 1) * (1.0 - rho.hi)):.6g}")


@dataclass
class GraphJob:
    spec_text: str
    bnp_c: float | None = None  # universal constant: input, never a default


@dataclass
class VerifyConfig:
    jobs: list[GraphJob] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"jobs": [asdict(j) for j in self.jobs]}


def parse_verify_config(text: str) -> VerifyConfig:
    """Read a verify config: under each [graph:SPEC] the key `bnp_C`
    (case-insensitive), a float, left unset when blank or missing; a
    [verify] section is legal, and none of its keys is read.

    Raises ValueError for malformed INI (no section header, a duplicate
    section or key), a section other than [verify] and [graph:SPEC], a
    value that does not parse, and a config with no graph section.
    Unknown keys are ignored; values are literal (no % interpolation)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    cfg = VerifyConfig()
    for name in cp.sections():
        if name == "verify":
            continue
        if not name.startswith("graph:"):
            raise ValueError(f"unknown section [{name}]: expected [verify] or [graph:SPEC]")
        raw = cp[name].get("bnp_c", "").strip()
        try:
            bnp_c = float(raw) if raw else None
        except ValueError as exc:
            raise ValueError(f"[{name}] bnp_c: {exc}") from exc
        cfg.jobs.append(GraphJob(name.split(":", 1)[1], bnp_c))
    if not cfg.jobs:
        raise ValueError("config has no [graph:SPEC] section")
    return cfg


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


def _outward(lo, hi) -> Bracket:
    """Fraction ends lo <= hi rounded outward to floats."""
    return Bracket(-float_above(-lo), float_above(hi))


def _tree_inputs(spec: GroupSpec):
    """A tree's inputs, all closed forms: (bracket, provenance) pairs for
    rho, p_c and z_c (Fractions, here the point 1/(d-1))."""
    d = spec.degree
    return ((Bracket(*kesten_interval(d)), "Kesten's 2*sqrt(d-1)/d, rounded outward"),
            (point(branching.critical_probability(d)), "closed form 1/(d-1), Lyons-Peres ch. 5"),
            ((Fraction(1, d - 1),) * 2, "exact: d-1"))


def _free_product_inputs(spec: GroupSpec):
    """Any other free product's inputs, as `_tree_inputs` returns them:
    rho in [K, lambda], K rounded down and `kernels.rho_upper`'s lambda up, p_c
    in `blocks.pc_interval`'s Fraction ends rounded outward and z_c in
    `blocks.critical_interval`'s for `blocks.walks`."""
    d = spec.degree
    lam, rs = rho_upper(spec)
    rho = Bracket(kesten_interval(d)[0], float_above(lam))
    lo, hi = blocks.pc_interval(spec)
    pc, z = _outward(lo, hi), blocks.critical_interval(spec, blocks.walks)
    return ((rho, "lo: Kesten's 2*sqrt(d-1)/d, rounded down; "
                  f"hi: superharmonic witness r=({', '.join(map(str, rs))})"),
            (pc, f"chi = 1/(1 - sum_f T_f/(1+T_f)) finite at lo={lo}, infinite at hi={hi}"),
            (z, f"1/z_c: SAW arcs' sum_f T_f/(1+T_f) below 1 at z={z[0]}, above 1 at z={z[1]}"))


def _graph_certificate(job: GraphJob) -> dict:
    spec = parse_group_spec(job.spec_text)
    d = spec.degree
    big_c = math.nan if job.bnp_c is None else job.bnp_c
    # girth is the smallest cyclic order >= 3, infinite on trees
    girth = math.inf if spec.known_girth is None else float(spec.known_girth)
    (rho, rho_prov), (pc, pc_prov), ((z_lo, z_hi), mu_prov) = (
        _tree_inputs(spec) if spec.is_tree else _free_product_inputs(spec))
    # mu = 1/z_c; the bubble and the speed over z_c's ends, once where equal
    mu = _outward(1 / z_hi, 1 / z_lo)
    bub_lo = saw_mod.bubble_diagram(spec, z_lo)
    bub = _outward(bub_lo, bub_lo if z_hi == z_lo else saw_mod.bubble_diagram(spec, z_hi))
    speed = _outward(*blocks.speed_interval(spec, z_lo, z_hi))

    entries = [
        check_perccond(d, pc, rho),
        check_girth_threshold(rho, big_c, girth),
        check_bnp_bound(d, girth, rho, big_c, pc),
        Entry("bubble_finite", "bubble diagram finite at 1/mu", bub, INF, True,
              "1/(1 - sum_f A_f/(1+A_f)) at z_c's ends"),
        check_endpoint_decay(d, rho, mu),
        Entry("saw_speed_positive", "E dist(0,SAW(n))/n > 0", point(0.0), speed, True,
              note="limit sum_f D_f/(1+T_f)^2 / sum_f N_f/(1+T_f)^2 over z_c's ends"),
    ]
    return {
        "graph": spec.describe(),
        "inputs": {
            "degree": d,
            "girth": "infinite (tree)" if spec.known_girth is None else str(spec.known_girth),
            "rho": rho.record(rho_prov),
            "pc_interval": pc.record(pc_prov),
            "mu": mu.record(mu_prov),
            "bnp_C": job.bnp_c,
        },
        "entries": [e.to_record() for e in entries],
    }


def _check_job(job: GraphJob) -> None:
    """Raise ValueError, naming the graph and the key, if `job` cannot be
    certified: degree < 3, or a bnp_C outside (0, inf)."""
    d = parse_group_spec(job.spec_text).degree
    for is_bad, why in ((d < 3, f"need degree >= 3, got {d}"),
                        (job.bnp_c is not None and not 0 < job.bnp_c < math.inf,
                         f"need 0 < bnp_C < inf, got {job.bnp_c}")):
        if is_bad:
            raise ValueError(f"[graph:{job.spec_text}] {why}")


def run_certificate(config: VerifyConfig) -> Certificate:
    for job in config.jobs:  # every job, before the first does any work
        _check_job(job)
    start = time.time()
    graphs = [_graph_certificate(job) for job in config.jobs]
    meta = {
        "config": config.to_dict(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "duration_s": round(time.time() - start, 3),
    }
    return Certificate(graphs, meta)
