"""The three benchmark workloads: their inputs, one timed pass, and the
invariant checks and digest of that pass's outputs.

Each workload is a class with the same four steps:

* ``__init__(seed, scale)`` builds ``n_inputs`` input sets from the seed
  (set-up time);
* ``steps(k)`` lists the timed calls into girthlab on input set k as
  ``(name, call)`` pairs; a pass makes them in order, each timed on its
  own, and collects their outputs in a dict by name;
* ``result(outputs)`` turns that dict into a JSON-able summary (untimed), whose
  canonical JSON is hashed into the workload's output digest;
* ``check(result)`` returns ``(name, ok)`` pairs, one per output check.

Checks test invariants (exact counts, exact oracles, agreement within
4 standard errors), never pinned certificate statuses or pinned RNG draws,
so that correctness fixes to girthlab do not read as benchmark failures.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np

# Calls go through module attributes (groups.ball, not a local `ball`) so
# that the traced run's wrappers, installed on the girthlab modules, see them.
from girthlab import branching, groups, kernels, percolation, saw, verify
from girthlab.cli import parse_verify_config
from girthlab.groups import parse_group_spec, tree_vertex_count

VALID_STATUSES = {"pass", "fail", "inconclusive"}
N_SE = 4.0  # agreement window, in standard errors, for Monte Carlo checks


def canonical_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _array_sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _sub_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


# --------------------------------------------------------------------------
# certificate: `girthlab verify` on the README config
# --------------------------------------------------------------------------

README_CONFIG = """\
[verify]
seed = {seed}
workers = 1

[graph:Z*Z]
radius = {zz_radius}
kernel_steps = 6
saw_n_max = {saw_n_max}
pc_radius = {pc_radius}
pc_trials = {pc_trials}
trials = {trials}
bnp_C = 1.0

[graph:Z5*Z5]
radius = {z5_radius}
kernel_steps = 6
saw_n_max = {saw_n_max}
pc_radius = {pc_radius}
pc_trials = {pc_trials}
trials = {trials}
rho_ub = 0.95
bnp_C = 1.0
"""

CERTIFICATE_SIZES = {
    "full": dict(zz_radius=8, z5_radius=6, saw_n_max=8, pc_radius=6,
                 pc_trials=200, trials=200),
    "tiny": dict(zz_radius=4, z5_radius=3, saw_n_max=5, pc_radius=3,
                 pc_trials=20, trials=20),
}


class Certificate:
    """run_certificate on the README config with workers=1, for
    `n_inputs` certificate seeds drawn from --seed.  How much Monte Carlo
    work a certificate does depends on its seed (the p_c bracket decides
    the triangle diagram's cluster sizes), so passes cycle through several
    seeds and the median pass stands for the typical seed."""

    n_inputs = 4

    def __init__(self, seed: int, scale: str):
        self.configs = [
            parse_verify_config(README_CONFIG.format(seed=s, **CERTIFICATE_SIZES[scale]))
            for s in _sub_seeds(seed, self.n_inputs)]

    def steps(self, k: int):
        config = self.configs[k]
        return [("certificate",
                 lambda: verify.run_certificate(config).to_json(include_meta=False))]

    def result(self, outputs):
        return {"certificate_json": outputs["certificate"]}

    def check(self, res):
        doc = json.loads(res["certificate_json"])
        checks = []
        for g in doc["graphs"]:
            for e in g["entries"]:
                checks.append((f"{g['graph']}/{e['id']}/status_valid",
                               e["status"] in VALID_STATUSES))
            if g["graph"] == "Z*Z":
                pc = g["inputs"]["pc_interval"]
                checks.append(("Z*Z/pc_interval_contains_1/3",
                               pc["lo"] <= 1 / 3 <= pc["hi"]))
        return checks


# --------------------------------------------------------------------------
# kernel-suite: the criterion-3 kernel inequalities at radius 8
# --------------------------------------------------------------------------

# Radius 8, not the 9 or 10 of criterion 3: a pass is then ~4 s, not ~14 s,
# so a run holds ~9 passes and their median is steadier across runs.
KERNEL_RADIUS = {"full": 8, "tiny": 4}
KERNEL_CHUNK = 20_000  # test vertices per check call, as in criterion 3


def _table_digest(table) -> str:
    h = hashlib.sha256()
    for step in table.steps:
        if isinstance(step, dict):
            for v in sorted(step):
                f = step[v]
                h.update(f"{v}:{f.numerator}/{f.denominator};".encode())
        else:
            h.update(np.ascontiguousarray(step).tobytes())
        h.update(b"|")
    return h.hexdigest()


def _summarize_entries(entries, summary: dict) -> None:
    """Fold one check call's entries into a running (pairs, violations)
    summary; only the summary outlives the call."""
    summary["pairs"] += len(entries)
    summary["violations"] += sum(not e.passed for e in entries)


class KernelSuite:
    """Ball, SRW, NBW and both inequality checks over every (x, n) pair:
    Z*Z in exact Fractions with rho_ub = kesten_rho_upper_fraction(4),
    Z5*Z5 in float64 with rho_ub = 0.95.  There is nothing random in it,
    so the seed does not change the inputs."""

    n_inputs = 1

    def __init__(self, seed: int, scale: str):
        self.radius = KERNEL_RADIUS[scale]
        self.configs = [  # (name, spec, rho_ub, exact)
            ("Z*Z", parse_group_spec("Z*Z"), kernels.kesten_rho_upper_fraction(4), True),
            ("Z5*Z5", parse_group_spec("Z5*Z5"), 0.95, False),
        ]

    def steps(self, k: int):
        return [(config[0], lambda config=config: self._graph(*config))
                for config in self.configs]

    def _graph(self, name, spec, rho_ub, exact):
        r = self.radius
        b = groups.ball(spec, r)
        srw = kernels.srw_kernel(b, r, exact=exact)
        nbw = kernels.nbw_kernel(b, r, exact=exact)
        tail = {"pairs": 0, "violations": 0}
        power = {"pairs": 0, "violations": 0}
        for start in range(0, b.n_vertices, KERNEL_CHUNK):
            vs = list(range(start, min(start + KERNEL_CHUNK, b.n_vertices)))
            _summarize_entries(
                kernels.check_nbw_le_srw_tail(b, r, rho_ub, test_vertices=vs,
                                              exact=exact, srw=srw, nbw=nbw),
                tail)
            _summarize_entries(
                kernels.check_nbw_le_rho_power(b, r, rho_ub, test_vertices=vs,
                                               exact=exact, nbw=nbw),
                power)
        return {"graph": name, "exact": exact, "n_max": r,
                "vertices": b.n_vertices, "srw": srw, "nbw": nbw,
                "nbw_le_srw_tail": tail, "nbw_le_rho_power": power}

    def result(self, outputs):
        res = []
        for o in outputs.values():
            o = dict(o)
            for kind in ("srw", "nbw"):
                table = o.pop(kind)
                o[f"{kind}_mass"] = [str(table.mass(n)) for n in range(len(table.steps))]
                o[f"{kind}_sha256"] = _table_digest(table)
            res.append(o)
        return res

    def check(self, res):
        checks = []
        for o in res:
            g, v, n_max = o["graph"], o["vertices"], o["n_max"]
            if g == "Z*Z":
                checks.append((f"{g}/vertex_count", v == tree_vertex_count(4, n_max)))
            for kind in ("srw_mass", "nbw_mass"):
                if o["exact"]:
                    ok = all(Fraction(m) == 1 for m in o[kind])
                else:
                    ok = all(abs(float(m) - 1.0) <= kernels.FLOAT_MASS_TOL for m in o[kind])
                checks.append((f"{g}/{kind}_is_1", ok))
            for chk in ("nbw_le_srw_tail", "nbw_le_rho_power"):
                s = o[chk]
                checks.append((f"{g}/{chk}/pairs=(n_max+1)*V", s["pairs"] == (n_max + 1) * v))
                checks.append((f"{g}/{chk}/no_violations", s["violations"] == 0))
        return checks


# --------------------------------------------------------------------------
# sampling: the Monte Carlo and enumeration oracles
# --------------------------------------------------------------------------

SAMPLING_SIZES = {
    "full": dict(census_n=12, ros_long_n=30, ros_trials=2000,
                 progeny_n_max=10_000, progeny_trials=100_000,
                 pc_radius=8, pc_trials=200, witness_trials=1200, theta_radius=8),
    "tiny": dict(census_n=6, ros_long_n=10, ros_trials=200,
                 progeny_n_max=1000, progeny_trials=2000,
                 pc_radius=3, pc_trials=30, witness_trials=200, theta_radius=4),
}
WITNESS_P = 0.4  # criterion 8: supercritical on Z*Z, where p_c = 1/3
PROGENY_P = 1 / 3  # critical on the 4-regular tree


def _endpoints_digest(census) -> str:
    """Order-free digest of the endpoint counts: per n, the number of
    endpoints and the sum of the hashes of the (word, count) items (word
    hashes are not salted, so this is stable from run to run)."""
    per_n = [(len(ec), sum(map(hash, ec.items())) % 2**64)
             for ec in census.endpoint_counts]
    return canonical_sha256(per_n)


def _rosenbluth_summary(res) -> dict:
    """c_n and speed estimates with their standard errors.  The speed is a
    ratio estimator sum(w*dist)/(n*sum(w)); its SE is the delta-method one."""
    w = res.weights
    m = len(w)
    c_se = float(w.std(ddof=1) / math.sqrt(m))
    total = w.sum()
    speed = res.speed_estimate
    resid = w * (res.endpoint_dists / res.n - speed)
    speed_se = float(math.sqrt((resid**2).sum() * m / (m - 1)) / total)
    return {"n": res.n, "trials": res.trials, "c_n": float(w.mean()), "c_se": c_se,
            "speed": speed, "speed_se": speed_se, "dead_ends": res.dead_ends,
            "weights_sha256": _array_sha(w),
            "dists_sha256": _array_sha(res.endpoint_dists)}


class Sampling:
    """enumerate_saw(Z5*Z5, 12), Rosenbluth on Z5*Z5 at n=12 (checked against
    the census) and n=30, critical total-progeny samples on the 4-regular
    tree, estimate_pc(Z5*Z5, R=8) and the Z*Z non-uniqueness witness of
    criterion 8.  Every Monte Carlo seed is drawn from --seed."""

    n_inputs = 1

    def __init__(self, seed: int, scale: str):
        self.sizes = SAMPLING_SIZES[scale]
        self.z5 = parse_group_spec("Z5*Z5")
        self.f2 = parse_group_spec("Z*Z")
        (self.ros_seed, self.ros_long_seed, self.progeny_seed,
         self.pc_seed, self.witness_seed) = _sub_seeds(seed, 5)
        self.witness_r = percolation.oracle_witness_radius(4, WITNESS_P)

    def steps(self, k: int):
        s = self.sizes
        return [
            ("census", lambda: saw.enumerate_saw(self.z5, s["census_n"])),
            ("rosenbluth", lambda: saw.rosenbluth_sampler(
                self.z5, s["census_n"], s["ros_trials"], self.ros_seed)),
            ("rosenbluth_long", lambda: saw.rosenbluth_sampler(
                self.z5, s["ros_long_n"], s["ros_trials"], self.ros_long_seed)),
            ("progeny", lambda: branching.total_progeny_samples(
                4, PROGENY_P, s["progeny_n_max"], s["progeny_trials"], self.progeny_seed)),
            ("pc", lambda: percolation.estimate_pc(
                self.z5, s["pc_radius"], s["pc_trials"], self.pc_seed)),
            ("witness", lambda: percolation.nonuniqueness_witness(
                self.f2, WITNESS_P, r_max=self.witness_r, trials=s["witness_trials"],
                seed=self.witness_seed, theta_radius=s["theta_radius"])),
        ]

    def result(self, outputs):
        census = outputs["census"]
        sizes = outputs["progeny"]
        n_max = self.sizes["progeny_n_max"]
        return {
            "census": {"counts": census.counts,
                       "speed": saw.speed_exact(census, census.n_max),
                       "endpoints_sha256": _endpoints_digest(census)},
            "rosenbluth": _rosenbluth_summary(outputs["rosenbluth"]),
            "rosenbluth_long": _rosenbluth_summary(outputs["rosenbluth_long"]),
            "progeny": {"n_max": n_max, "trials": len(sizes),
                        "min": int(sizes.min()), "max": int(sizes.max()),
                        "size1": int((sizes == 1).sum()), "size2": int((sizes == 2).sum()),
                        "censored": int((sizes > n_max).sum()),
                        "sha256": _array_sha(sizes)},
            "pc": {"lo": outputs["pc"].lo, "hi": outputs["pc"].hi},
            "witness": {"trials": self.sizes["witness_trials"],
                        "theta_radius": self.sizes["theta_radius"],
                        "entries": outputs["witness"]["entries"]},
        }

    def check(self, out):
        checks = []
        counts = out["census"]["counts"]
        n_max = len(counts) - 1
        checks.append(("census/c_n=4*3^(n-1),n<=4",
                       all(counts[n] == 4 * 3 ** (n - 1) for n in range(1, min(n_max, 4) + 1))))
        if n_max >= 5:
            checks.append(("census/c_5=320", counts[5] == 320))
        if n_max >= 12:
            checks.append(("census/c_12=659376", counts[12] == 659376))

        ros = out["rosenbluth"]
        checks.append(("rosenbluth/c_n_vs_census",
                       abs(ros["c_n"] - counts[ros["n"]]) <= N_SE * ros["c_se"]))
        checks.append(("rosenbluth/speed_vs_census",
                       abs(ros["speed"] - out["census"]["speed"]) <= N_SE * ros["speed_se"]))
        long = out["rosenbluth_long"]
        checks.append(("rosenbluth_long/speed_in_(0,1]", 0.0 < long["speed"] <= 1.0))
        # submultiplicativity: c_{a+b} <= c_a c_b, so c_n <= c_N^(n//N) c_(n%N)
        q, r = divmod(long["n"], n_max)
        checks.append(("rosenbluth_long/c_n_le_submultiplicative_bound",
                       long["c_n"] - N_SE * long["c_se"] <= counts[n_max] ** q * counts[r]))

        pg = out["progeny"]
        checks.append(("progeny/sizes_in_[1,n_max+1]",
                       pg["min"] >= 1 and pg["max"] <= pg["n_max"] + 1))
        d, p, t = 4, PROGENY_P, pg["trials"]
        # |C| = 1: no open root edge; |C| = 2: one open root edge whose far
        # end has no open edge among its d-1 others
        for key, prob in (("size1", (1 - p) ** d),
                          ("size2", d * p * (1 - p) ** (2 * d - 2))):
            se = math.sqrt(prob * (1 - prob) / t)
            checks.append((f"progeny/P({key})_vs_exact", abs(pg[key] / t - prob) <= N_SE * se))

        pc = out["pc"]
        checks.append(("estimate_pc/0<=lo<hi<=1", 0.0 <= pc["lo"] < pc["hi"] <= 1.0))

        wt = out["witness"]
        t = wt["trials"]
        entries = wt["entries"]
        checks.append(("witness/one_entry_per_radius", [e["R"] for e in entries]
                       == list(range(1, len(entries) + 1))))
        theta = branching.crossing_probability_exact(4, WITNESS_P, wt["theta_radius"])
        for e in entries:
            tau = WITNESS_P ** e["R"]
            checks.append((f"witness/R={e['R']}/two_point_exact=p^R",
                           math.isclose(e["two_point_exact"], tau, rel_tol=1e-12)))
            se = math.sqrt(tau * (1 - tau) / t)
            checks.append((f"witness/R={e['R']}/two_point_vs_p^R",
                           abs(e["two_point"] - tau) <= N_SE * se))
            se = math.sqrt(theta * (1 - theta) / t)
            checks.append((f"witness/R={e['R']}/theta_vs_tree_crossing",
                           abs(e["theta_hat"] - theta) <= N_SE * se))
        return checks


WORKLOADS = {"certificate": Certificate, "kernel-suite": KernelSuite, "sampling": Sampling}
