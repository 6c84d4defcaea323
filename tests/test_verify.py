"""Certificate assembly: individual checks and the end-to-end run."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

import conftest
from girthlab import verify
from girthlab.cli import main
from girthlab.groups import parse_group_spec
from girthlab.kernels import kesten_interval, kesten_rho
from girthlab.saw import connective_constant, enumerate_saw
from girthlab.verify import (
    Bracket,
    Certificate,
    Entry,
    GraphJob,
    VerifyConfig,
    _bnp_term,
    check_bnp_bound,
    check_endpoint_decay,
    check_girth_threshold,
    check_perccond,
    girth_threshold,
    parse_verify_config,
    point,
    run_certificate,
    status,
)
from oracles import bnp_term_decimal

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("lhs,rhs,strict,want", [
    ((1, 2), (3, 4), True, "pass"),
    ((1, 2), (3, 4), False, "pass"),
    ((3, 4), (1, 2), True, "fail"),
    ((3, 4), (1, 2), False, "fail"),
    # touching ends: lhs.hi = rhs.lo passes only lhs <= rhs, and
    # lhs.lo = rhs.hi fails only lhs < rhs
    ((1, 2), (2, 3), False, "pass"),
    ((1, 2), (2, 3), True, "inconclusive"),
    ((2, 3), (1, 2), True, "fail"),
    ((2, 3), (1, 2), False, "inconclusive"),
    ((1, 1), (1, 1), False, "pass"),
    ((1, 1), (1, 1), True, "fail"),
    # a straddle decides nothing
    ((1, 3), (2, 4), True, "inconclusive"),
    ((1, 3), (2, 4), False, "inconclusive"),
    # infinite ends
    ((1, 5), (INF, INF), True, "pass"),
    ((1, INF), (INF, INF), True, "inconclusive"),
    ((1, INF), (INF, INF), False, "pass"),
    ((0, 2), (-INF, 1), True, "inconclusive"),
    ((2, 3), (-INF, 1), True, "fail"),
    # a NaN in any one end certifies nothing at that end
    ((NAN, 2), (3, 4), True, "pass"),
    ((1, NAN), (3, 4), True, "inconclusive"),
    ((1, 2), (NAN, 4), True, "inconclusive"),
    ((1, 2), (3, NAN), True, "pass"),
    ((NAN, 4), (1, 2), True, "inconclusive"),
    ((3, NAN), (1, 2), False, "fail"),
    ((3, 4), (NAN, 2), False, "fail"),
    ((3, 4), (1, NAN), False, "inconclusive"),
])
def test_status_rule(lhs, rhs, strict, want):
    assert status(Bracket(*lhs), Bracket(*rhs), strict) == want
    entry = Entry("x", "anchor", Bracket(*lhs), Bracket(*rhs), strict)
    assert entry.status == want
    assert conftest.recomputed_status(json.loads(json.dumps(entry.to_record()))) == want


def test_entry_record_and_margin():
    e = Entry("x", "anchor", Bracket(0.5, 1.0), Bracket(3.0, 4.0), False)
    assert e.margin == 2.0 and e.status == "pass"
    rec = e.to_record()
    assert (rec["lhs_lo"], rec["lhs"], rec["rhs"], rec["rhs_hi"]) == (0.5, 1.0, 3.0, 4.0)
    assert rec["margin"] == 2.0 and rec["anchor"] == "anchor" and rec["strict"] is False
    inf_rec = Entry("y", "a", point(0.0), point(math.inf), True).to_record()
    assert inf_rec["rhs"] == inf_rec["rhs_hi"] == "inf"
    json.dumps(inf_rec)  # serializable despite the infinity


def test_check_perccond():
    rho = kesten_rho(4)
    e = check_perccond(4, point(1 / 3), point(rho))
    assert e.status == "pass"
    assert e.margin == pytest.approx(1 - rho, abs=1e-12)
    # degenerate rho = 1 at the tree pc: margin exactly 0, fail
    e1 = check_perccond(3, point(0.5), point(1.0))
    assert e1.status == "fail" and e1.margin == 0.0
    # 3 times the float 1/3 is just below 1 exactly: rounded outward the
    # lhs straddles 1, where rounding to nearest would read exactly 1
    e1 = check_perccond(4, point(1 / 3), point(1.0))
    assert e1.lhs == (math.nextafter(1.0, 0.0), 1.0) and e1.status == "inconclusive"
    e2 = check_perccond(4, point(1 / 3), Bracket(rho, math.nan))
    assert e2.status == "inconclusive"
    # the lower ends decide a fail: p_c^lo (d-1) rho^lo < 1 leaves it open
    e3 = check_perccond(4, Bracket(0.339375, 0.395), Bracket(rho, 0.95))
    assert e3.status == "inconclusive"
    assert e3.to_record()["lhs_lo"] == pytest.approx(0.881722, abs=1e-6)


def test_girth_threshold_formula():
    rho = 0.9
    L = girth_threshold(rho, 1.0, INF)
    assert L == pytest.approx(math.log(1 + (1 - rho) ** -2) / (1 / rho - 1))
    assert girth_threshold(rho, 2.0, INF) == pytest.approx(2 * L)
    assert girth_threshold(rho, 1.0, -INF) < L
    with pytest.raises(ValueError):
        girth_threshold(1.0, 1.0, INF)


def test_bnp_term_brackets_the_decimal_log():
    # both girth bounds' log term, rounded 2 ulps outward, holds its
    # 50-digit value at 200 seeded rho
    gen = random.Random(20120713)
    for _ in range(200):
        rho, big_c = gen.uniform(0.3, 0.99), gen.choice((1.0, 0.37, 2.5))
        exact = bnp_term_decimal(rho, big_c)
        assert _bnp_term(rho, big_c, -INF) < exact < _bnp_term(rho, big_c, INF)


def test_check_girth_threshold():
    K = kesten_rho(4)
    assert check_girth_threshold(point(0.9), 1.0, math.inf).status == "pass"
    assert check_girth_threshold(point(0.9), 1.0, 5.0).status == "fail"
    assert check_girth_threshold(Bracket(K, math.nan), 1.0, 5.0).status == "fail"
    assert check_girth_threshold(Bracket(K, math.nan), 1.0, 30.0).status == "inconclusive"
    assert check_girth_threshold(point(0.9), math.nan, 5.0).status == "inconclusive"
    # L increases in rho: rho's two ends give L's two ends
    e = check_girth_threshold(Bracket(K, 0.95), 1.0, 5.0)
    assert e.lhs == (girth_threshold(K, 1.0, -INF), girth_threshold(0.95, 1.0, INF))


def test_check_bnp_bound():
    # infinite girth: the bound is 1/(d-1), the same float point as a
    # tree's closed-form p_c, which ties it exactly; no C, no bound
    e = check_bnp_bound(4, math.inf, point(0.87), 1.0, Bracket(0.33, 0.333))
    assert e.status == "pass" and e.rhs == point(1 / 3)
    for d in (3, 4, 6, 12):
        e = check_bnp_bound(d, math.inf, point(0.87), 1.0, point(1 / (d - 1)))
        assert e.status == "pass" and e.margin == 0.0
    e = check_bnp_bound(4, math.inf, point(0.87), math.nan, point(1 / 3))
    assert e.status == "inconclusive" and math.isnan(e.rhs.lo) and math.isnan(e.rhs.hi)
    # an interval straddling the bound decides nothing
    e2 = check_bnp_bound(4, math.inf, point(0.87), 1.0, Bracket(0.3333, 0.3334))
    assert e2.status == "inconclusive"
    e3 = check_bnp_bound(4, math.inf, point(0.87), 1.0, Bracket(0.4, 0.45))
    assert e3.status == "fail"
    # the bound increases in rho: Kesten's K alone can pass it, never fail it
    rho = Bracket(kesten_rho(4), math.nan)
    assert check_bnp_bound(4, 5.0, rho, 1.0, Bracket(0.3, 0.35)).status == "pass"
    assert check_bnp_bound(4, 5.0, rho, 1.0, Bracket(0.55, 0.6)).status == "inconclusive"
    assert check_bnp_bound(4, 5.0, point(0.9), math.nan, point(0.3)).status == "inconclusive"


def _certify(config):
    """run_certificate, asserting that every recorded status is the one its
    record gives, that no entry passes with a negative margin and that no
    input was sampled."""
    cert = run_certificate(config)
    assert conftest.misrecorded_entries(cert) == []
    assert conftest.negative_margin_passes(cert) == []
    assert conftest.sampled_inputs(cert) == []
    return cert


def _small_config(**overrides):
    job = GraphJob("Z*Z", bnp_c=1.0)
    for k, v in overrides.items():
        setattr(job, k, v)
    return VerifyConfig(jobs=[job])


EXPECTED_IDS = {
    "perccond", "girth_threshold", "pc_degree_girth_bound",
    "bubble_finite", "endpoint_decay", "saw_speed_positive",
}


def test_run_certificate_tree_all_pass():
    cert = _certify(_small_config())
    assert len(cert.graphs) == 1
    g = cert.graphs[0]
    assert g["graph"] == "Z*Z"
    assert {e["id"] for e in g["entries"]} == EXPECTED_IDS
    assert not cert.failed
    assert cert.inconclusive_count == 0
    assert g["inputs"]["girth"] == "infinite (tree)"
    # K = sqrt(3)/2 between the floats either side of it
    assert (g["inputs"]["rho"]["lo"], g["inputs"]["rho"]["hi"]) == kesten_interval(4)
    assert g["inputs"]["mu"]["lo"] == g["inputs"]["mu"]["hi"] == 3.0
    pc = g["inputs"]["pc_interval"]
    assert pc["lo"] == pc["hi"] == 1 / 3
    assert pc["provenance"].startswith("closed form 1/(d-1)")
    by_id = {e["id"]: e for e in g["entries"]}
    # p_c ties the degree/girth bound 1/(d-1) exactly; the bubble at
    # z_c = 1/3 is 5/3 rounded outward, the speed exactly 1
    assert by_id["pc_degree_girth_bound"]["margin"] == 0.0
    bub = by_id["bubble_finite"]
    assert Fraction(bub["lhs_lo"]) < Fraction(5, 3) < Fraction(bub["lhs"])
    assert by_id["saw_speed_positive"]["rhs"] == by_id["saw_speed_positive"]["rhs_hi"] == 1.0


def test_certificate_margins_recomputable():
    cert = _certify(_small_config())
    for e in cert.entries:
        lhs, rhs, margin = e["lhs"], e["rhs"], e["margin"]
        if isinstance(lhs, float) and isinstance(rhs, float):
            assert margin == pytest.approx(rhs - lhs)
        assert e["status"] == conftest.recomputed_status(e)
        assert e["anchor"]


def test_certificate_json_meta_toggle():
    cert = _certify(_small_config())
    with_meta = json.loads(cert.to_json())
    without = json.loads(cert.to_json(include_meta=False))
    assert "meta" in with_meta and "timestamp" in with_meta["meta"]
    assert "meta" not in without
    assert with_meta["graphs"] == without["graphs"]


@pytest.mark.parametrize("spec_text", ["Z*Z", "Z5*Z5", "Z2*Z5", "Z3*Z4", "Z27*Z27", "Z*Z5"])
def test_derived_ends_are_their_exact_values_rounded_outward(spec_text):
    # each derived end, recomputed in Fractions from the recorded inputs
    # (the log term as `_bnp_term` pads it), is the nearest float on its
    # outward side: lo ends at or below their exact value, hi ends at or
    # above it, and the next float inward is past it
    g = _certify(VerifyConfig([GraphJob(spec_text, bnp_c=1.0)])).graphs[0]
    inputs, by_id = g["inputs"], {e["id"]: e for e in g["entries"]}
    d = inputs["degree"]
    rho, pc, mu = ([Fraction(inputs[k][end]) for end in ("lo", "hi")]
                   for k in ("rho", "pc_interval", "mu"))
    term = [Fraction(_bnp_term(float(r), 1.0, side)) for r, side in zip(rho, (-INF, INF))]
    perc, decay = by_id["perccond"], by_id["endpoint_decay"]
    girth, bnp = by_id["girth_threshold"], by_id["pc_degree_girth_bound"]
    ends = [(perc["lhs_lo"], pc[0] * (d - 1) * rho[0], -INF),
            (perc["lhs"], pc[1] * (d - 1) * rho[1], INF),
            (decay["lhs"], (d - 1) * rho[1] / mu[0], INF),
            (girth["lhs_lo"], term[0] * rho[0] / (1 - rho[0]), -INF),
            (girth["lhs"], term[1] * rho[1] / (1 - rho[1]), INF)]
    if spec_text == "Z*Z":  # the tree's bound is its closed-form p_c's float
        assert bnp["rhs"] == bnp["rhs_hi"] == inputs["pc_interval"]["hi"] == 1 / 3
    else:
        girth_q = d * int(inputs["girth"])
        ends += [(bnp["rhs"], Fraction(1, d - 1) + term[0] / girth_q, -INF),
                 (bnp["rhs_hi"], Fraction(1, d - 1) + term[1] / girth_q, INF)]
    for end, exact, side in ends:
        sign = 1 if side > 0 else -1
        assert sign * (Fraction(end) - exact) >= 0 > sign * (
            Fraction(math.nextafter(end, -side)) - exact), (end, float(exact), side)


def test_certificate_girth_from_closed_form():
    # the girth is the smallest cyclic order, read from the spec: no ball
    # is built, and no BFS bounds it
    job = GraphJob("Z7*Z7", bnp_c=1.0)
    cert = _certify(VerifyConfig(jobs=[job]))
    assert cert.graphs[0]["inputs"]["girth"] == "7"
    by_id = {e["id"]: e for e in cert.entries}
    assert by_id["girth_threshold"]["rhs"] == 7.0


def test_check_endpoint_decay():
    rho = kesten_rho(4)
    e = check_endpoint_decay(4, point(rho), point(3.0))
    assert e.status == "pass" and e.lhs == (0.0, pytest.approx(rho))
    assert e.note == f"envelope constant {4 / (3 * (1 - rho)):.6g}"
    # lambda >= 1 leaves the envelope useless but fails nothing
    assert check_endpoint_decay(4, point(0.95), point(2.0)).status == "inconclusive"
    # a NaN lower end on mu decides nothing
    no_mu = check_endpoint_decay(4, point(0.95), Bracket(math.nan, 3.1))
    assert no_mu.status == "inconclusive" and math.isnan(no_mu.lhs.hi)


def test_mu_upper_bound_passes_no_saw_entry():
    # (d-1) rho.hi = 2.985 exceeds mu(Z5*Z5) = 2.97445 but not the census
    # upper bound 3.0952: an upper bound on mu must not pass a SAW entry
    rho = Bracket(kesten_rho(4), 0.995)
    mu_hi = connective_constant(enumerate_saw(parse_group_spec("Z5*Z5"), 8)).best_upper
    assert 3 * 0.995 < mu_hi
    e = check_endpoint_decay(4, rho, Bracket(math.nan, mu_hi))
    assert e.status == "inconclusive" and math.isnan(e.lhs.hi)
    # were mu_hi a lower bound, the base 2.985 / 3.0952 < 1 would pass it
    assert check_endpoint_decay(4, rho, point(mu_hi)).status == "pass"
    # at the true mu the base exceeds 1, which decides nothing, never a fail
    assert check_endpoint_decay(4, rho, point(2.97445)).status == "inconclusive"
    # p_c^hi*3*0.995 > 1, but p_c^lo*3*K < 1: rho.hi alone decides no fail
    assert check_perccond(4, Bracket(0.339375, 0.395), rho).status == "inconclusive"


@pytest.mark.parametrize("spec_text,overrides,key", [
    ("Z3", {}, "degree"),  # a triangle: no SAW of length 3
    ("Z", {}, "degree"),
    ("Z2*Z2", {}, "degree"),
    ("Z*Z", {"bnp_c": -math.inf}, "bnp_C"),
    ("Z5", {}, "degree"),  # a 5-cycle: rho = 1, which no witness bounds below 1
    ("Z4", {}, "degree"),  # a 4-cycle
    ("Z*Z", {"bnp_c": -0.0}, "bnp_C"),  # -0.0 is not above 0
    ("Z6", {"bnp_c": 0.0}, "degree"),  # two bad keys: the degree is named
    ("Z*Z", {"bnp_c": math.inf}, "bnp_C"),  # L = girth = inf passed with margin nan
    ("Z2", {}, "degree"),
    ("Z5*Z5", {"bnp_c": math.nan}, "bnp_C"),
    ("Z2*Z3*Z4", {"bnp_c": math.nan}, "bnp_C"),
    ("Z5*Z5", {"bnp_c": 0.0}, "bnp_C"),  # L = 0 turned girth_threshold into a pass
    ("Z5*Z5", {"bnp_c": -1.0}, "bnp_C"),
    ("Z3*Z3", {"bnp_c": -math.inf}, "bnp_C"),
])
def test_bad_job_rejected_before_any_work(spec_text, overrides, key, monkeypatch,
                                          tmp_path, capsys):
    bad = GraphJob(spec_text, **overrides)
    # a good job first: every job is checked before the first one's inputs
    cfg = VerifyConfig(jobs=[GraphJob("Z2*Z2*Z2"), bad])

    def no_work(*args, **kwargs):
        raise AssertionError("an input was computed before every job was checked")

    monkeypatch.setattr(verify, "_tree_inputs", no_work)
    monkeypatch.setattr(verify, "_free_product_inputs", no_work)
    with pytest.raises(ValueError) as exc:
        run_certificate(cfg)
    assert str(exc.value).startswith(f"[graph:{spec_text}] ") and key in str(exc.value)

    def section(spec, keys):
        return f"\n[graph:{spec}]\n" + "".join(f"bnp_C = {v}\n" for v in keys.values())

    path = tmp_path / "bad.cfg"
    path.write_text("[verify]\n" + section("Z2*Z2*Z2", {}) + section(spec_text, overrides))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [graph:{spec_text}] ") and "Traceback" not in err
    assert not (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize("spec_text,ends", [
    ("Z*Z", 1), ("Z*Z*Z", 1), ("Z2*Z2*Z2", 1), ("Z*Z*Z*Z", 1), ("Z5*Z5", 2), ("Z*Z5", 2),
])
def test_tree_job_evaluates_bubble_and_speed_once(spec_text, ends, monkeypatch):
    # a tree's z_c ends are one Fraction 1/(d-1): the bubble is evaluated
    # there once, and each of the speed's closed forms once per order
    zs = {"bubble": [], "distances": []}
    bubble, distances = verify.saw_mod.bubble_diagram, verify.blocks.distances
    monkeypatch.setattr(verify.saw_mod, "bubble_diagram",
                        lambda spec, z: zs["bubble"].append(z) or bubble(spec, z))
    monkeypatch.setattr(verify.blocks, "distances",
                        lambda m, z: zs["distances"].append(z) or distances(m, z))
    run_certificate(VerifyConfig(jobs=[GraphJob(spec_text, bnp_c=1.0)]))
    orders = len(set(parse_group_spec(spec_text).orders))
    assert len(zs["bubble"]) == ends and len(zs["distances"]) == ends * orders


def test_config_sets_every_job_field():
    # bnp_C is the one field but spec_text; keys are case-insensitive
    assert [f.name for f in dataclasses.fields(GraphJob)] == ["spec_text", "bnp_c"]
    for key in ("bnp_C", "bnp_c", "BNP_C"):
        cfg = parse_verify_config(f"[graph:Z5*Z5]\n{key} = 2.5\n")
        assert cfg.jobs == [GraphJob("Z5*Z5", bnp_c=2.5)]
    # a blank bnp_C means unset; rho_ub, pc_trials, saw_n_max, radius and
    # kernel_steps are no longer fields
    for line in ("bnp_C =", "rho_ub = 0.95", "pc_trials = 7", "saw_n_max = 0",
                 "radius = 4", "kernel_steps = 3"):
        assert parse_verify_config(f"[graph:Z5*Z5]\n{line}\n").jobs == [GraphJob("Z5*Z5")]


def test_config_retired_knobs_change_nothing():
    # seed, theta_star, pc_radius, pc_trials, saw_n_max, rho_ub, radius and
    # kernel_steps are no longer read: a config that still sets them, even
    # to a blank or a non-number, gives the same jobs and the same
    # certificate bytes, whatever its old seed
    text = ("[verify]\n\n"
            "[graph:Z*Z]\nbnp_C = 1.0\n\n"
            "[graph:Z5*Z5]\n")
    new_cfg = parse_verify_config(text)
    new = _certify(new_cfg).to_json(include_meta=False)
    retired = "pc_radius = 4\npc_trials = 20\nsaw_n_max = 4\n"
    for seed in (2, 9):
        old = (f"[verify]\nseed = {seed}\ntheta_star = 0.3\n\n"
               f"[graph:Z*Z]\nradius = 3\nkernel_steps =\nbnp_C = 1.0\n{retired}\n"
               f"[graph:Z5*Z5]\nradius = x\nkernel_steps = 6\n{retired}rho_ub = 0.95\n")
        old_cfg = parse_verify_config(old)
        assert new_cfg.jobs == old_cfg.jobs and new_cfg.to_dict() == old_cfg.to_dict()
        assert _certify(old_cfg).to_json(include_meta=False) == new


def test_certificate_failed_flag():
    cert = Certificate(
        graphs=[{"graph": "x", "inputs": {},
                 "entries": [{"id": "a", "status": "fail"}]}],
        meta={},
    )
    assert cert.failed
    assert cert.inconclusive_count == 0
