"""Certificate assembly: individual checks and the end-to-end run."""

import dataclasses
import json
import math

import pytest

import conftest
from girthlab import verify
from girthlab.cli import main
from girthlab.groups import ball, parse_group_spec
from girthlab.kernels import (
    chained_tail,
    check_nbw_le_rho_power,
    check_nbw_le_srw_tail,
    kesten_rho,
    nbw_kernel,
    srw_kernel,
)
from girthlab.percolation import tree_triangle_exact
from girthlab.verify import (
    FAIL,
    PASS,
    Certificate,
    Entry,
    GraphJob,
    VerifyConfig,
    _num,
    check_bnp_bound,
    check_endpoint_decay,
    check_girth_threshold,
    check_mu_pc,
    check_perccond,
    girth_threshold,
    parse_verify_config,
    run_certificate,
)


def test_entry_record_and_margin():
    e = Entry("x", "anchor", 1.0, 3.0, "pass")
    assert e.margin == 2.0
    rec = e.to_record()
    assert rec["margin"] == 2.0 and rec["anchor"] == "anchor"
    inf_rec = Entry("y", "a", 0.0, math.inf, "pass").to_record()
    assert inf_rec["rhs"] == "inf"
    json.dumps(inf_rec)  # serializable despite the infinity


def test_check_perccond():
    rho = kesten_rho(4)
    e = check_perccond(4, 1 / 3, rho)
    assert e.status == "pass"
    assert e.margin == pytest.approx(1 - rho, abs=1e-12)
    # degenerate rho_ub = 1 at the tree pc: margin exactly 0, fail
    e1 = check_perccond(4, 1 / 3, 1.0)
    assert e1.status == "fail" and e1.margin == pytest.approx(0.0)
    e2 = check_perccond(4, 1 / 3, None)
    assert e2.status == "inconclusive"


def test_girth_threshold_formula():
    rho = 0.9
    L = girth_threshold(rho, 1.0)
    assert L == pytest.approx(math.log(1 + (1 - rho) ** -2) / (1 / rho - 1))
    assert girth_threshold(rho, 2.0) == pytest.approx(2 * L)
    with pytest.raises(ValueError):
        girth_threshold(1.0, 1.0)


def test_check_girth_threshold():
    assert check_girth_threshold(0.9, 1.0, math.inf).status == "pass"
    assert check_girth_threshold(0.9, 1.0, 5.0).status == "fail"
    assert check_girth_threshold(None, 1.0, 5.0).status == "inconclusive"
    assert check_girth_threshold(0.9, None, 5.0).status == "inconclusive"


def test_check_bnp_bound():
    # infinite girth: bound is exactly 1/(d-1)
    e = check_bnp_bound(4, math.inf, 0.87, 1.0, 0.33, 0.333)
    assert e.status == "pass" and e.rhs == pytest.approx(1 / 3)
    # an interval straddling the bound decides nothing
    e2 = check_bnp_bound(4, math.inf, 0.87, 1.0, 0.3333, 0.3334)
    assert e2.status == "inconclusive" and "straddles" in e2.note
    e3 = check_bnp_bound(4, math.inf, 0.87, 1.0, 0.4, 0.45)
    assert e3.status == "fail"
    assert check_bnp_bound(4, 5.0, None, 1.0, 0.3, 0.35).status == "inconclusive"


def test_check_mu_pc():
    e = check_mu_pc(3.1, 0.33, 0.34)
    assert e.status == "pass"
    assert "interval ends" in e.note
    assert check_mu_pc(2.0, 0.33, 0.4).status == "fail"


def _certify(config):
    """run_certificate, asserting that no entry passes with a negative margin."""
    cert = run_certificate(config)
    assert conftest.negative_margin_passes(cert) == []
    return cert


def _small_config(**overrides):
    job = GraphJob("Z*Z", radius=5, kernel_steps=4, saw_n_max=5,
                   pc_trials=50, bnp_c=1.0)
    for k, v in overrides.items():
        setattr(job, k, v)
    return VerifyConfig(jobs=[job], seed=7)


EXPECTED_IDS = {
    "nbw_le_srw_tail", "nbw_le_rho_power", "return_rate_le_rho", "perccond",
    "girth_threshold", "pc_degree_girth_bound", "mu_pc_product",
    "triangle_finite", "bubble_finite", "endpoint_decay", "saw_speed_positive",
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
    assert g["inputs"]["rho_ub"]["provenance"] == "exact-formula"
    pc = g["inputs"]["pc_interval"]
    assert pc["lo"] == pc["hi"] == 1 / 3
    assert pc["provenance"].startswith("closed form 1/(d-1)")


def test_certificate_margins_recomputable():
    cert = _certify(_small_config())
    for e in cert.entries:
        lhs, rhs, margin = e["lhs"], e["rhs"], e["margin"]
        if isinstance(lhs, float) and isinstance(rhs, float):
            assert margin == pytest.approx(rhs - lhs)
        assert e["status"] in ("pass", "fail", "inconclusive")
        assert e["anchor"]


def test_certificate_json_meta_toggle():
    cert = _certify(_small_config())
    with_meta = json.loads(cert.to_json())
    without = json.loads(cert.to_json(include_meta=False))
    assert "meta" in with_meta and "timestamp" in with_meta["meta"]
    assert "meta" not in without
    assert with_meta["graphs"] == without["graphs"]


def test_missing_rho_ub_degrades_to_inconclusive():
    job = GraphJob("Z5*Z5", radius=4, kernel_steps=3, saw_n_max=5,
                   pc_trials=40)
    cert = _certify(VerifyConfig(jobs=[job], seed=1))
    by_id = {e["id"]: e for e in cert.entries}
    for rho_dependent in ("nbw_le_srw_tail", "nbw_le_rho_power", "perccond",
                          "girth_threshold", "pc_degree_girth_bound"):
        assert by_id[rho_dependent]["status"] == "inconclusive"
    # census-driven entries still run
    assert by_id["mu_pc_product"]["status"] == "pass"
    assert by_id["saw_speed_positive"]["status"] == "pass"
    assert {e["id"] for e in cert.entries} == EXPECTED_IDS  # nothing omitted


def test_certificate_girth_from_closed_form():
    # a radius-3 ball only sees cycles of length <= 7, so a BFS would
    # certify no more than girth > 6; the closed form records 7
    job = GraphJob("Z7*Z7", radius=3, kernel_steps=3, saw_n_max=4,
                   pc_trials=20, rho_ub=0.95, bnp_c=1.0)
    cert = _certify(VerifyConfig(jobs=[job], seed=2))
    assert cert.graphs[0]["inputs"]["girth"] == "7"
    by_id = {e["id"]: e for e in cert.entries}
    assert by_id["girth_threshold"]["rhs"] == 7.0


def test_certificate_kernel_entries_match_entry_scan():
    # the README config at tiny sizes, against the per-pair scan verify used
    # before the checks returned summaries
    jobs = [GraphJob("Z*Z", radius=4, kernel_steps=6, saw_n_max=5,
                     pc_trials=20, bnp_c=1.0),
            GraphJob("Z5*Z5", radius=3, kernel_steps=6, saw_n_max=5,
                     pc_trials=20, rho_ub=0.95, bnp_c=1.0)]
    cert = _certify(VerifyConfig(jobs=jobs, seed=1))
    for job, g in zip(jobs, cert.graphs):
        b = ball(parse_group_spec(job.spec_text), job.radius)
        n_check = min(job.kernel_steps, job.radius)
        srw, nbw = srw_kernel(b, job.radius), nbw_kernel(b, n_check)
        rho_ub = job.rho_ub if job.rho_ub is not None else kesten_rho(4)
        by_id = {e["id"]: e for e in g["entries"]}
        for chk in (list(check_nbw_le_srw_tail(b, n_check, rho_ub, srw=srw, nbw=nbw)),
                    list(check_nbw_le_rho_power(b, n_check, rho_ub, nbw=nbw))):
            worst = min(chk, key=lambda e: e.margin)
            want = Entry(chk[0].check, "walk-kernel inequality", worst.lhs, worst.rhs,
                         PASS if all(e.passed for e in chk) else FAIL,
                         note=f"worst margin over {len(chk)} (x,n) pairs")
            assert by_id[chk[0].check] == want.to_record()


@pytest.mark.parametrize("spec_text,rho_ub", [
    ("Z*Z", None), ("Z2*Z2*Z2", None),
    ("Z5*Z5", 0.95), ("Z5*Z5", 0.6), ("Z5*Z5", None),
])
def test_triangle_entry_is_closed_form_or_whole_envelope(spec_text, rho_ub):
    job = GraphJob(spec_text, radius=3, kernel_steps=3, saw_n_max=4,
                   pc_trials=20, rho_ub=rho_ub, bnp_c=1.0)
    g = _certify(VerifyConfig(jobs=[job], seed=1)).graphs[0]
    by_id = {e["id"]: e for e in g["entries"]}
    tri, d = by_id["triangle_finite"], g["inputs"]["degree"]
    if parse_group_spec(spec_text).is_tree:
        assert tri["lhs"] == tri["rhs"] == tree_triangle_exact(d, 1 / (d - 1))
        assert tri["status"] == "pass"
        if spec_text == "Z*Z":
            assert tri["rhs"] == pytest.approx(37 / 9)
    else:
        pc_hi = g["inputs"]["pc_interval"]["hi"]
        assert tri["lhs"] == 1.0
        assert tri["rhs"] == _num(chained_tail(d, rho_ub, pc_hi, 0, 3))
        # finite exactly when perccond's inequality holds
        want = "pass" if by_id["perccond"]["status"] == "pass" else "inconclusive"
        assert tri["status"] == want
        assert (want == "pass") == (rho_ub == 0.6)


def test_check_endpoint_decay():
    rho = kesten_rho(4)
    e = check_endpoint_decay(4, rho, 3.0)
    assert e.status == "pass" and e.lhs == pytest.approx(rho)
    assert e.note == f"envelope constant {4 / (3 * (1 - rho)):.6g}"
    no_mu = check_endpoint_decay(4, 0.95, None)
    assert no_mu.status == "inconclusive" and no_mu.note == "no certified lower bound on mu"


def test_mu_upper_bound_passes_no_saw_entry():
    # (d-1) rho_ub = 2.985 exceeds mu(Z5*Z5) = 2.97445 but not the census
    # upper bound 3.0952: an upper bound on mu must not pass a SAW entry
    job = GraphJob("Z5*Z5", radius=6, kernel_steps=3, saw_n_max=8,
                   pc_trials=200, rho_ub=0.995, bnp_c=1.0)
    cert = _certify(VerifyConfig(jobs=[job], seed=3))
    by_id = {e["id"]: e for e in cert.entries}
    assert 3 * 0.995 < cert.graphs[0]["inputs"]["mu_ub"]["value"]
    assert by_id["perccond"]["status"] == "fail"
    for saw_entry in ("endpoint_decay", "bubble_finite"):
        assert by_id[saw_entry]["status"] == "inconclusive"
        assert by_id[saw_entry]["note"] == "no certified lower bound on mu"


def _key(field_name):
    """The config key that sets GraphJob field `field_name`."""
    return "bnp_C" if field_name == "bnp_c" else field_name


@pytest.mark.parametrize("spec_text,overrides,key", [
    ("Z3", {}, "degree"),  # a triangle: no SAW of length 3
    ("Z", {}, "degree"),
    ("Z2*Z2", {}, "degree"),
    ("Z*Z", {"saw_n_max": 0}, "saw_n_max"),
    ("Z5*Z5", {"rho_ub": math.nan}, "rho_ub"),
    ("Z*Z", {"pc_trials": 0}, "pc_trials"),
    ("Z*Z", {"radius": -1}, "radius"),
    ("Z*Z", {"kernel_steps": -1}, "kernel_steps"),
    ("Z*Z", {"bnp_c": math.inf}, "bnp_C"),  # L = girth = inf passed with margin nan
    ("Z*Z", {"rho_ub": 0.85}, "rho_ub"),  # below Kesten's sqrt(3)/2: passed everything
    ("Z5*Z5", {"rho_ub": 1.0}, "rho_ub"),
    ("Z5*Z5", {"rho_ub": 0.0}, "rho_ub"),
    ("Z5*Z5", {"bnp_c": 0.0}, "bnp_C"),  # L = 0 turned girth_threshold into a pass
    ("Z5*Z5", {"bnp_c": -1.0}, "bnp_C"),
])
def test_bad_job_rejected_before_any_work(spec_text, overrides, key, monkeypatch,
                                          tmp_path, capsys):
    sizes = dict(radius=3, kernel_steps=3, saw_n_max=4, pc_trials=20)
    bad = GraphJob(spec_text, **{**sizes, **overrides})
    # a good job first: every job is checked before the first one builds a ball
    cfg = VerifyConfig(jobs=[GraphJob("Z2*Z2*Z2", **sizes), bad], seed=1)

    def build_ball(*args, **kwargs):
        raise AssertionError("a ball was built before every job was checked")

    monkeypatch.setattr(verify, "build_ball", build_ball)
    with pytest.raises(ValueError) as exc:
        run_certificate(cfg)
    assert str(exc.value).startswith(f"[graph:{spec_text}] ") and key in str(exc.value)

    def section(spec, keys):
        return f"\n[graph:{spec}]\n" + "".join(
            f"{_key(k)} = {v}\n" for k, v in keys.items())

    path = tmp_path / "bad.cfg"
    path.write_text("[verify]\nseed = 1\n" + section("Z2*Z2*Z2", sizes)
                    + section(spec_text, {**sizes, **overrides}))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [graph:{spec_text}] ") and "Traceback" not in err
    assert not (tmp_path / "certificate.json").exists()


def test_config_sets_every_job_field():
    # each GraphJob field but spec_text, at a value other than its default
    values = dict(radius=4, kernel_steps=3, saw_n_max=5, rho_ub=0.9, bnp_c=2.5,
                  pc_trials=7)
    assert [f.name for f in dataclasses.fields(GraphJob)][1:] == list(values)
    for key, value in values.items():
        assert getattr(GraphJob("Z5*Z5"), key) != value
        cfg = parse_verify_config(f"[graph:Z5*Z5]\n{_key(key)} = {value}\n")
        assert cfg.jobs == [GraphJob("Z5*Z5", **{key: value})]
    text = "".join(f"{_key(k)} = {v}\n" for k, v in values.items())
    assert parse_verify_config("[graph:Z5*Z5]\n" + text).jobs == [GraphJob("Z5*Z5", **values)]
    # a blank float key means unset
    assert parse_verify_config("[graph:Z5*Z5]\nrho_ub =\nbnp_C =\n").jobs == [GraphJob("Z5*Z5")]


@pytest.mark.parametrize("key", ["radius", "pc_trials"])
def test_config_blank_int_key_exits_2(key, tmp_path, capsys):
    path = tmp_path / "blank.cfg"
    path.write_text(f"[verify]\nseed = 1\n\n[graph:Z*Z]\n{key} =\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [graph:Z*Z] {key}: ") and "Traceback" not in err
    assert not (tmp_path / "certificate.json").exists()


def test_config_retired_knobs_change_nothing():
    # pc_radius and theta_star are no longer read: a config that still
    # sets them gives the same jobs and the same certificate bytes
    text = ("[verify]\nseed = 2\n\n"
            "[graph:Z*Z]\nradius = 3\nsaw_n_max = 4\npc_trials = 20\nbnp_C = 1.0\n\n"
            "[graph:Z5*Z5]\nradius = 3\nsaw_n_max = 4\npc_trials = 20\nrho_ub = 0.95\n")
    old = text.replace("seed = 2\n", "seed = 2\ntheta_star = 0.3\n").replace(
        "pc_trials", "pc_radius = 4\npc_trials")
    assert old.count("pc_radius = 4") == 2
    new_cfg, old_cfg = parse_verify_config(text), parse_verify_config(old)
    assert new_cfg.jobs == old_cfg.jobs and new_cfg.to_dict() == old_cfg.to_dict()
    assert (_certify(new_cfg).to_json(include_meta=False)
            == _certify(old_cfg).to_json(include_meta=False))


def test_certificate_failed_flag():
    cert = Certificate(
        graphs=[{"graph": "x", "inputs": {},
                 "entries": [{"id": "a", "status": "fail"}]}],
        meta={},
    )
    assert cert.failed
    assert cert.inconclusive_count == 0
