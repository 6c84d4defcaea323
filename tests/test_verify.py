"""Certificate assembly: individual checks and the end-to-end run."""

import json
import math

import pytest

import conftest
from girthlab.kernels import kesten_rho
from girthlab.verify import (
    Certificate,
    Entry,
    GraphJob,
    VerifyConfig,
    check_bnp_bound,
    check_girth_threshold,
    check_mu_pc,
    check_perccond,
    girth_threshold,
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
                   trials=50, pc_trials=50, pc_radius=4, bnp_c=1.0)
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
                   trials=40, pc_trials=40, pc_radius=4)
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
                   trials=20, pc_trials=20, pc_radius=3, rho_ub=0.95, bnp_c=1.0)
    cert = _certify(VerifyConfig(jobs=[job], seed=2))
    assert cert.graphs[0]["inputs"]["girth"] == "7"
    by_id = {e["id"]: e for e in cert.entries}
    assert by_id["girth_threshold"]["rhs"] == 7.0


def test_certificate_failed_flag():
    cert = Certificate(
        graphs=[{"graph": "x", "inputs": {},
                 "entries": [{"id": "a", "status": "fail"}]}],
        meta={},
    )
    assert cert.failed
    assert cert.inconclusive_count == 0
