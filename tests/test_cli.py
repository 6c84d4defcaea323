"""CLI behaviour: outputs, determinism, exit codes and plots."""

import dataclasses
import hashlib
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import conftest
from girthlab import blocks, branching, cli, groups, kernels, percolation, plots, rng, saw, verify
from girthlab.cli import (
    main,
    parse_verify_config,
    _parse_grid,
    CliError,
)
from girthlab.groups import parse_group_spec
from girthlab.verify import run_certificate


def run(args, tmp_path):
    return main(args + ["--out", str(tmp_path)])


def test_graph_girth_print(tmp_path, capsys):
    assert run(["graph", "--spec", "Z5*Z5"], tmp_path) == 0
    assert capsys.readouterr().out == "girth=5 degree=4\n"
    assert run(["graph", "--spec", "Z*Z"], tmp_path) == 0
    assert capsys.readouterr().out == "girth=inf degree=4\n"


def test_graph_ball_export(tmp_path, capsys):
    assert run(["graph", "--spec", "Z5*Z5", "--R", "2"], tmp_path) == 0
    out = tmp_path / "ball_Z5xZ5_R2.txt"
    assert out.exists()
    assert out.read_text().startswith("# R=2 d=4 girth=5 vertices=17\n")
    assert "17 vertices" in capsys.readouterr().out


def test_graph_bad_spec(tmp_path, capsys):
    assert run(["graph", "--spec", "Z1*Z5"], tmp_path) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["graph", "kernel"])
def test_ball_cap_exits_2(command, tmp_path, capsys):
    # a ball past the vertex cap is a usage error: one line, exit 2, no file
    assert run([command, "--spec", "Z*Z", "--R", "20"], tmp_path) == 2
    assert capsys.readouterr().err == "error: ball exceeds vertex cap 5000000 at radius 20\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("nmax,extra", [("4001", []), ("100000", ["--z-grid", "0.1"]),
                                        ("4001", ["--bubble-z", "0.2"])])
def test_saw_nmax_ceiling_exits_2(nmax, extra, tmp_path, capsys, monkeypatch):
    # a census past the ceiling is a usage error that names --nmax and the
    # ceiling: exit 2 before the census runs, no file
    series = _count_calls(monkeypatch, blocks.series)
    assert run(["saw", "--spec", "Z5*Z5", "--nmax", nmax, *extra], tmp_path) == 2
    assert capsys.readouterr().err == f"error: --nmax {nmax} is above the census ceiling 4000\n"
    assert not list(tmp_path.iterdir()) and series == []


def test_kernel_csv(tmp_path, capsys):
    assert run(["kernel", "--spec", "Z*Z", "--R", "3", "--exact"], tmp_path) == 0
    text = (tmp_path / "kernel_ZxZ.csv").read_text()
    assert text.splitlines()[0] == "kind,n,vertex,probability"
    assert "srw,0,e,1.0" in text
    out = capsys.readouterr().out
    assert "rho:" in out  # tree spec prints the spectral-radius line


@pytest.mark.parametrize("text, upper", [("Z*Z", "0.866026"), ("Z2*Z2*Z2", "0.942810")])
def test_kernel_rho_line_rounds_outward(text, upper, tmp_path, capsys):
    # the printed ends bracket rho: lower_bound rounded down, Kesten's K up
    assert run(["kernel", "--spec", text, "--R", "2"], tmp_path) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    m = re.fullmatch(r"rho: lower_bound=(\d\.\d{6}) upper=(\d\.\d{6}) \(exact-formula\)", line)
    assert m and m[2] == upper
    lo, hi, d = Fraction(m[1]), Fraction(m[2]), parse_group_spec(text).degree
    assert lo <= Fraction(kernels.estimate_spectral_radius(parse_group_spec(text), 200).lower_bound)
    assert hi**2 >= Fraction(4 * (d - 1), d * d)  # hi >= K = 2 sqrt(d-1)/d


def test_perc_zero_p(tmp_path, capsys):
    args = ["perc", "--spec", "Z*Z", "--p", "0", "--R", "5",
            "--trials", "10", "--seed", "1"]
    assert run(args, tmp_path) == 0
    assert "crossing p=0.0 R=5: 0.0000" in capsys.readouterr().out


@pytest.mark.parametrize("p", ["0", "0.3"])
def test_perc_zero_trials_exits_2(p, tmp_path, capsys):
    # p = 0 used to return a 0-trial estimate and write its row
    args = ["perc", "--spec", "Z*Z", "--p", p, "--R", "3", "--trials", "0", "--seed", "1"]
    assert run(args, tmp_path) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "crossing_ZxZ.csv").exists()


def test_perc_requires_p(tmp_path):
    with pytest.raises(SystemExit):
        run(["perc", "--spec", "Z*Z", "--R", "3", "--trials", "5", "--seed", "1"],
            tmp_path)


def test_perc_grid_deterministic(tmp_path):
    args = ["perc", "--spec", "Z5*Z5", "--p-grid", "0.2 0.4", "--R", "3",
            "--trials", "50", "--seed", "9"]
    assert run(args, tmp_path) == 0
    first = (tmp_path / "crossing_Z5xZ5.csv").read_bytes()
    assert run(args, tmp_path) == 0
    assert (tmp_path / "crossing_Z5xZ5.csv").read_bytes() == first


def test_perc_invalid_p(tmp_path, capsys):
    args = ["perc", "--spec", "Z*Z", "--p", "1.5", "--R", "3",
            "--trials", "5", "--seed", "1"]
    assert run(args, tmp_path) == 2
    assert not list(tmp_path.iterdir())  # no partial outputs


def test_perc_tail_requires_tree(tmp_path, capsys):
    args = ["perc", "--spec", "Z5*Z5", "--p", "0.3", "--R", "3",
            "--trials", "5", "--seed", "1", "--tail"]
    assert run(args, tmp_path) == 2
    assert not list(tmp_path.iterdir())


def test_saw_census_and_rosenbluth(tmp_path, capsys):
    args = ["saw", "--spec", "Z5*Z5", "--nmax", "5",
            "--trials", "200", "--seed", "4"]
    assert run(args, tmp_path) == 0
    text = (tmp_path / "census_Z5xZ5.csv").read_text()
    assert "5,320" in text
    out = capsys.readouterr().out
    assert "c_5=320" in out and "rosenbluth" in out


def test_saw_chi_and_bubble(tmp_path, capsys):
    args = ["saw", "--spec", "Z*Z", "--nmax", "8",
            "--z-grid", "0.1 0.2 0.3", "--bubble-z", "0.333333"]
    assert run(args, tmp_path) == 0
    text = (tmp_path / "chi_ZxZ.csv").read_text()
    assert text.splitlines()[0] == "z,value,ratio_lo,ratio_hi"
    assert "bubble z=0.333333" in capsys.readouterr().out


def test_saw_bubble_rejects_negative_z(tmp_path):
    for z in ("-0.5", "nan"):
        args = ["saw", "--spec", "Z5*Z5", "--nmax", "6", "--bubble-z", z]
        assert run(args, tmp_path) == 2


def test_saw_chi_rejects_negative_z(tmp_path):
    # a NaN z used to pass as a certified chi row
    for grid in ("-0.5 0.1", "nan"):
        args = ["saw", "--spec", "Z*Z", "--nmax", "8", "--z-grid", grid]
        assert run(args, tmp_path) == 2
        assert not (tmp_path / "chi_ZxZ.csv").exists()


def test_saw_bubble_is_the_closed_form(tmp_path, capsys):
    # the whole sum, with no census and no tail: the census's partial sum
    # to n, m <= 8 was 1.187927
    args = ["saw", "--spec", "Z5*Z5", "--nmax", "8", "--bubble-z", "0.2"]
    assert run(args, tmp_path) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "bubble z=0.2: value=1.187928 certified=True")
    args = ["saw", "--spec", "Z*Z", "--nmax", "4", "--bubble-z", "0.6"]
    assert run(args, tmp_path) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "bubble z=0.6: value=inf certified=False"


def test_saw_bubble_on_degree_two_is_finite(tmp_path, capsys):
    # a single 5-cycle is one block: B = 1 + sum_e (z^e + z^{5-e})^2
    args = ["saw", "--spec", "Z5", "--nmax", "4", "--bubble-z", "0.2"]
    assert run(args, tmp_path) == 0
    value = 1 + sum((0.2**e + 0.2 ** (5 - e)) ** 2 for e in range(1, 5))
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"bubble z=0.2: value={value:.6f} certified=True")


def test_saw_bubble_needs_no_census(tmp_path, monkeypatch, capsys):
    # with no --nmax the bubble's line is all: no census, no file
    calls = _count_calls(monkeypatch, saw.enumerate_saw)
    assert run(["saw", "--spec", "Z5*Z5", "--bubble-z", "0.2"], tmp_path) == 0
    assert capsys.readouterr().out == "bubble z=0.2: value=1.187928 certified=True\n"
    assert calls == [] and not list(tmp_path.iterdir())


def test_saw_chi_needs_no_census(tmp_path, monkeypatch, capsys):
    # with no --nmax the chi curve is the renewal sum: no census, one file
    calls = _count_calls(monkeypatch, saw.enumerate_saw)
    assert run(["saw", "--spec", "Z5*Z5", "--z-grid", "0.1 0.2 0.3"], tmp_path) == 0
    assert calls == [] and [p.name for p in tmp_path.iterdir()] == ["chi_Z5xZ5.csv"]
    assert capsys.readouterr().out == f"chi curve (3 points) -> {tmp_path / 'chi_Z5xZ5.csv'}\n"
    rows = (tmp_path / "chi_Z5xZ5.csv").read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == [
        ["0.1", "1.571355104"], ["0.2", "2.993610224"], ["0.3", "12.35113485"]]


def test_saw_chi_needs_degree_three(tmp_path, capsys):
    # degree 2 has no critical point to measure the ratio against
    assert run(["saw", "--spec", "Z", "--z-grid", "0.1"], tmp_path) == 2
    assert capsys.readouterr().err == "error: need degree >= 3, got 2 on Z\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("extra,flag", [
    (["--z-grid", "0.1", "--trials", "10"], "--trials"),
    (["--bubble-z", "0.2", "--trials", "10"], "--trials"),
    ([], "--nmax, --z-grid or --bubble-z"),
])
def test_saw_without_nmax_names_the_flag(extra, flag, tmp_path, capsys):
    assert run(["saw", "--spec", "Z5*Z5"] + extra, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not list(tmp_path.iterdir())


def test_saw_trials_need_a_seed(tmp_path, capsys):
    # Rosenbluth sampling never falls back to a default seed
    assert run(["saw", "--spec", "Z5*Z5", "--nmax", "6", "--trials", "100"], tmp_path) == 2
    assert capsys.readouterr().err == "error: --trials needs --seed\n"
    assert not list(tmp_path.iterdir())


def test_saw_overflow_exits_two(tmp_path, capsys):
    # z^e overflows a float: an error line naming the flag and its value,
    # exit 2, and the census CSV written before it is discarded
    args = ["saw", "--spec", "Z5*Z5", "--nmax", "4", "--bubble-z", "1e100"]
    assert run(args, tmp_path) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --bubble-z 1e+100: z^e overflows a float\n"
    assert not list(tmp_path.iterdir())


def test_saw_failure_names_no_file(tmp_path, capsys):
    # the census CSV is written, then the bubble fails and it is discarded:
    # stdout must not have named it
    args = ["saw", "--spec", "Z5", "--nmax", "4", "--bubble-z", "-0.1"]
    assert run(args, tmp_path) == 2
    out = capsys.readouterr()
    assert "census:" not in out.out and "error:" in out.err
    assert not list(tmp_path.iterdir())


def test_saw_empty_census(tmp_path, capsys):
    assert run(["saw", "--spec", "Z5*Z5", "--nmax", "0"], tmp_path) == 2
    assert "n_max >= 1" in capsys.readouterr().err
    assert not (tmp_path / "census_Z5xZ5.csv").exists()


def test_parse_grid():
    assert _parse_grid("0.1, 0.2 0.3") == [0.1, 0.2, 0.3]
    for text in ("0.3 0.1", ",", ""):
        with pytest.raises(CliError):
            _parse_grid(text)


@pytest.mark.parametrize("args", [
    ["perc", "--spec", "Z*Z", "--R", "3", "--p-grid", ",", "--trials", "10", "--seed", "1",
     "--tail"],
    ["perc", "--spec", "Z*Z", "--R", "3", "--p-grid=", "--trials", "10", "--seed", "1"],
    ["saw", "--spec", "Z*Z", "--nmax", "4", "--z-grid", ","],
])
def test_empty_grid_exits_2(args, tmp_path, capsys):
    # an empty grid used to die on p_values[0], fall back to --p's None or
    # write a header-only chi CSV
    assert run(args, tmp_path) == 2
    assert capsys.readouterr().err == "error: grid needs at least one value\n"
    assert not list(tmp_path.iterdir())


def test_verify_config_ignores_unknown_keys():
    # keys an older config still carries (the benchmark's README config
    # has some) are ignored, not an error: seed, trials, pc_trials, eps,
    # rho_ub, radius and kernel_steps are retired
    cfg = parse_verify_config("[verify]\nseed = 4\nretired = 1\neps = 0.1\n\n"
                              "[graph:Z5*Z5]\nradius = 3\nkernel_steps = 6\ntrials = 200\n"
                              "pc_trials = 200\nrho_ub = 0.95\nbnp_C = 1.5\n")
    doc = cfg.to_dict()
    assert doc == {"jobs": [dataclasses.asdict(verify.GraphJob("Z5*Z5", bnp_c=1.5))]}


GOOD_GRAPH = "[graph:Z*Z]\nradius = 3\n"


@pytest.mark.parametrize("text,why", [
    (GOOD_GRAPH + "\n" + GOOD_GRAPH, "already exists"),  # duplicate section
    ("radius = 3\n" + GOOD_GRAPH, "no section headers"),
    (GOOD_GRAPH + "radius = 4\n", "already exists"),  # duplicate key
    ("[verify]\n\n[graf:Z5*Z5]\nradius = 3\n", "unknown section [graf:Z5*Z5]"),
    ("[verify]\n", "no [graph:SPEC] section"),
    ("[verify]\n\n[graph:Z*Z]\nbnp_C = 5%\n", "'5%'"),  # no % interpolation
], ids=["duplicate-section", "no-header", "duplicate-key", "unknown-section", "no-graph",
        "percent-sign"])
def test_verify_cli_bad_config(text, why, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run(["verify", "--config", str(cfg)], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err and "Traceback" not in err
    assert not (tmp_path / "certificate.json").exists()


def test_verify_cli_tree_config(tmp_path, capsys):
    cfg = tmp_path / "trees.cfg"
    cfg.write_text(
        "[verify]\n\n"
        "[graph:Z*Z]\nbnp_C = 1.0\n"
    )
    assert run(["verify", "--config", str(cfg)], tmp_path) == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["graphs"][0]["graph"] == "Z*Z"
    assert all(e["status"] == "pass" for e in doc["graphs"][0]["entries"])
    assert "certificate ->" in capsys.readouterr().out


def test_verify_cli_strict_inconclusive(tmp_path):
    # with no bnp_C both girth bounds are inconclusive: exit 0 normally, 1
    # with --strict
    cfg = tmp_path / "loose.cfg"
    cfg.write_text(
        "[verify]\n\n"
        "[graph:Z5*Z5]\n"
    )
    assert run(["verify", "--config", str(cfg)], tmp_path) == 0
    assert run(["verify", "--config", str(cfg), "--strict"], tmp_path) == 1


def test_verify_cli_strict_high_girth(tmp_path):
    # girth 27 and 40: every entry is decided, so --strict exits 0
    cfg = tmp_path / "high_girth.cfg"
    cfg.write_text("".join(f"[graph:{spec}]\nbnp_C = 1\n\n"
                           for spec in ("Z27*Z27", "Z*Z27", "Z40*Z40")))
    assert run(["verify", "--config", str(cfg), "--strict"], tmp_path) == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert [g["graph"] for g in doc["graphs"]] == ["Z27*Z27", "Z*Z27", "Z40*Z40"]
    assert {e["status"] for g in doc["graphs"] for e in g["entries"]} == {"pass"}


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_config_block(tmp_path, capsys):
    # the ```ini block of README.md, as a user would paste it
    block = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
    cert = run_certificate(parse_verify_config(block))
    by_graph = {g["graph"]: {e["id"]: e["status"] for e in g["entries"]}
                for g in cert.graphs}
    assert set(by_graph) == {"Z*Z", "Z5*Z5"}
    assert set(by_graph["Z*Z"].values()) == {"pass"}
    # the README's note: Z5*Z5 fails the girth threshold for every rho >= K,
    # and passes every other entry
    z5 = {status: sorted(i for i, s in by_graph["Z5*Z5"].items() if s == status)
          for status in ("pass", "fail", "inconclusive")}
    assert z5 == {"pass": ["bubble_finite", "endpoint_decay", "pc_degree_girth_bound",
                           "perccond", "saw_speed_positive"],
                  "fail": ["girth_threshold"],
                  "inconclusive": []}
    assert cert.failed
    # mu = 1/z_c from z_c's Fraction ends, rounded outward; the speed's limit
    mu = cert.graphs[1]["inputs"]["mu"]
    z_lo, z_hi = blocks.critical_interval(parse_group_spec("Z5*Z5"), blocks.walks)
    assert Fraction(mu["lo"]) <= 1 / z_hi < 1 / z_lo <= Fraction(mu["hi"])
    assert mu["hi"] - mu["lo"] <= 1e-7
    assert abs(mu["lo"] - 2.9744492) < 1e-7 and abs(mu["hi"] - 2.9744492) < 1e-7
    speed = {e["id"]: e for e in cert.graphs[1]["entries"]}["saw_speed_positive"]
    assert abs(speed["rhs"] - 0.89506) < 1e-5
    # p_c's Fraction ends, rounded outward to floats
    pc = cert.graphs[1]["inputs"]["pc_interval"]
    lo, hi = blocks.pc_interval(parse_group_spec("Z5*Z5"))
    assert Fraction(pc["lo"]) <= lo < hi <= Fraction(pc["hi"])
    assert pc["hi"] - pc["lo"] <= 1e-8 and abs(pc["lo"] - 0.3403996) < 1e-7
    assert pc["provenance"].endswith(f"finite at lo={lo}, infinite at hi={hi}")
    # rho.hi is the least float above the witness's Fraction lambda
    rho = cert.graphs[1]["inputs"]["rho"]
    lam, rs = kernels.rho_upper(parse_group_spec("Z5*Z5"))
    assert abs(rho["hi"] - 0.896398649) < 1e-9 and Fraction(rho["hi"]) >= lam
    assert rho["provenance"].endswith(f"superharmonic witness r=({rs[0]}, {rs[1]})")
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    capsys.readouterr()
    assert run(["verify", "--config", str(cfg)], tmp_path) == 1
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert json.dumps(doc["graphs"], sort_keys=True) == json.dumps(cert.graphs, sort_keys=True)
    # a pass line gives its margin; any other line also gives both brackets and the note
    printed = {tuple(line.split()[:2]): line for line in capsys.readouterr().out.splitlines()}
    for g in doc["graphs"]:
        for e in g["entries"]:
            line = printed[(g["graph"], e["id"])]
            assert line.endswith(f"margin={e['margin']}") == (e["status"] == "pass"), line
            if e["status"] != "pass":
                assert f"lhs=[{e['lhs_lo']}, {e['lhs']}] rhs=[{e['rhs']}, {e['rhs_hi']}]" in line
                assert line.endswith(f"note: {e['note']}" if e["note"] else "]"), line
    assert "rhs=[5.0, 5.0]" in printed[("Z5*Z5", "girth_threshold")]


def test_readme_certificate_golden_digest():
    # a speed-up must leave the README-config certificate byte-identical
    block = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
    doc = run_certificate(parse_verify_config(block)).to_json(include_meta=False)
    assert (hashlib.sha256(doc.encode()).hexdigest()
            == "076ba2eb49624df58ad6cd9797cf4879e525267ea243b75397bd0efe0c6b71c5")


NO_RHO_UB_CONFIG = """\
[verify]
[graph:Z5*Z5]
bnp_C = 1.0
[graph:Z2*Z3*Z4]
"""


def test_no_rho_ub_certificate_golden_digest():
    # no rho is given: both jobs take rho's upper end from the witness, and
    # p_c from its exact bracket; Z2*Z3*Z4 has no bnp_C
    doc = run_certificate(parse_verify_config(NO_RHO_UB_CONFIG)).to_json(include_meta=False)
    assert (hashlib.sha256(doc.encode()).hexdigest()
            == "b3e1ec420fb7f8eb587177f664efc5c3a0eb3be439bbd7845e210c770e71349a")


def _bnp_one_config(specs) -> str:
    # what `printf '[graph:%s]\nbnp_C = 1\n\n' SPEC...` writes
    return "".join(f"[graph:{s}]\nbnp_C = 1\n\n" for s in specs)


@pytest.mark.parametrize("specs,digest", [
    # CI's high-girth config, which verify --strict passes
    (("Z27*Z27", "Z*Z27", "Z40*Z40", "Z60*Z60", "Z100*Z100", "Z*Z100"),
     "7793e1c870139306cc7b2ca1227cb5f0f8d9426d756fdd77c2ae2d519b06052f"),
    # three and four factors, equal orders among them
    (("Z2*Z3*Z2", "Z3*Z3*Z3", "Z*Z7*Z*Z7", "Z5*Z5*Z5", "Z2*Z2*Z2", "Z4*Z*Z4*Z"),
     "1343c0ec464104f625fc96a19bcd0ace813939dfd069a06b00152462602d9b19"),
    # CI's tree-only config: z_c's two ends are one Fraction 1/(d-1)
    (("Z*Z*Z", "Z2*Z2*Z2", "Z*Z*Z*Z"),
     "cd4aad87edf6343c63d35fc317a157652455691e57d0a2abf90cfa5a43912dd0"),
], ids=["high_girth", "many_factors", "trees"])
def test_bnp_one_certificate_golden_digests(specs, digest):
    # a speed-up must leave these certificates byte-identical too
    doc = run_certificate(parse_verify_config(_bnp_one_config(specs))).to_json(include_meta=False)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def _count_calls(monkeypatch, real):
    """Wrap every girthlab binding of the function `real`; return the list
    of the positional arguments of its calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (blocks, branching, cli, groups, kernels, percolation, rng, saw, verify):
        for name, obj in list(vars(mod).items()):
            if obj is real:
                monkeypatch.setattr(mod, name, counting)
    return calls


def _config_text(config):
    return (re.search(r"```ini\n(.*?)```", README, re.S).group(1) if config == "readme"
            else NO_RHO_UB_CONFIG)


@pytest.mark.parametrize("config", ["readme", "no_rho_ub"])
def test_verify_builds_no_ball(config, monkeypatch):
    # every input is read from the spec: no ball and no walk table
    cfg = parse_verify_config(_config_text(config))
    calls = [_count_calls(monkeypatch, fn)
             for fn in (groups.ball, kernels.srw_kernel, kernels.nbw_kernel)]
    run_certificate(cfg)
    assert calls == [[], [], []]


@pytest.mark.parametrize("config", ["readme", "no_rho_ub"])
def test_verify_draws_no_random_number(config, monkeypatch):
    # every certificate input is a closed form or an exact witness: no
    # trial stream or generator is keyed, and no provenance names a sampler
    cfg = parse_verify_config(_config_text(config))
    streams = _count_calls(monkeypatch, rng.trial_streams)
    generators = _count_calls(monkeypatch, rng.trial_rng)
    cert = run_certificate(cfg)
    assert streams == [] and generators == []
    assert conftest.sampled_inputs(cert) == []


@pytest.mark.parametrize("config", ["readme", "no_rho_ub"])
def test_verify_enumerates_no_walk(config, monkeypatch):
    # mu, the bubble and the speed come from the block-tree rules, not a census
    cfg = parse_verify_config(_config_text(config))
    calls = _count_calls(monkeypatch, saw.enumerate_saw)
    run_certificate(cfg)
    assert calls == []


def test_perc_pc_runs_on_the_built_ball(tmp_path, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, groups.ball)
    args = ["perc", "--spec", "Z5*Z5", "--R", "6", "--p", "0.35", "--trials", "200",
            "--seed", "3", "--pc"]
    assert run(args, tmp_path) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "pc interval at R=6: [0.3394, 0.3950] (theta*=0.5, finite-size biased)",
        "exact pc: [0.340399640, 0.340399643] (block-tree rule), bisection midpoint bias +0.0268"]
    assert (hashlib.sha256((tmp_path / "crossing_Z5xZ5.csv").read_bytes()).hexdigest()
            == "5c9ac0ca1c516e20e70fc7554dbd8bc06ddc53a7ef81608aa120271095bcc3ce")


@pytest.mark.parametrize("spec_text,line", [
    ("Z*Z", "exact pc: 1/3 on trees, bisection midpoint bias -0.0030"),
    ("Z2*Z3", "exact pc: [0.637277609, 0.637277612] (block-tree rule), "
              "bisection midpoint bias -0.0926"),
    ("Z5", None),  # degree 2: p_c = 1, and no line
])
def test_perc_pc_prints_the_exact_value(spec_text, line, tmp_path, capsys):
    args = ["perc", "--spec", spec_text, "--R", "4", "--p", "0.35", "--trials", "50",
            "--seed", "3", "--pc"]
    assert run(args, tmp_path) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == line if line else last.startswith("pc interval at R=4: ")


def test_saw_census_golden_csv(tmp_path):
    assert run(["saw", "--spec", "Z5*Z5", "--nmax", "12"], tmp_path) == 0
    data = (tmp_path / "census_Z5xZ5.csv").read_bytes()
    assert data.decode().splitlines()[-1] == "12,659376"
    assert (hashlib.sha256(data).hexdigest()
            == "f1bd002acc889ddaa5ebdccf3af6454117fa53b5caa78f019b3ffaacb08465cf")


def test_readme_cli_block(tmp_path, monkeypatch, capsys):
    # every line of the README's ## CLI block, run as written from a
    # directory whose verify.cfg is the README's ini block
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GIRTHLAB_OUT", raising=False)
    (tmp_path / "verify.cfg").write_text(re.search(r"```ini\n(.*?)```", README, re.S).group(1))
    cli = re.search(r"## CLI\n\n```sh\n(.*?)```", README, re.S).group(1)
    lines = cli.splitlines()
    assert len(lines) == 8
    outs = []
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "girthlab"
        # verify exits 1: the README note says some Z5*Z5 entries fail
        assert main(argv[1:]) == (1 if argv[1] == "verify" else 0), line
        outs.append(capsys.readouterr().out)
    # the graph line prints exactly its comment
    comment = lines[0].split("#", 1)[1].strip()
    assert comment == "girth=5 degree=4" and outs[0] == comment + "\n"
    # the report plots the whole p-grid, not the --tail run's single p
    svg = (tmp_path / "crossing-vs-p.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 3


def test_report_plot_deterministic(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(
        "p,estimate,ci_lo,ci_hi\n0.2,0.1,0.05,0.15\n0.4,0.6,0.5,0.7\n"
    )
    svg_path = tmp_path / "plot.svg"
    args = ["report", "--kind", "crossing-vs-p", "--input", str(csv_path),
            "--out", str(svg_path)]
    assert main(args) == 0
    first = svg_path.read_bytes()
    assert main(args) == 0
    assert svg_path.read_bytes() == first
    assert first.startswith(b"<svg")


def test_report_empty_csv(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("p,estimate,ci_lo,ci_hi\n")
    svg_path = tmp_path / "never.svg"
    args = ["report", "--kind", "crossing-vs-p", "--input", str(csv_path),
            "--out", str(svg_path)]
    assert main(args) == 2
    assert not svg_path.exists()
    assert "error:" in capsys.readouterr().err


# per plot kind: the command that writes its CSV, and that CSV's name
PLOT_PRODUCERS = {
    "crossing-vs-p": (["perc", "--spec", "Z*Z", "--p-grid", "0.2 0.3 0.4", "--R", "3",
                       "--trials", "40", "--seed", "1"], "crossing_ZxZ.csv"),
    "tail-loglog": (["perc", "--spec", "Z*Z", "--p", "0.3333", "--R", "2", "--trials",
                     "400", "--seed", "1", "--tail", "--nmax", "1000"], "tail_ZxZ.csv"),
    "chi-ratio": (["saw", "--spec", "Z5*Z5", "--z-grid", "0.1 0.2 0.3"],
                  "chi_Z5xZ5.csv"),
}


@pytest.mark.parametrize("kind", plots.PLOT_KINDS)
def test_all_plot_kinds_render(kind, tmp_path):
    assert set(PLOT_PRODUCERS) == set(plots.PLOT_KINDS)
    argv, csv_name = PLOT_PRODUCERS[kind]
    assert run(argv, tmp_path) == 0
    svg_path = tmp_path / f"{kind}.svg"
    assert main(["report", "--kind", kind, "--input", str(tmp_path / csv_name),
                 "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") >= 3


def test_unknown_plot_kind():
    with pytest.raises(plots.PlotError):
        plots.render_plot("nope", "a,b\n1,2\n")
