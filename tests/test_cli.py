"""CLI behaviour: outputs, determinism, exit codes and plots."""

import json
from pathlib import Path

import pytest

from girthlab import plots
from girthlab.cli import (
    main,
    parse_verify_config,
    serialize_verify_config,
    _parse_grid,
    CliError,
)
from girthlab.verify import GraphJob, VerifyConfig


def run(args, tmp_path):
    return main(args + ["--out", str(tmp_path)])


def test_graph_girth_print(tmp_path, capsys):
    assert run(["graph", "--spec", "Z5*Z5", "--girth-rmax", "6"], tmp_path) == 0
    assert "girth=5 degree=4" in capsys.readouterr().out


def test_graph_ball_export(tmp_path, capsys):
    assert run(["graph", "--spec", "Z5*Z5", "--R", "2"], tmp_path) == 0
    out = tmp_path / "ball_Z5xZ5_R2.txt"
    assert out.exists()
    assert out.read_text().startswith("# R=2 d=4")
    assert "17 vertices" in capsys.readouterr().out


def test_graph_bad_spec(tmp_path, capsys):
    assert run(["graph", "--spec", "Z1*Z5"], tmp_path) == 2
    assert "error:" in capsys.readouterr().err


def test_kernel_csv(tmp_path, capsys):
    assert run(["kernel", "--spec", "Z*Z", "--R", "3", "--exact"], tmp_path) == 0
    text = (tmp_path / "kernel_ZxZ.csv").read_text()
    assert text.splitlines()[0] == "kind,n,vertex,probability"
    assert "srw,0,e,1.0" in text
    out = capsys.readouterr().out
    assert "rho:" in out  # tree spec prints the spectral-radius line


def test_perc_zero_p(tmp_path, capsys):
    args = ["perc", "--spec", "Z*Z", "--p", "0", "--R", "5",
            "--trials", "10", "--seed", "1"]
    assert run(args, tmp_path) == 0
    assert "crossing p=0.0 R=5: 0.0000" in capsys.readouterr().out


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
    assert text.splitlines()[0].startswith("z,value,tail,certified")
    assert "bubble z=0.333333" in capsys.readouterr().out


def test_saw_bubble_rejects_negative_z(tmp_path):
    args = ["saw", "--spec", "Z5*Z5", "--nmax", "6", "--bubble-z", "-0.5", "--rho-ub", "0.9"]
    assert run(args, tmp_path) == 2


def test_parse_grid():
    assert _parse_grid("0.1, 0.2 0.3") == [0.1, 0.2, 0.3]
    with pytest.raises(CliError):
        _parse_grid("0.3 0.1")


def test_verify_config_round_trip():
    cfg = VerifyConfig(
        jobs=[GraphJob("Z*Z", radius=5, bnp_c=1.5),
              GraphJob("Z5*Z5", radius=4, rho_ub=0.95)],
        seed=11, theta_star=0.4, eps=0.01,
    )
    back = parse_verify_config(serialize_verify_config(cfg))
    assert back.to_dict() == cfg.to_dict()


def test_verify_config_ignores_unknown_keys():
    # a key an older config still carries (the benchmark's README config
    # has one) is ignored, not an error
    cfg = parse_verify_config("[verify]\nseed = 4\nretired = 1\n\n[graph:Z*Z]\nradius = 3\n")
    assert cfg.seed == 4 and [j.radius for j in cfg.jobs] == [3]
    assert "retired" not in cfg.to_dict()


def test_verify_cli_tree_config(tmp_path, capsys):
    cfg = tmp_path / "trees.cfg"
    cfg.write_text(
        "[verify]\nseed = 3\n\n"
        "[graph:Z*Z]\nradius = 4\nkernel_steps = 3\nsaw_n_max = 4\n"
        "pc_radius = 3\npc_trials = 40\nbnp_C = 1.0\n"
    )
    assert run(["verify", "--config", str(cfg)], tmp_path) == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["graphs"][0]["graph"] == "Z*Z"
    assert all(e["status"] == "pass" for e in doc["graphs"][0]["entries"])
    assert "certificate ->" in capsys.readouterr().out


def test_verify_cli_strict_inconclusive(tmp_path):
    # Z5*Z5 without rho_ub: inconclusive entries, exit 0 normally, 1 with --strict
    cfg = tmp_path / "loose.cfg"
    cfg.write_text(
        "[verify]\nseed = 3\n\n"
        "[graph:Z5*Z5]\nradius = 4\nkernel_steps = 3\nsaw_n_max = 4\n"
        "pc_radius = 3\npc_trials = 40\n"
    )
    assert run(["verify", "--config", str(cfg)], tmp_path) == 0
    assert run(["verify", "--config", str(cfg), "--strict"], tmp_path) == 1


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


@pytest.mark.parametrize("kind,header,row", [
    ("tail-loglog", "n,survival_fraction", "10,0.25"),
    ("chi-ratio", "z,ratio_lo", "0.1,0.35"),
    ("speed-vs-n", "n,speed", "3,0.9"),
    ("decay-rate", "n,sup_prob", "4,0.01"),
])
def test_all_plot_kinds_render(kind, header, row):
    svg = plots.render_plot(kind, f"{header}\n{row}\n{row.replace(',', '0,')}\n")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_unknown_plot_kind():
    with pytest.raises(plots.PlotError):
        plots.render_plot("nope", "a,b\n1,2\n")
