"""End-to-end command line behavior, exit codes and artifacts."""

import json

import numpy as np
import pytest

from trackscore.cli import main
from trackscore.scoring import EmpiricalMeasure, bayes_act, left_loss, right_loss
from trackscore.signature import make_path, read_paths_csv, write_paths_csv

STAIRCASE = (
    "series_id,t,x1,x2\n"
    "s,0.0,0.0,0.0\n"
    "s,1.0,1.0,0.0\n"
    "s,2.0,1.0,1.0\n"
)

PAIR = STAIRCASE + (
    "r,0.0,0.0,0.0\n"
    "r,1.0,0.0,1.0\n"
    "r,2.0,1.0,1.0\n"
)


@pytest.fixture
def staircase_csv(tmp_path):
    f = tmp_path / "stairs.csv"
    f.write_text(STAIRCASE)
    return f


@pytest.fixture
def pair_csv(tmp_path):
    f = tmp_path / "pair.csv"
    f.write_text(PAIR)
    return f


def test_sig_writes_frozen_record(tmp_path, staircase_csv, capsys):
    out = tmp_path / "sig.txt"
    code = main(["sig", "--input", str(staircase_csv), "--depth", "2",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "2,2"
    assert lines[1] == "1"
    assert lines[2] == "1,1"
    assert lines[3] == "0.5,1,0,0.5"
    manifest = json.loads((tmp_path / "sig.txt.manifest.json").read_text())
    assert manifest["command"] == "sig"
    assert manifest["parameters"]["depth"] == 2
    assert "artifact_version" in manifest and "timestamp" in manifest
    assert "wrote" in capsys.readouterr().out


def test_sig_multiple_series_get_suffixed_files(tmp_path, pair_csv):
    out = tmp_path / "sig.txt"
    assert main(["sig", "--input", str(pair_csv), "--depth", "2",
                 "--out", str(out)]) == 0
    assert (tmp_path / "sig-s.txt").exists()
    assert (tmp_path / "sig-r.txt").exists()
    manifest = json.loads((tmp_path / "sig.txt.manifest.json").read_text())
    assert manifest["parameters"]["files"] == {
        "s": "sig-s.txt", "r": "sig-r.txt",
    }


def test_sig_time_augment_changes_width(tmp_path, staircase_csv):
    out = tmp_path / "aug.txt"
    assert main(["sig", "--input", str(staircase_csv), "--depth", "2",
                 "--time-augment", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "3,2"


def test_missing_input_is_data_error(tmp_path, capsys):
    code = main(["sig", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o.txt")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_empty_input_names_file(tmp_path, capsys):
    f = tmp_path / "empty.csv"
    f.write_text("")
    code = main(["entropy", "--input", str(f)])
    assert code == 2
    err = capsys.readouterr().err
    assert "empty.csv" in err and "empty file" in err


def test_usage_errors_exit_one(capsys):
    assert main(["sig", "--input", "x.csv"]) == 1  # --out missing
    assert main(["mi", "--model", "spiral", "--rho", "2.0"]) == 1
    assert main(["no-such-command"]) == 1
    # the act has no solver settings
    assert main(["entropy", "--input", "x.csv", "--max-iters", "1"]) == 1
    # out-of-range values are usage errors, refused before any work
    for argv in (
        ["mi", "--model", "spiral", "--rho", "0.5", "--n-u", "1"],
        ["mi", "--model", "spiral", "--rho", "0.5", "--n-x", "1"],
        ["experiment-mi-scalar", "--n-u", "1", "--out", "x.csv"],
        ["experiment-warp", "--p-points", "1", "--out", "x.csv"],
        ["experiment-warp", "--p-max", "0.5", "--out", "x.csv"],
        ["experiment-warp", "--gammas", "inf", "--out", "x.csv"],
        ["experiment-warp", "--gammas", "nan", "--out", "x.csv"],
        # both print as the column sdtw_gamma_0.1
        ["experiment-warp", "--gammas", "0.1,0.1000001", "--out", "x.csv"],
    ):
        assert main(argv) == 1, argv
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "trackscore" in capsys.readouterr().out


def test_divergence_same_file_is_zero(tmp_path, staircase_csv, capsys):
    out = tmp_path / "div.csv"
    code = main(["divergence", "--a", str(staircase_csv),
                 "--b", str(staircase_csv), "--depth", "3",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.0"
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,side,depth,value,n_samples,seed,iterations,grad_norm"
    cells = lines[1].split(",")
    assert cells[0] == "divergence" and cells[3] == "0.0"


def test_divergence_positive_between_different_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text(STAIRCASE)
    b = tmp_path / "b.csv"
    b.write_text(
        "series_id,t,x1,x2\n"
        "u,0.0,0.0,0.0\n"
        "u,1.0,-1.0,0.5\n"
        "u,2.0,0.5,1.5\n"
    )
    assert main(["divergence", "--a", str(a), "--b", str(b),
                 "--depth", "2"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val > 0.0


def test_entropy_of_point_mass_is_zero(staircase_csv, capsys):
    assert main(["entropy", "--input", str(staircase_csv), "--depth", "3"]) == 0
    assert abs(float(capsys.readouterr().out.strip())) <= 1e-15


def test_score_requires_single_series(tmp_path, pair_csv, staircase_csv, capsys):
    code = main(["score", "--x", str(pair_csv),
                 "--measure", str(staircase_csv)])
    assert code == 2
    assert "exactly one series" in capsys.readouterr().err


def test_score_against_pair_measure(tmp_path, pair_csv, staircase_csv, capsys):
    out = tmp_path / "score.csv"
    code = main(["score", "--x", str(staircase_csv), "--measure", str(pair_csv),
                 "--depth", "2", "--side", "left", "--out", str(out)])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    row = out.read_text().splitlines()[1].split(",")
    assert row[1] == "left" and float(row[3]) == printed
    assert printed > 0.0


def test_reruns_are_byte_identical(tmp_path, staircase_csv, capsys):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    for out in (out1, out2):
        assert main(["entropy", "--input", str(staircase_csv),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "r1.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2.csv.manifest.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    assert m1 == m2


def test_mi_smoke(tmp_path, capsys):
    out = tmp_path / "mi.csv"
    code = main(["mi", "--model", "spiral", "--rho", "0.5",
                 "--n-u", "2", "--n-x", "3", "--depth", "2",
                 "--resolution", "0.25", "--seed", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "mutual_information"
    assert float(row[3]) == float(printed)
    assert row[5] == "1"  # seed column recorded


def test_experiment_warp_smoke(tmp_path, capsys):
    out = tmp_path / "warp.csv"
    code = main(["experiment-warp", "--p-max", "4", "--p-points", "3",
                 "--gammas", "1.0,0.1", "--depth", "2",
                 "--resolution", "0.1", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "p,geometric_divergence,sdtw_gamma_1,sdtw_gamma_0.1,dtw"
    assert len(lines) == 4
    manifest = json.loads((tmp_path / "warp.csv.manifest.json").read_text())
    assert manifest["command"] == "experiment-warp"


def test_experiment_mi_smoke(tmp_path, capsys):
    out = tmp_path / "mi_sweep.csv"
    code = main(["experiment-mi-scalar", "--rhos", "0.0,1.0",
                 "--n-u", "2", "--n-x", "3", "--depth", "2",
                 "--resolution", "0.25", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,mi,entropy,n_u,n_x,seed"
    assert len(lines) == 3


@pytest.mark.parametrize("command", ["sig", "entropy"])
def test_non_finite_input_is_data_error(tmp_path, command, capsys):
    f = tmp_path / "bad.csv"
    f.write_text(STAIRCASE + "s,3.0,nan,1.0\ns,4.0,2.0,inf\n")
    argv = [command, "--input", str(f)]
    if command == "sig":
        argv += ["--out", str(tmp_path / "o.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "bad.csv line 5" in err and "non-finite" in err
    assert not (tmp_path / "o.txt").exists()


def test_closed_form_failure_reports_condition(tmp_path, capsys):
    # 1e90 coordinates overflow the degree-4 signature
    f = tmp_path / "huge.csv"
    f.write_text("series_id,x1,x2\ns,0.0,0.0\ns,1e90,0.0\ns,1e90,1e90\n")
    with pytest.warns(RuntimeWarning):
        assert main(["entropy", "--input", str(f)]) == 3
    err = capsys.readouterr().err
    assert "condition estimate" in err and "max-iters" not in err


def test_mi_converges_at_rho_one(capsys):
    assert main(["mi", "--model", "spiral", "--rho", "1.0",
                 "--n-u", "4", "--n-x", "10"]) == 0
    assert float(capsys.readouterr().out.strip()) > 0.0


def test_experiment_mi_default_rhos_converge(tmp_path, capsys):
    out = tmp_path / "mi_sweep.csv"
    assert main(["experiment-mi-scalar", "--n-u", "3", "--n-x", "6",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 1 + 5  # header + DEFAULT_RHOS


@pytest.mark.parametrize("side", ["left", "right"])
def test_score_is_the_loss_of_the_act(tmp_path, side, capsys):
    # the CLI's score against the tensor route: re-sign the outcome and
    # apply the inverted act on the chosen side
    rng = np.random.default_rng(5)
    walk = lambda: make_path(np.cumsum(0.3 * rng.standard_normal((8, 2)), axis=0))
    write_paths_csv({f"m{k}": walk() for k in range(6)}, tmp_path / "measure.csv")
    write_paths_csv({"x": walk()}, tmp_path / "x.csv")
    assert main(["score", "--x", str(tmp_path / "x.csv"),
                 "--measure", str(tmp_path / "measure.csv"),
                 "--depth", "3", "--side", side]) == 0
    printed = float(capsys.readouterr().out)
    (x,) = read_paths_csv(tmp_path / "x.csv").values()
    mu = EmpiricalMeasure.uniform(read_paths_csv(tmp_path / "measure.csv").values())
    act = bayes_act(mu, side, 3).value
    loss = right_loss(x, act) if side == "right" else left_loss(x, act)
    assert printed == pytest.approx(loss, rel=1e-12)


def test_mi_too_large_for_memory_is_data_error(capsys):
    # refused by arithmetic before any draw is allocated: 101 points of
    # width 2 per track and D = 31 at depth 4
    n = 10**6
    need = 8 * (n * (n + 1) * (101 * 2 + 31) + 2 * (n + 1) * 31 * 31)
    assert main(["mi", "--model", "spiral", "--rho", "0.5",
                 "--n-u", str(n), "--n-x", str(n)]) == 2
    assert f"needs an estimated {need:,} bytes" in capsys.readouterr().err
