"""End-to-end command line behavior, exit codes and artifacts."""

import importlib
import json

import numpy as np
import pytest

from trackscore import cli
from trackscore.cli import main
from trackscore.scoring import EmpiricalMeasure, bayes_act, left_loss, right_loss
from trackscore.signature import (
    make_path,
    read_paths_csv,
    signature,
    time_augment,
    write_paths_csv,
)
from trackscore.tensor_algebra import to_text

# the module, whose name the package's signature() function shadows
signature_module = importlib.import_module("trackscore.signature")


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


def _manifest_cases(pair, staircase, out):
    # (argv, parameters the manifest records): every parsed option but
    # --out, defaults included
    small_mi = ["--n-u", "2", "--n-x", "3", "--depth", "2", "--resolution", "0.25"]
    sweep = {"rhos": [0.0, 1.0], "n_u": 2, "n_x": 3, "depth": 2, "seed": 0,
             "resolution": 0.25}
    cases = [
        (["sig", "--input", pair, "--depth", "2", "--out", out],
         {"input": pair, "depth": 2, "time_augment": False,
          "files": {"s": "res-s.csv", "r": "res-r.csv"}}),
        (["divergence", "--a", pair, "--b", staircase, "--out", out],
         {"a": pair, "b": staircase, "side": "right", "depth": 4}),
        (["entropy", "--input", pair, "--side", "left", "--depth", "2", "--out", out],
         {"input": pair, "side": "left", "depth": 2}),
        (["score", "--x", staircase, "--measure", pair, "--out", out],
         {"x": staircase, "measure": pair, "side": "right", "depth": 4}),
        (["mi", "--model", "spiral", "--rho", "0.5", *small_mi, "--seed", "7", "--out", out],
         {"model": "spiral", "rho": 0.5, "n_u": 2, "n_x": 3, "depth": 2, "seed": 7,
          "resolution": 0.25, "horizon": 1.0, "side": "right"}),
        (["experiment-warp", "--p-max", "4", "--p-points", "3", "--gammas", "1.0,0.1",
          "--depth", "2", "--resolution", "0.1", "--out", out],
         {"p_max": 4.0, "gammas": [1.0, 0.1], "depth": 2, "resolution": 0.1, "seed": 0,
          "p_points": 3}),
        (["experiment-mi-scalar", "--rhos", "0.0,1.0", *small_mi, "--out", out], sweep),
        (["experiment-mi-warp", "--rhos", "0.0,1.0", *small_mi, "--out", out], sweep),
    ]
    return {argv[0]: (argv, parameters) for argv, parameters in cases}


@pytest.mark.parametrize("command", [
    "sig", "divergence", "entropy", "score", "mi",
    "experiment-warp", "experiment-mi-scalar", "experiment-mi-warp",
])
def test_manifest_parameters_are_the_parsed_options(tmp_path, pair_csv, staircase_csv,
                                                    command, capsys):
    out = tmp_path / "res.csv"
    argv, parameters = _manifest_cases(str(pair_csv), str(staircase_csv), str(out))[command]
    assert main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["parameters"] == parameters
    extra = {"diagnostics"} if command == "mi" else set()
    assert set(manifest) == {"command", "parameters", "artifact_version", "timestamp", *extra}


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


def test_sig_refuses_an_id_unfit_for_a_file_name_before_writing(tmp_path, capsys):
    src = tmp_path / "ids.csv"
    src.write_text('series_id,t,x1\nc,0.0,0.0\nc,1.0,1.0\n"a/b",0.0,0.0\n"a/b",1.0,2.0\n')
    out = tmp_path / "out.txt"
    assert main(["sig", "--input", str(src), "--out", str(out)]) == 2
    assert "series id 'a/b'" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_entropy_reads_a_file_with_byte_order_mark(tmp_path, staircase_csv):
    src = tmp_path / "bom.csv"
    src.write_bytes(b"\xef\xbb\xbf" + staircase_csv.read_bytes())
    assert main(["entropy", "--input", str(src)]) == 0


def test_sig_time_augment_changes_width(tmp_path, staircase_csv):
    out = tmp_path / "aug.txt"
    assert main(["sig", "--input", str(staircase_csv), "--depth", "2",
                 "--time-augment", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "3,2"


@pytest.mark.parametrize("augment", [False, True])
def test_sig_batch_files_equal_per_series_signatures(tmp_path, augment):
    # one batched signing of mixed-length series, file by file against
    # signing each series alone
    rng = np.random.default_rng(12)
    series = {
        f"p{i}": make_path(np.cumsum(rng.normal(0.0, 0.3, (n + 1, 2)), axis=0),
                           np.arange(n + 1) * 0.5)
        for i, n in enumerate((5, 140, 5, 0, 300))
    }
    src = tmp_path / "many.csv"
    write_paths_csv(series, src)
    out = tmp_path / "sig.txt"
    flags = ["--time-augment"] if augment else []
    assert main(["sig", "--input", str(src), "--depth", "4", *flags,
                 "--out", str(out)]) == 0
    for sid, path in read_paths_csv(src).items():
        if augment:
            path = time_augment(path)
        expected = to_text(signature(path, 4))
        assert (tmp_path / f"sig-{sid}.txt").read_text() == expected


def test_missing_input_is_data_error(tmp_path, capsys):
    code = main(["sig", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o.txt")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_unwritable_out_prints_no_value(staircase_csv, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    code = main(["entropy", "--input", str(staircase_csv), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "missing-dir" in captured.err


def test_empty_input_names_file(tmp_path, capsys):
    f = tmp_path / "empty.csv"
    f.write_text("")
    code = main(["entropy", "--input", str(f)])
    assert code == 2
    err = capsys.readouterr().err
    assert "empty.csv" in err and "empty file" in err


@pytest.mark.parametrize("sid", ["v" * 200_000, "a\rb"], ids=["long-id", "bare-cr"])
def test_unreadable_record_is_data_error(tmp_path, capsys, sid):
    # An id past the csv module's field limit is refused by the reader
    # itself; from a file, a bare carriage return ends a record early.
    # Both are bad data that name the file and line, not a traceback.
    f = tmp_path / "bad.csv"
    f.write_text(f"series_id,t,x1\nu,0.0,1.0\n{sid},0.0,1.0\n", newline="")
    assert main(["entropy", "--input", str(f)]) == 2
    assert "bad.csv line 3: " in capsys.readouterr().err


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
        # non-finite values, which would overflow the grid or the warps
        ["mi", "--model", "spiral", "--rho", "0.5", "--horizon", "inf"],
        ["mi", "--model", "spiral", "--rho", "0.5", "--resolution", "nan"],
        ["experiment-warp", "--p-max", "inf", "--out", "x.csv"],
        ["experiment-warp", "--resolution", "inf", "--out", "x.csv"],
        # a seed is a natural number
        ["mi", "--model", "spiral", "--rho", "0.5", "--seed", "-1"],
        ["experiment-warp", "--seed", "-1", "--out", "x.csv"],
        ["experiment-mi-scalar", "--seed", "-1", "--out", "x.csv"],
        ["experiment-mi-warp", "--seed", "-1", "--out", "x.csv"],
    ):
        assert main(argv) == 1, argv
    capsys.readouterr()


def test_unparsable_tokens_keep_argparse_wording(capsys):
    assert main(["entropy", "--input", "x.csv", "--depth", "x"]) == 1
    assert "argument --depth: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["mi", "--model", "spiral", "--rho", "x"]) == 1
    assert "argument --rho: invalid float value: 'x'" in capsys.readouterr().err


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
    for argv in (["entropy", "--input", str(staircase_csv)], ["experiment-warp"]):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        for out in (out1, out2):
            assert main([*argv, "--out", str(out)]) == 0
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
    # the spread of the conditional term goes to the manifest only
    manifest = json.loads((tmp_path / "mi.csv.manifest.json").read_text())
    assert manifest["diagnostics"]["conditional_se"] > 0


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
    assert main(["entropy", "--input", str(f)]) == 3
    err = capsys.readouterr().err
    assert "condition estimate" in err and "max-iters" not in err
    # numpy's overflow warnings are not printed next to the failure
    assert len(err.splitlines()) == 1


# one bad input file per case, and the exit code it documents: 2 for
# data, 3 for numerics; the overflow is of the depth-3 signature
BAD_INPUTS = {
    "overflow": (b"series_id,t,x1,x2\ns,0,0,0\ns,1,1e150,0\n", 3),
    "not-utf8": (b"series_id,t,x1,x2\ns,0,\xff,0\n", 2),
    "header-only": (b"series_id,t,x1,x2\n", 2),
    "non-finite-time": (b"series_id,t,x1,x2\ns,0,0,0\ns,nan,1,0\n", 2),
    "oversized-field": (b"series_id,t,x1,x2\n" + b"v" * 200_000 + b",0,0,0\n", 2),
    "id-unfit-for-a-file-name": (b"series_id,t,x1,x2\na/b,0,0,0\na/b,1,1,0\nc,0,0,0\nc,1,1,0\n", 2),
}
# the bad file goes to each command's first file option
BAD_INPUT_ARGS = {
    "sig": ["--input", "bad.csv"],
    "entropy": ["--input", "bad.csv"],
    "divergence": ["--a", "bad.csv", "--b", "good.csv"],
    "score": ["--x", "bad.csv", "--measure", "good.csv"],
}


@pytest.mark.parametrize("command, case", [
    (command, case) for command in BAD_INPUT_ARGS for case in BAD_INPUTS
    if command == "sig" or case != "id-unfit-for-a-file-name"
])
def test_bad_input_fails_with_one_line_and_no_file(tmp_path, capsys, command, case):
    content, code = BAD_INPUTS[case]
    (tmp_path / "bad.csv").write_bytes(content)
    (tmp_path / "good.csv").write_text(STAIRCASE)
    files = [str(tmp_path / a) if a.endswith(".csv") else a for a in BAD_INPUT_ARGS[command]]
    before = sorted(tmp_path.iterdir())
    assert main([command, "--depth", "3", "--out", str(tmp_path / "out.csv"), *files]) == code
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    # a data error names the file at fault
    assert code == 3 or "bad.csv" in captured.err
    assert sorted(tmp_path.iterdir()) == before


def test_mi_overflow_fails_with_one_line_and_no_file(tmp_path, capsys):
    out = tmp_path / "mi.csv"
    assert main(["mi", "--model", "spiral", "--rho", "0.5", "--n-u", "2", "--n-x", "3",
                 "--horizon", "1e300", "--resolution", "1e299", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not list(tmp_path.iterdir())


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
    # refused by arithmetic before any draw is allocated: n * (n + 1)
    # tracks of 101 points of width 2, folded in 4 chunks of 25 segments,
    # and D = 31 at depth 4 (see test_mutual_information_size_guard in
    # test_scoring.py for the terms)
    n = 10**6
    tracks = n * (n + 1)
    sign = tracks * (25 + (101 + 100) * 2 + 31 + 4 * (31 + 4 * 2 + 16 + 2 * 8))
    sign += 3 * np.getbufsize()
    form = (n + 1) * (2 * n * 31 + 4 * 31 * 31 + 573 + 2 * n * 16) + 2 * 573
    need = tracks * (1024 + 8 * 101 * (2 * 2 + 3)) + 8 * (sign + form)
    assert main(["mi", "--model", "spiral", "--rho", "0.5",
                 "--n-u", str(n), "--n-x", str(n)]) == 2
    assert f"needs an estimated {need:,} bytes" in capsys.readouterr().err


def test_act_too_large_for_memory_is_data_error(tmp_path, pair_csv, monkeypatch, capsys):
    # refused by arithmetic before anything is signed: 2 paths of 2
    # segments and width 2 at depth 8, so D = 511 (see
    # test_act_size_guard_refuses_before_signing in test_scoring.py)
    sign = 25 + (3 + 2) * 2 + 2 * 511 + 8 * 2 + 256 + 2 * 128 + 3 * 256
    need = 8 * (2 * sign + 2 * 2 * 511 + 4 * 511 * 511 + 3 * 33_789 + 2 * 2 * 256)
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need - 1)
    for argv in (["entropy", "--input", str(pair_csv)],
                 ["divergence", "--a", str(pair_csv), "--b", str(pair_csv)]):
        assert main([*argv, "--depth", "8"]) == 2
        assert f"needs an estimated {need:,} bytes" in capsys.readouterr().err
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need)
    assert main(["entropy", "--input", str(pair_csv), "--depth", "8"]) == 0


@pytest.mark.parametrize("command", ["sig", "experiment-warp"])
def test_signatures_too_large_for_memory_is_data_error(tmp_path, pair_csv, command, capsys):
    # depth 40 at width 2 is D = 2**41 - 1 coefficients per signature,
    # refused by arithmetic before anything is signed or written
    out = tmp_path / "out.txt"
    argv = ["--input", str(pair_csv)] if command == "sig" else []
    assert main([command, *argv, "--depth", "40", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs an estimated" in captured.err and "depth 40" in captured.err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 120. MiB"), "Unable to allocate 120. MiB"),
    (MemoryError(), "MemoryError"),
])
def test_failed_allocation_is_data_error(tmp_path, pair_csv, monkeypatch, capsys, error, message):
    # an allocation can still fail after the memory guards pass, for
    # example under an address-space limit
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "signatures", fail)
    out = tmp_path / "out.txt"
    assert main(["sig", "--input", str(pair_csv), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"trackscore: error: {message}\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("argv", [
    ["mi", "--model", "spiral", "--rho", "0.5", "--horizon", "1", "--resolution", "0.6"],
    ["experiment-warp", "--resolution", "0.3"],
])
def test_resolution_must_divide_horizon(tmp_path, argv, capsys):
    # a grid of round(h / r) steps of r would end at 1.2 or 0.9, not at 1
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "does not divide horizon 1" in captured.err
    assert not list(tmp_path.glob("out*"))


def test_warp_grid_too_large_for_memory_is_data_error(tmp_path, capsys):
    # 1e300 steps: refused from the step count, before any grid exists
    out = tmp_path / "out.csv"
    assert main(["experiment-warp", "--resolution", "1e-300", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a warp sweep of 14 tracks of" in captured.err
    assert "needs an estimated" in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) <= 200
    assert not list(tmp_path.glob("out*"))


def test_mi_grid_too_large_for_memory_is_data_error(tmp_path, capsys):
    # 1e300 steps: refused from the model's cfg, before any draw or grid
    out = tmp_path / "out.csv"
    argv = ["mi", "--model", "spiral", "--rho", "0.5", "--resolution", "1e-300",
            "--n-u", "2", "--n-x", "2", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mutual information with n_u=2, n_x=2" in captured.err
    assert "needs an estimated" in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) <= 200
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("argv", [
    ["mi", "--model", "spiral", "--rho", "0.5", "--resolution", "1e-320"],
    ["experiment-warp", "--resolution", "1e-320"],
])
def test_resolution_must_give_a_finite_step_count(tmp_path, argv, capsys):
    # 1 / 1e-320 overflows to inf, which no grid of steps can count
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite step count" in captured.err
    assert not list(tmp_path.glob("out*"))
