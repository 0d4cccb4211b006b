"""Fast tests for the benchmark's output checks.

Each check must accept the program's own output on a small input and
reject the same output with one value perturbed.  Run with
``python3 -m pytest perfbench/test_checks.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from trackscore import experiments  # noqa: E402
from trackscore.cli import main as trackscore  # noqa: E402

DEPTH = 3


def bump(v: float) -> float:
    return v + 1e-6 * (1.0 + abs(v))


def brownian(seed: int, series: int, points: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 0.3, size=(series, points - 1, 2))
    return np.concatenate([np.zeros((series, 1, 2)), np.cumsum(steps, axis=1)], axis=1)


@pytest.fixture
def files(tmp_path):
    arrays = {"a": brownian(0, 4, 6), "b": brownian(1, 3, 5), "x": brownian(2, 1, 7)}
    paths = {}
    for name, arr in arrays.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        workloads.write_csv(arr, paths[name])
    return arrays, paths


def run_scalar(tmp_path, argv, quantity, side):
    out = tmp_path / "result.csv"
    assert trackscore(argv + ["--depth", str(DEPTH), "--out", str(out)]) == 0
    return checks.result_value(out.read_text(), quantity, side, DEPTH)


@pytest.mark.parametrize("side", ["right", "left"])
def test_entropy(tmp_path, files, side):
    arr, f = files
    value = run_scalar(tmp_path, ["entropy", "--input", f["a"], "--side", side], "entropy", side)
    checks.check_entropy(value, arr["a"], side, DEPTH)
    with pytest.raises(checks.WrongOutput):
        checks.check_entropy(bump(value), arr["a"], side, DEPTH)


def test_score(tmp_path, files):
    arr, f = files
    value = run_scalar(tmp_path, ["score", "--x", f["x"], "--measure", f["b"]], "score", "right")
    checks.check_score(value, arr["x"], arr["b"], "right", DEPTH)
    with pytest.raises(checks.WrongOutput):
        checks.check_score(bump(value), arr["x"], arr["b"], "right", DEPTH)


@pytest.mark.parametrize("other", ["b", "a"])
def test_divergence(tmp_path, files, other):
    arr, f = files
    value = run_scalar(tmp_path, ["divergence", "--a", f["a"], "--b", f[other]],
                       "divergence", "right")
    checks.check_divergence(value, arr["a"], arr[other], "right", DEPTH)
    for wrong in (bump(value), -1e-9):
        with pytest.raises(checks.WrongOutput):
            checks.check_divergence(wrong, arr["a"], arr[other], "right", DEPTH)


def test_result_file_must_describe_the_request(tmp_path, files):
    _, f = files
    out = tmp_path / "result.csv"
    assert trackscore(["entropy", "--input", f["a"], "--side", "left",
                       "--depth", str(DEPTH), "--out", str(out)]) == 0
    with pytest.raises(checks.WrongOutput):
        checks.result_value(out.read_text(), "entropy", "right", DEPTH)


def test_signature_record(tmp_path):
    track = brownian(3, 1, 50)
    src, out = tmp_path / "track.csv", tmp_path / "sig.txt"
    workloads.write_csv(track, src)
    assert trackscore(["sig", "--input", str(src), "--depth", "4", "--out", str(out)]) == 0
    text = out.read_text()
    checks.check_signature_record(text, track[0], 4)
    lines = text.splitlines()
    coeffs = lines[4].split(",")
    coeffs[5] = repr(bump(float(coeffs[5])))
    lines[4] = ",".join(coeffs)
    with pytest.raises(checks.WrongOutput):
        checks.check_signature_record("\n".join(lines) + "\n", track[0], 4)


def test_reruns():
    checks.check_reruns(["1.0\n", "1.0\n"], "op")
    with pytest.raises(checks.WrongOutput):
        checks.check_reruns(["1.0\n", "1.0\n", "1.0000000001\n"], "op")


@pytest.mark.parametrize("kind", ["spiral", "warped-mix"])
def test_mi(kind):
    est = experiments.mi_point(kind, 0.5, 2, 4, DEPTH, 11)
    assert est.converged
    out = {"mi": est.mi, "entropy": est.entropy,
           "conditional_entropies": list(est.conditional_entropies)}
    checks.check_mi(out, kind, 0.5, 11, 2, 4, DEPTH)
    for key in ("mi", "entropy"):
        with pytest.raises(checks.WrongOutput):
            checks.check_mi(dict(out, **{key: bump(out[key])}), kind, 0.5, 11, 2, 4, DEPTH)
    conds = out["conditional_entropies"][:-1] + [bump(out["conditional_entropies"][-1])]
    with pytest.raises(checks.WrongOutput):
        checks.check_mi(dict(out, conditional_entropies=conds), kind, 0.5, 11, 2, 4, DEPTH)


def test_warp():
    header, rows = experiments.run_warp_experiment(p_max=4.0, n_points=2, seed=5)
    checks.check_warp(header, rows, 5)
    for r in range(len(rows)):
        for c in range(1, len(header)):
            bad = [list(row) for row in rows]
            bad[r][c] = bump(bad[r][c])
            with pytest.raises(checks.WrongOutput):
                checks.check_warp(header, bad, 5)
