"""Experiment drivers: grids, CSV shape and the debiased soft value."""

import importlib
import re

import numpy as np
import pytest

from trackscore import experiments
from trackscore.baselines import dtw, dtw_family
from trackscore.experiments import (
    mi_point,
    run_mi_experiment,
    run_warp_experiment,
    sdtw_divergence,
)
from trackscore.signature import format_csv
from trackscore.stochastic import SimConfig, brownian, power_warp

# the module, whose name the package's signature() function shadows
signature_module = importlib.import_module("trackscore.signature")


def test_sdtw_divergence_properties():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 2))
    y = rng.standard_normal((6, 2))
    assert sdtw_divergence(x, x, 1.0) == 0.0
    assert sdtw_divergence(x, y, 1.0) >= 0.0
    # the three soft values of one kernel call, combined
    s_xy, s_xx, s_yy = dtw_family([x, x, y], [y, x, y], [0.5])[:, 0]
    assert sdtw_divergence(x, y, 0.5) == s_xy - 0.5 * (s_xx + s_yy)
    # gamma -> 0 recovers the hard distance
    assert sdtw_divergence(x, y, 1e-4) == pytest.approx(dtw(x, y), abs=1e-2)


def test_warp_experiment_shape_and_first_row():
    header, rows = run_warp_experiment(
        p_max=9.0, gammas=(1.0, 0.1), depth=2, resolution=0.05,
        seed=0, n_points=4,
    )
    assert header == ["p", "geometric_divergence", "sdtw_gamma_1",
                      "sdtw_gamma_0.1", "dtw"]
    assert len(rows) == 4
    ps = [r[0] for r in rows]
    assert ps[0] == pytest.approx(1.0) and ps[-1] == pytest.approx(9.0)
    assert all(b > a for a, b in zip(ps, ps[1:]))  # log spaced, increasing
    # p = 1 is the identity warp: every column vanishes there
    for cell in rows[0][1:]:
        assert abs(cell) <= 1e-10


def test_warp_experiment_validation():
    for p_max in (0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="p_max"):
            run_warp_experiment(p_max=p_max)
    with pytest.raises(ValueError):
        run_warp_experiment(n_points=1)
    for gammas in ((0.0,), (float("inf"),), (float("nan"),)):
        with pytest.raises(ValueError, match="finite and positive"):
            run_warp_experiment(gammas=gammas)
    with pytest.raises(ValueError, match="duplicate columns"):
        run_warp_experiment(gammas=(0.1, 0.1000001))


def test_mi_point_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        mi_point("pendulum", 0.5, 2, 2, 2, 0)


def test_run_mi_experiment_rows():
    header, rows, estimates = run_mi_experiment(
        "spiral", rhos=(0.0, 1.0), n_u=2, n_x=3, depth=2,
        seed=9, resolution=0.25,
    )
    assert header == ["rho", "mi", "entropy", "n_u", "n_x", "seed"]
    assert [r[0] for r in rows] == [0.0, 1.0]
    assert all(r[3] == 2 and r[4] == 3 and r[5] == 9 for r in rows)
    assert all(e.converged for e in estimates)
    # rerun reproduces the numbers exactly
    _, rows2, _ = run_mi_experiment(
        "spiral", rhos=(0.0, 1.0), n_u=2, n_x=3, depth=2,
        seed=9, resolution=0.25,
    )
    assert rows == rows2


def test_format_csv_is_deterministic_text():
    text = format_csv(["a", "b"], [[1.0, 2], [0.1, -3]])
    assert text == "a,b\n1.0,2\n0.1,-3\n"


def test_format_csv_cell_types():
    # floats of either kind by repr, integers of either kind by str,
    # None as an empty cell, text as is
    row = ["left", None, 3, np.int64(-4), 2.0, np.float64(1.0) / 3, 1e-300]
    assert format_csv(list("abcdefg"), [row]) == (
        "a,b,c,d,e,f,g\nleft,,3,-4,2.0,0.3333333333333333,1e-300\n"
    )


def test_warp_geometric_column_matches_per_row_signing():
    # batched signing of the warps against signing each pair per row
    from trackscore.scoring import point_divergence
    from trackscore.stochastic import SimConfig, brownian, power_warp

    header, rows = run_warp_experiment(
        p_max=9.0, gammas=(1.0,), depth=3, resolution=0.05, seed=2, n_points=4,
    )
    x = brownian(SimConfig(seed=2, horizon=1.0, resolution=0.05, dim=2))
    col = header.index("geometric_divergence")
    assert abs(rows[0][col]) <= 1e-12
    for row in rows:
        ref = point_divergence(x, power_warp(x, row[0]), 3)
        assert row[col] == pytest.approx(ref, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("seed", [0, 5, 123])
def test_warp_hard_and_geometric_columns_equal_per_row_calls(seed):
    # the batched hard DTW and quotient columns change no bits
    from trackscore.scoring import point_divergence
    from trackscore.stochastic import SimConfig, brownian, power_warp

    header, rows = run_warp_experiment(gammas=(1.0,), depth=4, seed=seed, n_points=5)
    x = brownian(SimConfig(seed=seed, horizon=1.0, resolution=1e-2, dim=2))
    geo, hard = header.index("geometric_divergence"), header.index("dtw")
    for row in rows:
        y = power_warp(x, row[0])
        assert row[hard] == dtw(x, y)
        assert row[geo] == point_divergence(x, y, 4)


def test_warp_soft_columns_match_per_row_sdtw_divergence():
    # the sweep's one batched kernel call against each cell on its own
    from trackscore.stochastic import SimConfig, brownian, power_warp

    gammas = (1.0, 0.1, 0.01)
    header, rows = run_warp_experiment(
        p_max=9.0, gammas=gammas, depth=2, resolution=0.05, seed=3, n_points=4,
    )
    x = brownian(SimConfig(seed=3, horizon=1.0, resolution=0.05, dim=2))
    for row in rows:
        y = power_warp(x, row[0])
        for g in gammas:
            assert row[header.index(f"sdtw_gamma_{g:g}")] == sdtw_divergence(x, y, g)


@pytest.mark.parametrize("seed", [0, 5, 700])
def test_warp_rows_equal_sweep_from_per_row_kernels(seed):
    # the sweep's one dtw_family call against each soft value and hard
    # DTW taken by its own one-pair, one-gamma dtw_family call
    from trackscore.scoring import point_divergence

    gammas = (1.0, 0.1, 0.01)
    header, rows = run_warp_experiment(gammas=gammas, depth=3, seed=seed, n_points=5)
    x = brownian(SimConfig(seed=seed, horizon=1.0, resolution=1e-2, dim=2))

    def soft(a, b, g):
        return dtw_family([a], [b], [g])[0, 0]

    composed = []
    for p in (row[0] for row in rows):
        y = power_warp(x, p)
        sdtw = [soft(x, y, g) - 0.5 * (soft(x, x, g) + soft(y, y, g)) for g in gammas]
        composed.append([p, point_divergence(x, y, 3), *sdtw, dtw_family([x], [y], [])[0, 0]])
    assert np.array_equal(np.array(rows), np.array(composed))


def test_warp_size_guard_refuses_before_any_draw(monkeypatch):
    draws = []

    def counted(cfg):
        draws.append(cfg)
        return brownian(cfg)

    monkeypatch.setattr(experiments, "brownian", counted)
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: 1)
    with pytest.raises(ValueError, match="a warp sweep of 5 tracks of 21 points") as refused:
        run_warp_experiment(gammas=(1.0,), depth=2, resolution=0.05, n_points=4)
    assert draws == []
    # the bound is the estimate itself
    need = int(re.search(r"needs an estimated ([\d,]+) bytes", str(refused.value))[1].replace(",", ""))
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="needs an estimated"):
        run_warp_experiment(gammas=(1.0,), depth=2, resolution=0.05, n_points=4)
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need)
    _, rows = run_warp_experiment(gammas=(1.0,), depth=2, resolution=0.05, n_points=4)
    assert len(rows) == 4 and len(draws) == 1
