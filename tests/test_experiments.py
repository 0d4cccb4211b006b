"""Experiment drivers: grids, CSV shape and the debiased soft value."""

import numpy as np
import pytest

from trackscore.baselines import dtw, soft_dtw
from trackscore.experiments import (
    format_csv,
    mi_point,
    run_mi_experiment,
    run_warp_experiment,
    sdtw_divergence,
)


def test_sdtw_divergence_properties():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 2))
    y = rng.standard_normal((6, 2))
    assert sdtw_divergence(x, x, 1.0) == 0.0
    assert sdtw_divergence(x, y, 1.0) >= 0.0
    # cached self terms must not change the value
    full = sdtw_divergence(x, y, 0.5)
    cached = sdtw_divergence(x, y, 0.5, self_x=soft_dtw(x, x, 0.5))
    assert cached == pytest.approx(full, rel=1e-14)
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
    with pytest.raises(ValueError):
        run_warp_experiment(p_max=0.5)
    with pytest.raises(ValueError):
        run_warp_experiment(n_points=1)
    with pytest.raises(ValueError):
        run_warp_experiment(gammas=(0.0,))


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
