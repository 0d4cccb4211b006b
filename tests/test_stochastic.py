"""Seeded simulators: Brownian paths, warps, spirals and mixtures."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trackscore
from trackscore.signature import make_path
from trackscore.stochastic import (
    OMEGA_MAX,
    SimConfig,
    SpiralModel,
    WarpedMixModel,
    brownian,
    power_warp,
    _rng,
    _rngs,
    power_warps,
)


def test_rngs_equal_seed_sequence_generators():
    # one call with stream tuples of 0 to 3 entries, some past 2**32, so
    # that entropy lengths mix and run past the 4-word pool; each state
    # must be numpy's own SeedSequence state, and the uint32 hash must
    # wrap without warning
    streams = [(), (0,), (1, 7), (2, 3, 4), (2**32,), (0, 2**32 + 1), (5, 2**40, 2**64 - 1), (2, 0, 0)]
    for seed in (0, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rngs = _rngs(seed, streams)
        for stream, rng in zip(streams, rngs, strict=True):
            ref = np.random.default_rng(np.random.SeedSequence((seed, *stream)))
            assert rng.bit_generator.state == ref.bit_generator.state, (seed, stream)
    # and the draws are _rng's, numpy's own route
    assert np.array_equal(_rngs(7, [(2, 3, 4)])[0].normal(size=20), _rng(7, 2, 3, 4).normal(size=20))
    assert _rngs(7, []) == []


def test_rngs_refuse_negative_entries_as_seed_sequence_does():
    for seed, stream in ((-1, (0,)), (0, (1, -2)), (-(2**40), ())):
        with pytest.raises(ValueError):
            np.random.SeedSequence((seed, *stream))
        with pytest.raises(ValueError):
            _rngs(seed, [(0,), stream])


def test_cli_import_leaves_numpy_random_unloaded():
    # generators are built only when drawing, so starting the CLI loads
    # neither numpy.random nor the class that hands PCG64 its words
    code = (
        "import sys, trackscore, trackscore.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(trackscore.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0.0)
    with pytest.raises(ValueError):
        SimConfig(resolution=2.0, horizon=1.0)
    with pytest.raises(ValueError):
        SimConfig(dim=0)
    for horizon in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            SimConfig(horizon=horizon)
    with pytest.raises(ValueError, match="non-finite step count"):
        SimConfig(horizon=1.0, resolution=1e-320)
    # the grid 0, r, ..., round(h / r) r must end on the horizon
    for resolution in (0.6, 0.3, 0.15):
        with pytest.raises(ValueError, match="does not divide"):
            SimConfig(horizon=1.0, resolution=resolution)
    for horizon, resolution in ((1.0, 0.1), (2.0, 0.05), (100.0, 0.5), (1.0, 1e-2)):
        cfg = SimConfig(horizon=horizon, resolution=resolution)
        assert cfg.times[-1] == pytest.approx(horizon)
        assert cfg.times.shape == (cfg.steps + 1,)
    # the step count comes from the two floats alone, so a grid too large
    # to build can still be counted and refused
    assert SimConfig(horizon=1.0, resolution=1e-300).steps > 10**299


def test_brownian_grid_and_determinism():
    cfg = SimConfig(seed=5, horizon=1.0, resolution=0.25, dim=3)
    x = brownian(cfg)
    np.testing.assert_allclose(x.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert x.points.shape == (5, 3)
    np.testing.assert_array_equal(x.points[0], np.zeros(3))
    y = brownian(cfg)
    np.testing.assert_array_equal(x.points, y.points)
    z = brownian(SimConfig(seed=6, horizon=1.0, resolution=0.25, dim=3))
    assert not np.array_equal(x.points, z.points)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_brownian_points_rows_equal_per_row_cumsum(dim):
    from trackscore.stochastic import _brownian_points

    cfg = SimConfig(horizon=2.0, resolution=0.05, dim=dim)
    rows = _brownian_points([_stream(i) for i in range(9)], cfg)
    assert rows.shape == (9, 41, dim)
    for i, row in enumerate(rows):
        steps = _stream(i).normal(0.0, math.sqrt(cfg.resolution), size=(40, dim))
        assert np.array_equal(row[0], np.zeros(dim))
        assert np.array_equal(row[1:], np.cumsum(steps, axis=0))


def test_brownian_increment_moments():
    cfg = SimConfig(seed=0, horizon=100.0, resolution=0.5, dim=2)
    x = brownian(cfg)
    inc = np.diff(x.points, axis=0)
    assert abs(inc.mean()) <= 0.05
    assert inc.var() == pytest.approx(0.5, rel=0.15)


def test_power_warp_identity_and_endpoints():
    cfg = SimConfig(seed=1, resolution=0.1)
    x = brownian(cfg)
    same = power_warp(x, 1.0)
    np.testing.assert_array_equal(same.points, x.points)
    warped = power_warp(x, 4.0)
    np.testing.assert_array_equal(warped.times, x.times)
    np.testing.assert_allclose(warped.points[0], x.points[0])
    np.testing.assert_allclose(warped.points[-1], x.points[-1])
    # phi(t) <= t pushes mass toward the start of the trace
    assert not np.allclose(warped.points[1:-1], x.points[1:-1])


def test_power_warp_validation():
    cfg = SimConfig(seed=2, resolution=0.1)
    x = brownian(cfg)
    with pytest.raises(ValueError):
        power_warp(x, 0.5)
    untimed = make_path(x.points)
    with pytest.raises(ValueError):
        power_warp(untimed, 2.0)


def test_power_warp_traces_same_polyline():
    # warped samples lie on segments of the original path
    cfg = SimConfig(seed=3, resolution=0.25)
    x = brownian(cfg)
    w = power_warp(x, 3.0)
    for q in w.points:
        on_segment = False
        for a, b in zip(x.points[:-1], x.points[1:]):
            seg = b - a
            denom = float(seg @ seg)
            lam = 0.0 if denom == 0 else float((q - a) @ seg) / denom
            lam = min(1.0, max(0.0, lam))
            if np.linalg.norm(a + lam * seg - q) <= 1e-9:
                on_segment = True
                break
        assert on_segment


def test_spiral_condition_range_and_reproducibility():
    model = SpiralModel(0.5, SimConfig())
    vals = [model.sample_condition(_rng(k)) for k in range(50)]
    assert all(0.0 <= v < OMEGA_MAX for v in vals)
    assert model.sample_condition(_rng(7)) == model.sample_condition(_rng(7))
    assert max(vals) > OMEGA_MAX / 2  # actually spreads over the range


def test_spiral_rho_zero_is_pure_noise():
    cfg = SimConfig(seed=4)
    a = SpiralModel(0.0, cfg).sample_path(_rng(cfg.seed), 5.0)
    b = brownian(cfg)
    np.testing.assert_allclose(a.points, b.points)


def test_spiral_rho_one_is_deterministic():
    cfg = SimConfig(seed=5)
    omega = 3.0
    x = SpiralModel(1.0, cfg).sample_path(_rng(cfg.seed), omega)
    t = x.times
    det = np.column_stack([t * np.cos(omega * t), t * np.sin(omega * t)])
    np.testing.assert_allclose(x.points, det, atol=1e-12)


def test_spiral_marginal_second_moment():
    # E|Z_t|^2 = rho^2 t^2 + (1 - rho^2) 2t at t = 1
    rho, omega = 0.6, 2.0
    model = SpiralModel(rho, SimConfig(horizon=1.0, resolution=0.5))
    z = model.sample_paths([_rng(seed) for seed in range(10_000)], [omega] * 10_000)[:, -1]
    target = rho**2 + (1 - rho**2) * 2.0
    assert np.mean(np.sum(z * z, axis=-1)) == pytest.approx(target, rel=0.10)


def test_warped_mix_rho_zero_ignores_base():
    model = WarpedMixModel(0.0, SimConfig())
    bases = [model.sample_condition(_rng(8, k)) for k in range(2)]
    assert not np.array_equal(bases[0].points, bases[1].points)
    z1, z2 = (model.sample_path(_rng(8), base) for base in bases)
    np.testing.assert_allclose(z1.points, z2.points)


def test_spiral_model_protocol():
    model = SpiralModel(0.5, SimConfig(seed=0, resolution=0.25))
    rng = np.random.default_rng(0)
    omega = model.sample_condition(rng)
    assert 0.0 <= omega < OMEGA_MAX
    path = model.sample_path(rng, omega)
    assert path.dim == 2
    with pytest.raises(ValueError):
        SpiralModel(2.0, SimConfig())
    with pytest.raises(ValueError):
        SpiralModel(0.5, SimConfig(dim=1))


def test_warped_mix_model_protocol():
    model = WarpedMixModel(0.5, SimConfig(seed=0, resolution=0.25))
    rng = np.random.default_rng(1)
    base = model.sample_condition(rng)
    track = model.sample_path(rng, base)
    assert track.dim == base.dim
    assert track.points.shape == base.points.shape
    with pytest.raises(ValueError):
        WarpedMixModel(-0.2, SimConfig())


def _stream(*keys):
    return np.random.default_rng(np.random.SeedSequence((9,) + keys))


def _interp_warp(x, p):
    # power_warp as one np.interp per coordinate
    tau = x.times - x.times[0]
    phi = tau[-1] * (tau / tau[-1]) ** p
    return np.column_stack([np.interp(phi, tau, x.points[:, k]) for k in range(x.dim)])


def _one_track(model, rng, condition):
    # one draw written out step by step, independently of sample_paths
    cfg = model.cfg
    t = cfg.times
    p = rng.uniform(1.0, 10.0) if isinstance(model, WarpedMixModel) else None
    steps = rng.normal(0.0, math.sqrt(cfg.resolution), size=(t.shape[0] - 1, cfg.dim))
    noise = np.vstack([np.zeros(cfg.dim), np.cumsum(steps, axis=0)])
    if p is None:
        signal = np.column_stack([t * np.cos(condition * t), t * np.sin(condition * t)])
    else:
        signal = _interp_warp(condition, p)
    return model.rho * signal + math.sqrt(1.0 - model.rho * model.rho) * noise


@pytest.mark.parametrize("model_cls", [SpiralModel, WarpedMixModel])
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("grid", [{}, {"horizon": 2.0, "resolution": 0.05}])
def test_sample_paths_rows_equal_single_draws(model_cls, rho, grid):
    # row i of one batched call, bit for bit, against sample_path and a
    # step-by-step draw, each on a fresh copy of stream i; conditions
    # repeat across rows as in a conditional family
    model = model_cls(rho, SimConfig(**grid))
    conditions = [model.sample_condition(_stream(100, k)) for k in range(3)]
    conditions = [conditions[i % 3] for i in range(7)]
    batch = model.sample_paths([_stream(i) for i in range(7)], conditions)
    assert batch.shape == (7, model.cfg.times.shape[0], 2)
    for i, u in enumerate(conditions):
        assert np.array_equal(batch[i], model.sample_path(_stream(i), u).points)
        assert np.array_equal(batch[i], _one_track(model, _stream(i), u))


@pytest.mark.parametrize("grid", [{}, {"horizon": 2.0, "resolution": 0.05}])
def test_power_warps_equal_interp(grid):
    # the warp sweep's exponents against np.interp, bit for bit, and
    # p = 1 as the identity.  Seed 0 at the default grid ends on a
    # point where slope * dt + lo misses the last point by an ulp.
    ps = np.geomspace(1.0, 25.0, 13)
    for seed in range(5):
        x = brownian(SimConfig(seed=seed, dim=3, **grid))
        rows = power_warps(x.points, x.times, ps)
        assert rows.shape == (13, *x.points.shape)
        assert np.array_equal(rows[0], x.points)
        for p, row in zip(ps[1:], rows[1:]):
            assert np.array_equal(row, _interp_warp(x, p))


def test_power_warp_is_one_row_of_power_warps():
    x = brownian(SimConfig(seed=4, horizon=2.0, resolution=0.05))
    ps = [1.0, 2.5, 25.0]
    rows = power_warps(x.points, x.times, ps)
    for p, row in zip(ps, rows):
        assert np.array_equal(power_warp(x, p).points, row)
    # one polyline per exponent
    bases = [brownian(SimConfig(seed=s, horizon=2.0, resolution=0.05)) for s in (5, 6, 7)]
    rows = power_warps(np.stack([b.points for b in bases]), x.times, ps)
    for b, p, row in zip(bases, ps, rows):
        assert np.array_equal(power_warp(b, p).points, row)
    for bad in ([0.5], [np.nan], [2.0, 0.999]):
        with pytest.raises(ValueError):
            power_warps(x.points, x.times, bad)
    for points, times in ((rows, x.times), (x.points, x.times[1:]), (x.points[:, 0], x.times)):
        with pytest.raises(ValueError):
            power_warps(points, times, [2.0, 3.0])
