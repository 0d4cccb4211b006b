"""Seeded simulators used by the simulation experiments.

All randomness flows through numpy's PCG64 generator.  Top-level
simulators derive their generator from ``SimConfig.seed``; the sampler
classes take explicit generators, one per draw, so that callers can
hand every draw its own derived stream and stay order-independent.

A conditional model (:class:`SpiralModel`, :class:`WarpedMixModel`)
exposes ``sample_condition(rng)`` and ``sample_paths(rngs,
conditions)``.  The latter draws one track per (generator, condition)
pair and returns them as one ``(n, T + 1, d)`` point array on the
model's time grid.  Each generator draws its own randomness in the
order a single track does; the deterministic part (cumulative sums,
spiral terms, power warps) is computed for all rows at once.
``sample_path(rng, condition)`` is its one-row case, returned as a
path.  Estimators sign the point array directly, with no path object
per draw (see ``scoring.mutual_information``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signature import PiecewiseLinearPath, make_path

__all__ = [
    "OMEGA_MAX",
    "SimConfig",
    "brownian",
    "power_warp",
    "power_warps",
    "sample_omega",
    "spiral_process",
    "warped_mix_process",
    "SpiralModel",
    "WarpedMixModel",
]

# Angular velocities are drawn uniformly from [0, OMEGA_MAX).
OMEGA_MAX = 8.0 * math.pi


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: seed, horizon, grid resolution, dimension."""

    seed: int = 0
    horizon: float = 1.0
    resolution: float = 1e-2
    dim: int = 2

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not 0 < self.resolution < self.horizon:
            raise ValueError("resolution must lie in (0, horizon)")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")

    @property
    def times(self) -> np.ndarray:
        """The uniform time grid ``0, resolution, ..., horizon``."""
        n = int(round(self.horizon / self.resolution))
        return np.arange(n + 1) * self.resolution


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _brownian_points(rngs, cfg: SimConfig) -> np.ndarray:
    # (len(rngs), T + 1, d) Brownian points from the origin; each
    # generator draws its increments as one normal block
    rngs = list(rngs)
    n = cfg.times.shape[0] - 1
    sd = math.sqrt(cfg.resolution)
    points = np.zeros((len(rngs), n + 1, cfg.dim))
    for rng, row in zip(rngs, points):
        np.cumsum(rng.normal(0.0, sd, size=(n, cfg.dim)), axis=0, out=row[1:])
    return points


def _brownian(rng, cfg: SimConfig) -> PiecewiseLinearPath:
    return make_path(_brownian_points([rng], cfg)[0], cfg.times)


def brownian(cfg: SimConfig) -> PiecewiseLinearPath:
    """Brownian path started at the origin on the uniform grid.

    Increments per coordinate are independent N(0, resolution).
    """
    return _brownian(_rng(cfg.seed), cfg)


def power_warps(points, times, ps) -> np.ndarray:
    """Resamples polylines along the warps ``phi(t) = T (t/T)^p``, one
    per exponent ``p >= 1``, on their shared time grid ``times``.

    ``points`` is one polyline ``(n, d)``, warped by every exponent, or
    one polyline per exponent ``(len(ps), n, d)``; the result has shape
    ``(len(ps), n, d)``.  Values are read off each polyline by linear
    interpolation, with the arithmetic of ``np.interp``, so endpoints are
    fixed and p = 1 is the identity.
    """
    ps = np.asarray(ps, dtype=float).reshape(-1)
    points, times = np.asarray(points, dtype=float), np.asarray(times, dtype=float)
    if not np.all(ps >= 1):
        raise ValueError("warp exponent must be at least 1")
    if times.shape[0] < 2:
        raise ValueError("power_warp needs at least two breakpoints")
    one_each = points.ndim == 3 and points.shape[0] == ps.shape[0]
    if not (points.ndim == 2 or one_each) or points.shape[-2] != times.shape[0]:
        raise ValueError("need one (n, d) polyline on the n times, or one per exponent")
    tau = times - times[0]
    phi = (tau / tau[-1]) ** ps[:, None]
    phi *= tau[-1]
    phi[ps == 1.0] = tau
    # tau[j] <= phi < tau[j + 1].  A phi on a grid time reads its point
    # exactly, as np.interp does; any other is read off segment j.
    j = np.searchsorted(tau, phi, side="right") - 1
    hit = phi == np.take(tau, j)
    first = np.arange(ps.shape[0])[:, None] * tau.shape[0] if one_each else 0
    flat = points.reshape(-1, points.shape[-1])
    exact = flat[(first + j)[hit]]
    # np.interp's (hi - lo) / dt * (phi - t_lo) + lo, in place over rows
    # gathered from the flattened polylines; clamping j to the last
    # segment changes only hits
    seg = np.minimum(j, tau.shape[0] - 2, out=j)
    phi -= np.take(tau, seg)
    dt = np.take(np.diff(tau), seg)
    seg += first
    lo = np.take(flat, seg, axis=0)
    warped = np.take(flat, seg + 1, axis=0)
    warped -= lo
    warped /= dt[..., None]
    warped *= phi[..., None]
    warped += lo
    warped[hit] = exact
    return warped


def power_warp(x: PiecewiseLinearPath, p: float) -> PiecewiseLinearPath:
    """Resamples x along the warp ``phi(t) = T (t/T)^p``, p >= 1: the
    one-row case of :func:`power_warps`, on x's own time grid."""
    if x.times is None:
        raise ValueError("power_warp needs a timed path")
    return make_path(power_warps(x.points, x.times, [p])[0], x.times.copy())


def sample_omega(rng_or_seed) -> float:
    """Uniform angular velocity on [0, OMEGA_MAX)."""
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else _rng(rng_or_seed)
    return float(rng.uniform(0.0, OMEGA_MAX))


def _mix(rho: float, signal: np.ndarray, noise: np.ndarray) -> np.ndarray:
    # rho signal + sqrt(1 - rho^2) noise, computed in the two inputs
    signal *= rho
    noise *= math.sqrt(1.0 - rho * rho)
    signal += noise
    return signal


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")


def spiral_process(rho: float, omega: float, cfg: SimConfig) -> PiecewiseLinearPath:
    """Planar spiral of angular velocity omega mixed with Brownian noise.

    ``rho`` in [0, 1] interpolates between pure noise (0) and the
    deterministic spiral ``t (cos omega t, sin omega t)`` (1).
    """
    return SpiralModel(rho, cfg).sample_path(_rng(cfg.seed), omega)


def warped_mix_process(rho: float, cfg: SimConfig, p: float | None = None):
    """Mixture ``z = rho x_warped + sqrt(1 - rho^2) y`` of two Brownian
    paths, with warp exponent drawn uniformly from [1, 10).

    Returns ``(x, z, p)``.  Passing ``p`` overrides the draw (the two
    remaining draws keep their positions in the stream).
    """
    _check_rho(rho)
    # Draw order is fixed: base path, warp exponent, then noise path.
    rng = _rng(cfg.seed)
    x = _brownian(rng, cfg)
    drawn = float(rng.uniform(1.0, 10.0))
    if p is None:
        p = drawn
    noise = _brownian_points([rng], cfg)
    z = _mix(rho, power_warps(x.points, x.times, [p]), noise)[0]
    return x, make_path(z, x.times.copy()), p


@dataclass(frozen=True)
class SpiralModel:
    """Conditional sampler for the spiral family: the condition is the
    angular velocity, the track is the spiral plus fresh noise."""

    rho: float
    cfg: SimConfig

    def __post_init__(self):
        _check_rho(self.rho)
        if self.cfg.dim != 2:
            raise ValueError("spiral model is planar; use dim=2")

    def sample_condition(self, rng) -> float:
        return sample_omega(rng)

    def sample_paths(self, rngs, conditions) -> np.ndarray:
        """One track per generator and angular velocity, stacked
        ``(n, T + 1, 2)``."""
        noise = _brownian_points(rngs, self.cfg)
        t = self.cfg.times
        wt = np.asarray(conditions, dtype=float)[:, None] * t
        spiral = np.stack([t * np.cos(wt), t * np.sin(wt)], axis=-1)
        return _mix(self.rho, spiral, noise)

    def sample_path(self, rng, condition: float) -> PiecewiseLinearPath:
        return make_path(self.sample_paths([rng], [condition])[0], self.cfg.times)


@dataclass(frozen=True)
class WarpedMixModel:
    """Conditional sampler for the warped mixture: the condition is the
    base path, the track mixes its random time warp with fresh noise."""

    rho: float
    cfg: SimConfig

    def __post_init__(self):
        _check_rho(self.rho)

    def sample_condition(self, rng) -> PiecewiseLinearPath:
        return _brownian(rng, self.cfg)

    def sample_paths(self, rngs, conditions) -> np.ndarray:
        """One track per generator and base path, stacked
        ``(n, T + 1, d)``.  Each generator draws its warp exponent, then
        its noise."""
        rngs = list(rngs)
        ps = [rng.uniform(1.0, 10.0) for rng in rngs]
        warped = power_warps(np.stack([c.points for c in conditions]), self.cfg.times, ps)
        return _mix(self.rho, warped, _brownian_points(rngs, self.cfg))

    def sample_path(self, rng, condition: PiecewiseLinearPath) -> PiecewiseLinearPath:
        return make_path(self.sample_paths([rng], [condition])[0], self.cfg.times)
