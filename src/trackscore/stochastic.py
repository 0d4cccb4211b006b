"""Seeded simulators used by the simulation experiments.

All randomness flows through numpy's PCG64 generator.  Only
:func:`brownian` derives its generator from ``SimConfig.seed``; the
models take explicit generators, one per draw, so that callers can hand
every draw its own derived stream and stay order-independent.  The
stream ``(seed, *stream)`` names the generator
``default_rng(SeedSequence((seed, *stream)))``: ``_rng`` builds one
through numpy, and ``_rngs`` builds a whole estimate's generators in one
batch, hashing every seed sequence at once with ``SeedSequence``'s own
algorithm.  The states are bit-identical either way, and NEP 19 keeps
``SeedSequence``'s output stable across numpy versions.

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

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .signature import PiecewiseLinearPath, make_path

__all__ = [
    "OMEGA_MAX",
    "SimConfig",
    "brownian",
    "power_warp",
    "power_warps",
    "SpiralModel",
    "WarpedMixModel",
]

# Angular velocities are drawn uniformly from [0, OMEGA_MAX).
OMEGA_MAX = 8.0 * math.pi


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: seed, horizon, grid resolution, dimension.
    The resolution must divide the horizon into whole steps, so that the
    grid ends on the horizon."""

    seed: int = 0
    horizon: float = 1.0
    resolution: float = 1e-2
    dim: int = 2

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not 0 < self.resolution < self.horizon:
            raise ValueError("resolution must lie in (0, horizon)")
        if self.horizon / self.resolution == math.inf:
            raise ValueError(f"resolution {self.resolution:g} gives a non-finite step count")
        if abs(self.steps * self.resolution - self.horizon) > 1e-9 * self.horizon:
            raise ValueError(
                f"resolution {self.resolution:g} does not divide horizon {self.horizon:g}"
            )
        if self.dim < 1:
            raise ValueError("dim must be at least 1")

    @property
    def steps(self) -> int:
        """The number of steps of the grid, ``horizon / resolution``,
        known before any grid is built."""
        return round(self.horizon / self.resolution)

    @property
    def times(self) -> np.ndarray:
        """The uniform time grid ``0, resolution, ..., horizon``."""
        return np.arange(self.steps + 1) * self.resolution


def _rng(seed, *stream) -> np.random.Generator:
    # default_rng(SeedSequence((seed, *stream))), without its argument dispatch
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),) + stream)))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx), fixed
# by NEP 19 together with the rest of its output
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n) -> list[int]:
    # SeedSequence's split of a nonnegative int into uint32 words, low first
    n = operator.index(n)
    if 0 <= n <= _MASK32:
        return [n]
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _consts(init: int, mult: int, count: int) -> np.ndarray:
    # the running hash constant of count hash steps: init, init * mult, ...
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix, one step per row of value: step i xors in
    # consts[i] and multiplies by consts[i + 1]
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> 16
    return value


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each column
    ``e`` of a ``(words, n)`` uint32 entropy array, as ``(n, 4)``.

    Every column has the same length, so every hash step uses the same
    constant in all of them, and each step runs once over all columns.
    Array arithmetic wraps modulo 2**32 as the uint32 hash does."""
    length = entropy.shape[0]
    extra = max(0, length - _POOL)
    a = _consts(_INIT_A, _MULT_A, _POOL * (_POOL + extra))
    # fill the pool from the entropy, hashing zeros past its end
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[: min(length, _POOL)] = entropy[:_POOL]
    pool = _hashmix(pool, a[: _POOL + 1])
    # mix every word into every other, then each remaining entropy word
    # into every pool word
    c = _POOL
    for src in range(_POOL + extra):
        dst = [i for i in range(_POOL) if i != src]
        word = pool[src] if src < _POOL else entropy[src]
        hashed = _hashmix(word, a[c : c + len(dst) + 1])
        mixed = pool[dst] * np.uint32(_MIX_L)
        mixed -= hashed * np.uint32(_MIX_R)
        mixed ^= mixed >> 16
        pool[dst] = mixed
        c += len(dst)
    # generate_state(4, uint64): 8 uint32 words from the cycled pool,
    # paired little-endian into uint64
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _consts(_INIT_B, _MULT_B, 2 * _POOL))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _precomputed_seed():
    # The ISeedSequence that hands PCG64 precomputed words.  Made on first
    # use: subclassing it imports numpy.random, which only commands that
    # draw need, so importing the CLI does not load it.
    from numpy.random.bit_generator import ISeedSequence

    class _PrecomputedSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's four uint64 words are precomputed")
            return self.words

    return _PrecomputedSeed


def _rngs(seed, streams) -> list[np.random.Generator]:
    """One generator per stream tuple, each in exactly the state of
    ``_rng(seed, *stream)``: ``default_rng(SeedSequence((seed, *stream)))``.

    The seed sequences are hashed together, one vectorised pass per
    entropy length, and each PCG64 is handed its words; only building the
    generators is left per stream.  A negative seed or stream entry raises
    ``ValueError``, as ``SeedSequence`` does."""
    head = _words(int(seed))
    entropy = [head + [w for e in stream for w in _words(e)] for stream in streams]
    by_length: dict[int, list[int]] = {}
    for i, e in enumerate(entropy):
        by_length.setdefault(len(e), []).append(i)
    states = np.empty((len(entropy), 4), dtype=np.uint64)
    for idx in by_length.values():
        states[idx] = _seed_states(np.array([entropy[i] for i in idx], dtype=np.uint32).T)
    seed_of = _precomputed_seed()
    return [np.random.Generator(np.random.PCG64(seed_of(s))) for s in states]


def _brownian_points(rngs, cfg: SimConfig) -> np.ndarray:
    # (len(rngs), T + 1, d) Brownian points from the origin; each
    # generator draws its increments as one normal block into its row,
    # and one cumulative sum over all rows adds them up in the order a
    # per-row sum would
    rngs = list(rngs)
    n = cfg.steps
    sd = math.sqrt(cfg.resolution)
    points = np.zeros((len(rngs), n + 1, cfg.dim))
    steps = points[:, 1:]
    for rng, row in zip(rngs, steps):
        row[:] = rng.normal(0.0, sd, size=(n, cfg.dim))
    np.cumsum(steps, axis=1, out=steps)
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


def _mix(rho: float, signal: np.ndarray, noise: np.ndarray) -> np.ndarray:
    # rho signal + sqrt(1 - rho^2) noise, computed in the two inputs
    signal *= rho
    noise *= math.sqrt(1.0 - rho * rho)
    signal += noise
    return signal


def _draw_bytes(n: int, cfg: SimConfig) -> int:
    """Estimated bytes of drawing ``n`` tracks with either model, beside the
    tracks, which their signing counts: per track a generator (about 1 KiB),
    a base path, two track-sized working arrays and five grid-sized ones:
    the warp's times, indices, spacings, gathers and hits, or spiral terms."""
    return n * (1024 + 8 * (cfg.steps + 1) * (3 * cfg.dim + 6))


@dataclass(frozen=True)
class _Model:
    """What the two models share: the mixing weight ``rho`` in [0, 1],
    the simulation settings, and ``sample_path`` as the one-row case of
    ``sample_paths``."""

    rho: float
    cfg: SimConfig

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")

    def sample_path(self, rng, condition) -> PiecewiseLinearPath:
        return make_path(self.sample_paths([rng], [condition])[0], self.cfg.times)


@dataclass(frozen=True)
class SpiralModel(_Model):
    """Conditional sampler for the spiral family: the condition is the
    angular velocity, the track is the spiral ``t (cos omega t, sin omega
    t)`` mixed with fresh noise."""

    def __post_init__(self):
        super().__post_init__()
        if self.cfg.dim != 2:
            raise ValueError("spiral model is planar; use dim=2")

    def sample_condition(self, rng) -> float:
        """Uniform angular velocity on [0, OMEGA_MAX)."""
        return float(rng.uniform(0.0, OMEGA_MAX))

    def sample_paths(self, rngs, conditions) -> np.ndarray:
        """One track per generator and angular velocity, stacked
        ``(n, T + 1, 2)``."""
        noise = _brownian_points(rngs, self.cfg)
        t = self.cfg.times
        wt = np.asarray(conditions, dtype=float)[:, None] * t
        spiral = np.stack([t * np.cos(wt), t * np.sin(wt)], axis=-1)
        return _mix(self.rho, spiral, noise)


@dataclass(frozen=True)
class WarpedMixModel(_Model):
    """Conditional sampler for the warped mixture: the condition is the
    base path, the track mixes its power warp, with exponent uniform on
    [1, 10), and fresh noise."""

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
