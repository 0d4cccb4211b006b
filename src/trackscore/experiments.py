"""Reproducible simulation experiments with plot-ready CSV output.

Three studies: the warp comparison (geometric divergence against DTW
variants under increasing time distortion) and two mutual-information
sweeps (spiral velocity, warped mixture).  Runners return header and
rows; the CLI serializes them.  Identical arguments give byte-identical
CSV.  The warp sweep takes its geometric column from one batched
kernel call, and its soft and hard DTW columns from one
``baselines.dtw_family`` pass.
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import _wavefront_bytes, dtw_family
from .baselines import dtw  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .baselines import soft_dtw  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .scoring import point_divergence  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .scoring import RIGHT, MIEstimate, mutual_information, point_divergences
from .signature import _check_memory, _count, _sign_block, _signing_bytes
from .stochastic import (
    SimConfig,
    SpiralModel,
    WarpedMixModel,
    _draw_bytes,
    brownian,
    power_warp,  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    power_warps,
)

__all__ = [
    "sdtw_divergence",
    "sdtw_columns",
    "run_warp_experiment",
    "run_mi_experiment",
    "DEFAULT_GAMMAS",
    "DEFAULT_RHOS",
]

DEFAULT_GAMMAS = (1.0, 0.1, 0.01)
DEFAULT_RHOS = (0.0, 0.25, 0.5, 0.75, 1.0)
# Time horizon of the sweeps' tracks, and mi_point's default.
HORIZON = 1.0


def sdtw_divergence(x, y, gamma: float) -> float:
    """Debiased soft DTW: ``S(x,y) - (S(x,x) + S(y,y)) / 2``
    (Blondel, Mensch & Vert, arXiv 2010.08354).

    Unlike the raw soft value this is nonnegative, vanishes at x = y,
    and recovers plain DTW as gamma -> 0, which makes the gamma family
    directly comparable against the hard baseline.
    """
    return float(_sdtw_divergences(x, [y], [gamma])[0][0, 0])


def _sdtw_divergences(x, ys, gammas) -> tuple[np.ndarray, np.ndarray]:
    """Debiased soft DTW of x against each of ys at every gamma,
    ``(len(ys), len(gammas))``, and hard DTW ``(len(ys),)``, from one
    :func:`dtw_family` call on (x, x), then (x, y) and (y, y) per y."""
    pairs = [(x, x)] + [pair for y in ys for pair in ((x, y), (y, y))]
    family = dtw_family([a for a, _ in pairs], [b for _, b in pairs], gammas)
    soft = family[:, :-1]
    return soft[1::2] - 0.5 * (soft[0] + soft[2::2]), family[1::2, -1]


def sdtw_columns(gammas) -> list[str]:
    """The warp sweep's soft-DTW column names, one per gamma.

    Raises ``ValueError`` unless every gamma is finite and positive and
    the names are distinct (``0.1`` and ``0.1000001`` both print as
    ``sdtw_gamma_0.1``).
    """
    gammas = [float(g) for g in gammas]
    if not all(math.isfinite(g) and g > 0 for g in gammas):
        raise ValueError("gamma values must be finite and positive")
    names = [f"sdtw_gamma_{g:g}" for g in gammas]
    if len(set(names)) != len(names):
        raise ValueError(f"gamma values give duplicate columns: {', '.join(names)}")
    return names


def run_warp_experiment(
    p_max: float = 25.0,
    gammas=DEFAULT_GAMMAS,
    depth: int = 4,
    resolution: float = 1e-2,
    seed: int = 0,
    n_points: int = 13,
):
    """Distortion sweep: one Brownian track against its power warps.

    For each exponent p on a logarithmic grid in [1, p_max], compares
    the geometric point divergence (parametrization-invariant) with the
    soft DTW family and hard DTW.  Returns ``(header, rows)`` with
    columns ``p, geometric_divergence, sdtw_gamma_<g>..., dtw``.  A sweep
    whose draw, signing and wavefront are estimated to need more than
    physical memory in sum raises ``ValueError`` before anything is drawn.
    """
    if not 1 <= p_max < math.inf:
        raise ValueError("p_max must be finite and at least 1")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    gammas = [float(g) for g in gammas]
    header = ["p", "geometric_divergence", *sdtw_columns(gammas), "dtw"]
    cfg = SimConfig(seed=seed, horizon=HORIZON, resolution=resolution, dim=2)
    points, tracks = cfg.steps + 1, n_points + 1
    need = _draw_bytes(tracks, cfg) + _signing_bytes(tracks, cfg.steps, cfg.dim, depth)
    _check_memory(
        need + _wavefront_bytes(2 * n_points + 1, points, points, cfg.dim, len(gammas) + 1),
        f"a warp sweep of {_count(tracks)} tracks of {_count(points)} points at depth {depth}",
    )
    x = brownian(cfg)
    ps = [float(p) for p in np.geomspace(1.0, p_max, n_points)]
    # the warps keep the time grid, so x and its warps are signed in
    # one batch; row 0 is x
    warps = power_warps(x.points, x.times, ps)
    sigs = _sign_block(np.concatenate([x.points[None], warps]), depth)
    geometric = point_divergences([lev[:1] for lev in sigs], [lev[1:] for lev in sigs])
    sdtw, hard = _sdtw_divergences(x.points, warps, gammas)
    rows = [
        [p, g, *sdtw_y, h]
        for p, g, sdtw_y, h in zip(ps, geometric.tolist(), sdtw.tolist(), hard.tolist())
    ]
    return header, rows


def _mi_model(kind: str, rho: float, cfg: SimConfig):
    if kind == "spiral":
        return SpiralModel(rho, cfg)
    if kind == "warped-mix":
        return WarpedMixModel(rho, cfg)
    raise ValueError(f"unknown model {kind!r}")


def mi_point(
    kind: str,
    rho: float,
    n_u: int,
    n_x: int,
    depth: int,
    seed: int,
    resolution: float = 1e-2,
    horizon: float = HORIZON,
    side: str = RIGHT,
) -> MIEstimate:
    """Single mutual-information estimate for one model and rho."""
    model = _mi_model(kind, rho, SimConfig(seed=0, horizon=horizon, resolution=resolution, dim=2))
    return mutual_information(model, n_u, n_x, side, depth, seed=seed)


def run_mi_experiment(
    kind: str,
    rhos=DEFAULT_RHOS,
    n_u: int = 20,
    n_x: int = 50,
    depth: int = 4,
    seed: int = 0,
    resolution: float = 1e-2,
):
    """Mutual information over a rho grid for one conditional model.

    Returns ``(header, rows, estimates)`` with CSV columns
    ``rho, mi, entropy, n_u, n_x, seed``.  Tracks run to ``HORIZON`` and
    acts are taken on the right.  Each grid point runs on its
    own derived seed, so points are independent of evaluation order.
    """
    header = ["rho", "mi", "entropy", "n_u", "n_x", "seed"]
    rows = []
    estimates = []
    for k, rho in enumerate(rhos):
        point_seed = int(
            np.random.SeedSequence((int(seed), k)).generate_state(1, np.uint64)[0]
        )
        est = mi_point(kind, float(rho), n_u, n_x, depth, point_seed, resolution=resolution)
        estimates.append(est)
        rows.append([float(rho), est.mi, est.entropy, n_u, n_x, seed])
    return header, rows, estimates

