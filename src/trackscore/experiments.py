"""Reproducible simulation experiments with plot-ready CSV output.

Three studies: the warp comparison (geometric divergence against DTW
variants under increasing time distortion) and two mutual-information
sweeps (spiral velocity, warped mixture).  Runners return header and
rows; the CLI serializes them.  Identical arguments give byte-identical
CSV.
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import dtw, soft_dtw, soft_dtws
from .scoring import RIGHT, MIEstimate, mutual_information, point_divergence
from .signature import make_path, signatures
from .stochastic import (
    SimConfig,
    SpiralModel,
    WarpedMixModel,
    brownian,
    power_warp,  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    power_warps,
)
from .tensor_algebra import unstack

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


def sdtw_divergence(x, y, gamma: float) -> float:
    """Debiased soft DTW: ``S(x,y) - (S(x,x) + S(y,y)) / 2``
    (Blondel, Mensch & Vert, arXiv 2010.08354).

    Unlike the raw soft value this is nonnegative, vanishes at x = y,
    and recovers plain DTW as gamma -> 0, which makes the gamma family
    directly comparable against the hard baseline.
    """
    return soft_dtw(x, y, gamma) - 0.5 * (soft_dtw(x, x, gamma) + soft_dtw(y, y, gamma))


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


def _fmt(v: float) -> str:
    return repr(float(v))


def run_warp_experiment(
    p_max: float = 25.0,
    gammas=DEFAULT_GAMMAS,
    depth: int = 4,
    resolution: float = 1e-2,
    seed: int = 0,
    n_points: int = 13,
    horizon: float = 1.0,
):
    """Distortion sweep: one Brownian track against its power warps.

    For each exponent p on a logarithmic grid in [1, p_max], compares
    the geometric point divergence (parametrization-invariant) with the
    soft DTW family and hard DTW.  Returns ``(header, rows)`` with
    columns ``p, geometric_divergence, sdtw_gamma_<g>..., dtw``.
    """
    if not p_max >= 1:
        raise ValueError("p_max must be at least 1")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    gammas = [float(g) for g in gammas]
    header = ["p", "geometric_divergence", *sdtw_columns(gammas), "dtw"]
    cfg = SimConfig(seed=seed, horizon=horizon, resolution=resolution, dim=2)
    x = brownian(cfg)
    ps = [float(p) for p in np.geomspace(1.0, p_max, n_points)]
    # the warps keep the time grid, so x and its warps are signed in
    # one batch
    warps = [make_path(w, x.times) for w in power_warps(x.points, x.times, ps)]
    sig_x, *sig_warps = unstack(signatures([x, *warps], depth), x.dim)
    # every soft value in one kernel call: (x, x), then (x, y) and (y, y)
    # per warp, each at every gamma
    pairs = [(x, x)] + [pair for y in warps for pair in ((x, y), (y, y))]
    soft = soft_dtws(
        [a for a, _ in pairs for _ in gammas],
        [b for _, b in pairs for _ in gammas],
        gammas * len(pairs),
    ).reshape(len(pairs), len(gammas))
    sdtw = soft[1::2] - 0.5 * (soft[0] + soft[2::2])
    rows = []
    for p, y, sig_y, sdtw_y in zip(ps, warps, sig_warps, sdtw.tolist()):
        rows.append([p, point_divergence(sig_x, sig_y, depth), *sdtw_y, dtw(x, y)])
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
    horizon: float = 1.0,
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
    horizon: float = 1.0,
    side: str = RIGHT,
):
    """Mutual information over a rho grid for one conditional model.

    Returns ``(header, rows, estimates)`` with CSV columns
    ``rho, mi, entropy, n_u, n_x, seed``.  Each grid point runs on its
    own derived seed, so points are independent of evaluation order.
    """
    header = ["rho", "mi", "entropy", "n_u", "n_x", "seed"]
    rows = []
    estimates = []
    for k, rho in enumerate(rhos):
        point_seed = int(
            np.random.SeedSequence((int(seed), k)).generate_state(1, np.uint64)[0]
        )
        est = mi_point(
            kind, float(rho), n_u, n_x, depth, point_seed,
            resolution=resolution, horizon=horizon, side=side,
        )
        estimates.append(est)
        rows.append([float(rho), est.mi, est.entropy, n_u, n_x, seed])
    return header, rows, estimates


def format_csv(header, rows) -> str:
    """Deterministic CSV serialization (repr floats, unix newlines)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(str(c) if isinstance(c, (int, np.integer)) else _fmt(c) for c in row)
        )
    return "\n".join(lines) + "\n"
