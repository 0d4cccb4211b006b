"""Proper scoring of track-valued forecasts via signature Bayes acts.

A forecast is an empirical measure over paths.  Its Bayes act is the
unital tensor minimizing the expected quadratic loss of the signature
multiplied (left or right) by the act's inverse.  Scores, entropies,
divergences and mutual information all derive from that act.

In the inverted variable ``x = m^{-1}`` the expected loss is
``x^T Q x - 1`` on the slice ``x_0 = 1``, with ``Q = E[A^T A]`` and A the
matrix of multiplication by the signature (from the left for the right
side, from the right for the left side).  Q depends on the measure only
through the second signature moment ``G = E[s s^T]``: each entry of A is
a signature coefficient, so Q is gathered from G by a fixed index over
the ways of splitting a word into a signature word and an act word, and
no multiplication matrix is formed.  Every A is triangular with a unit
diagonal, so Q is symmetric positive definite and the act has a closed
form: ``x* = Q^{-1} e_0 / (Q^{-1})_{00}``, with entropy
``1 / (Q^{-1})_{00} - 1``.  It is taken from one Cholesky factorisation
per measure; a factorisation that fails, or a non-finite result, is
reported as ``converged=False``.

One batched reduction is behind every loss: :func:`loss_L` is its
one-tensor case, and it gives the point divergences and the expected
losses behind scores, entropies, divergences and mutual information.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .optimize import affine_descent  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .signature import PiecewiseLinearPath, _check_memory, _count, _sign_block, signature, signatures
from .stochastic import _rngs
from .tensor_algebra import (
    TruncatedTensor,
    _level_offsets,
    drop_scalar,
    flatten,
    inverse,
    inverse_levels,
    is_unital,
    lmul_matrix,  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    mul,
    mul_levels,
    norm,
    rmul_matrix,  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    split_levels,
    sub,
    tensor_dim,
    unflatten,
)

__all__ = [
    "LEFT",
    "RIGHT",
    "EmpiricalMeasure",
    "BayesAct",
    "MIEstimate",
    "loss_L",
    "left_loss",
    "right_loss",
    "bayes_act",
    "score",
    "score_with_act",
    "entropy",
    "divergence",
    "divergence_with_acts",
    "point_divergence",
    "point_divergences",
    "mutual_information",
    "expected_signature",
    "linear_divergence",
]

LEFT = "left"
RIGHT = "right"


def _check_side(side: str) -> str:
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}, got {side!r}")
    return side


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Finitely supported measure over paths.

    Weights must be nonnegative and sum to one within 1e-12.
    """

    paths: tuple[PiecewiseLinearPath, ...]
    weights: np.ndarray

    def __post_init__(self):
        if len(self.paths) == 0:
            raise ValueError("measure needs at least one path")
        dims = {p.dim for p in self.paths}
        if len(dims) != 1:
            raise ValueError("all paths must share one dimension")
        if self.weights.shape != (len(self.paths),):
            raise ValueError("need one weight per path")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")

    @classmethod
    def uniform(cls, paths) -> "EmpiricalMeasure":
        paths = tuple(paths)
        n = len(paths)
        if n == 0:
            raise ValueError("measure needs at least one path")
        return cls(paths, np.full(n, 1.0 / n))

    @classmethod
    def weighted(cls, paths, weights) -> "EmpiricalMeasure":
        return cls(tuple(paths), np.asarray(weights, dtype=float).reshape(-1))

    @property
    def dim(self) -> int:
        return self.paths[0].dim

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class BayesAct:
    """Optimal act for a measure, with solver diagnostics.

    ``iterations`` is always 0: the act is taken in closed form, and the
    field stays for the result records that report it.  ``grad_norm`` is
    the norm of the slice gradient at the returned act and ``objective``
    the expected loss there (the entropy estimate).  ``condition`` estimates
    the condition number of the quadratic form Q: ``(max L_ii / min
    L_ii)^2`` from its Cholesky factor L, a lower bound on the 2-norm
    condition number, or that number itself where the factorisation
    fails (inf when Q has non-finite entries).
    """

    value: TruncatedTensor
    side: str
    iterations: int
    grad_norm: float
    objective: float
    converged: bool
    condition: float


@dataclass(frozen=True)
class MIEstimate:
    """Mutual information estimate between a track and a condition.

    ``entropy`` is the unconditional entropy estimate entering the
    difference.  ``conditional_se`` is the standard error of the mean
    conditional entropy, ``std(conditional_entropies, ddof=1) / sqrt(n_u)``;
    it does not include the spread of the unconditional term.
    Diagnostics aggregate over all internal act solves (largest gradient
    norm and condition number; ``iterations`` is always 0, as for
    :class:`BayesAct`).
    """

    mi: float
    entropy: float
    conditional_entropies: tuple[float, ...]
    conditional_se: float
    n_u: int
    n_x: int
    seed: int
    side: str
    depth: int
    iterations: int
    grad_norm: float
    converged: bool
    condition: float


def _losses(levels) -> np.ndarray:
    """:func:`loss_L` of each element of a level batch ``(..., d**m)``; each
    degree is summed on its own axis, so a batch does not change the bits."""
    return sum((np.sum(lev * lev, axis=-1) for lev in levels[1:]), np.zeros(levels[0].shape[:-1]))


def loss_L(t: TruncatedTensor) -> float:
    """Sum of squared coefficients over degrees 1..depth.

    Invariant under the antipode, since index reversal permutes each
    degree and the sign cancels in the square.
    """
    return float(_losses(t.levels))


def _require_unital(m: TruncatedTensor) -> None:
    if not is_unital(m):
        raise ValueError("act must have scalar part 1")


def left_loss(x: PiecewiseLinearPath, m: TruncatedTensor) -> float:
    """Loss of act m against path x, inverse applied from the left."""
    _require_unital(m)
    return loss_L(mul(inverse(m), signature(x, m.depth)))


def right_loss(x: PiecewiseLinearPath, m: TruncatedTensor) -> float:
    """Loss of act m against path x, inverse applied from the right."""
    _require_unital(m)
    return loss_L(mul(signature(x, m.depth), inverse(m)))


@dataclass
class _SliceProblem:
    # Quadratic representation of psi(x) = sum_i w_i ||A_i x||^2 on the
    # unital slice, with A_i the side multiplication by signature i.
    levels: list[np.ndarray]
    weights: np.ndarray
    quad: np.ndarray
    width: int
    depth: int


@functools.lru_cache(maxsize=None)
def _gram_index(width: int, depth: int, side: str):
    """Flat ``D x D`` positions ``(q, g)``: ``Q = E[A^T A]`` is the sum of
    ``G[g]`` into ``Q[q]``, with ``G = sum_i w_i s_i s_i^T``.  Built once
    per ``(width, depth, side)``; the arrays are read-only, since every
    caller shares them.

    On the right side ``(s * x)_W`` sums ``s_u x_v`` over the splits ``W =
    uv``; on the left ``(x * s)_W`` sums over ``W = vu``.  So each word W
    of length m and each pair of act-word lengths ``j, k <= m`` add
    ``G[u_j, u_k]`` to ``Q[v_j, v_k]``.  This split arithmetic stays apart
    from ``mul_levels``: the ``(q, g)`` order fixes Q's summation order and
    so its bits, and probing the kernel would need a dense ``D x D`` matrix.
    """
    offs = _level_offsets(width, depth)
    q, g = [], []
    for m in range(depth + 1):
        words = np.arange(width**m)
        split = []  # (act word v, signature word u) of each W, per |v|
        for j in range(m + 1):
            if side == RIGHT:
                v, u = words % width**j, words // width**j
            else:
                v, u = words // width ** (m - j), words % width ** (m - j)
            split.append((offs[j] + v, offs[m - j] + u))
        for vj, uj in split:
            for vk, uk in split:
                q.append(vj * offs[-1] + vk)
                g.append(uj * offs[-1] + uk)
    q, g = np.concatenate(q), np.concatenate(g)
    q.flags.writeable = g.flags.writeable = False
    return q, g


def _width(levels) -> int:
    # the width d of a level batch; any width serves at depth 0
    return levels[1].shape[-1] if len(levels) > 1 else 1


def _quad_forms(levels, weights: np.ndarray, side: str) -> np.ndarray:
    """``Q = sum_i w_i A_i^T A_i`` for each of G measures of n paths:
    ``levels[m]`` has shape ``(G, n, d**m)`` and ``weights`` ``(G, n)``.
    Gathered from each measure's weighted Gram matrix of signatures."""
    q, g = _gram_index(_width(levels), len(levels) - 1, side)
    # sqrt(w_i) s_i stacked row-wise: B^T B = sum_i w_i s_i s_i^T
    stacked = np.concatenate(levels, axis=-1) * np.sqrt(weights)[..., None]
    n_measures, dim = stacked.shape[0], stacked.shape[-1]
    gram = (np.swapaxes(stacked, 1, 2) @ stacked).reshape(n_measures, -1)
    quads = np.zeros((dim * dim, n_measures))
    np.add.at(quads, q, gram.T[g])
    return quads.T.reshape(n_measures, dim, dim)


def _expected_losses(levels, weights: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
    """``E loss_L`` at the slice point ``x`` of each measure, shape
    ``(..., D)``, over signature levels ``(..., n, d**m)``.  The products
    are summed directly, which keeps a value near zero accurate where
    ``x^T Q x - 1`` would cancel."""
    xl = [lev[..., None, :] for lev in split_levels(x, _width(levels), len(levels) - 1)]
    prod = mul_levels(levels, xl) if side == RIGHT else mul_levels(xl, levels)
    return np.sum(weights * _losses(prod), axis=-1)


def _slice_problem(mu: EmpiricalMeasure, side: str, depth: int) -> _SliceProblem:
    _check_side(side)
    # signatures, plus the Gram matrix, the gathered form and its factor
    dim = tensor_dim(mu.dim, depth)
    _check_memory(
        8 * (len(mu) * dim + 3 * dim * dim),
        f"an act over {_count(len(mu))} paths of width {mu.dim} at depth {depth}",
    )
    levels = signatures(mu.paths, depth)
    quad = _quad_forms([lev[None] for lev in levels], mu.weights[None], side)[0]
    return _SliceProblem(levels, mu.weights, quad, mu.dim, depth)


def _slice_objective(prob: _SliceProblem):
    # psi(u) - 1 and its slice gradient, on tensors.
    quad, width, depth = prob.quad, prob.width, prob.depth

    def value(u: TruncatedTensor) -> float:
        vec = flatten(u)
        return float(vec @ (quad @ vec)) - 1.0

    def grad(u: TruncatedTensor) -> TruncatedTensor:
        vec = flatten(u)
        return drop_scalar(unflatten(2.0 * (quad @ vec), width, depth))

    return value, grad


@dataclass
class _Solution:
    # Slice minimizers of a stack of forms, one row per measure.
    x: np.ndarray
    grad_norm: np.ndarray
    converged: np.ndarray
    condition: np.ndarray


def _cholesky(quads: np.ndarray) -> np.ndarray:
    # Factors of a stack of forms; a form that is not positive definite
    # to working precision gets a NaN factor instead of failing the rest.
    try:
        return np.linalg.cholesky(quads)
    except np.linalg.LinAlgError:
        out = np.full_like(quads, np.nan)
        for k, q in enumerate(quads):
            try:
                out[k] = np.linalg.cholesky(q)
            except np.linalg.LinAlgError:
                pass
        return out


def _closed_form(chol: np.ndarray) -> np.ndarray:
    # x* = Q^-1 e0 / (Q^-1)_00 for each factor Q = L L^T in the stack:
    # c = L^-1 e0, z = L^-T c = Q^-1 e0.  Rows whose factorisation
    # failed stay NaN.
    ok = np.isfinite(chol).all(axis=(1, 2))
    x = np.full(chol.shape[:2], np.nan)
    if ok.any():
        e0 = np.zeros((chol.shape[-1], 1))
        e0[0] = 1.0
        c = np.linalg.solve(chol[ok], e0)
        z = np.linalg.solve(np.swapaxes(chol[ok], 1, 2), c)[..., 0]
        x[ok] = z / z[:, :1]
    return x


def _condition(quads: np.ndarray, chol: np.ndarray) -> np.ndarray:
    # BayesAct.condition for each form.  The SVD runs only for forms
    # whose factorisation failed.
    diag = np.diagonal(chol, axis1=1, axis2=2)
    cond = (diag.max(axis=1) / diag.min(axis=1)) ** 2
    failed = ~np.isfinite(cond)
    for k in np.flatnonzero(failed):
        cond[k] = np.linalg.cond(quads[k]) if np.isfinite(quads[k]).all() else np.inf
    return cond


def _solve(quads: np.ndarray) -> _Solution:
    """Slice minimizers of a stack of forms ``(k, D, D)``, in closed form."""
    chol = _cholesky(quads)
    x = _closed_form(chol)
    grads = 2.0 * np.linalg.norm((quads @ x[..., None])[:, 1:, 0], axis=-1)
    converged = np.isfinite(x).all(axis=1) & np.isfinite(grads)
    return _Solution(x, grads, converged, _condition(quads, chol))


def _act(mu: EmpiricalMeasure, side: str, depth: int):
    # The act, its slice point x = act^-1 as a flat vector, and the
    # problem holding the measure's signatures.
    prob = _slice_problem(mu, side, depth)
    sol = _solve(prob.quad[None])
    x = sol.x[0]
    act = BayesAct(
        value=inverse(unflatten(x, prob.width, depth)),
        side=side,
        iterations=0,
        grad_norm=float(sol.grad_norm[0]),
        objective=float(_expected_losses(prob.levels, prob.weights, x, side)),
        converged=bool(sol.converged[0]),
        condition=float(sol.condition[0]),
    )
    return act, x, prob


def bayes_act(mu: EmpiricalMeasure, side: str, depth: int) -> BayesAct:
    """Minimizer of the expected side loss over unital acts, in closed form.

    For a point mass this returns the signature of its path.  The
    reported objective is the expected loss at the returned act, i.e.
    the entropy estimate of the measure.
    """
    return _act(mu, side, depth)[0]


def score_with_act(x: PiecewiseLinearPath, mu: EmpiricalMeasure, side: str, depth: int):
    """:func:`score` together with the act of mu."""
    if x.dim != mu.dim:
        raise ValueError("outcome and forecast must share one dimension")
    act, u, _ = _act(mu, side, depth)
    return float(_expected_losses(signatures([x], depth), np.ones(1), u, side)), act


def score(x: PiecewiseLinearPath, mu: EmpiricalMeasure, side: str, depth: int) -> float:
    """Proper score of forecast mu at outcome path x."""
    return score_with_act(x, mu, side, depth)[0]


def entropy(mu: EmpiricalMeasure, side: str, depth: int) -> float:
    """Expected score of mu against itself (generalized entropy)."""
    return bayes_act(mu, side, depth).objective


def divergence_with_acts(nu: EmpiricalMeasure, mu: EmpiricalMeasure, side: str, depth: int):
    """:func:`divergence` together with the acts of mu and nu, in that
    order.  Each measure's paths are signed once; nu's signatures serve
    both the cross term and nu's own entropy."""
    if nu.dim != mu.dim:
        raise ValueError("measures must share one dimension")
    act_mu, x_mu, _ = _act(mu, side, depth)
    act_nu, _, prob_nu = _act(nu, side, depth)
    cross = _expected_losses(prob_nu.levels, prob_nu.weights, x_mu, side)
    return float(cross) - act_nu.objective, act_mu, act_nu


def divergence(nu: EmpiricalMeasure, mu: EmpiricalMeasure, side: str, depth: int) -> float:
    """Excess expected score of forecasting mu when nu holds.

    Nonnegative up to solver tolerance, zero when the measures agree.
    """
    return divergence_with_acts(nu, mu, side, depth)[0]


def point_divergence(x: PiecewiseLinearPath, y: PiecewiseLinearPath, depth: int) -> float:
    """Divergence between the point masses at paths x and y:
    ``loss_L(Phi(x) Phi(y)^{-1})``, the right score of x at the act
    ``Phi(y)``.  Vanishes exactly when the two paths trace the same
    track.  Signatures already at hand go to :func:`point_divergences`.
    """
    return right_loss(x, signature(y, depth))


def point_divergences(sx, sy) -> np.ndarray:
    """:func:`point_divergence` row by row over signature level batches
    ``(rows, d**m)``; a one-row ``sx`` is taken against every row of
    ``sy``.  Each value equals :func:`loss_L` of that row's quotient
    ``Phi(x) Phi(y)^{-1}`` bit for bit."""
    return _losses(mul_levels(sx, inverse_levels(sy)))


def expected_signature(mu: EmpiricalMeasure, depth: int) -> TruncatedTensor:
    """Weighted average of path signatures (the flat-geometry act)."""
    levels = signatures(mu.paths, depth)
    return TruncatedTensor(mu.dim, depth, tuple(mu.weights @ lev for lev in levels))


def linear_divergence(mu: EmpiricalMeasure, nu: EmpiricalMeasure, depth: int) -> float:
    """Squared distance between expected signatures."""
    if nu.dim != mu.dim:
        raise ValueError("measures must share one dimension")
    diff = sub(expected_signature(mu, depth), expected_signature(nu, depth))
    return norm(diff) ** 2


def _check_size(n_u: int, n_x: int, points: int, width: int, depth: int) -> None:
    """Refuses an estimate whose draws, signatures, Gram matrices and
    forms would not fit in physical memory, before they are allocated.
    ``points`` is the number of breakpoints per track."""
    draws = n_x * (n_u + 1)
    dim = tensor_dim(width, depth)
    _check_memory(
        8 * (draws * (points * width + dim) + 2 * (n_u + 1) * dim * dim),
        f"mutual information with n_u={_count(n_u)}, n_x={_count(n_x)} and depth {depth}",
    )


def mutual_information(
    model,
    n_u: int,
    n_x: int,
    side: str,
    depth: int,
    seed: int = 0,
) -> MIEstimate:
    """Resampling estimate of the information between track and condition.

    The model must expose ``cfg``, a ``stochastic.SimConfig``;
    ``sample_condition(rng)``; and ``sample_paths(rngs, conditions)``,
    which returns one track per generator and condition as an
    ``(n, cfg.steps + 1, cfg.dim)`` point array.  The
    estimate is the unconditional entropy of ``n_x`` fresh draws
    (condition marginalized out) minus the mean entropy of ``n_u``
    conditional families of ``n_x`` draws each.  Matching the sample
    count on both sides cancels the finite-sample entropy bias exactly
    when track and condition are independent.  Every draw uses its own
    derived seed ``(seed, stream, index)``, so results do not depend on
    draw order.  The estimate derives all its ``n_x + n_u + n_x * n_u``
    generators in one batch (``stochastic._rngs``); each stays
    bit-identical to ``default_rng(SeedSequence((seed, stream, index)))``,
    whose output NEP 19 keeps stable.

    All ``n_x * (n_u + 1)`` tracks are drawn in one ``sample_paths``
    call and signed from that point array in one batch, and the
    ``n_u + 1`` acts are solved together.  A request whose estimated
    memory exceeds the machine's physical memory raises ``ValueError``
    before anything is drawn; tracks whose shape disagrees with ``cfg``
    raise it once drawn.
    """
    _check_side(side)
    if n_u < 2 or n_x < 2:
        raise ValueError("need at least two conditions and two paths each")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    shape = (model.cfg.steps + 1, model.cfg.dim)
    _check_size(n_u, n_x, *shape, depth)
    rngs = _rngs(
        seed,
        [(0, j) for j in range(n_x)]
        + [(1, k) for k in range(n_u)]
        + [(2, k, j) for k in range(n_u) for j in range(n_x)],
    )
    draws, families = rngs[:n_x], rngs[n_x : n_x + n_u]
    conditions = [model.sample_condition(rng) for rng in draws]
    for rng in families:
        conditions.extend([model.sample_condition(rng)] * n_x)
    tracks = model.sample_paths(draws + rngs[n_x + n_u :], conditions)
    if tracks.shape[1:] != shape:
        raise ValueError(f"tracks of shape {tracks.shape[1:]} disagree with cfg's {shape}")
    if not np.isfinite(tracks).all():
        raise ValueError("simulated tracks must be finite")
    levels = [lev.reshape(n_u + 1, n_x, -1) for lev in _sign_block(tracks, depth)]
    weights = np.full((n_u + 1, n_x), 1.0 / n_x)
    sol = _solve(_quad_forms(levels, weights, side))
    h = _expected_losses(levels, weights, sol.x, side)
    cond_entropies = tuple(float(v) for v in h[1:])
    return MIEstimate(
        mi=float(h[0]) - float(np.mean(cond_entropies)),
        entropy=float(h[0]),
        conditional_entropies=cond_entropies,
        conditional_se=float(np.std(h[1:], ddof=1) / np.sqrt(n_u)),
        n_u=n_u,
        n_x=n_x,
        seed=seed,
        side=side,
        depth=depth,
        iterations=0,
        grad_norm=float(sol.grad_norm.max()),
        converged=bool(sol.converged.all()),
        condition=float(sol.condition.max()),
    )
