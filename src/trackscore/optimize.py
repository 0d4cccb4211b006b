"""Descent routines on the unital slice and on the group of signatures.

Two optimizers share a configuration type.  ``affine_descent`` performs
plain gradient descent on the affine slice of tensors with scalar part
one.  ``pansu_descent`` minimizes over group-like elements by following
degree-one directional derivatives through the group exponential, which
keeps every iterate exactly group-like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_algebra import (
    TruncatedTensor,
    dilate,
    drop_scalar,
    exp_of_vector,
    add,
    inner,
    inverse,
    is_grouplike,
    is_unital,
    mul,
    norm,
    scale,
    sub,
)

__all__ = [
    "DescentConfig",
    "DescentResult",
    "QuadraticObjective",
    "TaylorReport",
    "affine_descent",
    "pansu_gradient",
    "pansu_descent",
    "taylor_check",
    "geometric_convexity_report",
]

# Objective increases tolerated before the affine step is halved.
_INCREASE_LIMIT = 5

# Step sizes below this fraction of the initial step abort the run.
_STEP_UNDERFLOW = 1e-20

# Central-difference step of pansu_gradient, relative to 1 + norm(g).
_FD_STEP = 1e-5


@dataclass(frozen=True)
class DescentConfig:
    """Shared optimizer settings.

    ``step`` is the initial step size.  ``affine_descent`` needs one and
    raises without it; ``pansu_descent`` starts from 1.0 when it is
    ``None``.
    """

    step: float | None = None
    max_iters: int = 2000
    grad_tol: float = 1e-9

    def __post_init__(self):
        if self.step is not None and not self.step > 0:
            raise ValueError("step must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class DescentResult:
    """Terminal state of a descent run.

    ``status`` is one of ``converged``, ``budget_exhausted`` or
    ``step_underflow``; ``trace`` rows are ``(iteration, objective,
    grad_norm, step)``, one per gradient taken, at most ``max_iters + 1``.
    """

    minimizer: TruncatedTensor
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    status: str
    step: float
    halvings: int
    trace: list[tuple[int, float, float, float]]


def affine_descent(value, grad, start, cfg=None) -> DescentResult:
    """Gradient descent over tensors with scalar part pinned to one.

    ``value`` and ``grad`` evaluate the objective and its gradient; the
    gradient's scalar component is projected away so iterates stay on
    the slice.  The step is halved after five consecutive objective
    increases (restarting from the best iterate seen); vanishing steps
    abort with status ``step_underflow``.
    """
    cfg = cfg or DescentConfig()
    if not is_unital(start):
        raise ValueError("start must have scalar part 1")
    if cfg.step is None:
        raise ValueError("no step size: set cfg.step")
    step0 = step = float(cfg.step)
    u = start
    obj = float(value(u))
    best_u, best_obj = u, obj
    trace: list[tuple[int, float, float, float]] = []
    halvings = 0
    increases = 0
    iterations = 0
    status = "budget_exhausted"
    while True:
        g = drop_scalar(grad(u))
        gn = norm(g)
        trace.append((iterations, obj, gn, step))
        if gn <= cfg.grad_tol:
            status = "converged"
            best_u, best_obj = u, obj
            break
        if iterations >= cfg.max_iters:
            break
        u_new = add(u, scale(-step, g))
        obj_new = float(value(u_new))
        iterations += 1
        if obj_new > obj:
            increases += 1
            if increases >= _INCREASE_LIMIT:
                halvings += 1
                increases = 0
                step *= 0.5
                u_new, obj_new = best_u, best_obj
                if step < _STEP_UNDERFLOW * step0:
                    u, obj = best_u, best_obj
                    status = "step_underflow"
                    break
        else:
            increases = 0
        u, obj = u_new, obj_new
        if obj < best_obj:
            best_u, best_obj = u, obj
    gn_final = norm(drop_scalar(grad(best_u)))
    return DescentResult(
        minimizer=best_u,
        objective=best_obj,
        grad_norm=gn_final,
        iterations=iterations,
        converged=status == "converged",
        status=status,
        step=step,
        halvings=halvings,
        trace=trace,
    )


def pansu_gradient(f, g: TruncatedTensor) -> np.ndarray:
    """Degree-one directional derivatives of f at g.

    Component i is ``d/d eta f(g * exp(eta e_i))`` at ``eta = 0``.  With an
    ``euclidean_gradient`` attribute on f it is ``<grad f(g), g * e_i>``: the
    chain rule through the d degree-one directions only, whose degree m is
    ``g_{m-1} (x) e_i``.  Otherwise scale-relative central differences are used.
    """
    ambient = getattr(f, "euclidean_gradient", None)
    d = g.width
    if g.depth == 0:
        return np.zeros(d)
    if ambient is not None:
        w = ambient(g).levels
        return sum(g.levels[m - 1] @ w[m].reshape(-1, d) for m in range(1, g.depth + 1))
    h = _FD_STEP * (1.0 + norm(g))
    out = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fp = float(f(mul(g, exp_of_vector(e, g.depth))))
        fm = float(f(mul(g, exp_of_vector(-e, g.depth))))
        out[i] = (fp - fm) / (2.0 * h)
    return out


def pansu_descent(f, start, cfg=None) -> DescentResult:
    """Descent over group-like tensors via right-multiplied exponentials.

    The update is ``g <- g * exp(-step * Df(g))`` with Df the degree-one
    derivative of :func:`pansu_gradient`.  Steps are halved until the
    trial point strictly decreases the objective, so the accepted trace
    is strictly decreasing; a vanishing step aborts the run.
    """
    cfg = cfg or DescentConfig()
    if not is_grouplike(start):
        raise ValueError("start must be group-like")
    step0 = step = 1.0 if cfg.step is None else float(cfg.step)
    g = start
    obj = float(f(g))
    trace: list[tuple[int, float, float, float]] = []
    halvings = 0
    iterations = 0
    status = "budget_exhausted"
    while True:
        v = pansu_gradient(f, g)
        gn = float(np.linalg.norm(v))
        trace.append((iterations, obj, gn, step))
        if gn <= cfg.grad_tol:
            status = "converged"
            break
        if iterations >= cfg.max_iters:
            break
        underflow = False
        while True:
            g_try = mul(g, exp_of_vector(-step * v, g.depth))
            obj_try = float(f(g_try))
            if obj_try < obj:
                break
            halvings += 1
            step *= 0.5
            if step < _STEP_UNDERFLOW * step0:
                underflow = True
                break
        if underflow:
            status = "step_underflow"
            break
        g, obj = g_try, obj_try
        iterations += 1
    v = pansu_gradient(f, g)
    return DescentResult(
        minimizer=g,
        objective=obj,
        grad_norm=float(np.linalg.norm(v)),
        iterations=iterations,
        converged=status == "converged",
        status=status,
        step=step,
        halvings=halvings,
        trace=trace,
    )


@dataclass(frozen=True)
class QuadraticObjective:
    """Squared l2 distance to a fixed tensor, with analytic gradient."""

    target: TruncatedTensor

    def __call__(self, t: TruncatedTensor) -> float:
        diff = sub(t, self.target)
        return inner(diff, diff)

    def euclidean_gradient(self, t: TruncatedTensor) -> TruncatedTensor:
        return scale(2.0, sub(t, self.target))


@dataclass
class TaylorReport:
    """First-order expansion check along one degree-one direction.

    ``remainders[k]`` is ``|f(g exp(eta_k v)) - f(g) - eta_k Df(g).v|``.
    ``slope`` is the log-log regression slope of remainder against eta;
    a value of about 2 certifies the first-order expansion.  When all
    remainders sit at rounding level the slope is meaningless and
    ``degenerate`` is set.
    """

    etas: np.ndarray
    remainders: np.ndarray
    slope: float
    degenerate: bool


def taylor_check(f, g: TruncatedTensor, v, eta_grid) -> TaylorReport:
    etas = np.asarray(eta_grid, dtype=float).reshape(-1)
    if etas.shape[0] < 3:
        raise ValueError("eta grid needs at least 3 points")
    if np.any(etas <= 0):
        raise ValueError("eta grid must be positive")
    v = np.asarray(v, dtype=float).reshape(-1)
    f0 = float(f(g))
    directional = float(pansu_gradient(f, g) @ v)
    rems = np.array(
        [
            abs(float(f(mul(g, exp_of_vector(eta * v, g.depth)))) - f0 - eta * directional)
            for eta in etas
        ]
    )
    floor = 1e-12 * (1.0 + abs(f0))
    usable = rems > floor
    if usable.sum() < 2:
        return TaylorReport(etas, rems, float("nan"), True)
    slope = float(np.polyfit(np.log(etas[usable]), np.log(rems[usable]), 1)[0])
    return TaylorReport(etas, rems, slope, False)


def geometric_convexity_report(f, pairs, lambdas) -> list[dict]:
    """Checks ``f(g * dilate(lam, g^-1 h)) <= (1-lam) f(g) + lam f(h)``.

    Returns one record per violated (pair, lambda); this is a
    diagnostic, not a certified property of every objective.
    """
    violations = []
    for idx, (g, h) in enumerate(pairs):
        w = mul(inverse(g), h)
        fg, fh = float(f(g)), float(f(h))
        for lam in lambdas:
            lam = float(lam)
            lhs = float(f(mul(g, dilate(lam, w))))
            rhs = (1.0 - lam) * fg + lam * fh
            if lhs > rhs + 1e-12 * (1.0 + abs(rhs)):
                violations.append(
                    {"pair": idx, "lam": lam, "lhs": lhs, "rhs": rhs}
                )
    return violations
