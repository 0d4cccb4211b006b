"""Output checks: each raises :class:`WrongOutput` when the program's
output disagrees with the benchmark's own computation (reference.py) or
breaks a property the method must have.  Nothing is compared against a
stored copy of earlier output.

The package is used here only to regenerate simulator draws, which are
inputs; what is checked is computed from them with reference.py.
"""

from __future__ import annotations

import csv

import numpy as np

import reference as ref

# Descent acts converge to a gradient norm of 1e-8 or better, which puts
# their losses within about 1e-15 of the closed form; 1e-9 leaves room
# for summation order and still rejects any visible error.
REL_TOL = 1e-9
# A signature fold and a pairwise Chen reduction differ by rounding.
SIG_REL_TOL = 1e-10
# Identical acts on both sides make the self-divergence cancel exactly.
ZERO_TOL = 1e-12

RESULT_HEADER = ["quantity", "side", "depth", "value", "n_samples", "seed",
                 "iterations", "grad_norm"]


class WrongOutput(Exception):
    """The program reported success with a wrong output."""


def _close(got: float, want: float, what: str, scale: float | None = None) -> None:
    scale = 1.0 + abs(want) if scale is None else scale
    if not abs(got - want) <= REL_TOL * scale:
        raise WrongOutput(f"{what}: program gives {float(got)!r}, reference {float(want)!r}")


def _form(points: np.ndarray, side: str, depth: int) -> np.ndarray:
    return ref.quad_form(ref.signatures(points, depth), side)


def check_entropy(value: float, points: np.ndarray, side: str, depth: int) -> None:
    """Entropy of the uniform measure over ``points`` (series, n, d)."""
    _, h = ref.closed_form_act(_form(points, side, depth))
    _close(value, h, f"{side} entropy")


def check_score(value: float, x: np.ndarray, measure: np.ndarray, side: str, depth: int) -> None:
    """Loss of the single path ``x`` at the measure's closed-form act."""
    u, _ = ref.closed_form_act(_form(measure, side, depth))
    _close(value, ref.expected_loss(_form(x, side, depth), u), f"{side} score")


def check_divergence(value: float, a: np.ndarray, b: np.ndarray, side: str, depth: int) -> None:
    """Divergence of forecast ``b`` when ``a`` holds: cross minus own term."""
    Qa = _form(a, side, depth)
    _, own = ref.closed_form_act(Qa)
    u_b, _ = ref.closed_form_act(_form(b, side, depth))
    cross = ref.expected_loss(Qa, u_b)
    if value < -ZERO_TOL:
        raise WrongOutput(f"{side} divergence is negative: {value!r}")
    if a.shape == b.shape and np.array_equal(a, b) and abs(value) > ZERO_TOL:
        raise WrongOutput(f"{side} divergence of a measure against itself is {value!r}")
    _close(value, cross - own, f"{side} divergence", scale=1.0 + abs(cross))


def check_signature_record(text: str, points: np.ndarray, depth: int) -> None:
    """``trackscore sig`` record (width,depth line, then one line per
    level) against the reference signature of one track."""
    lines = text.splitlines()
    width = points.shape[-1]
    if lines[:1] != [f"{width},{depth}"] or len(lines) != depth + 2:
        raise WrongOutput(f"signature record has a bad shape: {lines[:1]}, {len(lines)} lines")
    want = ref.signatures(points[None], depth)
    for m in range(depth + 1):
        got = np.array([float(tok) for tok in lines[m + 1].split(",")])
        lev = want[m][0]
        if got.shape != lev.shape or not np.all(
            np.abs(got - lev) <= SIG_REL_TOL * (1.0 + np.abs(lev).max())
        ):
            raise WrongOutput(f"signature level {m} differs from the reference")


def result_value(text: str, quantity: str, side: str, depth: int) -> float:
    """The value of a scalar command's ``--out`` result file, after
    checking that the file describes the requested quantity."""
    rows = list(csv.reader(text.splitlines()))
    if len(rows) != 2 or rows[0] != RESULT_HEADER:
        raise WrongOutput(f"result file has a bad layout: {rows[:1]}")
    row = dict(zip(RESULT_HEADER, rows[1]))
    if (row["quantity"], row["side"], row["depth"]) != (quantity, side, str(depth)):
        raise WrongOutput(f"result file describes {row['quantity']}/{row['side']}/"
                          f"{row['depth']}, not {quantity}/{side}/{depth}")
    return float(row["value"])


def check_reruns(outputs: list, what: str) -> None:
    """Every rerun of one operation gave the first run's output."""
    for k, out in enumerate(outputs[1:], start=2):
        if out != outputs[0]:
            raise WrongOutput(f"{what}: run {k} differs from run 1")


def mi_paths(kind: str, rho: float, seed: int, n_u: int, n_x: int):
    """The draws ``mutual_information`` makes: the unconditional family
    and ``n_u`` conditional families, as point arrays.  Each draw has its
    own stream ``(seed, stream, index)``, as that function documents."""
    from trackscore.stochastic import SimConfig, SpiralModel, WarpedMixModel

    cfg = SimConfig(seed=0, horizon=1.0, resolution=1e-2, dim=2)
    model = (SpiralModel if kind == "spiral" else WarpedMixModel)(rho, cfg)

    def rng(*stream):
        return np.random.default_rng(np.random.SeedSequence((int(seed),) + stream))

    uncond = []
    for j in range(n_x):
        r = rng(0, j)
        uncond.append(model.sample_path(r, model.sample_condition(r)).points)
    families = []
    for k in range(n_u):
        u = model.sample_condition(rng(1, k))
        families.append(np.stack([model.sample_path(rng(2, k, j), u).points for j in range(n_x)]))
    return np.stack(uncond), families


def check_mi(out: dict, kind: str, rho: float, seed: int, n_u: int, n_x: int, depth: int) -> None:
    """An MI estimate's entropies against the closed form on its draws."""
    uncond, families = mi_paths(kind, rho, seed, n_u, n_x)
    _, h = ref.closed_form_act(_form(uncond, "right", depth))
    _close(out["entropy"], h, f"{kind} rho={rho} entropy")
    conds = []
    for k, fam in enumerate(families):
        conds.append(ref.closed_form_act(_form(fam, "right", depth))[1])
        _close(out["conditional_entropies"][k], conds[-1],
               f"{kind} rho={rho} conditional entropy {k}")
    _close(out["mi"], h - float(np.mean(conds)), f"{kind} rho={rho} mi", scale=1.0 + abs(h))


def check_warp(header: list, rows: list, seed: int, depth: int = 4) -> None:
    """The distortion sweep, on every row: the identity row, the gamma
    ordering of the soft-DTW columns, every DTW column against the
    reference DP and the geometric divergence against reference
    signatures."""
    from trackscore.stochastic import SimConfig, brownian, power_warp

    cols = {name: i for i, name in enumerate(header)}
    sdtw = [c for c in header if c.startswith("sdtw_gamma_")]
    gammas = [float(c[len("sdtw_gamma_"):]) for c in sdtw]
    if sorted(gammas, reverse=True) != gammas or "dtw" not in cols:
        raise WrongOutput(f"unexpected warp columns {header}")
    x = brownian(SimConfig(seed=seed, horizon=1.0, resolution=1e-2, dim=2))
    for row in rows:
        p, geo, hard = row[cols["p"]], row[cols["geometric_divergence"]], row[cols["dtw"]]
        soft = [row[cols[c]] for c in sdtw]
        if p == 1.0 and (abs(geo) > ZERO_TOL or hard != 0.0):
            raise WrongOutput(f"identity warp row is not zero: {geo!r}, {hard!r}")
        if any(a < b - ZERO_TOL for a, b in zip(soft, soft[1:])):
            raise WrongOutput(f"p={p}: soft DTW not ordered by gamma: {soft}")
        if hard > soft[0] + ZERO_TOL:
            raise WrongOutput(f"p={p}: dtw {hard!r} exceeds sdtw at gamma {gammas[0]:g}")
        y = power_warp(x, p).points
        _close(hard, ref.dtw(x.points, y), f"p={p}: dtw", scale=abs(hard) + ZERO_TOL)
        for g, got in zip(gammas, soft):
            want = ref.dtw(x.points, y, g) - 0.5 * (
                ref.dtw(x.points, x.points, g) + ref.dtw(y, y, g))
            _close(got, want, f"p={p}: sdtw at gamma {g:g}", scale=1.0 + abs(want))
        # Phi(y)^-1 is the signature of y run backwards
        sigs = ref.signatures(np.stack([x.points, y[::-1]]), depth)
        diff = ref.tensor_mul([lev[0] for lev in sigs], [lev[1] for lev in sigs])
        want = float(sum(lev @ lev for lev in diff[1:]))
        _close(geo, want, f"p={p}: geometric divergence", scale=abs(want) + ZERO_TOL)
