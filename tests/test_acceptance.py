"""Acceptance suite.

Nine criteria, one test each, every test printing a single
``criterion <k> ...: PASS|FAIL`` line to the terminal (bypassing
capture) before asserting.  Tolerances and sizes are part of the
contract; do not relax them to make a failing run green.
"""

import time

import numpy as np
import pytest

from trackscore.baselines import dtw
from trackscore.experiments import mi_point, run_warp_experiment
from trackscore.optimize import (
    DescentConfig,
    QuadraticObjective,
    pansu_descent,
    taylor_check,
)
from trackscore.scoring import (
    LEFT,
    RIGHT,
    EmpiricalMeasure,
    bayes_act,
    divergence,
    entropy,
    loss_L,
    _slice_objective,
    _slice_problem,
)
from trackscore.signature import (
    concat,
    insert_midpoint,
    make_path,
    reverse,
    signature,
    translate,
)
from trackscore.tensor_algebra import (
    TruncatedTensor,
    antipode,
    dilate,
    exp_of_vector,
    flatten,
    inverse,
    mul,
    norm,
    unflatten,
    unit,
)

from oracles import iterated_integrals


def _report(capsys, k, label, checks, measured=""):
    failed = sorted({name for name, ok in checks if not ok})
    verdict = "PASS" if not failed else "FAIL"
    with capsys.disabled():
        print(f"criterion {k} ({label}): {verdict}")
    assert not failed, f"criterion {k} ({label}) failed checks: {failed} {measured}"


def _rel_ok(actual, reference, tol):
    return norm(actual - reference) <= tol * max(1.0, norm(reference))


def _random_tensor(rng, d, M, scalar=None):
    levels = [0.6 * rng.standard_normal(d**m) for m in range(M + 1)]
    if scalar is not None:
        levels[0][0] = scalar
    return TruncatedTensor(d, M, tuple(levels))


def _random_path(rng, n_segments, dim=2, scale=0.35):
    steps = scale / np.sqrt(n_segments) * rng.standard_normal((n_segments, dim))
    return make_path(np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)]))


def test_criterion_1_algebra_suite(capsys):
    # 1000 random tensors, d <= 4, M <= 5; identities to 1e-10 relative;
    # runtime budget 10 s
    rng = np.random.default_rng(20260819)
    tol = 1e-10
    checks = []
    t0 = time.perf_counter()
    for _ in range(250):  # 4 tensors per round = 1000 tensors
        d = int(rng.integers(1, 5))
        M = int(rng.integers(0, 6))
        a = _random_tensor(rng, d, M)
        b = _random_tensor(rng, d, M)
        c = _random_tensor(rng, d, M)
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        t = _random_tensor(rng, d, M, scalar=sgn * float(rng.uniform(0.5, 2.0)))
        e = unit(d, M)
        ab = mul(a, b)
        checks.append(("associativity", _rel_ok(mul(ab, c), mul(a, mul(b, c)), tol)))
        checks.append(("left_unit", _rel_ok(mul(e, a), a, tol)))
        checks.append(("right_unit", _rel_ok(mul(a, e), a, tol)))
        ti = inverse(t)
        checks.append(("right_inverse", _rel_ok(mul(t, ti), e, tol)))
        checks.append(("left_inverse", _rel_ok(mul(ti, t), e, tol)))
        checks.append(("antipode_involution", _rel_ok(antipode(antipode(a)), a, tol)))
        checks.append(
            ("antihomomorphism", _rel_ok(antipode(ab), mul(antipode(b), antipode(a)), tol))
        )
        checks.append(
            ("antipode_of_inverse", _rel_ok(antipode(ti), inverse(antipode(t)), tol))
        )
        la, laa = loss_L(a), loss_L(antipode(a))
        checks.append(("loss_antipode_inv", abs(la - laa) <= tol * max(1.0, la)))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime_10s", elapsed <= 10.0))
    _report(capsys, 1, "algebra suite", checks)


def test_criterion_2_signature_identities(capsys):
    # 500 random paths, <= 20 segments, d = 2, M = 4; 1e-9 relative;
    # runtime budget 30 s
    rng = np.random.default_rng(7)
    tol = 1e-9
    M = 4
    checks = []
    t0 = time.perf_counter()
    for _ in range(500):
        L = int(rng.integers(2, 21))
        x = _random_path(rng, L, scale=0.8)
        s = signature(x, M)

        k = int(rng.integers(1, L))
        head = make_path(x.points[: k + 1])
        tail = make_path(x.points[k:])
        checks.append(("chen", _rel_ok(mul(signature(head, M), signature(tail, M)), s, tol)))
        checks.append(("chen_concat", _rel_ok(signature(concat(head, tail), M), s, tol)))

        r = signature(reverse(x), M)
        checks.append(("reversal_antipode", _rel_ok(r, antipode(s), tol)))
        checks.append(("reversal_inverse", _rel_ok(r, inverse(s), tol)))

        refined = insert_midpoint(x, int(rng.integers(0, L)))
        checks.append(("refinement", _rel_ok(signature(refined, M), s, tol)))

        shifted = translate(x, rng.standard_normal(2))
        checks.append(("translation", _rel_ok(signature(shifted, M), s, tol)))

        lam = float(rng.uniform(0.5, 1.5))
        scaled = make_path(lam * x.points)
        checks.append(("dilation", _rel_ok(signature(scaled, M), dilate(lam, s), tol)))

        var = float(np.linalg.norm(np.diff(x.points, axis=0), axis=1).sum())
        fact, decay_ok = 1.0, True
        for m in range(1, M + 1):
            fact *= m
            if np.linalg.norm(s.level(m)) > (var**m / fact) * (1.0 + 1e-9):
                decay_ok = False
        checks.append(("factorial_decay", decay_ok))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime_30s", elapsed <= 30.0))
    _report(capsys, 2, "signature identities", checks)


def test_criterion_3_oracle_equivalence(capsys):
    # 20 random 3-segment paths against a fine Riemann-sum oracle
    rng = np.random.default_rng(11)
    checks = []
    for _ in range(20):
        x = _random_path(rng, 3, scale=1.0)
        s = signature(x, 3)
        o = iterated_integrals(x.points, 3, subdivisions=10_000)
        checks.append(("oracle_match", _rel_ok(s, o, 1e-4)))
    _report(capsys, 3, "oracle equivalence", checks)


def test_criterion_4_bayes_act_recovery(capsys):
    # point-mass acts recover signatures within 1e-6 in <= 2000 steps;
    # analytic slice gradient matches central differences to 1e-5
    rng = np.random.default_rng(13)
    checks = []
    for _ in range(20):
        L = int(rng.integers(5, 16))
        x = _random_path(rng, L)
        mu = EmpiricalMeasure.uniform([x])
        s = signature(x, 4)
        side = RIGHT if rng.random() < 0.5 else LEFT
        act = bayes_act(mu, side, 4)
        checks.append(("converged", act.converged))
        checks.append(("budget_2000", act.iterations <= 2000))
        checks.append(("act_error_1e-6", norm(act.value - s) <= 1e-6))

        prob = _slice_problem(mu, side, 4)
        value, grad = _slice_objective(prob)
        u = signature(_random_path(rng, 4), 4)
        analytic = flatten(grad(u))
        vec = flatten(u)
        fd = np.zeros_like(vec)
        h = 1e-6
        for i in range(1, vec.shape[0]):  # scalar coordinate stays pinned
            ep = vec.copy()
            ep[i] += h
            em = vec.copy()
            em[i] -= h
            fd[i] = (
                value(unflatten(ep, 2, 4)) - value(unflatten(em, 2, 4))
            ) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic))
        checks.append(("gradient_fd_1e-5", rel <= 1e-5))
    _report(capsys, 4, "bayes act recovery", checks)


def test_criterion_5_theorem_conformance(capsys):
    # structure theorems at 1e-6 on 10 random 4-path measures,
    # divergence laws and left/right entropy equality at 1e-8
    rng = np.random.default_rng(17)
    depth = 3
    checks = []
    measures = []
    for _ in range(10):
        mu = EmpiricalMeasure.uniform([_random_path(rng, 5) for _ in range(4)])
        measures.append(mu)
        y = _random_path(rng, 4)
        sig_y = signature(y, depth)

        a_right = bayes_act(mu, RIGHT, depth).value
        pushed = EmpiricalMeasure.uniform([concat(p, y) for p in mu.paths])
        a_pushed = bayes_act(pushed, RIGHT, depth).value
        checks.append(
            ("concat_equivariance", norm(a_pushed - mul(a_right, sig_y)) <= 1e-6)
        )

        a_left = bayes_act(mu, LEFT, depth).value
        rev = EmpiricalMeasure.uniform([reverse(p) for p in mu.paths])
        a_rev_right = bayes_act(rev, RIGHT, depth).value
        checks.append(
            ("reversal_duality", norm(a_rev_right - antipode(a_left)) <= 1e-6)
        )

        closed = EmpiricalMeasure.uniform(
            list(mu.paths) + [reverse(p) for p in mu.paths]
        )
        hl = entropy(closed, LEFT, depth)
        hr = entropy(closed, RIGHT, depth)
        checks.append(("left_right_entropy", abs(hl - hr) <= 1e-8))

    for nu, mu in zip(measures, measures[1:]):
        for side in (LEFT, RIGHT):
            checks.append(
                ("divergence_nonneg", divergence(nu, mu, side, depth) >= -1e-8)
            )
            checks.append(
                ("self_divergence_zero", abs(divergence(mu, mu, side, depth)) <= 1e-8)
            )
    _report(capsys, 5, "theorem conformance", checks)


def test_criterion_6_pansu_machinery(capsys):
    # expansion order along degree-one directions, then descent onto
    # single-exponential targets
    rng = np.random.default_rng(19)
    checks = []
    for _ in range(5):
        obj = QuadraticObjective(exp_of_vector(rng.standard_normal(2), 4))
        g = exp_of_vector(rng.standard_normal(2), 4)
        v = rng.standard_normal(2)
        rep = taylor_check(obj, g, v, [1e-1, 1e-2, 1e-3, 1e-4])
        checks.append(("taylor_not_degenerate", not rep.degenerate))
        checks.append(("taylor_slope_1.9", rep.slope >= 1.9))

    for _ in range(10):
        target = exp_of_vector(rng.standard_normal(2), 4)
        obj = QuadraticObjective(target)
        res = pansu_descent(
            obj,
            unit(2, 4),
            DescentConfig(max_iters=2000, grad_tol=1e-9),
        )
        objs = [row[1] for row in res.trace]
        checks.append(
            ("descent_strictly_decreasing", all(b < a for a, b in zip(objs, objs[1:])))
        )
        checks.append(("terminal_1e-6", res.objective <= 1e-6))
    _report(capsys, 6, "pansu machinery", checks)


def test_criterion_7_warp_experiment(capsys):
    # distortion sweep orderings at resolution 1e-2, p in [1, 25],
    # seed fixed; runtime budget 2 min
    t0 = time.perf_counter()
    header, rows = run_warp_experiment(
        p_max=25.0, gammas=(1.0, 0.1, 0.01), depth=4,
        resolution=1e-2, seed=0, n_points=13,
    )
    elapsed = time.perf_counter() - t0
    cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    geo = cols["geometric_divergence"]
    s1, s01, s001 = (
        cols["sdtw_gamma_1"], cols["sdtw_gamma_0.1"], cols["sdtw_gamma_0.01"],
    )
    hard = cols["dtw"]
    checks = [
        ("flat_geometric_curve", max(geo) <= 0.05 * max(s1)),
        ("identity_warp_row", abs(geo[0]) <= 1e-10 and abs(hard[0]) <= 1e-10),
        (
            "sdtw_ordered_by_gamma",
            all(a >= b - 1e-12 and b >= c - 1e-12 for a, b, c in zip(s1, s01, s001)),
        ),
        ("dtw_below_sdtw_1", all(h <= a + 1e-12 for h, a in zip(hard, s1))),
        ("runtime_2min", elapsed <= 120.0),
    ]
    _report(capsys, 7, "warp experiment", checks)


def test_criterion_8_mi_experiments(capsys):
    # conditional information sweeps for both simulators with
    # n_u = 20, n_x = 50, depth 4; sigma is the rho = 0 spread over
    # 10 seeds; runtime budget 10 min for the pair
    rhos = (0.0, 0.25, 0.5, 0.75, 1.0)
    seeds = range(10)
    t0 = time.perf_counter()
    checks = []
    for kind in ("spiral", "warped-mix"):
        mis = {rho: [] for rho in rhos}
        pairs = []
        converged = True
        for seed in seeds:
            for rho in rhos:
                est = mi_point(kind, rho, 20, 50, 4, seed)
                mis[rho].append(est.mi)
                pairs.append((est.mi, est.entropy))
                converged = converged and est.converged
        checks.append((f"{kind}_converged", converged))
        sigma = float(np.std(mis[0.0], ddof=1))
        means = [float(np.mean(mis[rho])) for rho in rhos]
        checks.append((f"{kind}_null_band", abs(means[0]) <= 3.0 * sigma))
        checks.append(
            (
                f"{kind}_weakly_increasing",
                all(b >= a - 1e-9 for a, b in zip(means, means[1:])),
            )
        )
        checks.append((f"{kind}_separation_3sigma", means[-1] - means[0] > 3.0 * sigma))
        checks.append(
            (
                f"{kind}_mi_below_entropy",
                all(mi <= ent + 3.0 * sigma for mi, ent in pairs),
            )
        )
    elapsed = time.perf_counter() - t0
    checks.append(("runtime_10min", elapsed <= 600.0))
    _report(capsys, 8, "mutual information experiments", checks)


def test_criterion_9_complexity(capsys):
    # signature cost linear in length; dtw cost quadratic
    rng = np.random.default_rng(23)

    def sig_seconds(L):
        pts = np.cumsum(rng.normal(0.0, 1.0 / np.sqrt(L), (L + 1, 2)), axis=0)
        path = make_path(pts)
        start = time.process_time()
        signature(path, 4)
        return time.process_time() - start

    # process CPU time, which other processes' load moves less than the
    # wall clock; the two sizes are interleaved and minima taken so a
    # transient has to survive every repetition of a size to bias the
    # ratio
    sig_seconds(10_000)  # warm up allocators
    sig_times = [(sig_seconds(100_000), sig_seconds(200_000)) for _ in range(3)]
    t_half = min(t for t, _ in sig_times)
    t_full = min(t for _, t in sig_times)
    sig_ratio = t_full / t_half

    def dtw_seconds(n):
        x = rng.normal(0.0, 1.0, (n, 2))
        y = rng.normal(0.0, 1.0, (n, 2))
        start = time.process_time()
        dtw(x, y)
        return time.process_time() - start

    dtw_seconds(100)
    dtw_times = [(dtw_seconds(400), dtw_seconds(800)) for _ in range(5)]
    d_half = min(t for t, _ in dtw_times)
    d_full = min(t for _, t in dtw_times)
    dtw_ratio = d_full / d_half
    checks = [
        ("signature_linear_2.6", sig_ratio <= 2.6),
        ("dtw_quadruples_0.7", dtw_ratio >= 4.0 * 0.7),
        ("dtw_quadruples_1.3", dtw_ratio <= 4.0 * 1.3),
    ]
    measured = f"(sig_ratio={sig_ratio:.3f}, dtw_ratio={dtw_ratio:.3f})"
    _report(capsys, 9, "complexity scaling", checks, measured)
