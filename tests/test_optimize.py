"""Descent routines, degree-one gradients and expansion diagnostics."""

import numpy as np
import pytest

from trackscore.optimize import (
    DescentConfig,
    QuadraticObjective,
    affine_descent,
    geometric_convexity_report,
    pansu_descent,
    pansu_gradient,
    taylor_check,
)
from trackscore.tensor_algebra import (
    drop_scalar,
    exp_of_vector,
    flatten,
    inner,
    is_grouplike,
    lmul_matrix,
    mul,
    norm,
    scale,
    sub,
    unit,
)


def test_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(step=-1.0)
    with pytest.raises(ValueError):
        DescentConfig(max_iters=0)
    with pytest.raises(ValueError):
        DescentConfig(grad_tol=-1e-9)


def test_affine_descent_on_quadratic():
    target = exp_of_vector([0.3, -0.5], 3)
    obj = QuadraticObjective(target)

    def grad(t):
        return obj.euclidean_gradient(t)

    res = affine_descent(obj, grad, unit(2, 3), DescentConfig(step=0.25))
    assert res.converged
    assert res.status == "converged"
    # scalar coordinate is pinned, so the optimum matches off the scalar
    assert norm(drop_scalar(sub(res.minimizer, target))) <= 1e-8


def test_affine_descent_trace_and_csv():
    target = exp_of_vector([0.1], 2)
    obj = QuadraticObjective(target)
    cfg = DescentConfig(step=0.2, max_iters=50)
    res = affine_descent(obj, obj.euclidean_gradient, unit(1, 2), cfg)
    assert len(res.trace) >= 2
    objs = [row[1] for row in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))


def test_affine_descent_halves_on_divergence():
    # gradient of x^2 but with a step far too large for stability
    target = unit(1, 1)
    obj = QuadraticObjective(target)
    start = exp_of_vector([4.0], 1)
    cfg = DescentConfig(step=50.0, max_iters=500)
    res = affine_descent(obj, obj.euclidean_gradient, start, cfg)
    assert res.halvings > 0
    assert res.objective <= float(obj(start))


def test_pansu_gradient_analytic_matches_fd():
    rng = np.random.default_rng(0)
    for d, M in [(2, 4), (1, 1), (1, 6), (3, 1), (3, 6)]:
        target = exp_of_vector(rng.standard_normal(d), M)
        obj = QuadraticObjective(target)
        g = exp_of_vector(rng.standard_normal(d), M)
        exact = pansu_gradient(obj, g)  # uses euclidean_gradient attribute
        fd = pansu_gradient(lambda t: obj(t), g)  # plain callable, so FD
        assert np.linalg.norm(exact - fd) <= 1e-5 * (1.0 + np.linalg.norm(exact))
        # independent route: degree one of the adjoint of x -> g * x
        adjoint = lmul_matrix(g).T @ flatten(obj.euclidean_gradient(g))
        np.testing.assert_allclose(exact, adjoint[1 : 1 + d], rtol=1e-12)


def test_pansu_gradient_directional_meaning():
    obj = QuadraticObjective(exp_of_vector([1.0, 0.0], 3))
    g = unit(2, 3)
    v = pansu_gradient(obj, g)
    eta = 1e-6
    for i, e in enumerate(np.eye(2)):
        fp = obj(mul(g, exp_of_vector(eta * e, 3)))
        fm = obj(mul(g, exp_of_vector(-eta * e, 3)))
        assert v[i] == pytest.approx((fp - fm) / (2 * eta), abs=1e-5)


def test_pansu_descent_reaches_exponential_target():
    target = exp_of_vector([0.6, -0.2], 4)
    obj = QuadraticObjective(target)
    res = pansu_descent(obj, unit(2, 4), DescentConfig(max_iters=500, grad_tol=1e-10))
    assert res.converged
    assert res.objective <= 1e-8
    assert is_grouplike(res.minimizer)


def test_pansu_descent_trace_strictly_decreasing():
    target = exp_of_vector([0.4, 0.3], 3)
    obj = QuadraticObjective(target)
    cfg = DescentConfig(max_iters=200)
    res = pansu_descent(obj, exp_of_vector([-1.0, 1.0], 3), cfg)
    objs = [row[1] for row in res.trace]
    assert all(b < a for a, b in zip(objs, objs[1:]))


def test_pansu_descent_requires_grouplike_start():
    obj = QuadraticObjective(unit(2, 2))
    bad = unit(2, 2) + drop_scalar(scale(0.3, exp_of_vector([1.0, 0.0], 2)))
    lev = [lv.copy() for lv in bad.levels]
    lev[2][1] += 0.2
    from trackscore.tensor_algebra import TruncatedTensor

    with pytest.raises(ValueError, match="group-like"):
        pansu_descent(obj, TruncatedTensor(2, 2, tuple(lev)))


def test_taylor_slope_near_two():
    rng = np.random.default_rng(1)
    obj = QuadraticObjective(exp_of_vector(rng.standard_normal(2), 4))
    g = exp_of_vector(rng.standard_normal(2), 4)
    v = rng.standard_normal(2)
    rep = taylor_check(obj, g, v, [1e-1, 1e-2, 1e-3, 1e-4])
    assert not rep.degenerate
    assert rep.slope >= 1.9


def test_taylor_degenerate_on_flat_objective():
    rep = taylor_check(lambda t: 1.0, unit(2, 3), [1.0, 0.0], [1e-1, 1e-2, 1e-3])
    assert rep.degenerate
    assert np.isnan(rep.slope)


def test_taylor_grid_validation():
    obj = QuadraticObjective(unit(2, 2))
    with pytest.raises(ValueError):
        taylor_check(obj, unit(2, 2), [1.0, 0.0], [1e-1, 1e-2])
    with pytest.raises(ValueError):
        taylor_check(obj, unit(2, 2), [1.0, 0.0], [1e-1, -1e-2, 1e-3])


def test_convexity_report_flags_violations():
    # linear functional of the level-1 part: convex along the dilation
    # segment, so no violations
    def linear(t):
        return float(t.level(1)[0])

    rng = np.random.default_rng(2)
    pairs = [
        (exp_of_vector(rng.standard_normal(2), 3), exp_of_vector(rng.standard_normal(2), 3))
        for _ in range(4)
    ]
    lams = [0.25, 0.5, 0.75]
    assert geometric_convexity_report(linear, pairs, lams) == []

    # strictly concave objective must violate midpoint inequalities
    def concave(t):
        return -float(t.level(1)[0]) ** 2

    bad = geometric_convexity_report(
        concave,
        [(exp_of_vector([1.0, 0.0], 3), exp_of_vector([-1.0, 0.0], 3))],
        [0.5],
    )
    assert len(bad) == 1
    assert bad[0]["pair"] == 0 and bad[0]["lam"] == 0.5


def test_quadratic_objective_gradient_is_exact():
    rng = np.random.default_rng(3)
    target = exp_of_vector(rng.standard_normal(2), 3)
    obj = QuadraticObjective(target)
    t = exp_of_vector(rng.standard_normal(2), 3)
    g = obj.euclidean_gradient(t)
    h = 1e-7
    probe = drop_scalar(exp_of_vector(rng.standard_normal(2), 3))
    fd = (obj(t + scale(h, probe)) - obj(t - scale(h, probe))) / (2 * h)
    assert fd == pytest.approx(inner(g, probe), rel=1e-6)
