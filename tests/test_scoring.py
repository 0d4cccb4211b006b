"""Bayes acts, losses, entropies, divergences and the MI estimator."""

import numpy as np
import pytest

from trackscore.optimize import DescentConfig, affine_descent
from trackscore.scoring import (
    LEFT,
    RIGHT,
    EmpiricalMeasure,
    bayes_act,
    divergence,
    divergence_with_acts,
    entropy,
    expected_signature,
    left_loss,
    linear_divergence,
    loss_L,
    mutual_information,
    point_divergence,
    right_loss,
    score,
)
from trackscore.signature import concat, make_path, reverse, signature
from trackscore.tensor_algebra import (
    TruncatedTensor,
    antipode,
    inverse,
    lmul_matrix,
    mul,
    norm,
    rmul_matrix,
    unit,
)

CFG = DescentConfig(max_iters=4000, grad_tol=1e-11)


def random_path(rng, n_segments=6, dim=2, scale=0.35):
    steps = scale / np.sqrt(n_segments) * rng.standard_normal((n_segments, dim))
    return make_path(np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)]))


def random_measure(rng, n_paths, n_segments=6):
    return EmpiricalMeasure.uniform([random_path(rng, n_segments) for _ in range(n_paths)])


def test_measure_validation():
    p = make_path([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        EmpiricalMeasure.uniform([])
    with pytest.raises(ValueError):
        EmpiricalMeasure.weighted([p], [0.5])
    with pytest.raises(ValueError):
        EmpiricalMeasure.weighted([p, p], [1.5, -0.5])
    for bad in ([np.nan, np.nan], [np.inf, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalMeasure.weighted([p, p], bad)
    with pytest.raises(ValueError):
        EmpiricalMeasure.uniform([p, make_path([[0.0], [1.0]])])
    mu = EmpiricalMeasure.weighted([p, p], [0.25, 0.75])
    assert len(mu) == 2 and mu.dim == 2


def test_losses_require_unital_act():
    p = make_path([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        right_loss(p, 2.0 * unit(2, 2))
    with pytest.raises(ValueError):
        left_loss(p, 2.0 * unit(2, 2))


def test_point_mass_act_recovers_signature():
    rng = np.random.default_rng(0)
    x = random_path(rng)
    mu = EmpiricalMeasure.uniform([x])
    s = signature(x, 3)
    for side in (LEFT, RIGHT):
        act = bayes_act(mu, side, 3)
        assert act.converged
        assert norm(act.value - s) <= 1e-8
        # the optimal act scores its own point mass at zero loss
        assert entropy(mu, side, 3) == pytest.approx(0.0, abs=1e-12)


def test_entropy_matches_expected_score():
    rng = np.random.default_rng(1)
    mu = random_measure(rng, 3)
    for side in (LEFT, RIGHT):
        h = entropy(mu, side, 3)
        expected = sum(
            w * score(x, mu, side, 3) for w, x in zip(mu.weights, mu.paths)
        )
        assert h == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert h >= 0.0


def test_divergence_nonnegative_and_zero_on_self():
    rng = np.random.default_rng(2)
    mu = random_measure(rng, 3)
    nu = random_measure(rng, 4)
    for side in (LEFT, RIGHT):
        assert divergence(nu, mu, side, 3) >= -1e-10
        assert divergence(mu, mu, side, 3) == 0.0


def test_properness_on_two_point_report():
    # reporting the data-generating measure is never worse
    rng = np.random.default_rng(3)
    nu = random_measure(rng, 4)
    wrong = random_measure(rng, 2)
    for side in (LEFT, RIGHT):
        own = entropy(nu, side, 3)
        a = bayes_act(wrong, side, 3).value
        loss = right_loss if side == RIGHT else left_loss
        cross = sum(w * loss(x, a) for w, x in zip(nu.weights, nu.paths))
        assert cross >= own - 1e-10


def test_reversal_duality():
    rng = np.random.default_rng(4)
    mu = random_measure(rng, 3)
    rev = EmpiricalMeasure.weighted([reverse(p) for p in mu.paths], mu.weights)
    a_left = bayes_act(mu, LEFT, 3).value
    a_right_rev = bayes_act(rev, RIGHT, 3).value
    assert norm(a_right_rev - antipode(a_left)) <= 1e-7


def test_concat_equivariance_with_point_mass():
    rng = np.random.default_rng(5)
    mu = random_measure(rng, 3)
    y = random_path(rng, 4)
    sig_y = signature(y, 3)
    a = bayes_act(mu, RIGHT, 3).value
    pushed = EmpiricalMeasure.weighted(
        [concat(p, y) for p in mu.paths], mu.weights
    )
    a_pushed = bayes_act(pushed, RIGHT, 3).value
    assert norm(a_pushed - mul(a, sig_y)) <= 1e-7

    b = bayes_act(mu, LEFT, 3).value
    pulled = EmpiricalMeasure.weighted(
        [concat(y, p) for p in mu.paths], mu.weights
    )
    b_pulled = bayes_act(pulled, LEFT, 3).value
    assert norm(b_pulled - mul(sig_y, b)) <= 1e-7


def test_entropy_invariant_under_point_translation():
    rng = np.random.default_rng(6)
    mu = random_measure(rng, 3)
    y = random_path(rng, 4)
    left_pushed = EmpiricalMeasure.weighted(
        [concat(y, p) for p in mu.paths], mu.weights
    )
    assert entropy(left_pushed, LEFT, 3) == pytest.approx(
        entropy(mu, LEFT, 3), rel=1e-8, abs=1e-10
    )
    right_pushed = EmpiricalMeasure.weighted(
        [concat(p, y) for p in mu.paths], mu.weights
    )
    assert entropy(right_pushed, RIGHT, 3) == pytest.approx(
        entropy(mu, RIGHT, 3), rel=1e-8, abs=1e-10
    )


def test_left_right_entropy_agree_on_reversal_closed_family():
    rng = np.random.default_rng(7)
    xs = [random_path(rng, 5) for _ in range(3)]
    closed = EmpiricalMeasure.uniform(xs + [reverse(x) for x in xs])
    hl = entropy(closed, LEFT, 3)
    hr = entropy(closed, RIGHT, 3)
    assert hl == pytest.approx(hr, rel=1e-8, abs=1e-10)


def test_entropy_concave_in_the_measure():
    rng = np.random.default_rng(8)
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    lam = 0.4
    mix = EmpiricalMeasure.weighted(
        list(mu.paths) + list(nu.paths),
        np.concatenate([lam * mu.weights, (1 - lam) * nu.weights]),
    )
    for side in (LEFT, RIGHT):
        h_mix = entropy(mix, side, 3)
        bound = lam * entropy(mu, side, 3) + (1 - lam) * entropy(nu, side, 3)
        assert h_mix >= bound - 1e-10


def test_point_divergence_frozen_value():
    x = make_path([[0.0, 0.0], [1.0, 0.0]])
    y = make_path([[0.0, 0.0], [0.0, 1.0]])
    assert point_divergence(x, y, 2) == pytest.approx(3.5, rel=1e-12)
    assert point_divergence(x, x, 2) == 0.0
    assert point_divergence(y, x, 2) == pytest.approx(3.5, rel=1e-12)
    # signatures at another depth are refused, not read at their own
    with pytest.raises(ValueError, match="depth"):
        point_divergence(signature(x, 2), signature(y, 2), 4)


def test_point_divergence_vanishes_on_reparametrization():
    x = make_path([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    refined = make_path([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [2.0, 0.0]])
    assert point_divergence(x, refined, 4) <= 1e-12


def test_linear_divergence_frozen_value():
    x = make_path([[0.0, 0.0], [1.0, 0.0]])
    y = make_path([[0.0, 0.0], [0.0, 1.0]])
    mu = EmpiricalMeasure.uniform([x])
    nu = EmpiricalMeasure.uniform([y])
    assert linear_divergence(mu, nu, 2) == pytest.approx(2.5, rel=1e-12)
    assert linear_divergence(mu, mu, 2) == 0.0


def test_expected_signature_is_weighted_mean():
    rng = np.random.default_rng(9)
    xs = [random_path(rng, 4) for _ in range(3)]
    mu = EmpiricalMeasure.weighted(xs, [0.2, 0.3, 0.5])
    es = expected_signature(mu, 3)
    ref = 0.0 * unit(2, 3)
    for w, x in zip(mu.weights, xs):
        ref = ref + signature(x, 3) * float(w)
    assert norm(es - ref) <= 1e-14


def test_slice_gradient_matches_averaged_adjoints():
    # the assembled quadratic form and the adjoint route must agree
    from trackscore.scoring import _slice_objective, _slice_problem
    from trackscore.tensor_algebra import drop_scalar, lmul_adjoint, rmul_adjoint

    rng = np.random.default_rng(10)
    mu = random_measure(rng, 3)
    u = signature(mu.paths[0], 3)  # any unital point works
    for side, adj in ((RIGHT, lmul_adjoint), (LEFT, rmul_adjoint)):
        prob = _slice_problem(mu, side, 3)
        _, grad = _slice_objective(prob)
        g1 = grad(u)
        g2 = 0.0 * unit(2, 3)
        for w, s in zip(prob.weights, prob.sigs):
            term = adj(s, mul(s, u) if side == RIGHT else mul(u, s))
            g2 = g2 + term * float(2.0 * w)
        g2 = drop_scalar(g2)
        assert norm(g1 - g2) <= 1e-12 * max(1.0, norm(g1))


def test_quad_forms_match_per_path_multiplication_matrices():
    # the form gathered from the Gram matrix against sum_i w_i A_i^T A_i
    # built from each signature's multiplication matrix
    from trackscore.scoring import _quad_forms

    rng = np.random.default_rng(12)
    n_measures, n = 3, 4
    for width in (1, 2, 3):
        for depth in range(6):
            levels = [rng.standard_normal((n_measures, n, width**m)) for m in range(depth + 1)]
            weights = rng.dirichlet(np.ones(n), size=n_measures)
            for side, matrix in ((RIGHT, lmul_matrix), (LEFT, rmul_matrix)):
                quads = _quad_forms(levels, weights, side)
                for g in range(n_measures):
                    ref = 0.0
                    for i in range(n):
                        s = TruncatedTensor(width, depth, tuple(lev[g, i] for lev in levels))
                        a = matrix(s)
                        ref = ref + weights[g, i] * (a.T @ a)
                    assert np.abs(quads[g] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_mismatched_dimensions_rejected():
    x = make_path([[0.0], [1.0], [0.5]])
    mu = EmpiricalMeasure.uniform([make_path([[0.0, 0.0], [1.0, 1.0]])])
    with pytest.raises(ValueError, match="dimension"):
        score(x, mu, RIGHT, 3)
    with pytest.raises(ValueError, match="dimension"):
        divergence_with_acts(EmpiricalMeasure.uniform([x]), mu, RIGHT, 3)


class _ShiftModel:
    """Toy conditional model: condition shifts the path drift."""

    def __init__(self, strength):
        self.strength = strength

    def sample_condition(self, rng):
        return float(rng.standard_normal())

    def sample_path(self, rng, condition):
        steps = 0.2 * rng.standard_normal((4, 2))
        steps[:, 0] += self.strength * condition / 4.0
        return make_path(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]))

    def sample_paths(self, rngs, conditions):
        return np.stack([self.sample_path(r, c).points for r, c in zip(rngs, conditions)])


def test_mutual_information_validation_and_determinism():
    model = _ShiftModel(0.0)
    with pytest.raises(ValueError):
        mutual_information(model, 1, 4, RIGHT, 2)
    with pytest.raises(ValueError):
        mutual_information(model, 4, 1, RIGHT, 2)
    a = mutual_information(model, 3, 4, RIGHT, 2, seed=11)
    b = mutual_information(model, 3, 4, RIGHT, 2, seed=11)
    assert a.mi == b.mi and a.entropy == b.entropy
    c = mutual_information(model, 3, 4, RIGHT, 2, seed=12)
    assert c.mi != a.mi
    assert a.n_u == 3 and a.n_x == 4 and a.side == RIGHT and a.depth == 2
    assert len(a.conditional_entropies) == 3


def test_mutual_information_detects_dependence():
    quiet = mutual_information(_ShiftModel(0.0), 6, 12, RIGHT, 2, seed=3)
    loud = mutual_information(_ShiftModel(6.0), 6, 12, RIGHT, 2, seed=3)
    assert loud.mi > quiet.mi
    assert loud.mi > 0.0
    assert loud.mi <= loud.entropy + 1e-9


def test_side_argument_checked():
    p = make_path([[0.0, 0.0], [1.0, 1.0]])
    mu = EmpiricalMeasure.uniform([p])
    with pytest.raises(ValueError, match="side"):
        bayes_act(mu, "middle", 2)


def test_closed_form_matches_descent_and_inverse_form():
    # the closed-form act against affine descent on the same slice
    # objective under a tight config, and its entropy against
    # 1/(Q^-1)_00 - 1
    from trackscore.scoring import _slice_objective, _slice_problem

    rng = np.random.default_rng(11)
    for n_paths in (1, 2, 5):
        paths = [random_path(rng, int(rng.integers(2, 9))) for _ in range(n_paths)]
        mu = EmpiricalMeasure.weighted(paths, rng.dirichlet(np.ones(n_paths)))
        for side in (LEFT, RIGHT):
            direct = bayes_act(mu, side, 3)
            prob = _slice_problem(mu, side, 3)
            quad = prob.quad
            # step 1/lam_max puts the top mode on the stability boundary;
            # the 5% margin keeps every mode strictly contractive
            lam_max = float(np.linalg.eigvalsh(quad)[-1])
            descent = affine_descent(
                *_slice_objective(prob), unit(2, 3), CFG,
                default_step=1.0 / (1.05 * lam_max),
            )
            assert direct.converged and descent.converged
            assert direct.iterations == 0 and direct.grad_norm <= 1e-10
            assert abs(direct.objective - descent.objective) <= 1e-10
            assert norm(direct.value - inverse(descent.minimizer)) <= 1e-6
            h = 1.0 / np.linalg.inv(quad)[0, 0] - 1.0
            assert entropy(mu, side, 3) == pytest.approx(h, rel=1e-10, abs=1e-12)
            # the Cholesky-diagonal estimate bounds cond_2(Q) from below
            assert 1.0 <= direct.condition <= np.linalg.cond(quad) * (1.0 + 1e-12)


def test_closed_form_failure_is_reported_not_raised():
    # coordinates of 1e90 overflow the degree-4 signature, so Q cannot
    # be factorised
    big = make_path([[0.0, 0.0], [1e90, 0.0], [1e90, 1e90]])
    with np.errstate(over="ignore", invalid="ignore"):
        act = bayes_act(EmpiricalMeasure.uniform([big]), RIGHT, 4)
    assert not act.converged
    assert act.iterations == 0 and act.condition == np.inf


def test_mutual_information_matches_per_family_entropies():
    # the batched estimator against one entropy solve per family, on
    # the draws it documents: stream (seed, 0, j) for the unconditional
    # family, (seed, 1, k) and (seed, 2, k, j) for family k
    from trackscore.scoring import _draw_rng

    model, n_u, n_x, seed = _ShiftModel(0.5), 3, 5, 4
    est = mutual_information(model, n_u, n_x, RIGHT, 3, seed=seed)
    uncond = []
    for j in range(n_x):
        rng = _draw_rng(seed, 0, j)
        uncond.append(model.sample_path(rng, model.sample_condition(rng)))
    assert est.entropy == pytest.approx(
        entropy(EmpiricalMeasure.uniform(uncond), RIGHT, 3), rel=1e-12
    )
    for k in range(n_u):
        u = model.sample_condition(_draw_rng(seed, 1, k))
        fam = [model.sample_path(_draw_rng(seed, 2, k, j), u) for j in range(n_x)]
        assert est.conditional_entropies[k] == pytest.approx(
            entropy(EmpiricalMeasure.uniform(fam), RIGHT, 3), rel=1e-12
        )
    assert est.converged and est.iterations == 0


@pytest.mark.parametrize("kind, most", [("spiral", 0), ("warped-mix", 25 + 10)])
def test_mutual_information_builds_no_path_per_draw(monkeypatch, kind, most):
    # the 275 draws are signed from one point array; the only path
    # objects are warped-mix conditions (its base paths), n_x + n_u
    from trackscore.signature import PiecewiseLinearPath
    from trackscore.stochastic import SimConfig, SpiralModel, WarpedMixModel

    built = []
    post_init = PiecewiseLinearPath.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PiecewiseLinearPath, "__post_init__", counting)
    model = (SpiralModel if kind == "spiral" else WarpedMixModel)(0.5, SimConfig(resolution=0.05))
    est = mutual_information(model, 10, 25, RIGHT, 3, seed=1)
    assert est.converged
    assert len(built) <= most


def test_mutual_information_size_guard(monkeypatch):
    # refused before the draws: the model makes the probe's condition
    # and track, and nothing more.  _ShiftModel tracks have 5 points of
    # width 2; depth 2 has D = 7.
    from trackscore import scoring

    class Probed(_ShiftModel):
        def __init__(self, strength):
            super().__init__(strength)
            self.calls = []

        def sample_condition(self, rng):
            self.calls.append("condition")
            assert len(self.calls) == 1, "drew past the probe"
            return super().sample_condition(rng)

        def sample_paths(self, rngs, conditions):
            self.calls.append(len(rngs))
            return super().sample_paths(rngs, conditions)

    n_u = 10**12
    need = 8 * (2 * (n_u + 1) * (5 * 2 + 7) + 2 * (n_u + 1) * 7 * 7)
    model = Probed(0.5)
    with pytest.raises(ValueError, match=f"needs an estimated {need:,} bytes"):
        mutual_information(model, n_u, 2, RIGHT, 2)
    assert model.calls == ["condition", 1]
    # the bound is the estimate itself
    need = 8 * (2 * 3 * (5 * 2 + 7) + 2 * 3 * 7 * 7)
    monkeypatch.setattr(scoring, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=f"{need:,} bytes"):
        mutual_information(_ShiftModel(0.5), 2, 2, RIGHT, 2)
    monkeypatch.setattr(scoring, "_physical_memory", lambda: need)
    assert mutual_information(_ShiftModel(0.5), 2, 2, RIGHT, 2).converged


def test_mutual_information_rejects_non_finite_tracks():
    class Overflowing(_ShiftModel):
        def sample_paths(self, rngs, conditions):
            tracks = super().sample_paths(rngs, conditions)
            tracks[-1, -1, 0] = np.inf
            return tracks

    with pytest.raises(ValueError, match="finite"):
        mutual_information(Overflowing(0.5), 2, 3, RIGHT, 2)
