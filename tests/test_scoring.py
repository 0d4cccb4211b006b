"""Bayes acts, losses, entropies, divergences and the MI estimator."""

import dataclasses
import importlib

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
    point_divergences,
    right_loss,
    score,
)
from trackscore.signature import concat, make_path, reverse, signature, signatures
from trackscore.stochastic import SimConfig
from trackscore.tensor_algebra import (
    TruncatedTensor,
    antipode,
    flatten,
    inverse,
    lmul_matrix,
    mul,
    norm,
    rmul_matrix,
    unit,
    unstack,
)

# the module, whose name the package's signature() function shadows
signature_module = importlib.import_module("trackscore.signature")


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


def test_point_divergence_vanishes_on_reparametrization():
    x = make_path([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    refined = make_path([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [2.0, 0.0]])
    assert point_divergence(x, refined, 4) <= 1e-12


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("depth", [0, 1, 4])
def test_point_divergences_equal_loss_of_each_quotient(width, depth):
    # the batched kernel against loss_L of the tensor quotient, row by
    # row: one x against many ys, and x_i against y_i
    rng = np.random.default_rng(20 + width * 10 + depth)
    xs = [random_path(rng, n_segments=5, dim=width) for _ in range(6)]
    ys = [random_path(rng, n_segments=7, dim=width) for _ in range(6)]
    sx, sy = signatures(xs, depth), signatures(ys, depth)
    tx, ty = unstack(sx, width), unstack(sy, width)
    one = point_divergences([lev[:1] for lev in sx], sy)
    rowwise = point_divergences(sx, sy)
    assert one.shape == rowwise.shape == (6,)
    for k in range(6):
        assert one[k] == loss_L(mul(tx[0], inverse(ty[k])))
        assert rowwise[k] == loss_L(mul(tx[k], inverse(ty[k])))
        assert point_divergence(xs[0], ys[k], depth) == one[k]


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 3, 4])
def test_point_divergences_are_expected_losses_at_point_acts(width, depth):
    # one reduction behind every loss: the point divergence of x from
    # y_k is the right expected loss of the point mass at x, taken at
    # the slice point Phi(y_k)^-1, to the bit
    from trackscore.scoring import _expected_losses

    rng = np.random.default_rng(40 + width * 10 + depth)
    x = random_path(rng, n_segments=5, dim=width)
    ys = [random_path(rng, n_segments=7, dim=width) for _ in range(8)]
    sx, sy = signatures([x], depth), signatures(ys, depth)
    rows = point_divergences(sx, sy)
    for k, sig_y in enumerate(unstack(sy, width)):
        slice_point = flatten(inverse(sig_y))
        assert rows[k] == _expected_losses(sx, np.ones(1), slice_point, RIGHT)


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


def test_slice_gradient_matches_averaged_matrix_transposes():
    # the assembled quadratic form and each signature's multiplication
    # matrix transpose (the adjoint of its product) must agree
    from trackscore.scoring import _slice_objective, _slice_problem
    from trackscore.tensor_algebra import drop_scalar, unflatten

    rng = np.random.default_rng(10)
    mu = random_measure(rng, 3)
    u = signature(mu.paths[0], 3)  # any unital point works
    for side, matrix in ((RIGHT, lmul_matrix), (LEFT, rmul_matrix)):
        prob = _slice_problem(mu, side, 3)
        _, grad = _slice_objective(prob)
        g1 = grad(u)
        g2 = 0.0 * unit(2, 3)
        for w, s in zip(prob.weights, unstack(prob.levels, prob.width)):
            prod = mul(s, u) if side == RIGHT else mul(u, s)
            term = unflatten(matrix(s).T @ flatten(prod), 2, 3)
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

    # tracks of 5 points of width 2
    cfg = SimConfig(horizon=4.0, resolution=1.0)

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
                *_slice_objective(prob), unit(2, 3),
                dataclasses.replace(CFG, step=1.0 / (1.05 * lam_max)),
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
    from trackscore.stochastic import _rng

    model, n_u, n_x, seed = _ShiftModel(0.5), 3, 5, 4
    est = mutual_information(model, n_u, n_x, RIGHT, 3, seed=seed)
    uncond = []
    for j in range(n_x):
        rng = _rng(seed, 0, j)
        uncond.append(model.sample_path(rng, model.sample_condition(rng)))
    assert est.entropy == pytest.approx(
        entropy(EmpiricalMeasure.uniform(uncond), RIGHT, 3), rel=1e-12
    )
    for k in range(n_u):
        u = model.sample_condition(_rng(seed, 1, k))
        fam = [model.sample_path(_rng(seed, 2, k, j), u) for j in range(n_x)]
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
    # refused from the model's cfg before any draw.  _ShiftModel tracks
    # have 5 points of width 2; depth 2 has D = 7.

    class Probed(_ShiftModel):
        def __init__(self, strength):
            super().__init__(strength)
            self.calls = []

        def sample_condition(self, rng):
            self.calls.append("condition")
            raise AssertionError("drew before the guard")

    # Per track: drawing a 1 KiB generator and 5 * (3 * 2 + 6) grid
    # words; signing 25 words of indices, 5 points and 4 increments of 2
    # words, the output and one accumulator of 7, 2 * 2 scaled increments
    # and 4 + 2 * 2 Horner words.  Per form of n_x signatures: 2 * n_x * 7
    # stacked, 4 * 7 * 7 for the D x D arrays, 45 gathered Gram entries
    # and 2 * n_x * 4 loss temporaries.  Once: three staging buffers of
    # at most 4 * 2 words per track, and the Gram index's 2 * 45 entries.
    def estimate(n_u, n_x):
        n = n_x * (n_u + 1)
        sign = n * (25 + (5 + 4) * 2 + 2 * 7 + 2 * 2 + 4 + 2 * 2)
        sign += 3 * min(np.getbufsize(), n * 4 * 2)
        form = (n_u + 1) * (2 * n_x * 7 + 4 * 7 * 7 + 45 + 2 * n_x * 4) + 2 * 45
        return n * (1024 + 8 * 5 * (3 * 2 + 6)) + 8 * (sign + form)

    n_u = 10**12
    model = Probed(0.5)
    with pytest.raises(ValueError, match=f"needs an estimated {estimate(n_u, 2):,} bytes"):
        mutual_information(model, n_u, 2, RIGHT, 2)
    assert model.calls == []
    # the bound is the estimate itself
    need = estimate(2, 2)
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=f"{need:,} bytes"):
        mutual_information(_ShiftModel(0.5), 2, 2, RIGHT, 2)
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need)
    assert mutual_information(_ShiftModel(0.5), 2, 2, RIGHT, 2).converged


@pytest.mark.parametrize("side, se", [(LEFT, 3.40), (RIGHT, 1.63)])
def test_mutual_information_conditional_standard_error(side, se):
    # the spread of the conditional term, on a point whose estimate
    # (mi = -8.90 on the left) is far from the truth
    from trackscore.experiments import mi_point

    est = mi_point("warped-mix", 0.5, 20, 50, 4, 3, resolution=0.05, horizon=2, side=side)
    h = np.array(est.conditional_entropies)
    assert est.conditional_se == np.std(h, ddof=1) / np.sqrt(20)
    assert est.conditional_se == pytest.approx(se, abs=0.005)


def test_act_size_guard_refuses_before_signing(monkeypatch):
    # 3 paths of 6 segments and width 2 at depth 8: D = 511, with 256
    # words in the top degree and 33 789 gathered Gram entries.  Signing
    # one path: 25 words of indices, 7 points and 6 increments of 2 words,
    # the output and one accumulator of 511, 8 * 2 scaled increments,
    # 256 + 2 * 128 Horner words and three staging buffers of 256.  The
    # form: 2 * 3 * 511 stacked, 4 * 511 * 511 for the D x D arrays, the
    # gathered entries and the index's two arrays of them, and 2 * 3 * 256
    # loss temporaries.
    from trackscore import scoring

    def unsigned(*args):
        raise AssertionError("signed past the guard")

    mu = random_measure(np.random.default_rng(13), 3)
    assert scoring._gram_index(2, 8, RIGHT)[0].size == 33_789
    sign = 25 + (7 + 6) * 2 + 2 * 511 + 8 * 2 + 256 + 2 * 128 + 3 * 256
    need = 8 * (3 * sign + 2 * 3 * 511 + 4 * 511 * 511 + 3 * 33_789 + 2 * 3 * 256)
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need - 1)
    with monkeypatch.context() as m:
        m.setattr(scoring, "signatures", unsigned)
        for call in (lambda: bayes_act(mu, RIGHT, 8), lambda: divergence(mu, mu, LEFT, 8)):
            with pytest.raises(ValueError, match=f"needs an estimated {need:,} bytes"):
                call()
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need)
    assert bayes_act(mu, RIGHT, 8).converged


def test_draw_streams_and_shared_gram_index():
    from trackscore.scoring import _gram_index
    from trackscore.stochastic import _rng

    for key in ((0, 1, 0), (7, 2, 3, 4)):
        ref = np.random.default_rng(np.random.SeedSequence(key))
        assert np.array_equal(_rng(*key).normal(size=50), ref.normal(size=50))
    # an int seed and its one-tuple name the same stream
    for seed in (0, 1, 5, 2**31 - 1, 2**32 + 5, 10**20):
        ref = np.random.default_rng(np.random.SeedSequence(seed))
        assert np.array_equal(_rng(seed).normal(size=50), ref.normal(size=50))
    q, g = _gram_index(2, 3, RIGHT)
    assert _gram_index(2, 3, RIGHT)[0] is q
    assert not q.flags.writeable and not g.flags.writeable


def test_mutual_information_refuses_tracks_that_disagree_with_cfg():
    class Longer(_ShiftModel):
        cfg = SimConfig(horizon=5.0, resolution=1.0)

    with pytest.raises(ValueError, match=r"tracks of shape \(5, 2\) disagree with cfg's \(6, 2\)"):
        mutual_information(Longer(0.5), 2, 3, RIGHT, 2)


def test_mutual_information_rejects_non_finite_tracks():
    class Overflowing(_ShiftModel):
        def sample_paths(self, rngs, conditions):
            tracks = super().sample_paths(rngs, conditions)
            tracks[-1, -1, 0] = np.inf
            return tracks

    with pytest.raises(ValueError, match="finite"):
        mutual_information(Overflowing(0.5), 2, 3, RIGHT, 2)
