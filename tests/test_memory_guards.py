"""Each pipeline's memory guard against the peak it guards.

The traced peak of a call stays within its guard's estimate, and the
estimate within three times that peak, so the guard stays a bound on
the call and not a blanket constant.  The estimates count
``_gram_index``'s arrays, so its cache is emptied before each measured
call and the peak includes building them; one unmeasured call first
takes numpy's one-time allocations out of the peak.
"""

import importlib
import re
import tracemalloc

import numpy as np
import pytest

from trackscore.experiments import mi_point, run_warp_experiment
from trackscore.scoring import LEFT, RIGHT, EmpiricalMeasure, _gram_index, bayes_act, divergence
from trackscore.signature import make_path, signatures

# the module, whose name the package's signature() function shadows
signature_module = importlib.import_module("trackscore.signature")


def _paths(n_paths, n_segments, seed=0):
    rng = np.random.default_rng(seed)
    return [
        make_path(np.cumsum(0.1 * rng.standard_normal((n_segments + 1, 2)), axis=0))
        for _ in range(n_paths)
    ]


def _signing(n_paths, n_segments, depth):
    paths = _paths(n_paths, n_segments)
    return lambda: signatures(paths, depth)


def _act(n_paths, n_segments, depth):
    mu = EmpiricalMeasure.uniform(_paths(n_paths, n_segments))
    return lambda: bayes_act(mu, RIGHT, depth)


def _divergence(n_paths, n_segments, depth):
    nu, mu = (EmpiricalMeasure.uniform(_paths(n_paths, n_segments, s)) for s in (1, 2))
    return lambda: divergence(nu, mu, LEFT, depth)


def _mi(kind, n_u, n_x):
    return lambda: mi_point(kind, 0.5, n_u, n_x, 4, 1)


def _warp(n_points, resolution, depth, gammas):
    return lambda: run_warp_experiment(
        gammas=gammas, depth=depth, resolution=resolution, n_points=n_points
    )


@pytest.mark.parametrize("setup, size", [
    pytest.param(_signing, (30, 100, 4), id="signatures-30x100"),
    pytest.param(_signing, (1, 20_000, 6), id="signatures-1x20000"),
    pytest.param(_act, (3, 50, 6), id="bayes_act-3x50"),
    pytest.param(_act, (30, 100, 6), id="bayes_act-30x100"),
    pytest.param(_divergence, (3, 50, 6), id="divergence-3x50"),
    pytest.param(_divergence, (30, 100, 6), id="divergence-30x100"),
    pytest.param(_mi, ("spiral", 10, 25), id="mi-spiral-10x25"),
    pytest.param(_mi, ("spiral", 20, 50), id="mi-spiral-20x50"),
    pytest.param(_mi, ("warped-mix", 10, 25), id="mi-warped-mix-10x25"),
    pytest.param(_mi, ("warped-mix", 20, 50), id="mi-warped-mix-20x50"),
    pytest.param(_warp, (13, 1e-2, 4, (1.0, 0.1, 0.01)), id="warp-13x101"),
    pytest.param(_warp, (4, 0.05, 2, (1.0,)), id="warp-4x21"),
])
def test_guard_estimate_bounds_the_traced_peak(monkeypatch, setup, size):
    call = setup(*size)
    with monkeypatch.context() as m:
        m.setattr(signature_module, "_physical_memory", lambda: 0)
        with pytest.raises(ValueError, match="needs an estimated") as refused:
            call()
    need = int(re.search(r"estimated ([\d,]+) bytes", str(refused.value))[1].replace(",", ""))
    call()
    _gram_index.cache_clear()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need <= 3 * peak, (peak, need, need / peak)
