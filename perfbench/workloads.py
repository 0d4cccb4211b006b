"""What each workload runs, and the inputs it makes from the seed.

A workload is a round of operations that repeats unchanged until the
run's time is up, so every run attempts whole rounds of the same
operations.  The inputs depend only on the benchmark seed; the program
sees the generated inputs (arguments or CSV files), never the seed.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("mi", "cli", "warp")

# mi: one experiments.mi_point per operation at criterion 8's depth.
MI_N_U, MI_N_X, MI_DEPTH = 10, 25, 4
# (model, rho) per operation.  The rho = 1 solves exhaust the descent
# budget on every input, so they run on a fixed seed that does not
# depend on the benchmark seed and fail identically in every run.
MI_ROUND = (
    ("spiral", 0.0), ("spiral", 0.5), ("spiral", 1.0),
    ("warped-mix", 0.0), ("warped-mix", 0.25), ("warped-mix", 1.0),
)
MI_FAILING_SEED = 0

# cli: measures of 30 series x 101 points and one long track.
CLI_SERIES, CLI_POINTS, CLI_TRACK_SEGMENTS, CLI_DEPTH = 30, 101, 20_000, 4


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, derived from the benchmark seed."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in keys))
    return int(ss.generate_state(1, np.uint32)[0])


def mi_ops(seed: int) -> list[tuple[str, float, int]]:
    """``(model, rho, mi_point seed)`` for each operation of a round."""
    return [
        (kind, rho, MI_FAILING_SEED if rho == 1.0 else derive_seed(seed, 1, i))
        for i, (kind, rho) in enumerate(MI_ROUND)
    ]


def _brownian(rng, n_series: int, n_segments: int, step_sd: float) -> np.ndarray:
    steps = rng.normal(0.0, step_sd, size=(n_series, n_segments, 2))
    start = np.zeros((n_series, 1, 2))
    return np.concatenate([start, np.cumsum(steps, axis=1)], axis=1)


def cli_arrays(seed: int) -> dict[str, np.ndarray]:
    """Point arrays ``(series, points, 2)`` behind the CLI input files.

    ``a`` and ``x`` are Brownian with unit variance at the end, ``b`` is
    a narrower forecast, ``track`` one long Brownian track.
    """
    rng = np.random.default_rng(derive_seed(seed, 2))
    n = CLI_POINTS - 1
    return {
        "a": _brownian(rng, CLI_SERIES, n, 0.1),
        "b": _brownian(rng, CLI_SERIES, n, 0.07),
        "x": _brownian(rng, 1, n, 0.1),
        "track": _brownian(rng, 1, CLI_TRACK_SEGMENTS, CLI_TRACK_SEGMENTS ** -0.5),
    }


def write_csv(points: np.ndarray, dest) -> None:
    """Long-format path CSV ``series_id,t,x1,x2`` with exact floats."""
    lines = ["series_id,t,x1,x2"]
    for k, series in enumerate(points):
        for t, (x1, x2) in enumerate(series.tolist()):
            lines.append(f"s{k},{t},{x1!r},{x2!r}")
    with open(dest, "w") as f:
        f.write("\n".join(lines) + "\n")


# (name, trackscore arguments with input names for files).  An odd
# count puts the median operation time inside one group of similar
# operations (the entropies) instead of between two groups.
CLI_ROUND = (
    ("entropy-right", ["entropy", "--input", "a", "--side", "right"]),
    ("entropy-left", ["entropy", "--input", "a", "--side", "left"]),
    ("entropy-forecast", ["entropy", "--input", "b", "--side", "right"]),
    ("divergence", ["divergence", "--a", "a", "--b", "b"]),
    ("divergence-self", ["divergence", "--a", "a", "--b", "a"]),
    ("score", ["score", "--x", "x", "--measure", "b"]),
    ("sig", ["sig", "--input", "track"]),
)


def cli_ops(files: dict[str, str], out_dir: str) -> list[tuple[str, list[str], str]]:
    """``(name, trackscore arguments, result file)`` for each operation."""
    ops = []
    for name, argv in CLI_ROUND:
        dest = f"{out_dir}/{name}.{'txt' if name == 'sig' else 'csv'}"
        argv = [files.get(a, a) for a in argv] + ["--depth", str(CLI_DEPTH), "--out", dest]
        ops.append((name, argv, dest))
    return ops


def warp_seed(seed: int) -> int:
    """Seed handed to experiments.run_warp_experiment."""
    return derive_seed(seed, 3)
