"""Runs ``trackscore`` with spans recorded, for the traced cli workload.

Same arguments as the ``trackscore`` command.  The caller passes its
launch time as ``PERFBENCH_T0`` (``time.monotonic()``), the operation
index as ``PERFBENCH_OP`` and the span file as ``PERFBENCH_SPANS``.
The ``cli.import`` span runs from launch to the end of
``import trackscore.cli``; ``cli.main`` covers the command itself.
"""

import os
import sys
import time

import tracing

import trackscore.cli as cli

imported = time.monotonic()


def main() -> int:
    tracer = tracing.Tracer()
    tracer.start_op(int(os.environ["PERFBENCH_OP"]))
    t0 = float(os.environ["PERFBENCH_T0"])
    # spans are on the perf_counter clock; move the monotonic stamps onto it
    shift = time.perf_counter() - time.monotonic()
    tracer.add("cli.import", t0 + shift, imported + shift)
    tracing.install(tracer)
    code = tracer.call("cli.main", cli.main, sys.argv[1:])
    tracer.dump(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
