"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N [--trace] [--setup-only]

Set-up (importing ``clusterchain.cli``, which loads the whole package, and
building the seeded inputs) ends with a ``READY`` line on standard output;
the runner times interpreter start to that line as set-up.  With
``--setup-only`` the worker then prints the library versions and exits.
Otherwise it runs every operation of the workload back to back, times the
span from the first operation's start to the last one's end, checks each
output, and prints one JSON line.  ``cli_session`` is replayed in-process through
``cli.main(argv)``; the runner runs its untraced passes as real CLI
processes instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

READY = "READY"


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_version}


def run_pass(ops: list, inputs, tracer=None) -> tuple[list, float, float]:
    """Run ``ops`` back to back.

    Returns the raw results (or the exceptions raised) and the
    ``perf_counter`` readings at the first operation's start and the last
    one's end.

    With a tracer, its wrappers are installed for exactly the timed region.
    """
    from calls import execute

    raws, done = [], {}
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for op in ops:
            try:
                raw = execute(op, inputs, done)
            except Exception as exc:  # an operation that raises has failed
                raw = exc
            else:
                done[op.kind] = raw
            raws.append(raw)
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.finish()
            tracer.uninstall()
    return raws, t0, t1


def check_all(ops: list, raws: list, refs: dict) -> list[str]:
    """One line per failed operation: raised, or output unlike its reference."""
    from calls import canonical
    from compare import check

    failures = []
    for op, raw in zip(ops, raws):
        if isinstance(raw, Exception):
            reason = f"raised {type(raw).__name__}: {raw}"
        else:
            reason = check(op, canonical(op, raw), refs)
        if reason is not None:
            failures.append(f"{op.key}: {reason}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import clusterchain.cli  # noqa: F401
    import_s = time.perf_counter() - start

    from calls import Inputs
    from ops import make_ops

    ops = make_ops(args.workload, args.seed)
    inputs = Inputs.build(ops)
    print(READY, flush=True)
    if args.setup_only:
        print(json.dumps({"versions": _versions()}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    raws, t0, t1 = run_pass(ops, inputs, tracer)

    from compare import load_refs

    failures = check_all(ops, raws, load_refs())
    result = {
        "t0": t0,
        "t1": t1,
        "import_s": import_s,
        "attempted": len(ops),
        "failures": failures,
    }
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        result["nesting_problems"] = tracer.nesting_problems()[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
