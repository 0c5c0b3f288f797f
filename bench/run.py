#!/usr/bin/env python3
"""clusterchain benchmark runner.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh interpreter with
``src`` on the path and BLAS/OpenMP pinned to ``BLAS_THREADS`` threads.  A
run makes one pass, then more while another pass of the mean length so far
would end within ``--seconds``; each metric is the median over passes.

On a shared host a CPU's speed swings by up to 2x over tens of seconds,
which no 20-second run averages out.  So the runner pins itself, every pass
and a speed probe (``calibrate.py``) to one CPU, and rescales each measured
interval by the probe's mean speed over it relative to ``REF_PROBE_S``.
Times read as seconds at the reference speed; the raw wall times and the
factors are on the ``# passes`` line.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics ``run_s``, ``setup_s`` and ``peak_rss_mb``; the share of failed
operations is ``failed / attempted`` in the same line.  With ``--trace 1``
untraced and traced passes alternate and it reports the per-layer metrics
(see ``tracing.py``) plus ``trace.overhead_s``, the traced minus the
untraced median ``run_s``.  The lines before the result record the
environment and every pass.  See ``README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from compare import check, load_refs
from ops import WORKLOADS, make_ops
from worker import READY

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

BLAS_THREADS = 1
MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no further pass starts that would be expected to end after this
# Median time of the probe kernel on the reference host (2 shared x86-64
# cores, Python 3.11); rescaled times are seconds at that speed.
REF_PROBE_S = 1.1e-3

# Metric names and units come from the benchmark's declaration.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    start: float  # perf_counter at spawn
    ready_at: float | None  # perf_counter when READY arrived
    maxrss_mb: float


class SpeedProbe:
    """``calibrate.py`` running beside the passes, and the samples it prints."""

    def __init__(self, env: dict) -> None:
        self.samples: list[tuple[float, float]] = []
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "calibrate.py")],
                                     cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.reader = threading.Thread(target=self._read)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            start, seconds = line.split()
            self.samples.append((float(start), float(seconds)))

    def factor(self, t0: float, t1: float) -> float:
        """Mean probe speed over ``[t0, t1]``, relative to ``REF_PROBE_S``."""
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if not inside:  # an interval shorter than the probe's period
            if not self.samples:
                raise BenchError("the speed probe produced no samples")
            middle = (t0 + t1) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.fmean(REF_PROBE_S / s for s in inside)

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)

    def stop(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], env: dict) -> Child:
    """Run ``argv`` to completion in ``ROOT``; time it and read its peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    ready_at, lines = None, []
    for line in proc.stdout:
        if ready_at is None and line.rstrip("\n") == READY:
            ready_at = time.perf_counter()
        else:
            lines.append(line)
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, "".join(lines), "".join(err), start, ready_at,
                 usage.ru_maxrss / 1024.0)


def worker_pass(workload: str, seed: int, env: dict, trace: bool = False,
                setup_only: bool = False) -> tuple[Child, dict]:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    child = run_child(argv, env)
    if child.code != 0 or child.ready_at is None:
        raise BenchError(f"worker failed (exit {child.code}):\n{child.stderr[-2000:]}")
    return child, json.loads(child.stdout.strip().splitlines()[-1])


def cli_pass(seed: int, env: dict, refs: dict) -> dict:
    """One cli_session pass: every CLI call as its own process."""
    ops = make_ops("cli_session", seed)
    children = []
    t0 = time.perf_counter()
    for op in ops:
        argv = [sys.executable, "-m", "clusterchain.cli", *op.kw["argv"]]
        children.append(run_child(argv, env))
    t1 = time.perf_counter()
    failures = []
    for op, child in zip(ops, children):
        reason = check(op, {"code": child.code, "stdout": child.stdout}, refs)
        if reason is not None:
            failures.append(f"{op.key}: {reason}")
    return {"t0": t0, "t1": t1, "attempted": len(ops), "failures": failures,
            "maxrss_mb": max(c.maxrss_mb for c in children)}


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


class Run:
    """Pass bookkeeping shared by the untraced and the traced run."""

    def __init__(self, workload: str, seed: int, seconds: float, env: dict,
                 probe: SpeedProbe) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.env, self.probe = env, probe
        self.attempted, self.failures = 0, []
        self.info: dict = {"wall_s": [], "factor": []}

    def worker_pass(self, **flags) -> tuple[Child, dict]:
        child, result = worker_pass(self.workload, self.seed, self.env, **flags)
        self.attempted += result.get("attempted", 0)
        self.failures += result.get("failures", [])
        return child, result

    def scaled(self, t0: float, t1: float) -> float:
        factor = self.probe.factor(t0, t1)
        self.info["wall_s"].append(t1 - t0)
        self.info["factor"].append(factor)
        return (t1 - t0) * factor

    def setup_s(self, child: Child) -> float:
        return self.probe.scaled(child.start, child.ready_at)

    def loop(self, one_pass) -> None:
        """Call ``one_pass`` while another pass is expected to fit in the run."""
        start = time.perf_counter()
        durations = []
        while True:
            pass_start = time.perf_counter()
            one_pass()
            now = time.perf_counter()
            durations.append(now - pass_start)
            expected_end = now - start + statistics.fmean(durations)
            if expected_end > min(self.seconds, RUN_BUDGET_S):
                break

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }


def timed_run(run: Run) -> dict:
    run_s, setup_s, rss = [], [], []
    refs = load_refs() if run.workload == "cli_session" else None

    def one_pass() -> None:
        if run.workload == "cli_session":
            result = cli_pass(run.seed, run.env, refs)
            run.attempted += result["attempted"]
            run.failures += result["failures"]
            rss.append(result["maxrss_mb"])
        else:
            child, result = run.worker_pass()
            setup_s.append(run.setup_s(child))
            rss.append(child.maxrss_mb)
        run_s.append(run.scaled(result["t0"], result["t1"]))

    run.loop(one_pass)
    while len(setup_s) < MIN_SETUP_SAMPLES:
        child, _ = run.worker_pass(setup_only=True)
        setup_s.append(run.setup_s(child))
    run.info.update(run_s=run_s, setup_s=setup_s, peak_rss_mb=rss)
    metrics = {"run_s": _median(run_s), "setup_s": _median(setup_s), "peak_rss_mb": _median(rss)}
    return run.result(metrics, END_TO_END)


def traced_run(run: Run) -> dict:
    plain, traced, layer_runs, problems = [], [], [], []

    def one_pass() -> None:
        _, result = run.worker_pass()
        plain.append(run.scaled(result["t0"], result["t1"]))
        child, result = run.worker_pass(trace=True)
        traced.append(run.scaled(result["t0"], result["t1"]))
        factor = run.probe.factor(result["t0"], result["t1"])
        metrics = {k: v * factor if PER_LAYER.get(k) == "s" else v
                   for k, v in result["metrics"].items()}
        metrics["cli.import_s"] = result["import_s"] * run.probe.factor(child.start, child.ready_at)
        layer_runs.append(metrics)
        problems.extend(result["nesting_problems"])

    run.loop(one_pass)
    metrics = {name: _median([m.get(name, 0.0) for m in layer_runs]) for name in PER_LAYER}
    metrics["trace.run_s"] = _median(traced)
    metrics["trace.overhead_s"] = _median(traced) - _median(plain)
    run.info.update(untraced_run_s=plain, traced_run_s=traced, nesting_problems=problems,
                    window_overlap_frac="computed from the binomial mean +- 8.5 sigma of n_s // 6")
    result = run.result(metrics, PER_LAYER)
    if problems:
        result["correct"] = False
    return result


def environment(cpu: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clusterchain" / "__init__.py").is_file():
        print(f"error: no clusterchain sources under {ROOT / 'src'}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by the probe and every pass
    env = child_env()
    probe = SpeedProbe(env)
    try:
        # Compile the package's bytecode once so no timed set-up pays for it.
        _, warm = worker_pass(args.workload, args.seed, env, setup_only=True)
        run = Run(args.workload, args.seed, args.seconds, env, probe)
        result = (traced_run if args.trace else timed_run)(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        probe.stop()
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("# env " + json.dumps({**environment(cpu), **warm["versions"], "workload": args.workload,
                                  "seed": args.seed, "trace": args.trace}, sort_keys=True))
    print("# passes " + json.dumps(run.info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
