"""Tests of the benchmark harness itself.

Run from the repository root: ``python3 -m pytest bench/tests``.  They take
about half a minute; the expensive workload operations are not run here.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import ops
from calls import Inputs, canonical
from compare import check, compare_text, load_refs
from tracing import Tracer, rebind
from worker import check_all, run_pass

from conftest import BENCH_DIR, ROOT

SEEDS = range(200)


@pytest.fixture(scope="module")
def refs():
    return load_refs()


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    for seed in (0, 1, 12345):
        assert ops.make_ops(workload, seed) == ops.make_ops(workload, seed)
    assert len({tuple(ops.make_ops(workload, seed)) for seed in range(20)}) > 1


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_seeded_input_has_a_reference(workload, refs):
    """A reference exists for every input a seed can choose.

    ``check`` reports a missing reference as its reason, so feeding it an
    output it cannot match must give any reason except that one.
    """
    for seed in SEEDS:
        for op in ops.make_ops(workload, seed):
            reason = check(op, object(), refs)
            assert reason is None or "no reference" not in reason, (op.key, reason)


def _cheap_ops() -> list[ops.Op]:
    """Operations from every in-process kind that runs in well under a second."""
    design = ops.design_scan_ops(3)
    cheap = [op for op in design if op.kind not in ("rate_family",)][:1]
    cheap += [op for op in design if op.kind in (
        "numeric_envelope", "crossover_distance", "optimize_z", "analytic_lb",
        "crossover_analytic")]
    cheap += ops.source_search_ops(3)[1:]
    cheap.append(ops.Op.make("improved_pc1_mc", k=7, m=4, n_s=3_300_000, trials=2000, seed=5))
    cheap.append(ops.Op.make("mc_measurement_probs", b=(7, 3), eps=0.1, samples=20_000, seed=5))
    cheap += [op for op in ops.cli_session_ops(3) if op.kw["argv"][0] in ("constants", "rate", "verify")]
    return cheap


def test_tracing_leaves_outputs_unchanged():
    cheap = _cheap_ops()
    inputs = Inputs.build(cheap)
    plain, *_ = run_pass(cheap, inputs)
    tracer = Tracer()
    traced, *_ = run_pass(cheap, inputs, tracer)
    for op, a, b in zip(cheap, plain, traced):
        assert not isinstance(a, Exception), (op.key, a)
        assert canonical(op, a) == canonical(op, b), op.key
    assert tracer.nesting_problems() == []
    metrics = tracer.metrics()
    assert metrics["treecode.calls"] > 0
    assert metrics["envelope.optimize_z.calls"] >= 2
    assert metrics["clusterbuild.min_sources.calls"] == 2
    assert metrics["graphstate.checks"] > 0
    assert metrics["cli.verify.wall_s"] > 0
    # leaf calls are aggregated, not kept one span each
    assert metrics["trace.spans"] < metrics["trace.leaf_calls"] / 10
    # the wrappers are gone again
    from clusterchain import clusterbuild, optimizer

    assert optimizer.min_sources is clusterbuild.min_sources
    assert not hasattr(clusterbuild.min_sources, "__wrapped__")


def test_window_overlap_is_zero_for_disjoint_and_high_for_bisection():
    from clusterchain import clusterbuild

    inputs = Inputs.build([ops.Op.make("improved_pc1_exact", k=7, m=4, n_s=1)])
    sched = inputs.schedules[(7, 4)]
    tracer = Tracer()
    tracer.install()
    try:
        for n_s in (600_000, 1_200_000, 1_210_000):
            clusterbuild.improved_pc1_exact(n_s, sched, inputs.consts)
    finally:
        tracer.finish()
        tracer.uninstall()
    frac = tracer.metrics()["clusterbuild.exact.window_overlap_frac"]
    # windows [2656, 3592], [5586, 6910] and [5636, 6965]: the third shares
    # 1275 points with the second, the first shares none
    assert frac == pytest.approx(1275 / (937 + 1325 + 1330))


def test_injected_wrong_output_is_counted_as_failed(refs):
    from clusterchain import clusterbuild

    searches = ops.source_search_ops(3)[1:]
    inputs = Inputs.build(searches)
    raws, *_ = run_pass(searches, inputs)
    assert check_all(searches, raws, refs) == []

    original = clusterbuild.min_sources

    def off_by_one(*args, **kwargs):
        return original(*args, **kwargs) + 1

    changed = rebind(original, off_by_one)
    try:
        raws, *_ = run_pass(searches, inputs)
    finally:
        for module, name in changed:
            setattr(module, name, original)
    failures = check_all(searches, raws, refs)
    assert len(failures) == len(searches)
    assert all("!= reference" in f for f in failures)


def test_raising_operation_is_counted_as_failed(refs):
    from clusterchain import clusterbuild

    searches = ops.source_search_ops(3)[1:]
    inputs = Inputs.build(searches)

    original = clusterbuild.min_sources

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    changed = rebind(original, broken)
    try:
        raws, *_ = run_pass(searches, inputs)
    finally:
        for module, name in changed:
            setattr(module, name, original)
    failures = check_all(searches, raws, refs)
    assert len(failures) == len(searches)
    assert all("raised RuntimeError" in f for f in failures)


def test_cli_text_comparison():
    want = "# config: {\"a\": 1}\nl_km,rate\n50,0.0275603094214\n60,\n"
    assert compare_text(want, want, 1e-9) is None
    assert compare_text(want.replace("0.0275603094214", "0.0275603094215"), want, 1e-9) is None
    assert compare_text(want.replace("0.0275603094214", "0.0275613094214"), want, 1e-9)
    assert compare_text(want.replace("l_km,rate", "l_km,rate2"), want, 1e-9)
    assert compare_text(want.replace("{\"a\": 1}", "{\"a\": 1.0}"), want, 1e-9)
    assert compare_text(want.replace("60,", "60,0"), want, 1e-9)


def test_monte_carlo_is_checked_by_z_bound(refs):
    op = ops.Op.make("improved_pc1_mc", k=7, m=4, n_s=3_300_000, trials=50_000, seed=1)
    exact = refs["pc1_exact"]["7/4/3300000"]
    se = (exact * (1 - exact) / 50_000) ** 0.5
    assert check(op, [exact + 3 * se, se], refs) is None
    assert check(op, [exact - 8 * se, se], refs) is not None


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_rescales_by_mean_speed_over_the_interval():
    from run import REF_PROBE_S, SpeedProbe

    probe = object.__new__(SpeedProbe)  # the samples alone; no probe process
    probe.samples = [(0.0, REF_PROBE_S), (1.0, 2 * REF_PROBE_S), (2.0, 2 * REF_PROBE_S),
                     (3.0, REF_PROBE_S)]
    # half speed throughout [1, 2]: 1 s of wall time is 0.5 s at reference speed
    assert probe.scaled(1.0, 2.0) == pytest.approx(0.5)
    assert probe.factor(0.5, 2.5) == pytest.approx(0.5)
    assert probe.factor(-1.0, 3.5) == pytest.approx(0.75)
    # an interval between samples takes the nearest one
    assert probe.factor(2.9, 2.95) == pytest.approx(1.0)
