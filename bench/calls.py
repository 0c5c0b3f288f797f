"""Run benchmark operations against clusterchain and canonicalise the results.

Every call goes through a module attribute (``optimizer.rate_family``, not a
name imported here), so wrappers and fakes installed on the package's
bindings see it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from clusterchain import cli, clusterbuild, envelope, optimizer, params, ratemodel, treecode
from ops import Op

TARGET_PCN = 0.9


@dataclass
class Inputs:
    """Seed-independent objects every pass builds during set-up."""

    device: object
    consts: object
    schedules: dict
    locus_coeffs: object

    @classmethod
    def build(cls, ops: list[Op]) -> "Inputs":
        device = params.DeviceParams()
        consts = params.derive_constants(device)
        schedules = {}
        for op in ops:
            kw = op.kw
            if op.kind in ("improved_pc1_exact", "improved_pc1_mc"):
                key = (kw["k"], kw["m"])
                if key not in schedules:
                    schedules[key] = clusterbuild.build_schedule(kw["k"], kw["m"], consts)
        m, tree = 4, treecode.BranchingVector((7, 3))
        locus_coeffs = params.chain_coefficients(
            consts, device, m, ratemodel.k_of_design(m, tree), boosted=True
        )
        return cls(device, consts, schedules, locus_coeffs)


def execute(op: Op, inputs: Inputs, done: dict):
    """Run one operation and return its raw result.

    ``done`` maps an operation kind to the raw result of its latest run, for
    the operations that consume an earlier one (crossovers, the locus).
    """
    kw = op.kw
    dev, consts = inputs.device, inputs.consts
    kind = op.kind
    if kind == "rate_family":
        return optimizer.rate_family(np.array(kw["l_km"], dtype=float), kw["ks"], dev)
    if kind == "optimize_design":
        return optimizer.optimize_design(float(kw["l_km"]), kw["k"], dev, scheme=kw["scheme"])
    if kind == "numeric_envelope":
        return envelope.numeric_envelope(
            kw["m"], treecode.BranchingVector(kw["b"]), dev, [float(x) for x in kw["l_km"]]
        )
    if kind == "crossover_distance":
        return envelope.crossover_distance(done["numeric_envelope"], dev.alpha)
    if kind == "optimize_z":
        return envelope.optimize_z(
            kw["m"], treecode.BranchingVector(kw["b"]), dev, inputs.locus_coeffs
        )
    if kind == "analytic_lb":
        return envelope.analytic_lb(
            done["optimize_z"], kw["m"], treecode.BranchingVector(kw["b"]), dev,
            inputs.locus_coeffs,
        )
    if kind == "crossover_analytic":
        return envelope.crossover_analytic(done["analytic_lb"], dev.alpha)
    if kind == "operating_point":
        return optimizer.operating_point(
            float(kw["l_km"]), kw["k"], dev, with_sources=True, method=kw["method"]
        )
    if kind == "min_sources":
        return clusterbuild.min_sources(
            kw["scheme"], kw["k"], kw["m"], kw["n"], TARGET_PCN, consts, method=kw["method"]
        )
    if kind == "improved_pc1_exact":
        sched = inputs.schedules[(kw["k"], kw["m"])]
        return clusterbuild.improved_pc1_exact(kw["n_s"], sched, consts)
    if kind == "improved_pc1_mc":
        sched = inputs.schedules[(kw["k"], kw["m"])]
        return clusterbuild.improved_pc1_mc(
            kw["n_s"], sched, consts, trials=kw["trials"], seed=kw["seed"]
        )
    if kind == "pcn_curve":
        return clusterbuild.pcn_curve(
            kw["scheme"], kw["k"], kw["m"], kw["n"], consts, list(kw["sources"]),
            method=kw["method"], trials=kw["trials"], seed=kw["seed"],
        )
    if kind == "mc_measurement_probs":
        return treecode.mc_measurement_probs(
            treecode.BranchingVector(kw["b"]), kw["eps"], samples=kw["samples"], seed=kw["seed"]
        )
    if kind == "cli":
        return replay_cli(list(kw["argv"]))
    raise ValueError(f"unknown operation kind {kind!r}")


def replay_cli(argv: list[str]) -> dict:
    """``cli.main(argv)`` in this process, with its standard output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def _design(point) -> dict:
    return {
        "m": point.m,
        "b": list(point.tree.branches),
        "n_opt": point.n_opt,
        "rate": float(point.rate_bits_per_mode),
    }


def canonical(op: Op, raw):
    """The JSON-able form of a raw result that the correctness check reads."""
    kind = op.kind
    if kind == "rate_family":
        return {str(c.k): [float(r) for r in c.rate_bits_per_mode] for c in raw}
    if kind == "optimize_design":
        return _design(raw)
    if kind == "operating_point":
        return {**_design(raw.design), "n_sources": raw.n_sources}
    if kind == "numeric_envelope":
        return [[p.l_km, p.rate_bits_per_mode, p.n_opt] for p in raw]
    if kind in ("crossover_distance", "optimize_z", "crossover_analytic", "improved_pc1_exact"):
        return float(raw)
    if kind == "analytic_lb":
        return {
            "d_coeff": raw.d_coeff, "s_exp": raw.s_exp, "l0_km": raw.l0_km,
            "q1": raw.q1, "q2": raw.q2, "q3": raw.q3, "z": raw.z,
        }
    if kind == "min_sources":
        return int(raw)
    if kind == "improved_pc1_mc":
        return [float(raw[0]), float(raw[1])]
    if kind == "pcn_curve":
        return [float(v) for v in raw]
    if kind == "mc_measurement_probs":
        return {"p_x": raw.p_x, "p_z": raw.p_z}
    if kind == "cli":
        return raw
    raise ValueError(f"unknown operation kind {kind!r}")
