"""Record ``refs.json``: the reference output of every input a seed can choose.

Run from the repository root with the package on the path::

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 bench/record_refs.py

It takes about five minutes on two cores.  Re-record only when a change is
meant to alter results, and say so where the change is described.
"""

from __future__ import annotations

import itertools
import json
import platform
import sys
import time

import numpy as np

import ops
from calls import TARGET_PCN, Inputs, canonical, replay_cli
from compare import REFS_PATH
from clusterchain import clusterbuild, envelope, optimizer, treecode


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _cli_argvs() -> list[list[str]]:
    """Every argv ``ops.cli_session_ops`` can produce."""
    def grid_text(lo: int, step: int) -> str:
        return f"{lo}:{lo + ops.CLI_SPAN}:{step}"

    argvs = [["constants", "--m", m, "--b", b] for m, b in ops.CLI_CONSTANTS_DESIGNS]
    for n, lo, step in itertools.product(ops.CLI_RATE_NODES, ops.CLI_LOS, ops.CLI_STEPS):
        argvs.append(["rate", "--m", "4", "--b", "7,3", "--n", str(n), "--L", grid_text(lo, step)])
    for lo, step in itertools.product(ops.CLI_LOS, ops.CLI_STEPS):
        argvs.append(["envelope", "--m", "4", "--b", "7,3", "--L", grid_text(lo, step)])
    argvs += [["optimize", "--L", str(l_km), "--k", "7"] for l_km in ops.CLI_OPTIMIZE_L]
    for step in ops.CLI_RESOURCE_STEPS:
        argvs.append(["resources", "--k", "5", "--m", "1", "--n", "20",
                      "--sources", ops.resource_sweep(step), "--method", "exact"])
    argvs += [["verify", "--seed", str(s)] for s in ops.CLI_VERIFY_SEEDS]
    return argvs


def record() -> dict:
    inputs = Inputs.build([])
    dev, consts = inputs.device, inputs.consts
    lattice = np.array(ops.L_LATTICE_KM, dtype=float)
    refs: dict = {
        "recorded_with": {
            "python": platform.python_version(), "numpy": np.__version__,
        },
    }

    _log("design layer")
    curves = optimizer.rate_family(lattice, ops.FAMILY_KS, dev)
    refs["family"] = {
        str(c.k): {str(l): float(r) for l, r in zip(ops.L_LATTICE_KM, c.rate_bits_per_mode)}
        for c in curves
    }
    refs["design"] = {}
    for scheme, ks in (("new", ops.REPEAT_KS), ("naive", (8,))):
        for k in ks:
            candidates = optimizer.design_envelopes(k, dev, scheme=scheme)
            for l_km in ops.L_LATTICE_KM:
                point = optimizer.optimize_design(float(l_km), k, dev, scheme=scheme,
                                                  candidates=candidates)
                refs["design"][f"{scheme}/{k}/{l_km}"] = canonical(
                    ops.Op.make("optimize_design"), point)

    m, b = ops.LOCUS_DESIGN
    tree = treecode.BranchingVector(b)
    env_lattice = range(min(ops.ENVELOPE_LOS), max(ops.ENVELOPE_LOS) + ops.ENVELOPE_SPAN + 1, 10)
    points = envelope.numeric_envelope(m, tree, dev, [float(x) for x in env_lattice])
    refs["numeric_envelope"] = {str(int(p.l_km)): [p.rate_bits_per_mode, p.n_opt] for p in points}
    crossings = set()
    for lo in ops.ENVELOPE_LOS:
        grid = [p for p in points if lo <= p.l_km <= lo + ops.ENVELOPE_SPAN]
        crossings.add(envelope.crossover_distance(grid, dev.alpha))
    if len(crossings) != 1:
        raise RuntimeError(f"crossover depends on the envelope grid: {sorted(crossings)}")
    refs["crossover_distance"] = crossings.pop()
    z_star = envelope.optimize_z(m, tree, dev, inputs.locus_coeffs)
    env = envelope.analytic_lb(z_star, m, tree, dev, inputs.locus_coeffs)
    refs["optimize_z"] = z_star
    refs["analytic_lb"] = canonical(ops.Op.make("analytic_lb"), env)
    refs["crossover_analytic"] = envelope.crossover_analytic(env, dev.alpha)

    refs["operating_point"] = {}
    for l_km in ops.SEARCH_L_KM:
        start = time.perf_counter()
        point = optimizer.operating_point(float(l_km), 7, dev, with_sources=True, method="exact")
        refs["operating_point"][str(l_km)] = canonical(ops.Op.make("operating_point"), point)
        _log(f"operating_point L={l_km}: n_opt={point.design.n_opt} "
             f"{time.perf_counter() - start:.2f} s")
    refs["min_sources"] = {}
    for n in ops.SEARCH_NODES:
        refs["min_sources"][f"ghz_primitive/7/4/{n}"] = clusterbuild.min_sources(
            "ghz_primitive", 7, 4, n, TARGET_PCN, consts, method="exact")
        refs["min_sources"][f"naive/8/8/{n}"] = clusterbuild.min_sources(
            "naive", 8, 8, n, TARGET_PCN, consts, method="auto")

    refs["pc1_exact"] = {}
    exact_points = [(7, 4, n_s) for stratum in ops.PC1_STRATA for n_s in stratum]
    exact_points += [(9, 4, n_s) for n_s in ops.K9_LOW + ops.K9_HIGH]
    for k, m_pc1, n_s in exact_points:
        start = time.perf_counter()
        sched = clusterbuild.build_schedule(k, m_pc1, consts)
        refs["pc1_exact"][f"{k}/{m_pc1}/{n_s}"] = clusterbuild.improved_pc1_exact(n_s, sched, consts)
        _log(f"improved_pc1_exact k={k} n_s={n_s}: {time.perf_counter() - start:.2f} s")
    refs["tree_exact"] = {
        str(eps): {"p_x": float(treecode.p_x_general(tree, eps)),
                   "p_z": float(treecode.p_z_general(tree, eps))}
        for eps in ops.TREE_MC_EPS
    }

    _log("cli")
    refs["cli"] = {" ".join(argv): replay_cli(argv) for argv in _cli_argvs()}
    return refs


def main() -> int:
    refs = record()
    with open(REFS_PATH, "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    _log(f"wrote {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
