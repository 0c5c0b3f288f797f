"""Command-line front end: sweeps and reports over the repeater models.

Subcommands::

    constants   derived per-component success probabilities for a device
    rate        key rate vs range at a fixed node count (CSV)
    envelope    optimal-design envelope rate vs range (CSV + summary trailer)
    resources   cluster-creation probability vs source count (CSV)
    optimize    best design per cluster class at a range (CSV)
    verify      graph-rule and measurement-identity checks (report)

Conventions: ranges are ``lo:hi:step`` (inclusive, with a step that
divides the span), Monte Carlo seeds are integers in ``[0, 2**64)``,
lists are comma-separated, device parameters come from built-in defaults
overridden by an optional JSON config file and then by per-field flags.  Every CSV
starts with a ``# config:`` comment holding the resolved configuration as
sorted JSON, so identical configuration and seed reproduce byte-identical
output.  Files are written atomically.

Exit codes: 0 success, 2 configuration error, 3 infeasible model or
search, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import Sequence

import numpy as np

from .clusterbuild import pcn_curve
from .envelope import analytic_lb, optimize_z
from .errors import (
    ClusterChainError,
    ConfigError,
    InvalidConfigurationError,
)
from .graphstate import run_structure_checks
from .optimizer import SearchBounds, operating_point
from .params import (
    DeviceParams,
    chain_coefficients,
    derive_constants,
    load_device_params,
)
from .ratemodel import SCHEMES, ChainConfig, k_of_design, r_direct, rate_n
from .treecode import BranchingVector

__all__ = ["main"]

_DEVICE_FIELDS = [f.name for f in dataclasses.fields(DeviceParams)]


def _parse_range(text: str) -> np.ndarray:
    """Parse ``lo:hi:step`` (inclusive, step dividing the span) or one number, all >= 0."""
    try:
        values = [float(p) for p in text.split(":")]
    except ValueError as exc:
        raise ConfigError(f"range must be numeric, got {text!r}") from exc
    if len(values) not in (1, 3) or not all(0.0 <= v < math.inf for v in values):
        raise ConfigError(f"range must be 'lo:hi:step' or one number, finite, >= 0, got {text!r}")
    if len(values) == 1:
        return np.array(values)
    lo, hi, step = values
    if step <= 0:
        raise ConfigError(f"range step must be positive, got {step!r}")
    if hi < lo:
        raise ConfigError(f"range end {hi!r} is below start {lo!r}")
    steps = (hi - lo) / step
    if not (math.isfinite(steps) and math.isclose(steps, round(steps), rel_tol=1e-9)):
        raise ConfigError(f"range step must divide hi - lo, got {text!r}")
    return lo + step * np.arange(round(steps) + 1)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def _resolve_device(args: argparse.Namespace) -> DeviceParams:
    if args.config is not None:
        device = load_device_params(args.config)
    else:
        device = DeviceParams()
    overrides = {
        name: getattr(args, name)
        for name in _DEVICE_FIELDS
        if getattr(args, name, None) is not None
    }
    if overrides:
        device = dataclasses.replace(device, **overrides)
    return device


def _device_dict(device: DeviceParams) -> dict:
    return dataclasses.asdict(device)


def _emit(
    out_path: str | None,
    config: dict,
    header: Sequence[str],
    rows: Sequence[Sequence],
    trailer: str | None = None,
) -> None:
    lines = [f"# config: {json.dumps(config, sort_keys=True)}"]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    if trailer is not None:
        lines.append(trailer)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".clusterchain-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _add_device_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with device parameters")
    group = parser.add_argument_group("device overrides")
    for name in _DEVICE_FIELDS:
        group.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)


def _add_output_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output CSV path (default: stdout)")


def _design_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True, help="qubit channels per side")
    parser.add_argument("--b", required=True, help="branching vector, e.g. 7,3")
    parser.add_argument("--scheme", choices=SCHEMES, default="new")
    parser.add_argument("--p-cn", dest="p_cn", type=float, default=0.9,
                        help="chain-wide cluster-build probability budget")


def cmd_constants(args: argparse.Namespace) -> int:
    if (args.m is None) != (args.b is None):
        given = "--m" if args.b is None else "--b"
        raise InvalidConfigurationError(
            f"constants needs --m and --b together for a design block; got only {given}"
        )
    device = _resolve_device(args)
    consts = derive_constants(device)
    report = dataclasses.asdict(consts)
    if args.m is not None:
        k = k_of_design(args.m, BranchingVector.parse(args.b))
        coeffs = chain_coefficients(consts, device, args.m, k,
                                    boosted=(args.scheme == "new"))
        report.update(k=k, a_coeff=coeffs.a_coeff, b_coeff=coeffs.b_coeff,
                      c_coeff=coeffs.c_coeff, ab_squared=coeffs.ab_squared)
    for name, value in report.items():
        print(f"{name} = {_fmt(value)}")
    return 0


def cmd_rate(args: argparse.Namespace) -> int:
    device = _resolve_device(args)
    tree = BranchingVector.parse(args.b)
    grid = _parse_range(args.L)
    config = {
        "command": "rate", "device": _device_dict(device),
        "m": args.m, "b": str(tree), "n": args.n, "L": args.L,
        "p_cn": args.p_cn, "scheme": args.scheme,
    }
    rows = []
    for l_km in grid:
        cfg = ChainConfig(
            total_range_km=float(l_km), node_count=args.n, channels=args.m,
            tree=tree, p_cn=args.p_cn, scheme=args.scheme,
        )
        point = rate_n(cfg, device)
        rows.append((point.range_km, point.rate_bits_per_mode,
                     r_direct(float(l_km), device.alpha)))
    _emit(args.out, config, ("l_km", "rate_bits_per_mode", "r_direct"), rows)
    return 0


def cmd_envelope(args: argparse.Namespace) -> int:
    device = _resolve_device(args)
    tree = BranchingVector.parse(args.b)
    grid = _parse_range(args.L)
    consts = derive_constants(device)
    k = k_of_design(args.m, tree)
    coeffs = chain_coefficients(consts, device, args.m, k,
                                boosted=(args.scheme == "new"))
    z_star = optimize_z(args.m, tree, device, coeffs, scheme=args.scheme)
    env = analytic_lb(z_star, args.m, tree, device, coeffs,
                      p_cn=args.p_cn, scheme=args.scheme)
    config = {
        "command": "envelope", "device": _device_dict(device),
        "m": args.m, "b": str(tree), "L": args.L,
        "p_cn": args.p_cn, "scheme": args.scheme,
    }
    rows = []
    for l_km in grid:
        rows.append((float(l_km), env.rate_at(float(l_km), device.alpha),
                     env.n_opt_at(float(l_km))))
    trailer = (
        f"# D={_fmt(env.d_coeff)}, s={_fmt(env.s_exp)}, L0_km={_fmt(env.l0_km)}"
    )
    _emit(args.out, config, ("l_km", "rate_bits_per_mode", "n_opt"), rows, trailer)
    if args.out is not None:
        print(trailer.lstrip("# "))
    return 0


def cmd_resources(args: argparse.Namespace) -> int:
    device = _resolve_device(args)
    consts = derive_constants(device)
    grid = _parse_range(args.sources)
    if not np.all((grid == np.floor(grid)) & (grid < 2.0**63)):
        raise ConfigError(f"source counts must be integers below 2**63, got {args.sources!r}")
    grid = grid.astype(np.int64)
    config = {
        "command": "resources", "device": _device_dict(device),
        "k": args.k, "m": args.m, "n": args.n, "sources": args.sources,
        "method": args.method, "trials": args.trials, "seed": args.seed,
    }
    naive = pcn_curve("naive", args.k, args.m, args.n, consts, grid,
                      method=args.method, trials=args.trials, seed=args.seed)
    improved = pcn_curve("improved", args.k, args.m, args.n, consts, grid,
                         method=args.method, trials=args.trials, seed=args.seed)
    rows = [
        (int(n_s), float(p_naive), float(p_improved))
        for n_s, p_naive, p_improved in zip(grid, naive, improved)
    ]
    print(f"seed: {args.seed}", file=sys.stderr)
    _emit(args.out, config, ("n_sources", "p_cn_naive", "p_cn_improved"), rows)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    device = _resolve_device(args)
    ks = _parse_int_list(args.k)
    bounds = SearchBounds(
        m_max=args.m_max, branch_max=args.branch_max,
        depths=tuple(_parse_int_list(args.depths)),
    )
    config = {
        "command": "optimize", "device": _device_dict(device),
        "L": args.L, "k": args.k, "p_cn": args.p_cn, "scheme": args.scheme,
        "m_max": args.m_max, "branch_max": args.branch_max, "depths": args.depths,
        "with_sources": args.with_sources, "method": args.method,
        "trials": args.trials, "seed": args.seed,
    }
    if args.with_sources:
        print(f"seed: {args.seed}", file=sys.stderr)
    grid = _parse_range(args.L)
    if grid.size != 1:
        raise ConfigError(f"optimize takes a single range, got {args.L!r}")
    l_km = float(grid[0])
    max_depth = max(bounds.depths)
    branch_cols = tuple(f"b{i}" for i in range(max_depth))
    rows = []
    for k in ks:
        point = operating_point(
            l_km, k, device, p_cn=args.p_cn, scheme=args.scheme, bounds=bounds,
            with_sources=args.with_sources, method=args.method,
            trials=args.trials, seed=args.seed,
        )
        design = point.design
        branches = list(design.tree.branches)
        branches += [None] * (max_depth - len(branches))
        rows.append((
            k, design.m, *branches, design.n_opt, design.rate_bits_per_mode,
            point.n_sources, design.parallel_channels,
        ))
    header = ("k", "m", *branch_cols, "n_opt", "rate_bits_per_mode",
              "n_sources", "parallel_channels")
    _emit(args.out, config, header, rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_structure_checks(seed=args.seed, samples=args.samples)
    print(f"seed: {args.seed}", file=sys.stderr)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status}  {r.name:<{width}}{detail}")
        failed += not r.passed
    if failed:
        print(f"error: {failed} verification check(s) failed", file=sys.stderr)
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterchain",
        description="Rate, resource, and design analysis for all-photonic repeater chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="derived device constants")
    _add_device_flags(p)
    p.add_argument("--m", type=int, help="also report chain coefficients for this design")
    p.add_argument("--b", help="branching vector for the chain coefficients")
    p.add_argument("--scheme", choices=SCHEMES, default="new")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("rate", help="key rate vs range at fixed node count")
    _add_device_flags(p)
    _design_args(p)
    p.add_argument("--n", type=int, required=True, help="major node count")
    p.add_argument("--L", required=True, help="range sweep in km, lo:hi:step")
    _add_output_flag(p)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("envelope", help="optimal-node-count envelope rate vs range")
    _add_device_flags(p)
    _design_args(p)
    p.add_argument("--L", default="1:600:1", help="range sweep in km, lo:hi:step")
    _add_output_flag(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("resources", help="cluster-build probability vs source count")
    _add_device_flags(p)
    p.add_argument("--k", type=int, required=True, help="fusion levels")
    p.add_argument("--m", type=int, required=True, help="qubit channels per side")
    p.add_argument("--n", type=int, required=True, help="major node count")
    p.add_argument("--sources", required=True, help="source-count sweep, lo:hi:step")
    p.add_argument("--method", choices=("auto", "exact", "mc"), default="auto")
    p.add_argument("--trials", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flag(p)
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("optimize", help="best design per cluster class at a range")
    _add_device_flags(p)
    p.add_argument("--L", required=True, help="total range in km")
    p.add_argument("--k", required=True, help="cluster classes, e.g. 7,8,9,10")
    p.add_argument("--scheme", choices=SCHEMES, default="new")
    p.add_argument("--p-cn", dest="p_cn", type=float, default=0.9)
    p.add_argument("--m-max", dest="m_max", type=int, default=16)
    p.add_argument("--branch-max", dest="branch_max", type=int, default=16)
    p.add_argument("--depths", default="2", help="tree depths to scan, e.g. 2,3")
    p.add_argument("--with-sources", dest="with_sources", action="store_true",
                   help="also search the minimum source count per design")
    p.add_argument("--method", choices=("auto", "exact", "mc"), default="auto")
    p.add_argument("--trials", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flag(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="graph-rule and measurement-identity checks")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidConfigurationError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ClusterChainError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
