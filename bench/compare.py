"""Correctness checks: every operation's output against ``refs.json``.

The references were recorded from the package by ``record_refs.py``.  The
rules:

* designs (channel count, tree, node count) and integer counts such as
  source totals must match exactly;
* floats must agree within a relative tolerance stated per quantity below;
* a Monte Carlo estimate must lie within ``Z_BOUND`` standard errors of the
  exact value it estimates, so a different but valid random stream passes;
* CLI output must have the reference's lines, with the ``# config:`` line and
  the CSV header identical and every number within the command's tolerance.

Pure Python, so the runner can check CLI output without importing numpy.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from ops import Op

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# Quantities that depend on the locus optimum z* (envelope D and s, rates
# read off envelopes, the analytic crossover).  z* comes from a
# golden-section search with relative tolerance 1e-6, so another valid
# minimiser may move these by a few parts in 1e6.
RTOL_LOCUS = 1e-4
# Deterministic sweeps with no search tolerance in them.
RTOL_DIRECT = 1e-9
# Exact factory success probabilities.
RTOL_EXACT, ATOL_EXACT = 1e-9, 1e-12
# Monte Carlo: |estimate - exact| <= Z_BOUND * se + 1 / trials.
Z_BOUND = 5.0

CLI_RTOL = {
    "constants": RTOL_DIRECT,
    "rate": RTOL_DIRECT,
    "envelope": RTOL_LOCUS,
    "optimize": RTOL_LOCUS,
    "resources": RTOL_DIRECT,
    "verify": 0.0,
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def load_refs(path: Path = REFS_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= atol + rtol * abs(want)


def _within_z(estimate: float, exact: float, trials: int) -> bool:
    se = math.sqrt(max(exact * (1.0 - exact), 0.0) / trials)
    return abs(estimate - exact) <= Z_BOUND * se + 1.0 / trials


def _fmt_key(*parts) -> str:
    return "/".join(str(p) for p in parts)


def _check_design(got: dict, want: dict) -> str | None:
    for field in ("m", "b", "n_opt"):
        if got[field] != want[field]:
            return f"{field} {got[field]} != reference {want[field]}"
    if not _close(got["rate"], want["rate"], RTOL_LOCUS):
        return f"rate {got['rate']!r} != reference {want['rate']!r}"
    return None


def compare_text(got: str, want: str, rtol: float) -> str | None:
    """Line-by-line comparison of CLI output; numbers within ``rtol``."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} output lines, reference has {len(want_lines)}"
    header_next = False
    for number, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        exact = header_next or w.startswith("# config:")
        header_next = w.startswith("# config:")
        if exact:
            if g != w:
                return f"line {number} differs: {g[:80]!r} != {w[:80]!r}"
            continue
        if _NUMBER.sub("#", g) != _NUMBER.sub("#", w):
            return f"line {number} text differs: {g[:80]!r} != {w[:80]!r}"
        for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(w)):
            if not _close(float(a), float(b), rtol):
                return f"line {number}: {a} != reference {b}"
    return None


def check(op: Op, got, refs: dict) -> str | None:
    """``None`` when ``got`` (canonical form) is correct, else the reason."""
    kw = op.kw
    kind = op.kind
    try:
        if kind == "rate_family":
            for k in kw["ks"]:
                curve = refs["family"][str(k)]
                if len(got[str(k)]) != len(kw["l_km"]):
                    return f"k={k}: {len(got[str(k)])} rates for {len(kw['l_km'])} ranges"
                for l_km, rate in zip(kw["l_km"], got[str(k)]):
                    want = curve[str(l_km)]
                    if not _close(rate, want, RTOL_LOCUS):
                        return f"k={k} L={l_km}: rate {rate!r} != reference {want!r}"
            return None
        if kind == "optimize_design":
            return _check_design(got, refs["design"][_fmt_key(kw["scheme"], kw["k"], kw["l_km"])])
        if kind == "operating_point":
            want = refs["operating_point"][str(kw["l_km"])]
            if got["n_sources"] != want["n_sources"]:
                return f"n_sources {got['n_sources']} != reference {want['n_sources']}"
            return _check_design(got, want)
        if kind == "numeric_envelope":
            if [p[0] for p in got] != [float(x) for x in kw["l_km"]]:
                return "range grid differs from the input"
            for l_km, rate, n_opt in got:
                want_rate, want_n = refs["numeric_envelope"][str(int(l_km))]
                if n_opt != want_n or not _close(rate, want_rate, RTOL_DIRECT):
                    return f"L={l_km}: ({rate!r}, {n_opt}) != reference ({want_rate!r}, {want_n})"
            return None
        if kind == "crossover_distance":
            want = refs["crossover_distance"]
            return None if _close(got, want, RTOL_DIRECT) else f"{got!r} != reference {want!r}"
        if kind in ("optimize_z", "crossover_analytic"):
            want = refs[kind]
            return None if _close(got, want, RTOL_LOCUS) else f"{got!r} != reference {want!r}"
        if kind == "analytic_lb":
            for field, want in refs["analytic_lb"].items():
                if not _close(got[field], want, RTOL_LOCUS):
                    return f"{field} {got[field]!r} != reference {want!r}"
            return None
        if kind == "min_sources":
            want = refs["min_sources"][_fmt_key(kw["scheme"], kw["k"], kw["m"], kw["n"])]
            return None if got == want else f"{got} != reference {want}"
        if kind == "improved_pc1_exact":
            want = refs["pc1_exact"][_fmt_key(kw["k"], kw["m"], kw["n_s"])]
            ok = _close(got, want, RTOL_EXACT, ATOL_EXACT)
            return None if ok else f"{got!r} != reference {want!r}"
        if kind == "improved_pc1_mc":
            exact = refs["pc1_exact"][_fmt_key(kw["k"], kw["m"], kw["n_s"])]
            if _within_z(got[0], exact, kw["trials"]):
                return None
            return f"estimate {got[0]!r} more than {Z_BOUND} se from exact {exact!r}"
        if kind == "pcn_curve":
            for n_s, value in zip(kw["sources"], got):
                exact = refs["pc1_exact"][_fmt_key(kw["k"], kw["m"], n_s)]
                estimate = value ** (1.0 / kw["n"])
                if not _within_z(estimate, exact, kw["trials"]):
                    return (f"n_s={n_s}: P_c1 estimate {estimate!r} more than {Z_BOUND} se "
                            f"from exact {exact!r}")
            return None
        if kind == "mc_measurement_probs":
            want = refs["tree_exact"][str(kw["eps"])]
            for field in ("p_x", "p_z"):
                if not _within_z(got[field], want[field], kw["samples"]):
                    return (f"{field} estimate {got[field]!r} more than {Z_BOUND} se "
                            f"from exact {want[field]!r}")
            return None
        if kind == "cli":
            want = refs["cli"][" ".join(kw["argv"])]
            if got["code"] != want["code"]:
                return f"exit code {got['code']} != reference {want['code']}"
            return compare_text(got["stdout"], want["stdout"], CLI_RTOL[kw["argv"][0]])
    except KeyError as exc:
        return f"no reference for {exc} (input outside the recorded set)"
    except (TypeError, IndexError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    return f"unknown operation kind {kind!r}"
