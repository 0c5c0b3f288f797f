"""End-to-end tests for the command-line interface.

Every test drives ``cli.main`` in process and inspects the exit code, the
stdout/stderr text, and any CSV file written through ``--out``.  Numeric
columns are parsed back and compared against direct library calls, so these
tests pin the plumbing (argument parsing, config echo, formatting, atomic
writes, exit codes) rather than re-deriving the models.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchain import cli
from clusterchain.clusterbuild import pcn_curve
from clusterchain.envelope import analytic_lb, optimize_z
from clusterchain.errors import ConfigError
from clusterchain.graphstate import CheckResult
from clusterchain.params import DeviceParams, chain_coefficients, derive_constants
from clusterchain.ratemodel import ChainConfig, k_of_design, r_direct, rate_n
from clusterchain.treecode import BranchingVector

# Locked outputs for the default device, m=4, tree 7,3, p_cn=0.9, new scheme.
D_STAR = 0.11463972884959224
S_STAR = 0.3654838715183896
L0_KM = 1.4877655474978313

# Best depth-2 designs at 300 km for the default device (new scheme).
K7_RATE = 3.873e-6
K8_RATE = 2.977e-3


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str):
    """Split CLI CSV text into (config, header, rows, trailer-or-None)."""
    lines = [line for line in text.splitlines() if line]
    assert lines[0].startswith("# config: "), lines[0]
    config = json.loads(lines[0][len("# config: "):])
    trailer = None
    if lines[-1].startswith("#"):
        trailer = lines[-1]
        lines = lines[:-1]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    assert all(len(row) == len(header) for row in rows)
    return config, header, rows, trailer


def parse_report(out: str) -> dict[str, str]:
    """Parse ``name = value`` lines (the constants subcommand) into a dict."""
    pairs: dict[str, str] = {}
    for line in out.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            pairs[name] = value
    return pairs


class TestConstants:
    def test_reports_every_derived_constant(self, capsys, device):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        report = parse_report(out)
        expected = dataclasses.asdict(derive_constants(device))
        assert set(report) == set(expected)
        for name, value in expected.items():
            assert math.isclose(float(report[name]), value, rel_tol=1e-10), name

    def test_design_block_with_tree(self, capsys, device, consts):
        code, out, _ = run_cli(capsys, "constants", "--m", "4", "--b", "7,3")
        assert code == 0
        report = parse_report(out)
        assert report["k"] == "8"
        coeffs = chain_coefficients(consts, device, 4, 8, boosted=True)
        for name in ("a_coeff", "b_coeff", "c_coeff", "ab_squared"):
            assert math.isclose(
                float(report[name]), getattr(coeffs, name), rel_tol=1e-10
            ), name

    def test_m_without_b_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--m", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")

    def test_b_without_m_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--b", "7,x")
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")

    def test_alpha_flag_changes_fiber_survival(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--alpha", "0.092")
        assert code == 0
        expected = derive_constants(DeviceParams(alpha=0.092)).p_fib
        assert math.isclose(float(parse_report(out)["p_fib"]), expected, rel_tol=1e-10)


class TestRate:
    ARGS = ("rate", "--m", "4", "--b", "7,3", "--n", "100", "--L", "100:300:100")

    def test_header_and_inclusive_grid(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        _, header, rows, trailer = parse_csv(out)
        assert header == ["l_km", "rate_bits_per_mode", "r_direct"]
        assert trailer is None
        assert [float(row[0]) for row in rows] == [100.0, 200.0, 300.0]

    def test_rows_match_library_models(self, capsys, device):
        _, out, _ = run_cli(capsys, *self.ARGS)
        _, _, rows, _ = parse_csv(out)
        tree = BranchingVector.parse("7,3")
        for row in rows:
            l_km = float(row[0])
            cfg = ChainConfig(
                total_range_km=l_km, node_count=100, channels=4,
                tree=tree, p_cn=0.9, scheme="new",
            )
            point = rate_n(cfg, device)
            assert math.isclose(
                float(row[1]), point.rate_bits_per_mode, rel_tol=1e-10
            )
            assert math.isclose(
                float(row[2]), r_direct(l_km, device.alpha), rel_tol=1e-10
            )

    def test_rate_decreases_with_range(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        _, _, rows, _ = parse_csv(out)
        rates = [float(row[1]) for row in rows]
        assert rates == sorted(rates, reverse=True)

    def test_config_comment_roundtrips(self, capsys, device):
        _, out, _ = run_cli(capsys, *self.ARGS)
        config, _, _, _ = parse_csv(out)
        assert config["command"] == "rate"
        assert config["m"] == 4
        assert config["b"] == str(BranchingVector.parse("7,3"))
        assert config["n"] == 100
        assert config["device"] == dataclasses.asdict(device)

    def test_single_point_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--m", "4", "--b", "7,3", "--n", "100", "--L", "300"
        )
        assert code == 0
        _, _, rows, _ = parse_csv(out)
        assert len(rows) == 1 and float(rows[0][0]) == 300.0

    def test_out_writes_file_atomically(self, capsys, tmp_path):
        target = tmp_path / "rates.csv"
        target.write_text("stale content\n")
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(target))
        assert code == 0
        assert out == ""  # the CSV goes to the file, not stdout
        text = target.read_text()
        assert text.startswith("# config: ") and text.endswith("\n")
        parse_csv(text)
        assert [p.name for p in tmp_path.iterdir()] == ["rates.csv"]

    def test_out_onto_a_directory_leaves_no_temporary_file(self, capsys, tmp_path):
        # the CSV is written to a temporary file beside the target, which
        # cannot replace a directory; the temporary file is removed
        target = tmp_path / "taken"
        target.mkdir()
        code, out, err = run_cli(capsys, *self.ARGS, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: config:")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []

    def test_out_in_a_missing_directory_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, *self.ARGS, "--out", str(tmp_path / "absent" / "r.csv"))
        assert (code, out) == (2, "")
        assert err.startswith("error: config:")
        assert list(tmp_path.iterdir()) == []


class TestEnvelope:
    ARGS = ("envelope", "--m", "4", "--b", "7,3", "--L", "100:200:50")

    def test_rows_and_node_count_column(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        _, header, rows, _ = parse_csv(out)
        assert header == ["l_km", "rate_bits_per_mode", "n_opt"]
        assert len(rows) == 3
        for row in rows:
            n_opt = int(row[2])
            assert n_opt == max(1, round(float(row[0]) / L0_KM))

    def test_trailer_matches_reference_values(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        _, _, _, trailer = parse_csv(out)
        assert trailer is not None and trailer.startswith("# D=")
        fields = dict(
            part.strip().split("=") for part in trailer.lstrip("# ").split(",")
        )
        assert math.isclose(float(fields["D"]), D_STAR, rel_tol=1e-6)
        assert math.isclose(float(fields["s"]), S_STAR, rel_tol=1e-6)
        assert math.isclose(float(fields["L0_km"]), L0_KM, rel_tol=1e-6)

    def test_trailer_echoed_when_writing_file(self, capsys, tmp_path):
        target = tmp_path / "env.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(target))
        assert code == 0
        assert out.startswith("D=")  # summary still reaches the terminal
        assert target.read_text().splitlines()[-1].startswith("# D=")

    def test_rates_match_library_envelope(self, capsys, device, consts):
        _, out, _ = run_cli(capsys, *self.ARGS)
        _, _, rows, _ = parse_csv(out)
        tree = BranchingVector.parse("7,3")
        coeffs = chain_coefficients(
            consts, device, 4, k_of_design(4, tree), boosted=True
        )
        z_star = optimize_z(4, tree, device, coeffs, scheme="new")
        env = analytic_lb(z_star, 4, tree, device, coeffs, p_cn=0.9, scheme="new")
        for row in rows:
            expected = env.rate_at(float(row[0]), device.alpha)
            assert math.isclose(float(row[1]), expected, rel_tol=1e-10)


class TestResources:
    ARGS = (
        "resources", "--k", "3", "--m", "1", "--n", "1",
        "--sources", "300:600:300", "--method", "exact",
    )

    def test_exact_curves_match_library(self, capsys, consts):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        _, header, rows, _ = parse_csv(out)
        assert header == ["n_sources", "p_cn_naive", "p_cn_improved"]
        assert [int(row[0]) for row in rows] == [300, 600]
        grid = np.array([300, 600])
        naive = pcn_curve("naive", 3, 1, 1, consts, grid, method="exact")
        improved = pcn_curve("improved", 3, 1, 1, consts, grid, method="exact")
        for row, p_naive, p_improved in zip(rows, naive, improved):
            assert math.isclose(float(row[1]), p_naive, rel_tol=1e-10)
            assert math.isclose(float(row[2]), p_improved, rel_tol=1e-10)
            assert 0.0 <= float(row[1]) <= 1.0 and 0.0 <= float(row[2]) <= 1.0

    def test_seed_echoed_to_stderr(self, capsys):
        _, _, err = run_cli(capsys, *self.ARGS)
        assert "seed: 0" in err

    def test_monte_carlo_runs_are_reproducible(self, capsys, tmp_path):
        args = (
            "resources", "--k", "3", "--m", "1", "--n", "1",
            "--sources", "400:800:400", "--method", "mc",
            "--trials", "2000", "--seed", "5",
        )
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert run_cli(capsys, *args, "--out", str(first))[0] == 0
        assert run_cli(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_records_method_trials_seed(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        config, _, _, _ = parse_csv(out)
        assert config["method"] == "exact"
        assert config["trials"] == 10**5
        assert config["seed"] == 0
        assert config["command"] == "resources"

    NAIVE_SCALE = (
        "resources", "--k", "7", "--m", "4", "--n", "250",
        "--sources", "10000000000:30000000000:10000000000", "--trials", "200",
    )

    def test_auto_falls_back_to_mc_beyond_the_bank_limit(self, capsys, consts):
        # 1e10 sources grant one k=7 bank about 1e5 GHZ states, past the exact limit
        code, out, _ = run_cli(capsys, *self.NAIVE_SCALE)
        assert code == 0
        _, _, rows, _ = parse_csv(out)
        grid = [10**10, 2 * 10**10, 3 * 10**10]
        assert [int(row[0]) for row in rows] == grid
        improved = pcn_curve("improved", 7, 4, 250, consts, grid, method="mc", trials=200)
        for row, expected in zip(rows, improved):
            assert math.isclose(float(row[2]), expected, rel_tol=1e-10)
        code, out, err = run_cli(capsys, *self.NAIVE_SCALE, "--method", "exact")
        assert (code, out) == (2, "")
        assert "--method mc" in err

    def test_underflowed_ghz_probability_reads_zero_silently(self, capsys):
        # eta_sd = 1e-300 underflows p_ghz to 0: no GHZ state is heralded
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "resources", "--k", "5", "--m", "1", "--n", "1",
                "--sources", "0:60000:30000", "--eta-sd", "1e-300",
            )
        assert code == 0
        assert err == "seed: 0\n"
        _, _, rows, _ = parse_csv(out)
        assert rows == [["0", "0", "0"], ["30000", "0", "0"], ["60000", "0", "0"]]

    def test_exact_bank_count_beyond_limit_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "resources", "--k", "5", "--m", "1", "--n", "20",
            "--sources", "10000000000000", "--method", "exact",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:") and "--method mc" in err


    def test_exact_at_k21_prints_its_zero(self, capsys):
        # 2**21 leaf banks: 100 GHZ attempts cannot fill them, and the exact
        # factory, numbered from the allocation plan, says so at once
        for method in ("exact", "auto"):
            start = time.perf_counter()
            code, out, _ = run_cli(
                capsys, "resources", "--k", "21", "--m", "1", "--n", "1",
                "--sources", "600", "--method", method,
            )
            assert time.perf_counter() - start < 5.0
            assert code == 0
            assert parse_csv(out)[2] == [["600", "0", "0"]]


class TestOptimize:
    def test_restricted_scan_recovers_reference_design(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--L", "300", "--k", "7",
            "--m-max", "6", "--branch-max", "6",
        )
        assert code == 0
        _, header, rows, _ = parse_csv(out)
        assert header == [
            "k", "m", "b0", "b1", "n_opt", "rate_bits_per_mode",
            "n_sources", "parallel_channels",
        ]
        (row,) = rows
        assert [int(row[0]), int(row[1]), int(row[2]), int(row[3])] == [7, 4, 4, 2]
        assert math.isclose(float(row[5]), K7_RATE, rel_tol=1e-3)
        assert row[6] == ""  # no source search requested
        assert int(row[7]) == 8

    def test_two_classes_one_row_each(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--L", "300", "--k", "7,8",
            "--m-max", "6", "--branch-max", "6",
        )
        assert code == 0
        _, _, rows, _ = parse_csv(out)
        assert [int(row[0]) for row in rows] == [7, 8]
        assert [int(rows[1][1]), int(rows[1][2]), int(rows[1][3])] == [5, 5, 3]
        assert math.isclose(float(rows[1][5]), K8_RATE, rel_tol=1e-3)

    def test_depth_three_scan_pads_branch_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--L", "300", "--k", "7", "--depths", "2,3",
            "--m-max", "5", "--branch-max", "5",
        )
        assert code == 0
        _, header, rows, _ = parse_csv(out)
        assert header[:5] == ["k", "m", "b0", "b1", "b2"]
        (row,) = rows
        assert int(row[2]) >= 1 and int(row[3]) >= 1
        assert row[4] == "" or int(row[4]) >= 1  # depth-2 winner leaves b2 blank
        # the scan includes the best depth-2 design, so it can only improve
        assert float(row[6 - 1]) >= K7_RATE * (1 - 1e-3)

    def test_source_target_rounding_to_one_exits_2(self, capsys):
        # over the 313 nodes of the k=7 optimum each node would need P_c1 = 1.0
        code, out, err = run_cli(
            capsys, "optimize", "--L", "300", "--k", "7", "--m-max", "6", "--branch-max", "6",
            "--with-sources", "--p-cn", "0.9999999999999998",
        )
        assert code == 2
        assert out == ""
        assert "error: config:" in err and "rounds to 1.0" in err

    def test_repeated_depths_are_config_error(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--L", "300", "--k", "7", "--depths", "2,2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")

    def test_deep_trees_scan_in_seconds(self, capsys):
        # the class is enumerated by pruning on tree size; filtering every
        # (m, tree) tuple would walk 16 * 16**6 of them
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "optimize", "--L", "300", "--k", "7", "--depths", "6")
        assert time.perf_counter() - start < 20.0
        assert code == 0
        _, header, rows, _ = parse_csv(out)
        assert header[2:8] == [f"b{i}" for i in range(6)]
        (row,) = rows
        assert all(int(b) >= 1 for b in row[2:8])

    def test_with_sources_adds_counts(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--L", "15", "--k", "7", "--scheme", "naive",
            "--with-sources", "--method", "auto",
            "--m-max", "6", "--branch-max", "6",
        )
        assert code == 0
        assert "seed: 0" in err
        _, header, rows, _ = parse_csv(out)
        (row,) = rows
        column = header.index("n_sources")
        assert int(row[column]) > 0

    def test_invalid_class_list_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--L", "300", "--k", "7,x")
        assert code == 2
        assert err.startswith("error: config:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("constants", "--m", "4"),
            ("rate", "--m", "4", "--n", "100", "--L", "100"),
            ("envelope", "--m", "4", "--L", "100"),
        ],
        ids=["constants", "rate", "envelope"],
    )
    def test_invalid_tree_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--b", "7,x")
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")

    def test_unbuildable_class_is_infeasible(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--L", "300", "--k", "2")
        assert code == 3
        assert err.startswith("error: infeasible:")


# The ``verify`` report, pinned byte for byte; {states} counts the 14
# computational basis states plus the random samples.
VERIFY_GOLDEN = """\
PASS  star -> clique under Y                    (star sizes 3..11 vertices)
PASS  tree attachment via X,X                   ({{3,2,2}} tree onto a degree-3 vertex)
PASS  conditional Z past M_X/M_Y flips outcome  ({states} states, every qubit, tolerance 1e-12)
PASS  Z before M_Z is absorbed                  ({states} states, every qubit, tolerance 1e-12)
PASS  H exchanges M_X/M_Z and flips M_Y         ({states} states, every qubit, tolerance 1e-12)
"""


class TestVerify:
    def test_report_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--samples", "20", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)
        assert "seed: 3" in err

    @pytest.mark.parametrize("argv,states", [(("--seed", "7"), 114),
                                             (("--seed", "3", "--samples", "500"), 514)],
                             ids=["seed7_default_samples", "seed3_500_samples"])
    def test_report_text_is_pinned(self, capsys, argv, states):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert out == VERIFY_GOLDEN.format(states=states)

    def test_failure_sets_exit_code_four(self, capsys, monkeypatch):
        rows = [CheckResult(name="synthetic", passed=False, detail="forced")]
        monkeypatch.setattr(
            cli, "run_structure_checks", lambda seed, samples: rows
        )
        code, out, err = run_cli(capsys, "verify")
        assert code == 4
        assert out.startswith("FAIL")
        assert "1 verification check(s) failed" in err


# A valid value for every value flag of each subcommand; the property test
# below replaces one of them with malformed text.
VALID_VALUES = {
    "constants": {"--m": "4", "--b": "7,3"},
    "rate": {"--m": "4", "--b": "7,3", "--n": "100", "--L": "100", "--p-cn": "0.9"},
    "envelope": {"--m": "4", "--b": "7,3", "--L": "100", "--p-cn": "0.9"},
    "resources": {"--k": "3", "--m": "1", "--n": "1", "--sources": "600"},
    "optimize": {"--L": "300", "--k": "7", "--depths": "2", "--p-cn": "0.9"},
    "verify": {"--seed": "7", "--samples": "20"},
}
# characters that occur in no int, float, 'inf' or 'nan' literal
JUNK = "bcdghjklmopqrsuvwxz#@!?%"
MALFORMED = st.builds(
    lambda head, junk, tail: head + junk + tail,
    st.text("0123456789.,:-", max_size=4),
    st.sampled_from(JUNK),
    st.text("0123456789.,:" + JUNK, max_size=4),
)


class TestConfigRecord:
    @staticmethod
    def dests(command: str) -> set[str]:
        parser = cli._build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {a.dest for a in sub.choices[command]._actions if a.dest != "help"} | {"command"}

    @pytest.mark.parametrize("command", ["rate", "envelope", "resources", "optimize"])
    def test_record_holds_every_flag(self, capsys, command):
        argv = [part for flag, value in VALID_VALUES[command].items() for part in (flag, value)]
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == 0
        config, _, _, _ = parse_csv(out)
        device_fields = {f.name for f in dataclasses.fields(DeviceParams)}
        want = self.dests(command) - {"func", "config", "out"} - device_fields | {"device"}
        assert set(config) == want


class TestErrorHandling:
    RATE_PREFIX = ("rate", "--m", "4", "--b", "7,3", "--n", "100")

    @pytest.mark.parametrize(
        "bad_range",
        ["300:100:50", "100:200:0", "1:2:3:4", "nan", "inf", "1:nan:1", "1:x:1",
         "0:11:4", "0:1e12:1"],
        ids=["reversed", "zero_step", "too_many_parts", "nan", "inf", "nan_end",
             "non_numeric", "step_not_dividing", "too_many_points"],
    )
    def test_bad_range_is_config_error(self, capsys, bad_range):
        code, _, err = run_cli(capsys, *self.RATE_PREFIX, "--L", bad_range)
        assert code == 2
        assert err.startswith("error: config:")

    def test_fractional_step_keeps_both_ends(self):
        grid = cli._parse_range("0:1:0.1")
        assert grid.size == 11
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        lo=st.floats(-1e6, 1e6),
        step=st.floats(1e-6, 1e6),
        whole_steps=st.integers(0, 200),
        extra=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
    def test_range_is_refused_or_uniform_and_inclusive(self, lo, step, whole_steps, extra):
        hi = lo + (whole_steps + extra) * step
        try:
            grid = cli._parse_range(f"{lo!r}:{hi!r}:{step!r}")
        except ConfigError:
            return
        span_tol = 1e-9 * (hi - lo) + 4 * np.spacing(max(abs(lo), abs(hi)))
        assert grid[0] == lo
        assert abs(grid[-1] - hi) <= span_tol
        if grid.size > 1:
            assert np.allclose(np.diff(grid), step, rtol=1e-9, atol=span_tol)

    @pytest.mark.parametrize("bad_l", ["abc", "nan", "inf", "100:300:100"],
                             ids=["non_numeric", "nan", "inf", "multi_point"])
    def test_optimize_bad_range_is_config_error(self, capsys, bad_l):
        code, _, err = run_cli(capsys, "optimize", "--L", bad_l, "--k", "7")
        assert code == 2
        assert err.startswith("error: config:")

    @pytest.mark.parametrize(
        "argv",
        [("constants", "--m", "4", "--b", "7,3", "--tau-f", "0.05"),
         ("rate", "--m", "4", "--b", "7,3", "--n", "100", "--L", "100", "--tau-f", "0.05"),
         ("envelope", "--m", "4", "--b", "7,3", "--L", "100", "--tau-f", "0.05"),
         ("optimize", "--L", "300", "--k", "7", "--m-max", "6", "--branch-max", "6",
          "--tau-f", "0.05"),
         ("envelope", "--m", "4", "--b", "7,3", "--L", "100", "--alpha", "1e300")],
        ids=["constants", "rate", "envelope", "optimize", "envelope_alpha"],
    )
    def test_underflowing_fiber_survival_is_config_error(self, capsys, argv):
        # p_fib**2 underflows to 0, so A = m * pair_factor / p_fib**2 is not finite
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: config:")
        assert all(name in err for name in ("alpha", "tau_f", "c_f"))

    def test_monte_carlo_seed_out_of_range_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "resources", "--k", "3", "--m", "1", "--n", "1",
            "--sources", "400", "--method", "mc", "--trials", "100",
            "--seed", str(2**64),
        )
        assert code == 2
        assert err.startswith("error: config:")

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_negative_source_count_is_config_error(self, capsys, method):
        code, _, err = run_cli(
            capsys, "resources", "--k", "3", "--m", "1", "--n", "1",
            "--sources=-12:0:6", "--method", method, "--trials", "100",
        )
        assert code == 2
        assert err.startswith("error: config:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sources", ["100.7", "100:101:0.5", "1e20"],
                             ids=["fractional", "half_step", "beyond_int64"])
    def test_non_integer_source_count_is_config_error(self, capsys, sources):
        code, out, err = run_cli(
            capsys, "resources", "--k", "3", "--m", "1", "--n", "1", "--sources", sources,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")

    @pytest.mark.parametrize("argv", [RATE_PREFIX, ("envelope", "--m", "4", "--b", "7,3")],
                             ids=["rate", "envelope"])
    def test_negative_range_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--L=-10:10:10")
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")

    # k=30 would allocate 2**30 leaf banks; k > 21 is refused before that
    @pytest.mark.parametrize("k", ["0", "-1", "30"])
    def test_resources_non_positive_k_is_config_error(self, capsys, k):
        code, out, err = run_cli(
            capsys, "resources", "--k", k, "--m", "1", "--n", "1", "--sources", "600",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_optimize_non_positive_k_is_config_error(self, capsys, k):
        code, out, err = run_cli(capsys, "optimize", "--L", "300", "--k", k)
        assert (code, out) == (2, "")
        assert err.startswith("error: config:")

    @pytest.mark.parametrize("argv", [
        ("resources", "--k", "7", "--m", "4", "--n", "250", "--sources", "1000", "--seed", "-1"),
        ("optimize", "--L", "300", "--k", "7", "--with-sources", "--seed", "-3"),
    ], ids=["resources", "optimize"])
    def test_negative_seed_is_config_error(self, capsys, argv):
        # checked once per search or curve, whichever method evaluates it
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error: config: seed must lie in [0, 2**64)" in err

    def test_non_positive_trials_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "resources", "--k", "7", "--m", "4", "--n", "250", "--sources", "1000",
            "--trials", "-5", "--method", "exact",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: config: sample count")

    # p_chip * eta_ghz is subnormal at beta = 4.7e5, so its inverse overflows,
    # and 0 at 5e5; at 4.6e5 the weights stay finite and the row reads 0,0
    @pytest.mark.parametrize("beta", ["4.7e5", "5e5"])
    def test_vanishing_thinning_survival_is_config_error(self, capsys, beta):
        code, out, err = run_cli(
            capsys, "resources", "--k", "5", "--m", "1", "--n", "1", "--sources", "60000",
            "--beta", beta,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: config: p_chip * eta_ghz")
        assert "Traceback" not in err
        code, out, _ = run_cli(
            capsys, "resources", "--k", "5", "--m", "1", "--n", "1", "--sources", "60000",
            "--beta", "4.6e5",
        )
        assert code == 0
        assert out.splitlines()[-1] == "60000,0,0"

    @pytest.mark.parametrize("argv", [("--seed", "-1"), ("--samples", "-3")],
                             ids=["negative_seed", "negative_samples"])
    def test_verify_bad_input_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")

    @pytest.mark.parametrize("p_cn", ["5", "0", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [("envelope", "--m", "4", "--b", "7,3", "--L", "100"),
         ("optimize", "--L", "300", "--k", "7")],
        ids=["envelope", "optimize"],
    )
    def test_p_cn_outside_unit_interval_is_config_error(self, capsys, argv, p_cn):
        code, out, err = run_cli(capsys, *argv, "--p-cn", p_cn)
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        case=st.sampled_from(
            [(command, flag) for command, flags in VALID_VALUES.items() for flag in flags]
        ),
        text=MALFORMED,
    )
    def test_malformed_value_exits_2_with_empty_stdout(self, case, text):
        command, bad_flag = case
        argv = [command] + [
            f"{flag}={text if flag == bad_flag else value}"
            for flag, value in VALID_VALUES[command].items()
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses a malformed int or float
                code = exc.code
        assert code == 2, (argv, err.getvalue())
        assert out.getvalue() == ""

    def test_unknown_device_key_is_config_error(self, capsys, tmp_path):
        config = tmp_path / "device.json"
        config.write_text(json.dumps({"flux": 1.0}))
        code, _, err = run_cli(capsys, "constants", "--config", str(config))
        assert code == 2
        assert "unknown device parameter" in err

    def test_missing_config_file_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "constants", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert err.startswith("error: config:")

    def test_invalid_json_config_is_config_error(self, capsys, tmp_path):
        config = tmp_path / "device.json"
        config.write_text("not json {")
        code, _, err = run_cli(capsys, "constants", "--config", str(config))
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize(
        "content",
        [b'{"alpha": 1' + b"0" * 400 + b"}", b'{"alpha": 1' + b"0" * 5000 + b"}",
         b'{"alpha": "\xff"}', b"[0.62, 0.1]"],
        ids=["past_float", "past_int_digit_limit", "not_utf8", "json_array"],
    )
    def test_unreadable_config_is_config_error(self, capsys, tmp_path, content):
        config = tmp_path / "device.json"
        config.write_bytes(content)
        code, out, err = run_cli(capsys, "constants", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:")
        assert "Traceback" not in err

    def test_flag_overrides_config_file(self, capsys, tmp_path, device):
        config = tmp_path / "device.json"
        config.write_text(json.dumps({"alpha": 0.1}))
        _, out, _ = run_cli(
            capsys, "constants", "--config", str(config), "--alpha", "0.046"
        )
        expected = derive_constants(device).p_fib
        assert math.isclose(float(parse_report(out)["p_fib"]), expected, rel_tol=1e-12)

    def test_config_file_changes_device(self, capsys, tmp_path):
        config = tmp_path / "device.json"
        config.write_text(json.dumps({"alpha": 0.1}))
        _, out, _ = run_cli(capsys, "constants", "--config", str(config))
        expected = derive_constants(DeviceParams(alpha=0.1)).p_fib
        assert math.isclose(float(parse_report(out)["p_fib"]), expected, rel_tol=1e-12)
