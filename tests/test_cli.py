import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dini import bounds, cli, kernels
from dini.cli import main
from dini.kernels import KernelKind, KernelRequest, heat_kernel
from dini.specfun import JacobiParams, SpectralParams
from dini.zeros import build_zero_table


NU_GRID = ["-0.9", "-0.75", "-0.5", "0", "0.5", "1.5", "3"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestZerosCommand:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(
            ["zeros", "--nu", "0", "--h", "0.5", "--n-max", "5", "--out", "-"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "nu,H,n,zero,bracket_lo,bracket_hi,tol"
        assert len(lines) == 6
        # binary64 round trip through the 17-digit format
        z1 = float(lines[1].split(",")[3])
        assert z1 == pytest.approx(0.9407705639497375, abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["zeros", "--nu", "-0.5", "--n-max", "3", "--format", "json", "--out", "-"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["regime"] == "ZERO"
        assert obj["zeros"]["1"] == pytest.approx(np.pi, abs=1e-12)

    def test_csv_file_is_the_output(self, tmp_path, capsys):
        """One CSV writer: ZeroTable.to_csv writes to a file the bytes that
        the command prints, with "\n" line ends."""
        code, out, _ = run_cli(["zeros", "--nu", "-0.75", "--n-max", "4", "--out", "-"], capsys)
        assert code == 0
        path = tmp_path / "zeros.csv"
        build_zero_table(SpectralParams(-0.75, 0.5), 4, 1e-10).to_csv(path)
        assert path.read_bytes() == out.encode()
        assert b"\r" not in path.read_bytes()

    def test_zero_scan_failure_names_stage(self, capsys):
        # The J_nu zero scan fails above nu ~ 30; the message names the stage,
        # the order and the zero it could not bracket.
        code, _, err = run_cli(["zeros", "--nu", "40", "--n-max", "50", "--out", "-"], capsys)
        assert code == 2
        assert re.search(r"J_nu zeros at nu = 40: zero k = \d+ not bracketed", err)

    def test_mode_budget_above_former_cap(self, capsys):
        # z_3500 ~ 1.1e4 lies beyond the former bessel_j cap of 1e4.
        code, out, _ = run_cli(["zeros", "--nu", "0", "--n-max", "3500", "--out", "-"], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1].split(",")[2] == "3500"


class TestVerificationCommands:
    def test_basis_check(self, capsys):
        code, out, _ = run_cli(
            ["basis-check", "--nu", "0.7", "--n-max", "20", "--out", "-"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["gram_deviation"] < 1e-8

    def test_sandwich(self, capsys):
        code, out, _ = run_cli(
            ["verify-sandwich", "--nu", "2", "--t", "0.1", "--grid", "8",
             "--n-max", "200", "--out", "-"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["checks"][0]["min_lower_margin"] > -1e-10

    def test_envelopes_heat(self, capsys):
        code, out, _ = run_cli(
            ["verify-envelopes", "--kind", "heat", "--nu", "0.5", "--grid", "8",
             "--n-max", "200", "--t", "0.001,0.01,0.1", "--out", "-"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert all(r["spread"] < 1e3 for r in obj["reports"])

    def test_poisson_envelopes_default_failure_names_mode_budget(self, capsys):
        # The default grid has diagonal pairs, which the subordinated Poisson
        # certificate cannot cover at t = 1e-4: the message says what would.
        code, _, err = run_cli(["verify-envelopes", "--kind", "poisson", "--nu", "0"], capsys)
        assert code == 2
        assert "closest pair is 0.000e+00 apart" in err
        assert "min_usable_dist" in err
        assert "--n-max >=" in err and "above the Bessel cap" in err

    def test_bessel_envelopes_default_failure_names_parts(self, capsys):
        # At n_max 400 (the command's default before the potential kinds had
        # their own) the default grid's pairs 0.02 apart leave the times
        # below t_f to the skip bound: the message names both parts of the
        # series certificate, the skip is the larger, and it names the
        # --n-max from which u_floor <= d_min^2 / 240, where the skip has a
        # factor e^{-30} or less.
        code, out, err = run_cli(["verify-envelopes", "--kind", "bessel", "--nu", "0",
                                  "--n-max", "400"], capsys)
        assert code == 2 and out == ""
        assert "potential series certificate" in err and "exceeds tol 1.00e-09" in err
        parts = dict(re.findall(r"(skip below t_f = \S+|modes > 400): (\S+?)[,)]", err))
        assert len(parts) == 2
        values = {name.split(" =")[0]: float(v) for name, v in parts.items()}
        assert values["skip below t_f"] > 1e-9 > values["modes > 400"]
        assert err.rstrip().endswith("the closest pair is 2.000e-02 apart, and its skip "
                                     "is e^-30-small from --n-max 1655")

    def test_bessel_envelopes_pass_at_the_named_n_max(self, capsys):
        code, _, err = run_cli(["verify-envelopes", "--kind", "bessel", "--nu", "0",
                                "--n-max", "400"], capsys)
        need = re.search(r"small from --n-max (\d+)$", err.rstrip()).group(1)
        code, out, _ = run_cli(["verify-envelopes", "--kind", "bessel", "--nu", "0",
                                "--n-max", need, "--out", "-"], capsys)
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("n_max", [["--n-max", "3000"], []])  # [] is the default, 1655
    def test_riesz_failure_at_a_running_n_max_names_the_least_tol(self, n_max, capsys):
        # At sigma = 0.3 < 1/2 the skip below t_f keeps a factor next to its
        # e^{-30}. From --n-max 1655 on, t_f = d_min^2 / 240 no longer moves,
        # so no larger --n-max helps: the message says so and names the
        # least --tol that passes here, the certificate rounded up.
        riesz = ["kernel", "--kind", "riesz", "--nu", "0.5", "--sigma", "0.3", *n_max]
        code, out, err = run_cli([*riesz, "--tol", "1e-12"], capsys)
        assert code == 2 and out == ""
        assert "its skip is e^-30-small from --n-max 1655 on, so it no longer falls with " \
               "--n-max" in err
        least = re.search(r"passes at --n-max (\d+) is this certificate, (\S+)$", err.rstrip())
        assert least.groups() == ((n_max or ["", "1655"])[1], "1.67e-11")
        code, out, _ = run_cli([*riesz, "--tol", least.group(2), "--out", "-"], capsys)
        assert code == 0 and out

    # NU_GRID of scripts/run_verification_suite.py; Riesz needs nu > -1/2.
    @pytest.mark.parametrize("kind,nu", [("bessel", nu) for nu in NU_GRID]
                             + [("riesz", nu) for nu in NU_GRID if float(nu) > -0.5])
    def test_potential_kinds_pass_at_their_defaults(self, kind, nu, capsys):
        # Their own --n-max default, 1655, is where the series certifies the
        # default grids' pairs 0.02 apart.
        for command in ("kernel", "verify-envelopes"):
            code, out, err = run_cli([command, "--kind", kind, "--nu", nu, "--out", "-"], capsys)
            assert code == 0, (command, err)
        code, explicit, _ = run_cli(["verify-envelopes", "--kind", kind, "--nu", nu,
                                     "--n-max", "1655", "--out", "-"], capsys)
        assert explicit == out

    @pytest.mark.parametrize("nu", NU_GRID)
    def test_heat_long_passes_at_its_defaults(self, nu, capsys):
        # heat-long's own --t default is the suite's 1,2.5,5, not the heat
        # kind's list, whose small times lie outside the long-time regime.
        code, out, _ = run_cli(["verify-envelopes", "--kind", "heat-long", "--nu", nu,
                                "--out", "-"], capsys)
        assert code == 0
        code, explicit, _ = run_cli(["verify-envelopes", "--kind", "heat-long", "--nu", nu,
                                     "--t", "1,2.5,5", "--out", "-"], capsys)
        assert code == 0 and explicit == out

    def test_envelopes_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            ["verify-envelopes", "--kind", "heat", "--nu", "0.5", "--grid", "8",
             "--n-max", "200", "--t", "0.01", "--max-spread", "1.0000001", "--out", "-"],
            capsys,
        )
        assert code == 1
        assert "spread violation" in err

    def test_rellich(self, capsys):
        code, out, _ = run_cli(
            ["verify-rellich", "--nu", "2", "--trials", "10", "--out", "-"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["worst_ratio"]["rellich"] <= 1.0 + 1e-6

    def test_zero_bound(self, capsys):
        code, out, _ = run_cli(
            ["verify-zero-bound", "--nu-grid", "8", "--out", "-"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert len(obj["rows"]) == 8

    def test_convergence(self, capsys):
        code, out, _ = run_cli(
            ["convergence", "--nu", "-0.5", "--t", "0.1,0.01,0.001", "--grid", "50",
             "--n-max", "300", "--out", "-"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,sup_error"
        errs = [float(l.split(",")[1]) for l in lines[1:]]
        assert errs == sorted(errs, reverse=True)


class TestKernelCommand:
    def test_heat_surface(self, capsys):
        code, out, _ = run_cli(
            ["kernel", "--kind", "heat", "--nu", "0.5", "--t", "0.05", "--grid", "5",
             "--no-refine", "--n-max", "100", "--out", "-"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,value,n_terms,tail_bound"
        assert len(lines) == 26

    def test_jacobi_heat(self, capsys):
        code, out, _ = run_cli(
            ["kernel", "--kind", "jacobi-heat", "--nu", "0.5",
             "--beta", "-0.5", "--t", "0.05", "--grid", "4", "--no-refine",
             "--n-max", "100", "--out", "-"],
            capsys,
        )
        assert code == 0

    def test_jacobi_heat_without_stated_bound_exits_2(self, capsys):
        """(alpha, beta) = (-0.75, 0.3) is outside both stated Jacobi sup
        bounds; the message names where they hold."""
        code, _, err = run_cli(
            ["kernel", "--kind", "jacobi-heat", "--nu", "-0.75", "--beta", "0.3",
             "--t", "0.05", "--grid", "4", "--out", "-"],
            capsys,
        )
        assert code == 2
        assert "alpha, beta >= -1/2 and for min(alpha, beta) < -1/2 = max(alpha, beta)" in err

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(["kernel", "--kind", "nope", "--nu", "0"], capsys)
        assert code == 2

    def test_missing_command(self, capsys):
        assert main([]) == 2


def per_row_csv(rows) -> str:
    """CSV of row dicts as written one value at a time: "%.17g" % v for a
    float, str(v) otherwise."""
    lines = [",".join(rows[0])]
    lines += [",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row.values())
              for row in rows]
    return "\n".join(lines) + "\n"


class TestColumnArtifacts:
    """CSV artifacts are written column-wise and read as the per-row
    formatting of the same values; the kernel JSON states its parameters."""

    @pytest.mark.parametrize("argv, kind, params", [
        ("--kind heat --nu 0.5 --t 0.06 --grid 12", KernelKind.HEAT, SpectralParams(0.5, 0.5)),
        ("--kind heat --nu 3 --t 0.0605 --grid 9 --no-refine", KernelKind.HEAT,
         SpectralParams(3.0, 0.5)),
        ("--kind jacobi-heat --nu 0 --t 0.05 --grid 6", KernelKind.JACOBI_HEAT,
         JacobiParams(0.0, -0.5)),
    ])
    def test_kernel_csv_is_per_row_formatting(self, argv, kind, params, capsys):
        argv = argv.split() + ["--n-max", "400"]
        code, out, _ = run_cli(["kernel", *argv, "--out", "-"], capsys)
        assert code == 0
        refine = "--no-refine" not in argv
        pairs = bounds.pair_grid(bounds.boundary_refined_coords(int(argv[argv.index("--grid") + 1]),
                                                                refine))
        t = float(argv[argv.index("--t") + 1])
        values = heat_kernel(KernelRequest(kind, params, t, pairs, n_max=400))
        rows = [{"x": x, "y": y, "value": v.value, "n_terms": v.n_terms,
                 "tail_bound": v.tail_bound} for (x, y), v in zip(pairs, values)]
        assert out == per_row_csv(rows)

    def test_zero_bound_csv_is_per_row_formatting(self, capsys):
        code, text, _ = run_cli(["verify-zero-bound", "--nu-grid", "5", "--out", "-"], capsys)
        assert code == 0
        rows = json.loads(text)["rows"]
        code, out, _ = run_cli(["verify-zero-bound", "--nu-grid", "5", "--format", "csv",
                                "--out", "-"], capsys)
        assert code == 0
        assert out == per_row_csv([{k: r[k] for k in ("nu", "z0", "x0", "residual", "pass")}
                                   for r in rows])
        assert all(line.endswith(",True") for line in out.splitlines()[1:])

    @pytest.mark.parametrize("argv, params", [
        ("--kind heat --nu 0.5 --t 0.1", {"nu": 0.5, "H": 0.5, "n_max": 300}),
        ("--kind poisson-shifted --nu -0.75 --h 0.75 --d-nu 2 --t 0.1",
         {"nu": -0.75, "H": 0.75, "d_nu": 2.0, "n_max": 300}),
        ("--kind jacobi-heat --nu 0.5 --beta -0.25 --t 0.1",
         {"alpha": 0.5, "beta": -0.25, "n_max": 300}),
        ("--kind bessel --nu 0 --sigma 1", {"nu": 0.0, "H": 0.5, "n_max": 2000}),
    ])
    def test_kernel_json_states_params(self, argv, params, capsys):
        argv = ["kernel", *argv.split(), "--grid", "3", "--n-max", str(params["n_max"]),
                "--tol", "1e-9", "--out", "-"]
        code, out, err = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0, err
        obj = json.loads(out)
        assert obj["params"] == {**params, "tol": 1e-9, "grid": 3, "no_refine": False}
        assert sorted(obj) == ["kind", "params", "rows", "t_or_sigma"]
        code, out, err = run_cli([*argv, "--no-refine", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["params"]["no_refine"] is True
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and out.startswith("x,y,value,n_terms,tail_bound\n")


class TestInputValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", ",", "0.1,0.2"])
    def test_non_finite_time(self, value, capsys):
        # kernel evaluates one time: an empty list or a second value is
        # refused, not dropped.
        code, _, err = run_cli(["kernel", "--nu", "0", "--t", value, "--grid", "4"], capsys)
        assert code == 2
        assert "usage:" in err and "--t" in err and "finite" in err

    @pytest.mark.parametrize("command", ["zeros", "convergence", "verify-envelopes"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_tolerance_is_usage_error(self, command, value, capsys):
        # convergence --tol inf used to exit 1 (a failed inequality) and
        # zeros --tol nan to exit 0 with NaN in the tol column.
        code, _, err = run_cli([command, "--nu", "0", "--tol", value, "--out", "-"], capsys)
        assert code == 2
        assert "usage:" in err and "--tol" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_h_names_h(self, value, capsys):
        code, _, err = run_cli(
            ["zeros", "--nu", "0", f"--h={value}", "--n-max", "3", "--out", "-"], capsys
        )
        assert code == 2
        assert "H must be finite" in err

    @pytest.mark.parametrize("command", ["kernel", "verify-sandwich", "verify-envelopes", "convergence"])
    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_non_positive_grid_is_usage_error(self, command, grid, capsys):
        code, _, err = run_cli([command, "--nu", "0", "--grid", grid], capsys)
        assert code == 2
        assert "usage:" in err and "--grid" in err

    @pytest.mark.parametrize("args", [["verify-rellich", "--nu", "2", "--trials", "0"],
                                      ["verify-zero-bound", "--nu-grid", "0"],
                                      ["verify-envelopes", "--nu", "0.5", "--t", ","],
                                      ["verify-envelopes", "--kind", "bessel", "--nu", "0",
                                       "--sigma", ","],
                                      ["verify-rellich", "--nu", "2", "--terms", "0"],
                                      ["verify-rellich", "--nu", "2", "--terms", "-1"],
                                      ["verify-envelopes", "--nu", "0.5", "--max-spread", "nan"],
                                      ["verify-envelopes", "--nu", "0.5", "--max-spread", "0"]])
    def test_empty_sweep_is_usage_error(self, args, capsys):
        # Zero trials, grid points, times or terms would check nothing and
        # report a pass; a negative term count or a spread bound that no
        # ratio meets would fail every check for a reason not in the kernel.
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert "usage:" in err and args[-2] in err

    @pytest.mark.parametrize("args, message", [
        (["--kind", "poisson", "--d-nu", "nan"], "argument --d-nu: must be finite, got nan"),
        (["--kind", "poisson", "--d-nu", "inf"], "argument --d-nu: must be finite, got inf"),
        (["--kind", "heat-long", "--t", "inf"], "argument --t: must be"),
    ])
    def test_non_finite_envelope_argument(self, args, message, capsys):
        # Refused at parse time, before any basis or ratio is formed.
        code, _, err = run_cli(["verify-envelopes", "--nu", "0.5", "--t", "0.1", "--grid", "4",
                                *args], capsys)
        assert code == 2
        assert message in err and "verification failure" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_shift_is_refused_at_parse_time(self, value, capsys):
        code, out, err = run_cli(["kernel", "--kind", "poisson-shifted", "--nu", "0",
                                  "--d-nu", value], capsys)
        assert code == 2 and out == ""
        assert "usage: dini kernel" in err
        assert f"argument --d-nu: must be finite, got {value}" in err

    @pytest.mark.parametrize("args", [
        "kernel --kind bessel --nu 0 --sigma 200 --grid 4 --n-max 100",
        "kernel --kind riesz --nu 0.5 --sigma 0 --grid 4 --n-max 100",
        "kernel --kind bessel --nu 0 --sigma -1 --grid 4 --n-max 100",
        "kernel --kind bessel --nu 0 --sigma 1e-7 --grid 4 --n-max 100",
        "verify-envelopes --kind bessel --nu 0 --sigma 0.5,60 --grid 4",
    ])
    def test_sigma_outside_range_is_usage_error(self, args, capsys):
        code, out, err = run_cli(args.split(), capsys)
        assert code == 2 and out == ""
        assert "argument --sigma: must be potential powers sigma in [1e-06, 50]" in err

    def test_zeros_tol_below_floor_is_refused(self, capsys):
        # The table certifies no tol below 1e-13; the CLI passes tol as given.
        code, out, err = run_cli(
            ["zeros", "--nu", "0", "--n-max", "5", "--tol", "1e-15", "--out", "-"], capsys
        )
        assert code == 2 and out == ""
        assert "tol must be finite and >= 1e-13, got 1e-15" in err

    def test_sandwich_h_other_than_half_is_usage_error(self, capsys):
        code, _, err = run_cli(["verify-sandwich", "--nu", "2", "--h", "7"], capsys)
        assert code == 2
        assert "usage:" in err and "unrecognized arguments: --h 7" in err

    def test_unexpected_exception_exits_2(self, monkeypatch, capsys):
        def broken(cfg):
            raise ValueError("boom")

        monkeypatch.setitem(cli.DISPATCH, "zeros", broken)
        code, _, err = run_cli(["zeros", "--nu", "0"], capsys)
        assert code == 2
        assert "ValueError: boom" in err


class TestExitCodes:
    """1 means an inequality failed; a broken internal invariant is a
    numerical error, 2."""

    def test_invariant_failure_exits_2(self, monkeypatch, capsys):
        # A sup bound below the basis values breaks the engine's invariant.
        monkeypatch.setattr(kernels, "certified_sup", lambda basis, xs: 1e-3)
        code, _, err = run_cli(
            ["kernel", "--kind", "heat", "--nu", "0.5", "--t", "0.05", "--grid", "5",
             "--n-max", "100", "--out", "-"],
            capsys,
        )
        assert code == 2
        assert "exceeds the sup bound" in err and "verification failure" not in err

    def test_rellich_violation_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(bounds, "_trial_function_norms", lambda nu, c: (10.0, 1.0, 1.0))
        code, _, err = run_cli(["verify-rellich", "--nu", "2", "--trials", "3"], capsys)
        assert code == 1
        assert "verification failure: weighted-norm inequality violated" in err

    def test_poisson_leak_fails_before_heat_grid(self, monkeypatch, capsys):
        """Diagonal pairs below the resolvable time scale: exit 2 with the
        subordination message, before any heat row of a heat grid is built."""
        calls = []
        original = kernels.PairEngine._heat_rows

        def spy(self, ts, *args):
            calls.append(ts.size)
            return original(self, ts, *args)

        monkeypatch.setattr(kernels.PairEngine, "_heat_rows", spy)
        code, _, err = run_cli(
            ["kernel", "--kind", "poisson", "--nu", "0.5", "--t", "0.001", "--grid", "60",
             "--n-max", "3000", "--out", "-"],
            capsys,
        )
        assert code == 2
        assert "subordinated Poisson certificate inf too large at t=1.000e-03" in err
        assert "closest pair is 0.000e+00 apart" in err and "min_usable_dist" in err
        assert calls == []

    HEAT_LONG = ["verify-envelopes", "--kind", "heat-long", "--nu", "0", "--out", "-", "--t"]

    def test_heat_long_unresolved_value_exits_2(self, capsys):
        """At t = 1e-4 a heat-long value lies at or below 0 but within its
        tail bound of 0: its ratio is unresolved, not a failed inequality, so
        exit 2 naming the kind, pair, t, value and bound; t = 1 passes."""
        code, _, err = run_cli(self.HEAT_LONG + ["1e-4"], capsys)
        assert code == 2 and "verification failure" not in err
        assert re.search(r"heat-long kernel at \(\S+, \S+\), t=0\.0001: value -\S+ is within its "
                         r"tail bound \S+ of 0", err), err
        assert run_cli(self.HEAT_LONG + ["1"], capsys)[0] == 0

    def test_heat_long_value_below_its_bound_exits_1(self, monkeypatch, capsys):
        """A value below minus its tail bound (here -1, against bounds of at
        most tol) is a resolved non-positive ratio: exit 1."""
        heat = kernels.PairEngine.heat_values

        def negative(eng, *args):
            vals, n_terms, bound = heat(eng, *args)
            return np.full_like(vals, -1.0), n_terms, bound

        monkeypatch.setattr(kernels.PairEngine, "heat_values", negative)
        code, _, err = run_cli(self.HEAT_LONG + ["1"], capsys)
        assert code == 1 and "non-positive ratio" in err


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        args = ["kernel", "--kind", "heat", "--nu", "0.3", "--t", "0.05",
                "--grid", "5", "--n-max", "100"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_json_determinism(self, tmp_path):
        args = ["verify-sandwich", "--nu", "0.25", "--t", "0.1", "--grid", "6",
                "--n-max", "150"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestOptionTable:
    """Each command reads exactly the options it declares, and each --kind
    the ones it reads beyond those: anything else is a usage error."""

    @pytest.mark.parametrize("args, option", [
        ("verify-envelopes --kind heat --nu 0.5 --d-nu 1 --t 0.1 --grid 4", "--d-nu"),
        ("kernel --kind heat --nu 0.5 --alpha 3 --grid 3", "--alpha"),
        # jacobi-heat reads alpha from --nu, the alpha = nu of verify-sandwich.
        ("kernel --kind jacobi-heat --nu 0 --alpha 0.5 --t 0.05 --grid 3",
         "unrecognized arguments: --alpha 0.5"),
        ("kernel --kind poisson --nu 0.5 --d-nu 7 --t 0.1 --grid 3", "--d-nu"),
        ("kernel --kind jacobi-heat --nu 0 --h 9 --t 0.05 --grid 3", "--h"),
        ("kernel --kind bessel --nu 0 --t 0.1 --grid 3", "--t"),
        ("verify-envelopes --kind bessel --nu 0 --tol 1e-12 --grid 4", "--tol"),
        ("verify-zero-bound --nu 3", "--nu"),
        ("verify-rellich --nu 2 --h 7", "--h"),
        ("basis-check --nu 0.7 --tol 0.5", "--tol"),
        ("verify-sandwich --nu 2 --format csv", "--format"),
    ])
    def test_option_not_read_is_refused(self, args, option, capsys):
        code, out, err = run_cli(args.split(), capsys)
        assert code == 2 and out == ""
        assert option in err

    @pytest.mark.parametrize("args, kind, options", [
        ("kernel --kind heat --nu 0.5 --sigma 9 --grid 3", "heat", "--sigma"),
        ("kernel --kind heat --nu 0.5 --beta 3 --sigma 9 --grid 3", "heat", "--sigma, --beta"),
        ("kernel --kind heat --nu 0.5 --d-nu 1 --grid 3", "heat", "--d-nu"),
        ("kernel --nu 0.5 --beta -0.5 --grid 3", "heat", "--beta"),
        ("verify-envelopes --kind riesz --nu 0.5 --d-nu 1 --grid 4", "riesz", "--d-nu"),
    ])
    def test_kind_refusal_names_option_and_kind(self, args, kind, options, capsys):
        # Given at its default value, or with --kind left at its default,
        # an option that the kind does not read is still refused.
        code, out, err = run_cli(args.split(), capsys)
        assert code == 2 and out == ""
        assert f"--kind {kind} does not read {options}" in err

    @pytest.mark.parametrize("kind", ["poisson", "bessel", "riesz"])
    @pytest.mark.parametrize("tol", ["1e-12", "5e-10"])
    def test_tol_below_kind_floor_is_refused(self, kind, tol, capsys):
        code, out, err = run_cli(["verify-envelopes", "--kind", kind, "--nu", "0",
                                  "--tol", tol, "--grid", "4"], capsys)
        assert code == 2 and out == ""
        assert f"argument --tol: --kind {kind} runs at tol >= 1e-9, got {tol}" in err

    def test_nu_is_not_an_abbreviation_of_nu_grid(self, capsys):
        for args in (["verify-zero-bound", "--nu", "3"], ["verify-zero-bound", "--nu-g", "3"]):
            code, out, err = run_cli(args, capsys)
            assert code == 2 and out == ""
            assert f"unrecognized arguments: {args[1]} 3" in err

    def test_help_lists_only_options_read(self, capsys):
        assert main(["verify-rellich", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--trials" in text and "--seed" in text
        assert all(f"{o} " not in text for o in ("--h", "--n-max", "--tol", "--format"))

    @pytest.mark.parametrize("args", [
        ["--kind", "poisson", "--nu", "0.5", "--d-nu", "0", "--t", "0.1,1", "--grid", "8",
         "--n-max", "800"],
        ["--kind", "bessel", "--nu", "0", "--sigma", "1", "--grid", "6", "--n-max", "2500"],
    ])
    def test_default_tol_of_floored_kinds_is_the_floor(self, args, capsys):
        # The Poisson and potential sweeps default to tol = 1e-9, so leaving
        # --tol out writes the bytes that --tol 1e-9 writes.
        code, default, _ = run_cli(["verify-envelopes", *args, "--out", "-"], capsys)
        assert code == 0
        code, floor, _ = run_cli(["verify-envelopes", *args, "--tol", "1e-9", "--out", "-"],
                                 capsys)
        assert code == 0 and floor == default


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


class TestScriptArguments:
    @pytest.mark.parametrize("name", ["run_verification_suite.py", "kernel_surface_demo.py"])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_usage(self, name, flag, tmp_path):
        code, out, _ = run_script(name, [flag], tmp_path)
        assert code == 0
        assert f"python scripts/{name} [-h]" in out
        assert list(tmp_path.iterdir()) == []

    def test_suite_refuses_dash_output_directory(self, tmp_path):
        code, out, err = run_script("run_verification_suite.py", ["--out"], tmp_path)
        assert code == 2 and out == ""
        assert "output directory '--out'" in err
        assert list(tmp_path.iterdir()) == []
