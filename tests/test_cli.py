"""Command-line interface: spec grammar, subcommand payloads, exit codes,
output determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import varfrac.cli as cli
from varfrac.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_alpha,
    parse_f,
    parse_ngrid,
    parse_targets,
)
from varfrac.core import GridFunction, NumericalError
from varfrac.orders import (
    Constant,
    ExpOffset,
    LogPower,
    LogPowerOffset,
    PowerOffset,
    ReciprocalLog,
    Tabulated,
)
from varfrac.spectral import assemble_matrix, singular_values


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestGrammar:
    def test_alpha_specs(self):
        assert isinstance(parse_alpha("const:0.5"), Constant)
        assert isinstance(parse_alpha("ex1:0.5,1,1"), PowerOffset)
        assert isinstance(parse_alpha("ex2:0.5,1,1"), LogPowerOffset)
        assert isinstance(parse_alpha("ex3:0.5,1,1"), ExpOffset)
        assert isinstance(parse_alpha("ex4:0.5"), LogPower)
        assert isinstance(parse_alpha("reclog"), ReciprocalLog)

    def test_alpha_csv(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("t,alpha\n0.0,0.5\n1.0,1.5\n")
        alpha = parse_alpha(f"csv:{path}")
        assert isinstance(alpha, Tabulated)
        assert float(alpha.eval(0.5)) == pytest.approx(1.0, abs=1e-14)

    def test_bad_alpha_specs(self):
        for spec in ("foo:1", "ex1:0.5", "const:", "reclog:1"):
            with pytest.raises(ValueError):
                parse_alpha(spec)

    def test_f_specs(self):
        assert parse_f("one")(0.3) == 1.0
        assert parse_f("ramp")(0.3) == pytest.approx(0.3)
        cos3 = parse_f("cos3")
        assert cos3.nodes.size == 257
        assert cos3(0.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            parse_f("sin")

    def test_targets(self):
        assert np.array_equal(parse_targets("3"), [0.0, 0.5, 1.0])
        assert np.array_equal(parse_targets("0.25,0.75"), [0.25, 0.75])
        # a single float is a point, not a count
        assert np.array_equal(parse_targets("1.0"), [1.0])
        # only a bare integer is a count; any other number is a point
        assert np.array_equal(parse_targets("5e-1"), [0.5])
        with pytest.raises(ValueError):
            parse_targets("1")

    def test_ngrid(self):
        assert parse_ngrid("2^3..2^5") == [8, 16, 32]
        assert parse_ngrid("10,55,1000") == [10, 55, 1000]
        assert parse_ngrid("2^1023..2^1023") == parse_ngrid(f"{2**1023}") == [2**1023]
        # an index near 2^1024 does not convert to a float
        for spec in (
            "2^5..2^3",
            "4,3",
            "3..5",
            "2^6..2^1024",
            f"16,{2**1024}",
            f"16,{2**1024 - 1}",
        ):
            with pytest.raises(ValueError):
                parse_ngrid(spec)


class TestApply:
    def test_identity_order_returns_primitive(self, capsys):
        rc, out, _ = run(
            capsys, "apply", "--alpha", "const:1", "--f", "one", "--targets", "0,0.5,1"
        )
        assert rc == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["t", "value"]
        got = {float(t): float(v) for t, v in rows}
        assert got[0.0] == pytest.approx(0.0, abs=1e-12)
        assert got[0.5] == pytest.approx(0.5, abs=1e-12)
        assert got[1.0] == pytest.approx(1.0, abs=1e-12)

    def test_half_order_endpoint_value(self, capsys):
        rc, out, _ = run(
            capsys, "apply", "--alpha", "const:0.5", "--f", "one", "--targets", "1.0"
        )
        assert rc == EXIT_OK
        _, rows = csv_rows(out)
        assert float(rows[0][1]) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-10)

    def test_adjoint_at_left_end(self, capsys):
        rc, out, _ = run(
            capsys,
            "apply", "--alpha", "const:0.5", "--f", "one",
            "--targets", "0.0", "--adjoint",
        )
        assert rc == EXIT_OK
        _, rows = csv_rows(out)
        assert float(rows[0][1]) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-10)

    def test_variable_order_to_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        rc, out, _ = run(
            capsys,
            "apply", "--alpha", "ex1:0.5,1,1", "--f", "cos3",
            "--targets", "17", "--output", str(path),
        )
        assert rc == EXIT_OK and out == ""
        _, rows = csv_rows(path.read_text())
        vals = np.array([float(v) for _, v in rows])
        assert vals.size == 17 and np.all(np.isfinite(vals))

    def test_csv_input_function(self, tmp_path, capsys):
        fpath = tmp_path / "f.csv"
        fpath.write_text("t,v\n0.0,1.0\n1.0,1.0\n")
        rc, out, _ = run(
            capsys, "apply", "--alpha", "const:1", f"--f=csv:{fpath}", "--targets", "0.5,1.0"
        )
        assert rc == EXIT_OK
        _, rows = csv_rows(out)
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)

    def test_csv_step_function_round_trip(self, tmp_path, capsys):
        fpath = tmp_path / "step.csv"
        GridFunction((0.0, 0.5, 1.0), (1.0, 3.0, 3.0), "step").to_csv(str(fpath))
        rc, out, _ = run(
            capsys, "apply", "--alpha", "const:1", f"--f=csv:{fpath}", "--targets", "0.25,0.75"
        )
        assert rc == EXIT_OK
        _, rows = csv_rows(out)
        assert [float(v) for _, v in rows] == pytest.approx([0.25, 1.25], abs=1e-14)

    def test_csv_step_order_follows_directive(self, tmp_path, capsys):
        # alpha = 0.5 on [0, 0.5): R 1 at 0.25 is 0.25^0.5 / Gamma(1.5); the
        # linear reading of the same rows has alpha(0.25) = 1 and gives 0.25
        path = tmp_path / "alpha.csv"
        path.write_text("# interpretation=step\nt,alpha\n0.0,0.5\n0.5,1.5\n1.0,1.5\n")
        rc, out, _ = run(
            capsys, "apply", "--alpha", f"csv:{path}", "--f", "one", "--targets", "0.25"
        )
        assert rc == EXIT_OK
        assert csv_rows(out)[1] == [["0.25", "0.5641895835477563"]]

    def test_csv_order_bad_directive_rejected(self, tmp_path, capsys):
        path = tmp_path / "alpha.csv"
        path.write_text("# interpretation=cubic\n0.0,0.5\n1.0,1.5\n")
        rc, out, err = run(capsys, "apply", "--alpha", f"csv:{path}", "--targets", "0.25")
        assert rc == EXIT_USAGE and out == ""
        assert "cubic" in err

    def test_n_cells_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["apply", "--alpha", "ex1:0.5,1,2", "--f", "cos3", "--n-cells", "256"])
        assert exc.value.code == EXIT_USAGE
        assert "--n-cells" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--f", "--alpha"])
    def test_nan_node_in_csv_rejected(self, tmp_path, capsys, flag):
        path = tmp_path / "nan.csv"
        path.write_text("0.0,0.5\nnan,0.6\n1.0,0.7\n")
        specs = {"--alpha": "const:0.5", "--f": "one", flag: f"csv:{path}"}
        rc, out, err = run(
            capsys, "apply", "--alpha", specs["--alpha"], "--f", specs["--f"],
            "--targets", "0.5,1.0",
        )
        assert rc == EXIT_USAGE and out == ""
        assert "strictly increasing" in err

    def test_order_past_gamma_overflow_gives_zero(self, capsys):
        # Gamma(200) overflows a double: 1/Gamma is 0, not an error
        rc, out, _ = run(capsys, "apply", "--alpha", "const:200", "--targets", "0.5,1.0")
        assert rc == EXIT_OK
        _, rows = csv_rows(out)
        assert [v for _, v in rows] == ["0.0", "0.0"]


class TestDiagnose:
    def test_l1criterion_constant(self, capsys):
        rc, out, _ = run(capsys, "diagnose", "--alpha", "const:0.5", "--check", "l1criterion")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["check"] == "l1criterion"
        assert payload["report"]["divergent"] is False
        assert payload["report"]["value"] == pytest.approx(1.0, abs=1e-8)

    def test_l1norm_divergent_is_null(self, capsys):
        rc, out, _ = run(capsys, "diagnose", "--alpha", "reclog", "--check", "l1norm")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["report"]["divergent"] is True
        assert payload["report"]["value"] is None

    def test_compactness_both_endpoints(self, capsys):
        rc, out, _ = run(capsys, "diagnose", "--alpha", "reclog", "--check", "compact-zero")
        assert rc == EXIT_OK
        assert json.loads(out)["report"]["verdict"] == "NonCompact"
        rc, out, _ = run(capsys, "diagnose", "--alpha", "reclog", "--check", "compact-one")
        assert rc == EXIT_OK
        assert json.loads(out)["report"]["verdict"] == "Compact"

    def test_lptolinf_identity_order(self, capsys):
        rc, out, _ = run(
            capsys, "diagnose", "--alpha", "const:1", "--check", "lptolinf", "--p", "2"
        )
        assert rc == EXIT_OK
        assert json.loads(out)["report"]["value"] == pytest.approx(1.0, rel=1e-9)


class TestSpectrum:
    def test_assembled_spectrum_csv(self, capsys):
        rc, out, _ = run(capsys, "spectrum", "--alpha", "const:1", "--n", "256")
        assert rc == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["k", "sigma_k"]
        assert len(rows) == 256
        assert float(rows[0][1]) == pytest.approx(2.0 / math.pi, rel=0.01)

    def test_fit_payload(self, capsys):
        rc, out, _ = run(
            capsys,
            "spectrum", "--alpha", "const:0.5", "--fit",
            "--n-max", "32", "--n", "256", "--fit-lo", "8", "--fit-hi", "32",
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["slope"] == pytest.approx(-0.5, abs=0.1)
        assert payload["converged"] is True
        assert payload["fit_range"] == [8, 32]
        assert len(payload["values"]) == 32

    @pytest.mark.parametrize(
        "window",
        [
            ("--n-max", "4"),  # default --fit-lo 8 lies past the last index
            ("--n-max", "16", "--fit-lo", "0"),
            ("--n-max", "16", "--fit-lo", "5", "--fit-hi", "5"),  # a one-point fit
        ],
        ids=["lo-past-n-max", "lo-zero", "one-point"],
    )
    def test_bad_fit_window_rejected_before_assembly(self, capsys, monkeypatch, window):
        def never(*args, **kwargs):
            raise AssertionError("the fit window is checked before any assembly")

        monkeypatch.setattr(cli, "approximation_numbers", never)
        rc, out, err = run(
            capsys, "spectrum", "--alpha", "const:0.5", "--fit", "--n", "128", *window
        )
        assert rc == EXIT_USAGE and out == ""
        assert "--fit-lo" in err and "--fit-hi" in err and "--n-max" in err

    @pytest.mark.parametrize(
        "exponents",
        [("--p", "3"), ("--q", "1.5"), ("--p", "3", "--q", "1.5")],
        ids=["p", "q", "both"],
    )
    def test_fit_rejects_non_l2_exponents_before_assembly(self, capsys, monkeypatch, exponents):
        def never(*args, **kwargs):
            raise AssertionError("the exponents are checked before any assembly")

        monkeypatch.setattr(cli, "approximation_numbers", never)
        rc, out, err = run(
            capsys, "spectrum", "--alpha", "const:0.5", "--fit", "--n", "128", *exponents
        )
        assert rc == EXIT_USAGE and out == ""
        assert "--p" in err and "--q" in err

    @pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
    def test_needs_exactly_one_of_alpha_and_matrix(self, tmp_path, capsys, both):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        source = ("--alpha", "const:1", "--matrix", str(path)) if both else ()
        rc, out, err = run(capsys, "spectrum", "--n", "8", *source)
        assert rc == EXIT_USAGE and out == ""
        assert "--alpha" in err and "--matrix" in err

    @pytest.mark.parametrize(
        "flags",
        [("--fit",), ("--n", "4"), ("--r", "0.5"), ("--p", "3"), ("--q", "1.5")],
        ids=["fit", "n", "r", "p", "q"],
    )
    def test_matrix_rejects_unread_flags_before_reading(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        def never(*args, **kwargs):
            raise AssertionError("the flags are checked before the file is read")

        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        monkeypatch.setattr(cli, "read_table", never)
        rc, out, err = run(capsys, "spectrum", "--matrix", str(path), *flags)
        assert rc == EXIT_USAGE and out == ""
        assert flags[0] in err

    @pytest.mark.parametrize("n", ["4097", "100000"])
    def test_dense_cap_checked_before_assembly(self, capsys, monkeypatch, n):
        def never(*args, **kwargs):
            raise AssertionError("the size is checked before any assembly")

        monkeypatch.setattr(cli, "assemble_matrix", never)
        rc, out, err = run(capsys, "spectrum", "--alpha", "const:0.5", "--n", n)
        assert rc == EXIT_USAGE and out == ""
        assert "4096" in err

    def test_zero_size_rejected(self, capsys):
        rc, out, err = run(capsys, "spectrum", "--alpha", "const:0.5", "--n", "0")
        assert rc == EXIT_USAGE and out == ""
        assert "n >= 1" in err

    def test_matrix_echo(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("# any comment\n3,0,0\n0,2,0\n0,0,1\n")
        rc, out, _ = run(capsys, "spectrum", "--matrix", str(path))
        assert rc == EXIT_OK
        _, rows = csv_rows(out)
        assert [float(v) for _, v in rows] == [3.0, 2.0, 1.0]

    def test_matrix_with_header_row(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("c0,c1,c2\n3,0,0\n0,2,0\n0,0,1\n")
        rc, out, _ = run(capsys, "spectrum", "--matrix", str(path))
        assert rc == EXIT_OK
        _, rows = csv_rows(out)
        assert [float(v) for _, v in rows] == [3.0, 2.0, 1.0]

    def test_matrix_late_non_numeric_row_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("3,0,0\n0,2,0\nc0,c1,c2\n0,0,1\n")
        rc, out, err = run(capsys, "spectrum", "--matrix", str(path))
        assert rc == EXIT_USAGE and out == ""
        assert "m.csv:3:" in err

    def test_sub_roundoff_values_print_as_zero(self, capsys):
        rc, out, _ = run(capsys, "spectrum", "--alpha", "ex1:0.5,1,1", "--n", "256")
        assert rc == EXIT_OK
        sv = singular_values(assemble_matrix(PowerOffset(0.5, 1.0, 1.0), 256))
        floor = 256 * np.finfo(float).eps * sv[0]
        _, rows = csv_rows(out)
        assert len(rows) == 256 and sv[-1] < floor
        assert rows[-1] == ["256", "0.0"]
        for (k, text), v in zip(rows, sv):
            assert text == (repr(float(v)) if v >= floor else "0.0"), k

    def test_non_finite_matrix_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,0,0\n0.5,nan,0\n0,0,1\n")
        rc, out, err = run(capsys, "spectrum", "--matrix", str(path))
        assert rc == EXIT_USAGE and out == ""
        assert "finite" in err

    def test_non_square_matrix_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,0,0\n0,1,0\n")
        rc, _, err = run(capsys, "spectrum", "--matrix", str(path))
        assert rc == EXIT_USAGE
        assert "not square" in err


class TestEntropy:
    def test_bracket_csv(self, tmp_path, capsys):
        path = tmp_path / "bracket.csv"
        rc, out, _ = run(
            capsys,
            "entropy", "--alpha", "ex1:0.5,1,1",
            "--n-grid", "2^6..2^12", "--output", str(path),
        )
        assert rc == EXIT_OK and out == ""
        header, rows = csv_rows(path.read_text())
        assert header == ["n", "lower", "upper", "predicted"]
        for _, lo, up, _pred in rows:
            assert float(lo) <= float(up)

    def test_fit_json_on_stdout_with_csv_to_file(self, tmp_path, capsys):
        path = tmp_path / "bracket.csv"
        rc, out, _ = run(
            capsys,
            "entropy", "--alpha", "ex1:0.5,1,1", "--n-grid", "2^6..2^13",
            "--fit", "power_log", "--output", str(path),
        )
        assert rc == EXIT_OK
        assert path.exists()
        payload = json.loads(out)
        assert payload["family"] == "Example1"
        assert set(payload["fits"]) == {"upper", "lower", "predicted"}
        pred_slope = payload["fits"]["predicted"]["coefficients"][2]
        assert pred_slope == pytest.approx(-0.5, rel=0.2)

    def test_threshold_family_has_empty_lower_cells(self, capsys):
        rc, out, _ = run(capsys, "entropy", "--alpha", "ex4:0.5", "--n-grid", "64,128")
        assert rc == EXIT_OK
        _, rows = csv_rows(out)
        assert all(row[1] == "" for row in rows)

    @pytest.mark.parametrize(
        "spec, family, params",
        [
            ("ex1:0.5,1,1", "Example1", {"alpha0": 0.5, "gamma": 1.0, "lam": 1.0}),
            ("ex2:0.5,1,2", "Example2", {"alpha0": 0.5, "gamma": 2.0, "lam": 1.0}),
            ("ex3:0.5,1,1", "Example3", {"alpha0": 0.5, "gamma": 1.0, "lam": 1.0}),
            ("ex4:0.5", "Example4", {"gamma": 0.5}),
        ],
    )
    def test_fit_payload_family_and_params(self, capsys, spec, family, params):
        rc, out, _ = run(
            capsys, "entropy", "--alpha", spec, "--n-grid", "2^6..2^11", "--fit", "power"
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["alpha"] == spec
        assert payload["family"] == family
        assert payload["params"] == params
        assert all(type(v) is float for v in payload["params"].values())

    @pytest.mark.parametrize(
        "spec, grid, value, smallest",
        [
            ("ex2:0.5,1,1", "16,32", 16, 17),
            ("ex3:0.5,1,1", "16,32", 16, 17),
            ("ex2:0.5,1,1", "2^1..2^5", 2, 17),
            ("ex2:0.5,1,1", "2,40", 2, 17),
            ("ex1:0.5,1,1", "13,64", 13, 14),
            ("ex4:0.5", "15,64", 15, 16),
        ],
    )
    def test_grid_below_the_matched_index_floor_names_the_grid_value(
        self, capsys, spec, grid, value, smallest
    ):
        rc, out, err = run(capsys, "entropy", "--alpha", spec, "--n-grid", grid)
        assert rc == EXIT_USAGE and out == ""
        assert f"at least {smallest}; got {value}\n" in err
        rc, _, _ = run(capsys, "entropy", "--alpha", spec, "--n-grid", f"{smallest},64")
        assert rc == EXIT_OK

    def test_non_family_alpha_rejected(self, capsys):
        for spec in ("const:0.5", "reclog"):
            rc, _, err = run(capsys, "entropy", "--alpha", spec, "--n-grid", "64,128")
            assert rc == EXIT_USAGE
            assert "ex1..ex4" in err

    def test_threshold_family_gamma_range_rejected(self, capsys):
        rc, _, err = run(capsys, "entropy", "--alpha", "ex4:1", "--n-grid", "64,128")
        assert rc == EXIT_USAGE
        assert "gamma in (0, 1)" in err


class TestVerify:
    def test_identities_pass(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "identities", "--alpha", "ex1:0.5,1,2",
            "--n-cells", "256",
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["semigroup"]["fine"] <= 0.75 * payload["semigroup"]["coarse"] + 1e-12

    def test_identities_pass_at_discrepancy_floor(self, capsys, monkeypatch):
        # the --n-cells 100000 discrepancies of const:0.5: both at the floor,
        # though the finer is 0.88 of the coarser
        floor = {100000: 3.8317877759652674e-09, 200000: 3.357891131816615e-09}
        monkeypatch.setattr(cli, "verify_semigroup", lambda a, b, f, n: floor[n])
        monkeypatch.setattr(cli, "verify_scaling", lambda *args: 2.220446049250313e-16)
        rc, out, _ = run(
            capsys, "verify", "--suite", "identities", "--alpha", "const:0.5",
            "--n-cells", "100000",
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["semigroup"]["pass"] is True and payload["pass"] is True

    @pytest.mark.parametrize(
        "coarse, fine, verdict",
        [
            (1e-4, 0.75e-4, True),  # contracts
            (1e-4, 0.9e-4, False),  # does not contract, above the floor
            (3.8e-9, 3.4e-9, True),  # both at the floor
            (1e-8, 1e-8, True),
            (2e-8, 1.9e-8, False),  # both above the floor
            (2e-8, 9e-9, True),  # contracts
            (9e-9, 2e-8, False),  # the finer is above the floor
            (1.0, 0.06, False),  # contracts, past the absolute cap
        ],
    )
    def test_identity_verdict(self, coarse, fine, verdict):
        assert cli._identity_pass(coarse, fine) is verdict

    @pytest.mark.parametrize("n", [str(cli.MAX_N_CELLS + 1), "100000000"])
    def test_identities_n_cells_cap_checked_before_work(self, capsys, monkeypatch, n):
        def never(*args, **kwargs):
            raise AssertionError("the cell count is checked before any work")

        monkeypatch.setattr(cli, "verify_semigroup", never)
        monkeypatch.setattr(cli, "verify_scaling", never)
        rc, out, err = run(capsys, "verify", "--suite", "identities", "--n-cells", n)
        assert rc == EXIT_USAGE and out == ""
        assert str(cli.MAX_N_CELLS) in err and "--n-cells" in err

    def test_identities_reject_single_cell(self, capsys):
        rc, out, err = run(
            capsys, "verify", "--suite", "identities", "--alpha", "const:0.5",
            "--n-cells", "1",
        )
        assert rc == EXIT_USAGE and out == ""
        assert "n_cells" in err

    def test_witness_flags(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "witness", "--alpha", "reclog")
        payload = json.loads(out)
        assert rc == EXIT_OK
        assert payload["liminf_positive"] is True and payload["decays"] is False

        rc, out, _ = run(capsys, "verify", "--suite", "witness", "--alpha", "ex1:0.5,1,2")
        payload = json.loads(out)
        assert payload["liminf_positive"] is False and payload["decays"] is True

    def test_maxbound_no_violations(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "maxbound", "--seed", "7", "--trials", "25"
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True and payload["violations"] == 0
        assert payload["worst_excess"] <= 0.0

    def test_maxbound_byte_identical_under_fixed_seed(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc, _, _ = run(
                capsys,
                "verify", "--suite", "maxbound", "--seed", "11",
                "--trials", "10", "--output", str(path),
            )
            assert rc == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, varfrac.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


class TestExitCodes:
    def test_bad_alpha_spec(self, capsys):
        rc, _, err = run(capsys, "apply", "--alpha", "nope:1")
        assert rc == EXIT_USAGE
        assert "varfrac:" in err

    def test_bad_order_parameters(self, capsys):
        rc, _, err = run(capsys, "apply", "--alpha", "const:-0.5")
        assert rc == EXIT_USAGE

    def test_invalid_common_exponent(self, capsys):
        rc, _, err = run(
            capsys, "diagnose", "--alpha", "const:1", "--check", "lptolinf", "--p", "0.5"
        )
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("diagnose", "--alpha", "const:0.5", "--check", "l1norm", "--p", "nan"),
            ("verify", "--suite", "identities", "--n-cells", "16", "--p", "nan"),
        ],
        ids=["diagnose", "verify"],
    )
    def test_nan_exponent_rejected(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == EXIT_USAGE and out == ""
        assert "p=nan" in err

    def test_negative_seed(self, capsys):
        rc, _, _ = run(
            capsys, "verify", "--suite", "maxbound", "--seed", "-3", "--trials", "5"
        )
        assert rc == EXIT_USAGE

    def test_unwritable_output_leaves_no_file(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        rc, _, err = run(
            capsys,
            "apply", "--alpha", "const:1", "--targets", "3", "--output", str(target),
        )
        assert rc == EXIT_USAGE
        assert not target.exists()
        assert not target.parent.exists()

    def test_numerical_failure_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic quadrature failure")

        monkeypatch.setattr(cli, "rl_values", boom)
        rc, _, err = run(capsys, "apply", "--alpha", "const:1", "--targets", "3")
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in err
