"""Command-line interface: exit codes, report schema, determinism."""

import json

import numpy as np
import pytest

import fftlasso.ipm
import fftlasso.pcg
from conftest import fail_on_call
from fftlasso.cli import (
    EXIT_INPUT_ERROR,
    EXIT_MAX_ITERS,
    EXIT_OK,
    EXIT_STALLED,
    _config,
    _write_report,
    build_parser,
    main,
)
from fftlasso.ipm import IpmConfig, SolveReport
from fftlasso.dataio import read_volume, write_volume
from fftlasso.errors import NumericalBreakdownError


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def strip_timings(records):
    cleaned = []
    for rec in records:
        rec = {k: v for k, v in rec.items() if k != "wall_time"}
        cleaned.append(json.dumps(rec, sort_keys=True))
    return "\n".join(cleaned)


@pytest.fixture
def problem_files(tmp_path):
    signal = str(tmp_path / "signal.f64")
    mask = str(tmp_path / "mask.idx")
    code = main([
        "generate", "--dims", "8,8,8", "--noise-seed", "3", "--missing-seed", "4",
        "--signal", signal, "--mask", mask,
    ])
    assert code == EXIT_OK
    return signal, mask, tmp_path


class TestGenerate:
    def test_writes_files(self, problem_files):
        signal, mask, _ = problem_files
        values, dims = read_volume(signal)
        assert dims == (8, 8, 8)
        assert values.size == 512

    def test_truth_output(self, tmp_path):
        truth = str(tmp_path / "truth.f64")
        code = main([
            "generate", "--dims", "4,4", "--signal", str(tmp_path / "s.f64"),
            "--mask", str(tmp_path / "m"), "--truth", truth,
        ])
        assert code == EXIT_OK
        values, _ = read_volume(truth)
        assert values[0] == pytest.approx(1.0)

    def test_empty_dims_part(self, tmp_path, capsys):
        code = main([
            "generate", "--dims", "4,,x", "--signal", str(tmp_path / "s"),
            "--mask", str(tmp_path / "m"),
        ])
        assert_input_error(code, capsys)
        assert not (tmp_path / "s").exists()

    def test_unwritable_mask_path_writes_no_signal(self, tmp_path, capsys):
        code = main([
            "generate", "--dims", "4,4", "--signal", str(tmp_path / "s"),
            "--mask", str(tmp_path / "missing" / "m"),
        ])
        assert_input_error(code, capsys)
        assert list(tmp_path.iterdir()) == []

    def test_bad_dims(self, tmp_path, capsys):
        code = main([
            "generate", "--dims", "banana", "--signal", str(tmp_path / "s"),
            "--mask", str(tmp_path / "m"),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err


def assert_input_error(code, capsys):
    """Exit 1 with an ``error:`` line and no traceback."""
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error: ")
    assert "Traceback" not in err


def scaled_seed_42(tmp_path, scale):
    """The 8^3 synthetic volume of seeds 42/43 times ``scale``, and its mask."""
    signal, mask = str(tmp_path / "signal.f64"), str(tmp_path / "mask.idx")
    assert main(["generate", "--dims", "8,8,8", "--noise-seed", "42", "--missing-seed", "43",
                 "--signal", signal, "--mask", mask]) == EXIT_OK
    values, dims = read_volume(signal)
    write_volume(signal, values * scale, dims)
    return signal, mask


class TestSolve:
    def test_end_to_end(self, problem_files):
        signal, mask, tmp = problem_files
        out = str(tmp / "beta.f64")
        report = str(tmp / "report.jsonl")
        impute = str(tmp / "imputed.f64")
        code = main([
            "solve", "--input", signal, "--mask", mask,
            "--output", out, "--report", report, "--impute", impute,
        ])
        assert code == EXIT_OK

        records = read_report(report)
        meta = records[0]
        summary = records[-1]
        iteration_records = [r for r in records if r["record"] == "iteration"]
        assert meta["record"] == "meta"
        assert meta["unknowns"] == 512 and meta["ipm_variables"] == 1024
        assert meta["lambda_source"] == "default"
        assert meta["lambda"] == pytest.approx(summary["lambda"])
        assert summary["record"] == "summary"
        assert summary["status"] == "converged"
        # exactly one record per IPM iteration
        assert len(iteration_records) == summary["iterations"]
        assert [r["iteration"] for r in iteration_records] == \
            list(range(1, summary["iterations"] + 1))
        # the schema: a new key is a deliberate change to this list and the README
        assert set(meta) == {"record", "input", "dims", "unknowns", "ipm_variables",
                             "missing", "lambda", "lambda_source", "tol", "cg_tol"}
        for r in iteration_records:
            assert set(r) == {"record", "iteration", "mu", "dual_inf", "complementarity",
                              "kkt_max", "krylov_iters", "alpha_primal", "alpha_dual",
                              "pcg_residual", "wall_time"}
        assert set(summary) == {"record", "status", "iterations", "lambda", "tol",
                                "final_objective", "final_kkt", "final_mu", "total_krylov",
                                "reason", "wall_time"}

        beta, dims = read_volume(out)
        imputed, _ = read_volume(impute)
        assert dims == (8, 8, 8)
        assert np.all(np.isfinite(beta)) and np.all(np.isfinite(imputed))

    def test_explicit_lambda_recorded(self, problem_files):
        signal, mask, tmp = problem_files
        report = str(tmp / "r.jsonl")
        code = main([
            "solve", "--input", signal, "--mask", mask, "--lambda", "5.0",
            "--output", str(tmp / "b.f64"), "--report", report,
        ])
        assert code == EXIT_OK
        meta = read_report(report)[0]
        assert meta["lambda"] == 5.0 and meta["lambda_source"] == "flag"

    def test_max_iters_exit_code(self, problem_files):
        signal, mask, tmp = problem_files
        code = main([
            "solve", "--input", signal, "--mask", mask, "--max-iters", "2",
            "--output", str(tmp / "b.f64"),
        ])
        assert code == EXIT_MAX_ITERS

    def test_stalled_exit_code_writes_best_iterate(self, problem_files, monkeypatch):
        signal, mask, tmp = problem_files
        monkeypatch.setattr(fftlasso.ipm, "newton_direction",
                            fail_on_call(3, NumericalBreakdownError,
                                         fftlasso.ipm.newton_direction))
        out, impute, report = (str(tmp / name) for name in ("b.f64", "i.f64", "r.jsonl"))
        code = main([
            "solve", "--input", signal, "--mask", mask,
            "--output", out, "--impute", impute, "--report", report,
        ])
        assert code == EXIT_STALLED
        beta, dims = read_volume(out)
        assert dims == (8, 8, 8) and np.all(np.isfinite(beta))
        assert read_volume(impute)[0].size == 512
        summary = read_report(report)[-1]
        assert summary["status"] == "stalled" and summary["iterations"] == 2

    def test_pcg_cap_stall_exit_code_writes_report(self, tmp_path, monkeypatch, capsys):
        """PCG capped at one iteration stalls the 8^3 solve (seeds 42/43) at
        its second step: exit 3, and the report holds the first record, whose
        KKT residual is the summary's."""
        signal, mask = str(tmp_path / "s.f64"), str(tmp_path / "m.idx")
        assert main(["generate", "--dims", "8,8,8", "--noise-seed", "42",
                     "--missing-seed", "43", "--signal", signal, "--mask", mask]) == EXIT_OK
        monkeypatch.setattr(fftlasso.pcg, "MAX_ITERS_CAP", 1)
        out, report = str(tmp_path / "b.f64"), str(tmp_path / "r.jsonl")
        code = main(["solve", "--input", signal, "--mask", mask,
                     "--output", out, "--report", report])
        assert code == EXIT_STALLED
        meta, first, summary = read_report(report)
        assert summary["status"] == "stalled" and summary["iterations"] == 1
        assert summary["reason"].startswith("PCG stalled at preconditioned residual")
        assert summary["final_kkt"] == first["kkt_max"]
        assert np.all(np.isfinite(read_volume(out)[0]))
        assert "PCG stalled" in capsys.readouterr().err

    def test_stalled_reason_is_reported(self, problem_files, monkeypatch, capsys):
        """The inner failure's message reaches the summary record and stderr."""
        signal, mask, tmp = problem_files
        monkeypatch.setattr(fftlasso.ipm, "newton_direction",
                            fail_on_call(2, NumericalBreakdownError,
                                         fftlasso.ipm.newton_direction))
        report = str(tmp / "r.jsonl")
        code = main([
            "solve", "--input", signal, "--mask", mask,
            "--output", str(tmp / "b.f64"), "--report", report,
        ])
        assert code == EXIT_STALLED
        assert read_report(report)[-1]["reason"] == "injected inner failure"
        assert "injected inner failure" in capsys.readouterr().err

    def test_interior_violation_is_stalled(self, problem_files, monkeypatch):
        """A step that leaves the interior is an inner failure, not an input
        error: the start is written and the report says why."""
        signal, mask, tmp = problem_files
        monkeypatch.setattr(fftlasso.ipm, "fraction_to_boundary", lambda *args: 1.0)
        out, report = str(tmp / "b.f64"), str(tmp / "r.jsonl")
        code = main([
            "solve", "--input", signal, "--mask", mask, "--output", out, "--report", report,
        ])
        assert code == EXIT_STALLED
        summary = read_report(report)[-1]
        assert summary["status"] == "stalled" and summary["iterations"] == 0
        assert summary["reason"] == "s1 must be strictly positive and finite"
        assert np.all(read_volume(out)[0] == 0.0)

    @pytest.mark.parametrize("flag", ["--tol", "--cg-tol"])
    def test_nonfinite_tolerance_is_input_error(self, problem_files, capsys, flag):
        signal, mask, tmp = problem_files
        code = main([
            "solve", "--input", signal, "--mask", mask, flag, "nan",
            "--output", str(tmp / "b.f64"),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "finite" in capsys.readouterr().err

    def test_missing_input_is_input_error(self, tmp_path, capsys):
        code = main([
            "solve", "--input", str(tmp_path / "nope.f64"),
            "--mask", str(tmp_path / "nope.mask"),
            "--output", str(tmp_path / "out.f64"),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    def test_malformed_header_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.f64"
        np.zeros(4).tofile(bad)
        (tmp_path / "bad.f64.json").write_text("{oops")
        code = main([
            "solve", "--input", str(bad), "--mask", str(bad),
            "--output", str(tmp_path / "out.f64"),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    def test_huge_dims_are_input_error(self, problem_files, capsys):
        """A sidecar whose dims overflow int64 is refused at the volume."""
        _, mask, tmp = problem_files
        vol = tmp / "huge.f64"
        vol.write_bytes(b"")
        (tmp / "huge.f64.json").write_text(
            json.dumps({"dims": [2**32, 2**32], "order": "row-major", "dtype": "f64-le"})
        )
        code = main([
            "solve", "--input", str(vol), "--mask", mask,
            "--output", str(tmp / "b.f64"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert err.startswith("error: ") and f"expect {2**64}" in err
        assert "Traceback" not in err

    def test_odd_dims_rejected(self, tmp_path, capsys):
        # solver input requires even grid extents; caught at mask load
        vol = tmp_path / "odd.f64"
        np.zeros(5).tofile(vol)
        (tmp_path / "odd.f64.json").write_text(
            json.dumps({"dims": [5], "order": "row-major", "dtype": "f64-le"})
        )
        msk = tmp_path / "odd.mask"
        np.array([1], dtype="<u8").tofile(msk)
        (tmp_path / "odd.mask.json").write_text(
            json.dumps({"format": "indices", "dims": [5]})
        )
        code = main([
            "solve", "--input", str(vol), "--mask", str(msk),
            "--output", str(tmp_path / "b.f64"),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, header", [
        (b"\x01\x00\x00", {"format": "indices", "dims": [8, 8, 8]}),  # not one index
        (b"", {"format": "indices", "dims": 5}),
        (b"", {"format": "indices", "dims": None}),
        (np.array([3, 2**63], dtype="<u8").tobytes(), {"format": "indices", "dims": [8, 8, 8]}),
    ], ids=["partial-index", "scalar-dims", "null-dims", "wrapping-index"])
    def test_broken_mask_file_is_input_error(self, problem_files, capsys, payload, header):
        signal, _, tmp = problem_files
        mask = tmp / "broken.mask"
        mask.write_bytes(payload)
        (tmp / "broken.mask.json").write_text(json.dumps(header))
        code = main([
            "solve", "--input", signal, "--mask", str(mask),
            "--output", str(tmp / "b.f64"),
        ])
        assert_input_error(code, capsys)
        assert not (tmp / "b.f64").exists()

    def test_nonfinite_volume_is_input_error(self, problem_files, capsys):
        signal, mask, tmp = problem_files
        values, dims = read_volume(signal)
        values[::2] = np.nan
        bad = str(tmp / "nan.f64")
        write_volume(bad, values, dims)
        code = main([
            "solve", "--input", bad, "--mask", mask, "--output", str(tmp / "b.f64"),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "finite" in capsys.readouterr().err

    def test_overflowing_samples_are_input_error(self, tmp_path, capsys):
        """Samples whose squared norm overflows exit 1 before any output."""
        signal, mask = scaled_seed_42(tmp_path, 1e200)
        report, out = tmp_path / "report.jsonl", tmp_path / "b.f64"
        code = main(["solve", "--input", signal, "--mask", mask,
                     "--output", str(out), "--report", str(report)])
        assert_input_error(code, capsys)
        assert not report.exists() and not out.exists()

    @pytest.mark.parametrize("target", ["missing/out", "."], ids=["missing-dir", "a-dir"])
    @pytest.mark.parametrize("flag", ["--output", "--report", "--impute"])
    def test_unwritable_output_is_refused_before_the_solve(self, problem_files, capsys,
                                                           monkeypatch, flag, target):
        """An output path in a missing directory, or one that names a
        directory, exits 1 before the solve runs, and none of the outputs
        is written."""
        signal, mask, tmp = problem_files
        monkeypatch.setattr("fftlasso.cli.solve",
                            lambda *args: pytest.fail("solve ran before the outputs were checked"))
        outputs = {name: str(tmp / name) for name in ("--output", "--report", "--impute")}
        outputs[flag] = str(tmp / target)
        before = sorted(tmp.iterdir())
        code = main(["solve", "--input", signal, "--mask", mask,
                     *[arg for pair in outputs.items() for arg in pair]])
        assert_input_error(code, capsys)
        assert sorted(tmp.iterdir()) == before

    def test_report_is_strict_json(self, tmp_path):
        """Just below the overflow, every number in the report is finite."""
        signal, mask = scaled_seed_42(tmp_path, 1e152)
        report = tmp_path / "report.jsonl"
        code = main(["solve", "--input", signal, "--mask", mask,
                     "--output", str(tmp_path / "b.f64"), "--report", str(report)])
        assert code != EXIT_INPUT_ERROR

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        lines = report.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert records[-1]["record"] == "summary"

    def test_nonfinite_record_writes_no_report(self, tmp_path):
        report = tmp_path / "report.jsonl"
        with pytest.raises(ValueError):
            _write_report(str(report), [{"record": "meta"}, {"value": float("inf")}])
        assert not report.exists()

    def test_dims_mismatch(self, problem_files, tmp_path, capsys):
        signal, _, tmp = problem_files
        other_mask = str(tmp_path / "other.mask")
        code = main([
            "generate", "--dims", "4,4", "--signal", str(tmp_path / "s2.f64"),
            "--mask", other_mask,
        ])
        assert code == EXIT_OK
        code = main([
            "solve", "--input", signal, "--mask", other_mask,
            "--output", str(tmp_path / "b.f64"),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "dims" in capsys.readouterr().err

    def test_deterministic_reports(self, problem_files):
        signal, mask, tmp = problem_files
        outs = []
        for tag in ("a", "b"):
            report = str(tmp / f"report_{tag}.jsonl")
            code = main([
                "solve", "--input", signal, "--mask", mask,
                "--output", str(tmp / f"beta_{tag}.f64"), "--report", report,
            ])
            assert code == EXIT_OK
            outs.append(strip_timings(read_report(report)))
        assert outs[0] == outs[1]


class TestBench:
    def test_rows_and_determinism(self, tmp_path):
        reports = []
        for tag in ("a", "b"):
            path = str(tmp_path / f"bench_{tag}.jsonl")
            code = main(["bench", "--sizes", "4,8", "--seed", "7", "--report", path])
            assert code == EXIT_OK
            reports.append(read_report(path))
        rows = reports[0]
        assert [r["unknowns"] for r in rows] == [64, 512]
        assert [r["ipm_variables"] for r in rows] == [128, 1024]
        assert all(r["status"] == "converged" for r in rows)
        kry_a = [r["krylov_per_iteration"] for r in reports[0]]
        kry_b = [r["krylov_per_iteration"] for r in reports[1]]
        assert kry_a == kry_b

    @pytest.mark.parametrize("sizes", [",", "4,,8", "8,7"])
    def test_empty_size_is_input_error(self, tmp_path, capsys, monkeypatch, sizes):
        """A bad entry anywhere in ``--sizes`` stops the run before any solve."""
        report = tmp_path / "bench.jsonl"
        monkeypatch.setattr("fftlasso.cli.solve",
                            lambda *args: pytest.fail("solve ran before every size was checked"))
        code = main(["bench", "--sizes", sizes, "--report", str(report)])
        assert_input_error(code, capsys)
        assert not report.exists()

    def test_unwritable_report_is_refused_before_any_solve(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr("fftlasso.cli.solve",
                            lambda *args: pytest.fail("solve ran before the report was checked"))
        code = main(["bench", "--sizes", "4", "--report", str(tmp_path / "missing" / "r")])
        assert_input_error(code, capsys)

    def test_stalled_size_is_reported(self, capsys, monkeypatch):
        """A stalled solve names its cube and reason on standard error, and
        the run exits 3."""
        stalled = SolveReport(status="stalled", lam=1.0, tol=1e-8, records=[],
                              final_objective=0.0, final_kkt=1.0, final_mu=0.5,
                              wall_time=0.0, reason="injected inner failure")
        monkeypatch.setattr("fftlasso.cli.solve", lambda *args: (None, stalled))
        code = main(["bench", "--sizes", "4"])
        assert code == EXIT_STALLED
        assert "stalled at 4^3: injected inner failure\n" in capsys.readouterr().err


class TestSolverFlags:
    @pytest.mark.parametrize("argv", [
        ["solve", "--input", "v", "--mask", "m", "--output", "o"],
        ["bench", "--sizes", "8"],
    ], ids=["solve", "bench"])
    def test_defaults_are_the_config_defaults(self, argv):
        """``solve`` and ``bench`` take their solver defaults from ``IpmConfig``."""
        args = build_parser().parse_args(argv)
        defaults = IpmConfig()
        assert (args.tol, args.cg_tol, args.max_iters) == (
            defaults.tol, defaults.cg_tol, defaults.max_iters)
        assert _config(args) == defaults

    def test_flags_reach_the_config(self):
        args = build_parser().parse_args(["bench", "--sizes", "8", "--tol", "1e-6",
                                          "--cg-tol", "1e-10", "--max-iters", "7"])
        assert _config(args, lam=0.5) == IpmConfig(lam=0.5, tol=1e-6, cg_tol=1e-10, max_iters=7)
