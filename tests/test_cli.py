"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def minic_file(tmp_path):
    f = tmp_path / "prog.mc"
    f.write_text(
        """
        func main() {
            var s = 0;
            for (var i = 0; i < 20; i = i + 1) { s = s + i * i; }
            out(s);
            return 0;
        }
        """
    )
    return str(f)


class TestWorkloadsCommand:
    def test_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("cjpeg", "mcf", "parser", "vpr"):
            assert name in out


class TestCompileCommand:
    def test_stats(self, capsys, minic_file):
        assert main(["compile", minic_file, "--scheme", "sced"]) == 0
        out = capsys.readouterr().out
        assert "code growth" in out
        assert "role: dup" in out

    def test_print_ir(self, capsys, minic_file):
        assert main(["compile", minic_file, "--print-ir"]) == 0
        out = capsys.readouterr().out
        assert "func prog" in out
        assert "chkbr" in out

    def test_workload_spec(self, capsys):
        assert main(["compile", "workload:mcf", "--scheme", "noed"]) == 0
        out = capsys.readouterr().out
        assert "role: orig" in out

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.mc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_workload(self, capsys):
        assert main(["compile", "workload:nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err


class TestRunCommand:
    def test_runs(self, capsys, minic_file):
        assert main(["run", minic_file, "--scheme", "casted", "--show-output"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert str(sum(i * i for i in range(20))) in out

    def test_machine_flags(self, capsys, minic_file):
        assert main(["run", minic_file, "--issue", "4", "--delay", "3"]) == 0
        assert "IPC" in capsys.readouterr().out


class TestInjectCommand:
    def test_campaign(self, capsys, minic_file):
        assert main(
            ["inject", minic_file, "--scheme", "sced", "--trials", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "coverage" in out

    def test_noed_campaign(self, capsys, minic_file):
        assert main(
            ["inject", minic_file, "--scheme", "noed", "--trials", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "30 faults" not in out  # exactly 1 flip per trial
        assert "20 faults (reg-bit)" in out

    def test_restart_on_detection_line(self, capsys, minic_file):
        assert main(
            ["inject", minic_file, "--scheme", "sced", "--trials", "25"]
        ) == 0
        out = capsys.readouterr().out
        assert "restart-on-detection: correct completion" in out
        assert "re-execution overhead" in out
        with pytest.raises(SystemExit):  # the view replaced `recover`
            main(["recover", minic_file])

    def test_negative_trials_rejected(self, capsys, minic_file):
        for argv in (
            ["inject", minic_file, "--trials", "-3"],
            ["report", "fig9", "--trials", "-2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--trials: must be >= 0" in capsys.readouterr().err

    def test_resume_with_unknown_outcome_is_an_error(self, capsys, minic_file, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        argv = ["inject", minic_file, "--trials", "30", "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        header, first, *rest = ckpt.read_text().splitlines()
        record = json.loads(first)
        record["counts"] = {"bogus": 1}
        ckpt.write_text("\n".join([header, json.dumps(record), *rest]) + "\n")
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2: unknown outcome 'bogus'" in err


class TestSweepCommand:
    def test_sweep(self, capsys, minic_file):
        assert main(
            ["sweep", minic_file, "--issues", "1", "2", "--delays", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "iw1 d1" in out and "iw2 d1" in out
        assert "CASTED" in out


class TestReportCommand:
    def test_table_reports(self, capsys):
        for what in ("table1", "table2", "table3"):
            assert main(["report", what]) == 0
        out = capsys.readouterr().out
        assert "L1" in out and "cjpeg" in out and "SWIFT" in out

    def test_bad_report_rejected(self):
        with pytest.raises(SystemExit):
            main(["report", "fig99"])


class TestMixCommand:
    def test_mix(self, capsys, minic_file):
        assert main(["mix", minic_file, "--schemes", "noed", "sced"]) == 0
        out = capsys.readouterr().out
        assert "instruction mix" in out
        assert "role split" in out
        assert "SCED" in out


class TestTraceCommand:
    def test_trace(self, capsys, minic_file):
        assert main(["trace", minic_file, "--scheme", "dced", "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out
        assert len(out.splitlines()) == 11

    def test_negative_limit_rejected(self, capsys, minic_file):
        with pytest.raises(SystemExit) as exc:
            main(["trace", minic_file, "--limit", "-1"])
        assert exc.value.code == 2
        assert "--limit: must be >= 0" in capsys.readouterr().err


class TestProveCommand:
    def test_negative_validate_rejected(self, capsys, minic_file):
        with pytest.raises(SystemExit) as exc:
            main(["prove", minic_file, "--validate", "-1"])
        assert exc.value.code == 2
        assert "--validate: must be >= 0" in capsys.readouterr().err

    def test_profile_and_validate(self, capsys, minic_file):
        argv = ["prove", minic_file, "--profile", "--validate", "20"]
        assert main(argv) == 0
        assert "cross-validation [reg-bit]: 20 trial(s), 0 violation(s)" in (
            capsys.readouterr().out
        )


class TestReportAll:
    def test_collates_results(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "fig6_7_summary.txt").write_text("numbers")
        (tmp_path / "results" / "zz_custom.txt").write_text("extra")
        assert main(["report", "all"]) == 0
        report = (tmp_path / "results" / "REPORT.md").read_text()
        assert "fig6_7_summary" in report
        assert "zz_custom" in report
        assert "numbers" in report

    def test_missing_results_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "all"]) == 2
        assert "results" in capsys.readouterr().err
