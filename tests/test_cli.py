"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.io.kiss import dump, loads
from repro.workloads.library import fig6_m, fig6_m_prime, ones_detector


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Run every command with the backend pin and kill switches unset;
    a test that needs one sets it itself."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_SHM", raising=False)


@pytest.fixture
def kiss_files(tmp_path):
    src = str(tmp_path / "m.kiss")
    tgt = str(tmp_path / "mp.kiss")
    dump(fig6_m(), src)
    dump(fig6_m_prime(), tgt)
    return src, tgt


class TestInfo:
    def test_prints_stats(self, kiss_files, capsys):
        src, _tgt = kiss_files
        assert main(["info", src]) == 0
        out = capsys.readouterr().out
        assert "states" in out and "3" in out
        assert "strongly connected" in out

    def test_moore_flag(self, tmp_path, capsys):
        path = str(tmp_path / "d.kiss")
        dump(ones_detector(), path)
        main(["info", path])
        assert "Moore-style" in capsys.readouterr().out


class TestDeltas:
    def test_lists_paper_deltas(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["deltas", src, tgt]) == 0
        out = capsys.readouterr().out
        assert "|Td| = 4" in out
        assert "4 <= |Z| <= 15" in out

    def test_trivial_migration(self, kiss_files, capsys):
        src, _tgt = kiss_files
        main(["deltas", src, src])
        assert "trivial" in capsys.readouterr().out


class TestSynth:
    @pytest.mark.parametrize("method", ["jsr", "ea", "greedy", "tsp", "optimal"])
    def test_all_methods(self, kiss_files, capsys, method):
        src, tgt = kiss_files
        assert main(["synth", src, tgt, "--method", method]) == 0
        out = capsys.readouterr().out
        assert "reconfiguration program" in out

    def test_sequence_table(self, kiss_files, capsys):
        src, tgt = kiss_files
        main(["synth", src, tgt, "--method", "jsr", "--sequence"])
        out = capsys.readouterr().out
        assert "reconfiguration sequence" in out
        assert "Hi" in out and "Hf" in out and "Hg" in out

    def test_jsr_length(self, kiss_files, capsys):
        src, tgt = kiss_files
        main(["synth", src, tgt, "--method", "jsr"])
        assert "|Z| = 15" in capsys.readouterr().out


class TestMigrate:
    def test_verified_migration(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["migrate", src, tgt, "--method", "ea"]) == 0
        assert "hardware-verified=True" in capsys.readouterr().out


class TestMinimize:
    def test_emits_kiss(self, tmp_path, capsys):
        # A machine with two redundant states.
        text = (
            ".i 1\n.o 1\n.r A\n"
            "0 A A 0\n1 A B 1\n"
            "0 B B 0\n1 B A 1\n"
        )
        path = str(tmp_path / "r.kiss")
        with open(path, "w") as handle:
            handle.write(text)
        assert main(["minimize", path]) == 0
        out = capsys.readouterr().out
        minimal = loads(out)
        assert len(minimal.states) == 1

    def test_reports_reduction(self, kiss_files, capsys):
        src, _ = kiss_files
        main(["minimize", src])
        assert "3 -> 3 states" in capsys.readouterr().err


class TestVhdlAndDot:
    def test_behavioural_vhdl(self, kiss_files, capsys):
        src, _ = kiss_files
        assert main(["vhdl", src]) == 0
        assert "architecture behavior" in capsys.readouterr().out

    def test_structural_vhdl(self, kiss_files, capsys):
        src, _ = kiss_files
        assert main(["vhdl", src, "--reconfigurable", "--extra-states", "1"]) == 0
        assert "architecture structure" in capsys.readouterr().out

    def test_dot_single_machine(self, kiss_files, capsys):
        src, _ = kiss_files
        assert main(["dot", src]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_dot_migration_view(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["dot", src, "--target", tgt]) == 0
        assert "style=bold" in capsys.readouterr().out


class TestSuiteCommand:
    def test_suite_with_jsr(self, capsys):
        assert main(["suite", "--method", "jsr"]) == 0
        out = capsys.readouterr().out
        assert "paper/fig6" in out
        assert "valid" in out
        assert "False" not in out


class TestReport:
    def test_markdown_report(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["report", src, tgt]) == 0
        out = capsys.readouterr().out
        assert "# Migration report" in out
        assert "## Recommended program" in out
        assert "**PASS**" in out


class TestVerilog:
    def test_behavioural(self, kiss_files, capsys):
        src, _ = kiss_files
        assert main(["verilog", src]) == 0
        out = capsys.readouterr().out
        assert out.startswith("module")
        assert "endmodule" in out

    def test_structural(self, kiss_files, capsys):
        src, _ = kiss_files
        assert main(["verilog", src, "--reconfigurable"]) == 0
        assert "f_ram" in capsys.readouterr().out


class TestSimulate:
    def test_runs_word(self, tmp_path, capsys):
        path = str(tmp_path / "d.kiss")
        dump(ones_detector(), path)
        assert main(["simulate", path, "1101"]) == 0
        out = capsys.readouterr().out
        assert "outputs: 0 1 0 0" in out
        assert "final state: S1" in out

    def test_writes_vcd(self, tmp_path, capsys):
        path = str(tmp_path / "d.kiss")
        vcd_path = str(tmp_path / "run.vcd")
        dump(ones_detector(), path)
        assert main(["simulate", path, "11", "--vcd", vcd_path]) == 0
        with open(vcd_path) as handle:
            assert "$enddefinitions" in handle.read()


class TestVerify:
    def test_pass_on_good_migration(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["verify", src, tgt, "--method", "jsr"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_self_migration_passes(self, kiss_files, capsys):
        src, _tgt = kiss_files
        assert main(["verify", src, src, "--method", "optimal"]) == 0


class TestFillOption:
    def test_incomplete_file_needs_fill(self, tmp_path, capsys):
        path = str(tmp_path / "inc.kiss")
        with open(path, "w") as handle:
            handle.write(".i 1\n.o 1\n1 A A 1\n")
        # Parse errors are reported as a one-line diagnostic + exit 2,
        # not a traceback.
        assert main(["info", path]) == 2
        assert "malformed KISS2" in capsys.readouterr().err
        assert main(["--fill", "0", "info", path]) == 0


class TestFleet:
    def test_demo_run(self, capsys):
        assert main([
            "fleet", "--workers", "2", "--requests", "24",
            "--batch", "8", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "rollout verified" in out
        assert "zero downtime" in out
        assert "steps/sec" in out

    def test_inject_fault_counts_incident(self, capsys):
        assert main([
            "fleet", "--workers", "2", "--requests", "40",
            "--batch", "8", "--seed", "1", "--inject-fault",
        ]) == 0
        assert "incidents" in capsys.readouterr().out

    def test_unknown_workload_lists_known(self, capsys):
        assert main(["fleet", "--workload", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        assert "ctrl/pattern-1011-to-0110" in err

    def test_infeasible_budget_fails(self, capsys):
        assert main([
            "fleet", "--workers", "1", "--requests", "8",
            "--batch", "4", "--stall-budget", "3",
        ]) == 2
        assert "rollout failed" in capsys.readouterr().err

    def test_metrics_snapshot_includes_fleet_families(self, capsys):
        assert main([
            "--metrics", "json", "fleet", "--workers", "2",
            "--requests", "16", "--batch", "4",
        ]) == 0
        err = capsys.readouterr().err
        assert "repro_fleet_batch_seconds" in err

    def test_process_mode_serves_and_migrates(self, capsys):
        assert main([
            "fleet", "--mode", "process", "--workers", "2",
            "--requests", "24", "--batch", "8", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "process" in out
        assert "table-shm" in out
        assert "rollout verified" in out
        assert "zero downtime" in out

    def test_process_mode_rejects_foreign_engine(self, capsys):
        assert main([
            "fleet", "--mode", "process", "--engine", "table",
            "--requests", "4",
        ]) == 2
        assert "table-shm" in capsys.readouterr().err

    def test_process_mode_with_shm_disabled_exits_2(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert main([
            "fleet", "--mode", "process", "--requests", "4",
        ]) == 2
        assert "REPRO_DISABLE_SHM" in capsys.readouterr().err


class TestBackends:
    def test_lists_the_three_backends_with_availability(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        listed = [
            line.split("|")[0].strip() for line in out.splitlines()
            if "|" in line and not line.startswith(("backend", "-"))
        ]
        assert listed == ["cycle", "table", "table-shm"]
        assert out.count("| yes") == 3
        assert "cycle: cycle-accurate Fig. 5 netlist" in out
        for gone in (
            "table-py", "table-numpy", "needs-numpy", "dtype",
            "batchable", "cycle-accurate |",
        ):
            assert gone not in out
        # One dispatch rule serves through a migration: no such column.
        assert "mid-migration" not in out
        assert "dispatcher pick for 'auto':" in out

    def test_engine_off_picks_the_netlist(self, capsys):
        assert main(["backends", "--engine", "off"]) == 0
        assert "dispatcher pick for 'off': cycle" in capsys.readouterr().out

    def test_env_steers_auto_and_is_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cycle")
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "dispatcher pick for 'auto': cycle" in out
        assert "REPRO_BACKEND=cycle" in out

    def test_disabled_numpy_reason_is_shown(self, capsys, monkeypatch):
        # numpy off only moves the table backend's kernel: the backend
        # stays available and auto still picks it.
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_DISABLE_NUMPY" in out
        assert "dispatcher pick for 'auto': table" in out

    def test_forced_unavailable_backend_exits_2(self, capsys, monkeypatch):
        # Forced through the environment rather than --engine.
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        monkeypatch.setenv("REPRO_BACKEND", "shm")
        assert main(["backends"]) == 2
        err = capsys.readouterr().err
        assert "unavailable" in err

    def test_disabled_shm_reason_is_shown(self, capsys, monkeypatch):
        # The shm kill-switch mirrors the numpy leg: the listing names
        # the reason, and a forced pick exits 2.
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert main(["backends"]) == 0
        assert "REPRO_DISABLE_SHM" in capsys.readouterr().out

    def test_forced_unavailable_shm_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert main(["backends", "--engine", "table-shm"]) == 2
        err = capsys.readouterr().err
        assert "unavailable" in err
        assert "REPRO_DISABLE_SHM" in err

    def test_unknown_backend_exits_2(self, capsys, monkeypatch):
        rejected = ("warp-core", "python", "numpy", "table-py", "table-numpy")
        for name in rejected:
            with pytest.raises(SystemExit) as exc:
                main(["backends", "--engine", name])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"invalid choice: '{name}'" in err
            choices = err.replace("'", "")  # argparse quotes them on 3.11
            assert "from auto, cycle, table, table-shm, off, shm" in choices
            # ... and the same spelling is refused through the environment.
            monkeypatch.setenv("REPRO_BACKEND", name)
            assert main(["backends"]) == 2
            err = capsys.readouterr().err
            assert f"REPRO_BACKEND='{name}'" in err and "'table-shm'" in err
            monkeypatch.delenv("REPRO_BACKEND")
        # Every command that dispatches reports it the same way.
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert main(["suite", "--method", "jsr", "--engine", "auto"]) == 2
        assert "REPRO_BACKEND='numpy'" in capsys.readouterr().err


class TestOptimize:
    def test_prints_pass_report(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["optimize", src, tgt, "--method", "jsr"]) == 0
        out = capsys.readouterr().out
        assert "pass pipeline -O2" in out
        assert "collapse-resets" in out
        assert "dead-writes" in out

    def test_show_program(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(
            ["optimize", src, tgt, "--method", "jsr", "--show-program"]
        ) == 0
        out = capsys.readouterr().out
        assert "reconfiguration program" in out

    def test_o0_report(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(
            ["optimize", src, tgt, "--method", "jsr", "--opt-level", "O0"]
        ) == 0
        assert "-O0" in capsys.readouterr().out

    def test_bad_level_is_cli_error(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(
            ["optimize", src, tgt, "--opt-level", "O9"]
        ) == 2
        assert "unknown opt level" in capsys.readouterr().err


class TestOptLevelFlag:
    def test_migrate_o2_no_longer_than_o0(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["migrate", src, tgt, "--method", "jsr"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["migrate", src, tgt, "--method", "jsr", "--opt-level", "O2"]
        ) == 0
        optimized = capsys.readouterr().out

        def length(text):
            return int(text.split("|Z|=")[1].split()[0])

        assert length(optimized) <= length(plain)
        assert "opt=O2" in optimized
        assert "hardware-verified=True" in optimized

    def test_synth_accepts_opt_level(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(
            ["synth", src, tgt, "--method", "jsr", "--opt-level", "o2"]
        ) == 0
        assert "reconfiguration program" in capsys.readouterr().out

    @pytest.mark.parametrize("spelling", ["O1", "-O1", "o1", "1"])
    def test_o1_is_rejected(self, kiss_files, capsys, spelling):
        src, tgt = kiss_files
        assert main(
            ["synth", src, tgt, "--method", "jsr", f"--opt-level={spelling}"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown opt level" in err and "O0, O2" in err

    def test_suite_with_opt_level(self, capsys):
        assert main(
            ["suite", "--method", "jsr", "--opt-level", "O2"]
        ) == 0
        out = capsys.readouterr().out
        assert "suite x jsr -O2" in out
