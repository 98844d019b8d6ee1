"""CLI observability: --metrics, --trace-out, `repro stats`, error paths."""

import json
import re

import pytest

from repro.cli import main
from repro.core.ea import EAConfig, evolve_program
from repro.hw.machine import HardwareFSM
from repro.hw.memory import UninitialisedRead
from repro.io.kiss import dump, load
from repro.obs.tracing import load_jsonl
from repro.workloads.library import fig6_m, fig6_m_prime, ones_detector
from repro.workloads.suite import suite_names


@pytest.fixture
def kiss_files(tmp_path):
    src = str(tmp_path / "m.kiss")
    tgt = str(tmp_path / "mp.kiss")
    dump(fig6_m(), src)
    dump(fig6_m_prime(), tgt)
    return src, tgt


def _parse_metrics_json(err: str) -> dict:
    start = err.index("{")
    end = err.rindex("}")
    return json.loads(err[start : end + 1])


class TestMetricsFlag:
    def test_suite_json_snapshot_covers_synthesis_and_probes(self, capsys):
        assert main(["--metrics", "json", "suite", "--method", "jsr"]) == 0
        snapshot = _parse_metrics_json(capsys.readouterr().err)

        synth = snapshot["repro_synthesis_programs_total"]["values"]
        assert synth == [
            {"labels": {"method": "jsr"}, "value": len(suite_names())}
        ]

        # per-workload hardware probe counters
        cycles = snapshot["repro_hw_cycles_total"]["values"]
        workloads = {v["labels"]["workload"] for v in cycles}
        assert set(suite_names()) <= workloads
        assert {v["labels"]["mode"] for v in cycles} >= {"reconf"}
        assert "repro_hw_ram_writes_total" in snapshot
        assert snapshot["repro_suite_workloads_total"]["values"] == [
            {
                "labels": {"method": "jsr", "valid": "true"},
                "value": len(suite_names()),
            }
        ]

    def test_synth_prometheus_exposition(self, kiss_files, capsys):
        src, tgt = kiss_files
        code = main(["--metrics", "prom", "synth", src, tgt,
                     "--method", "jsr"])
        assert code == 0
        err = capsys.readouterr().err
        assert "# TYPE repro_synthesis_programs_total counter" in err
        assert 'repro_synthesis_programs_total{method="jsr"} 1' in err

    def test_metrics_off_emits_nothing(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["synth", src, tgt, "--method", "jsr"]) == 0
        captured = capsys.readouterr()
        assert "repro_" not in captured.err
        assert "repro_" not in captured.out

    def test_ea_metrics_include_generation_stats(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["--metrics", "json", "migrate", src, tgt,
                     "--method", "ea"]) == 0
        snapshot = _parse_metrics_json(capsys.readouterr().err)

        def value(name):
            return snapshot[name]["values"][0]["value"]

        # The same run again, with the CLI's default --seed: main()
        # starts every snapshot from zero, so each figure is this run's.
        config = EAConfig(seed=0)
        result = evolve_program(load(src), load(tgt), config=config)
        assert value("repro_ea_generations_total") == config.generations
        assert value("repro_ea_evaluations_total") == result.evaluations
        # the best length of the last generation, not of the final one
        assert value("repro_ea_best_length") == result.history[-2]

    def test_verify_metrics_count_words_and_symbols(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["--metrics", "json", "verify", src, tgt,
                     "--method", "jsr"]) == 0
        captured = capsys.readouterr()
        snapshot = _parse_metrics_json(captured.err)
        words = snapshot["repro_verify_words_total"]["values"][0]["value"]
        symbols = snapshot["repro_verify_symbols_total"]["values"][0]["value"]
        # The same counts the command reports for the suite it ran.
        run = re.search(r"\((\d+) words, (\d+) symbols", captured.out)
        assert (words, symbols) == (int(run[1]), int(run[2]))
        assert words > 0 and symbols >= words


class TestTraceOut:
    def test_migrate_writes_span_tree(self, kiss_files, tmp_path, capsys):
        src, tgt = kiss_files
        trace = str(tmp_path / "trace.jsonl")
        assert main(["migrate", src, tgt, "--method", "jsr",
                     "--trace-out", trace]) == 0
        spans = load_jsonl(trace)
        names = [s.name for s in spans]
        assert "jsr.synthesise" in names
        assert "hw.run_program" in names
        assert all(s.duration is not None for s in spans)

    def test_suite_trace_nests_synthesis_under_workloads(
        self, tmp_path, capsys
    ):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["suite", "--method", "jsr",
                     "--trace-out", trace]) == 0
        spans = load_jsonl(trace)
        workloads = [s for s in spans if s.name == "suite.workload"]
        assert len(workloads) == len(suite_names())
        child = next(s for s in spans if s.name == "jsr.synthesise")
        assert spans[child.parent].name == "suite.workload"


class TestStatsCommand:
    def test_migration_probe_report(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["stats", src, tgt, "--method", "jsr"]) == 0
        out = capsys.readouterr().out
        for fragment in (
            "hardware probes",
            "cycles reconf",
            "reconfiguration downtime",
            "state-visit histogram",
            "hardware-verified=True",
        ):
            assert fragment in out

    def test_word_driven_stats_single_machine(self, tmp_path, capsys):
        path = str(tmp_path / "d.kiss")
        dump(ones_detector(), path)
        assert main(["stats", path, "--word", "1101"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"cycles normal\s+\|\s+4\b", out)
        assert re.search(r"availability\s+\|\s+1\.00", out)

    def test_stats_without_target_or_word_errors(self, tmp_path, capsys):
        path = str(tmp_path / "d.kiss")
        dump(ones_detector(), path)
        assert main(["stats", path]) == 2
        assert "stats needs" in capsys.readouterr().err

    def test_stats_publishes_metrics(self, kiss_files, capsys):
        src, tgt = kiss_files
        assert main(["--metrics", "json", "stats", src, tgt,
                     "--method", "jsr"]) == 0
        snapshot = _parse_metrics_json(capsys.readouterr().err)
        assert "repro_hw_cycles_total" in snapshot


class TestErrorPaths:
    def test_missing_file_exits_2(self, capsys):
        assert main(["info", "/nonexistent/machine.kiss"]) == 2
        err = capsys.readouterr().err
        assert "file not found" in err
        assert "Traceback" not in err

    def test_malformed_kiss_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.kiss")
        with open(path, "w") as handle:
            handle.write(".i not-a-number\n")
        assert main(["info", path]) == 2
        err = capsys.readouterr().err
        assert "malformed KISS2" in err
        assert "Traceback" not in err

    def test_uninitialised_read_exits_2(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "d.kiss")
        dump(ones_detector(), path)

        def boom(self, inputs):
            raise UninitialisedRead("F-RAM entry ('1', 'S0') unconfigured")

        monkeypatch.setattr(HardwareFSM, "run", boom)
        assert main(["simulate", path, "11"]) == 2
        err = capsys.readouterr().err
        assert "uninitialised RAM read" in err

    def test_missing_source_in_migrate_exits_2(self, kiss_files, capsys):
        _src, tgt = kiss_files
        assert main(["migrate", "/nope.kiss", tgt]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_trace_out_into_missing_directory_exits_2(
        self, kiss_files, capsys
    ):
        src, tgt = kiss_files
        code = main(["migrate", src, tgt,
                     "--trace-out", "/nonexistent-dir/t.jsonl"])
        assert code == 2
        err = capsys.readouterr().err
        assert "trace output directory does not exist" in err
        assert "Traceback" not in err

    def test_word_symbol_outside_alphabet_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "d.kiss")
        dump(ones_detector(), path)
        for argv in (
            ["simulate", path, "1a0"],
            ["stats", path, "--word", "1a0"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "input symbol 'a' is not in the machine's alphabet" in err


class TestFailureDetail:
    def test_verify_prints_detail_before_summary(
        self, kiss_files, capsys, monkeypatch
    ):
        import repro.core.verify as verify_module
        from repro.core.verify import VerificationResult

        src, tgt = kiss_files
        fake = VerificationResult(
            passed=False,
            words_run=3,
            symbols_run=9,
            failures=[(["1", "0"], ["0", "1"], ["0", "0"])],
        )
        monkeypatch.setattr(
            verify_module, "verify_hardware", lambda *a, **k: fake
        )
        assert main(["verify", src, tgt, "--method", "jsr"]) == 1
        out = capsys.readouterr().out
        detail = out.index("word 10: expected")
        summary = out.index("conformance: FAIL")
        assert detail < summary

    def test_migrate_prints_differing_entries_on_failure(
        self, kiss_files, capsys, monkeypatch
    ):
        src, tgt = kiss_files
        # Suppress the replay so the migration genuinely does not happen.
        monkeypatch.setattr(
            HardwareFSM, "run_program", lambda self, program: None
        )
        assert main(["migrate", src, tgt, "--method", "jsr"]) == 1
        captured = capsys.readouterr()
        assert "hardware-verified=False" in captured.out
        assert "entry (" in captured.err
        assert "expected" in captured.err
        assert "MIGRATION FAILED" in captured.err
