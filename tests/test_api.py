"""Tests for the stable public facade (repro.api).

The facade is the supported surface: one keyword-only ``Options``
bundle, one function per end-to-end flow, old entry points demoted to
``DeprecationWarning`` shims, and a curated ``repro.__all__``.
"""

import warnings

import pytest

import repro
from repro import api
from repro.core.program import Program
from repro.engine import CompiledFSM, EngineError
from repro.hw.machine import HardwareFSM
from repro.workloads.library import fig6_m, fig6_m_prime
from repro.workloads.suite import traffic_words


class TestOptions:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            api.Options("ea")

    def test_defaults(self):
        opts = api.Options()
        assert opts.method == "ea"
        assert opts.opt_level is None
        assert opts.seed == 0
        assert opts.metrics is False
        assert opts.engine == "auto"
        assert opts.extra_states == 0

    def test_unknown_backend_rejected(self):
        # One option names the backend: ``engine`` takes every registry
        # spelling, and there is no second ``backend`` field beside it.
        assert api.ENGINE_MODES == (
            "auto", "cycle", "table", "table-shm", "off", "shm"
        )
        for spelling in api.ENGINE_MODES:
            assert api.Options(engine=spelling).engine == spelling
        with pytest.raises(TypeError):
            api.Options(backend="table")
        assert not hasattr(api.Options(), "execution")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            api.Options(method="simulated-annealing")

    def test_unknown_engine_rejected(self):
        for engine in ("cuda", "python", "numpy", "table-py", "table-numpy"):
            with pytest.raises(
                ValueError, match=rf"backend '{engine}'.*'table-shm'"
            ):
                api.Options(engine=engine)

    def test_negative_extra_states_rejected(self):
        with pytest.raises(ValueError):
            api.Options(extra_states=-1)

    def test_opt_level_spellings_normalised(self):
        assert api.Options(opt_level=2).opt_level == "O2"
        assert api.Options(opt_level="-O2").opt_level == "O2"
        assert api.Options(opt_level="o0").opt_level == "O0"
        with pytest.raises(ValueError):
            api.Options(opt_level="O9")

    @pytest.mark.parametrize("spelling", ["O1", "-O1", "o1", 1])
    def test_o1_is_rejected(self, spelling):
        with pytest.raises(ValueError, match="expected one of O0, O2"):
            api.Options(opt_level=spelling)

    def test_frozen(self):
        opts = api.Options()
        with pytest.raises(Exception):
            opts.method = "jsr"

    def test_non_options_rejected_by_facade(self):
        with pytest.raises(TypeError):
            api.synthesise(fig6_m(), fig6_m_prime(), options={"method": "ea"})


class TestFacadeFlows:
    def test_synthesise_every_method_is_valid(self):
        source, target = fig6_m(), fig6_m_prime()
        for method in api.METHODS:
            program = api.synthesise(
                source, target, options=api.Options(method=method, seed=1)
            )
            assert isinstance(program, Program)
            assert program.is_valid()

    def test_synthesise_applies_opt_level(self):
        source, target = fig6_m(), fig6_m_prime()
        baseline = api.synthesise(
            source, target, options=api.Options(method="jsr")
        )
        optimized = api.synthesise(
            source, target, options=api.Options(method="jsr", opt_level="O2")
        )
        assert optimized.is_valid()
        assert len(optimized) <= len(baseline)

    def test_optimise_defaults_to_o2(self):
        source, target = fig6_m(), fig6_m_prime()
        program = api.synthesise(
            source, target, options=api.Options(method="jsr")
        )
        shorter, report = api.optimise(program)
        assert shorter.is_valid()
        assert len(shorter) <= len(program)
        assert report.steps_after == len(shorter)

    def test_migrate_verifies_on_hardware(self):
        outcome = api.migrate(
            fig6_m(), fig6_m_prime(),
            options=api.Options(method="jsr", opt_level="O2"),
        )
        assert outcome.verified
        assert bool(outcome)
        assert outcome.hardware.realises(fig6_m_prime())
        assert outcome.program.is_valid()

    def test_verify_conformance_through_the_ports(self):
        outcome = api.verify(
            fig6_m(), fig6_m_prime(), options=api.Options(method="jsr")
        )
        assert outcome.passed
        assert bool(outcome)
        assert outcome.suite_size > 0

    def test_serve_returns_a_working_fleet(self):
        machine = fig6_m()
        with api.serve(
            machine, n_workers=2, options=api.Options(engine="table")
        ) as fleet:
            assert fleet.engine == "table"
            word = traffic_words(machine, 1, 8, seed=0)[0]
            assert fleet.submit("k", word).result(timeout=10) == \
                machine.run(word)

    def test_compile_fsm_from_behavioural_machine(self):
        compiled = api.compile_fsm(
            fig6_m(), options=api.Options(engine="table")
        )
        assert isinstance(compiled, CompiledFSM)
        assert compiled.realises(fig6_m())

    def test_compile_fsm_from_hardware(self):
        hw = HardwareFSM(fig6_m())
        compiled = api.compile_fsm(hw, options=api.Options(engine="table"))
        assert compiled.realises(fig6_m())
        assert compiled.source_version == hw.table_version

    def test_compile_fsm_honours_backend_pin(self, monkeypatch):
        # The view holds tables only (the kernel is picked per call), so
        # a pin is honoured at the boundary: a pinned backend that is
        # unavailable refuses to compile.
        compiled = api.compile_fsm(
            fig6_m(), options=api.Options(engine="table")
        )
        assert compiled.realises(fig6_m())
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        with pytest.raises(EngineError, match="table-shm"):
            api.compile_fsm(
                fig6_m(), options=api.Options(engine="table-shm")
            )

    def test_serve_honours_backend_pin(self):
        machine = fig6_m()
        with api.serve(
            machine, n_workers=1, options=api.Options(engine="table")
        ) as fleet:
            word = traffic_words(machine, 1, 8, seed=0)[0]
            assert fleet.submit("k", word).result(timeout=10) == \
                machine.run(word)
            shard = fleet.fleet.shards[0]
            assert shard.dispatcher.last_decision.name == "table"

    def test_compile_fsm_rejects_engine_off(self):
        with pytest.raises(EngineError):
            api.compile_fsm(fig6_m(), options=api.Options(engine="off"))
        with pytest.raises(EngineError):
            api.compile_fsm(fig6_m(), options=api.Options(engine="cycle"))

    def test_compile_fsm_rejects_other_types(self):
        with pytest.raises(TypeError):
            api.compile_fsm("not a machine")


class TestDeprecatedShims:
    def test_facade_itself_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.synthesise(
                fig6_m(), fig6_m_prime(), options=api.Options(method="jsr")
            )


class TestCuratedAll:
    def test_facade_names_exported_from_repro(self):
        for name in (
            "api", "Options", "MigrationOutcome", "VerificationOutcome",
            "synthesise", "optimise", "migrate", "verify", "serve",
            "compile_fsm",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_methods_registry_is_canonical(self):
        from repro.workloads import suite

        assert suite.METHODS is api.METHODS
