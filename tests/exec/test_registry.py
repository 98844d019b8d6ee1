"""The fixed backend names and the one shared resolver.

Covers the environment contract (`REPRO_BACKEND`, `REPRO_DISABLE_NUMPY`,
`REPRO_DISABLE_SHM`) the whole stack now shares: the env is consulted at
*dispatch* time, an explicit pin always beats it, and a
forced-but-unavailable backend raises :class:`BackendUnavailable` with
the reason spelled out.  The stream kernel is not a backend: auto
resolves to ``table`` at every lane count, and the engine's
:func:`~repro.engine.streams.stream_kernel` picks the kernel.
"""

import pytest

from repro.engine import EngineError, numpy_available, stream_kernel
from repro.engine import streams as streams_module
from repro.exec import BackendUnavailable, canonical, names, resolve


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_SHM", raising=False)


class TestRegistry:
    def test_builtins_registered(self):
        assert names() == ("cycle", "table", "table-shm")


class TestCanonical:
    def test_aliases_map_to_backend_names(self):
        assert canonical("off") == "cycle"
        assert canonical("shm") == "table-shm"

    def test_auto_and_none(self):
        assert canonical(None) == "auto"
        assert canonical("auto") == "auto"

    def test_unknown_name_lists_accepted_spellings(self):
        # The kernel names and the two pre-merge table backends are not
        # backends: the engine picks the kernel per call.
        for name in ("cuda", "python", "numpy", "table-py", "table-numpy"):
            with pytest.raises(
                ValueError,
                match=rf"'{name}'; expected one of \('auto', 'cycle', "
                r"'table', 'table-shm', 'off', 'shm'\)",
            ):
                canonical(name)


class TestResolve:
    def test_auto_single_stream_prefers_python_tables(self):
        # One sequential stream runs fastest in the pure-Python loop;
        # numpy only wins once many streams amortize the lane kernel.
        assert resolve() == "table"
        assert resolve("auto") == "table"
        threshold = streams_module.STREAM_THRESHOLD
        assert stream_kernel(1) == "python"
        assert stream_kernel(threshold - 1) == "python"

    def test_auto_wide_batches_prefer_numpy_when_available(self):
        expected = "numpy" if numpy_available() else "python"
        threshold = streams_module.STREAM_THRESHOLD
        assert resolve("auto") == "table"
        assert stream_kernel(threshold) == expected
        assert stream_kernel(4096) == expected

    def test_stream_threshold_is_the_engine_constant(
        self, monkeypatch, stream_kernels
    ):
        # One lane-count policy: the table backend follows the engine's
        # constant.  It equals the fleet's default coalescing bound, so
        # a full coalesced run of distinct sessions is one numpy batch.
        from repro.exec import DEFAULT_COALESCE, TableBackend
        from repro.workloads.library import ones_detector

        assert streams_module.STREAM_THRESHOLD == DEFAULT_COALESCE == 32
        monkeypatch.setattr(streams_module, "STREAM_THRESHOLD", 4)
        backend = TableBackend.from_fsm(ones_detector())
        backend.run_streams([["1"]] * 3)
        backend.run_streams([["1"]] * 4)
        wide = "numpy" if numpy_available() else "python"
        assert stream_kernels() == ["python", wide]

    def test_pin_and_env_ignore_stream_count(self, monkeypatch):
        # The lane count steers the kernel, never the backend.
        monkeypatch.setattr(streams_module, "STREAM_THRESHOLD", 1)
        assert resolve("table") == "table"
        assert resolve("cycle") == "cycle"
        monkeypatch.setenv("REPRO_BACKEND", "cycle")
        assert resolve("auto") == "cycle"

    def test_explicit_pins(self):
        assert resolve("cycle") == "cycle"
        assert resolve("off") == "cycle"
        assert resolve("table") == "table"
        assert resolve("table-shm") == "table-shm"
        assert resolve("shm") == "table-shm"

    def test_env_steers_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cycle")
        assert resolve("auto") == "cycle"
        monkeypatch.setenv("REPRO_BACKEND", "table")
        assert resolve("auto") == "table"

    def test_explicit_pin_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cycle")
        assert resolve("table") == "table"

    def test_env_auto_and_blank_are_noops(self, monkeypatch):
        expected = resolve("auto")
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert resolve("auto") == expected
        monkeypatch.setenv("REPRO_BACKEND", "  ")
        assert resolve("auto") == expected

    def test_bogus_env_raises_with_prefix(self, monkeypatch):
        for bogus in ("bogus", "python", "numpy", "table-py", "table-numpy"):
            monkeypatch.setenv("REPRO_BACKEND", bogus)
            with pytest.raises(
                ValueError, match=rf"REPRO_BACKEND='{bogus}'.*'table-shm'"
            ):
                resolve("auto")

    def test_disable_numpy_honoured_at_dispatch_time(self, monkeypatch):
        # No import-time capture: flipping the env mid-process changes
        # the very next kernel pick.  The table backend stays available
        # either way: it serves on the pure-Python loop.
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        assert resolve("auto") == "table"
        assert resolve("table") == "table"
        assert stream_kernel(4096) == "python"
        monkeypatch.delenv("REPRO_DISABLE_NUMPY")
        if numpy_available():
            assert stream_kernel(4096) == "numpy"

    def test_forced_unavailable_env_raises_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        monkeypatch.setenv("REPRO_BACKEND", "shm")
        with pytest.raises(BackendUnavailable, match="table-shm"):
            resolve("auto")

    def test_disable_shm_honoured_at_dispatch_time(self, monkeypatch):
        # The shm kill-switch mirrors REPRO_DISABLE_NUMPY: consulted at
        # every resolution, with the reason named in the error.
        assert resolve("table-shm") == "table-shm"
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        with pytest.raises(BackendUnavailable, match="REPRO_DISABLE_SHM"):
            resolve("table-shm")
        with pytest.raises(BackendUnavailable, match="REPRO_DISABLE_SHM"):
            resolve("shm")
        monkeypatch.delenv("REPRO_DISABLE_SHM")
        assert resolve("table-shm") == "table-shm"

    def test_backend_unavailable_is_an_engine_error(self):
        # Pre-exec call sites say `except EngineError`; they must keep
        # observing exec-layer failures unchanged.
        assert issubclass(BackendUnavailable, EngineError)
