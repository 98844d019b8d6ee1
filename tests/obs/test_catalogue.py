"""docs/observability.md lists exactly what the code publishes, and
every row names a reader that exists and mentions it."""

import pathlib
import re

import repro.obs.instruments as instruments
import repro.obs.journal as journal
from repro.obs.journal import EVENT_TYPES
from repro.obs.metrics import REGISTRY, Metric

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = (ROOT / "docs" / "observability.md").read_text()

#: Where a reader may live: a test, a bench, perfbench, or a detector.
READER_DIRS = ("tests/", "benchmarks/", "perfbench/")
READER_FILES = ("src/repro/obs/health.py",)


def _section(section: str) -> str:
    return DOC.split(f"### {section}\n", 1)[1].split("\n#", 1)[0]


def _first_column(section: str) -> list:
    """Backquoted first-column names of the table under ``section``."""
    return re.findall(r"^\| `([^`]+)` \|", _section(section), flags=re.M)


def _readers(section: str) -> dict:
    """name -> reader path, from the table's last column."""
    return dict(
        re.findall(
            r"^\| `([^`]+)` \|.*\| `([^`]+)` \|$", _section(section),
            flags=re.M,
        )
    )


def _constants(module, matches) -> list:
    """Names of ``module``'s constants whose value ``matches``."""
    return [
        name for name, value in vars(module).items()
        if name.isupper() and matches(value)
    ]


def _assert_read(name: str, reader: str, spellings: list) -> None:
    assert reader.startswith(READER_DIRS) or reader in READER_FILES, (
        f"{name}: {reader} is not a test, bench, perfbench or detector"
    )
    path = ROOT / reader
    assert path.is_file(), f"{name}: reader {reader} does not exist"
    text = path.read_text()
    assert any(
        re.search(rf"(?<!\w){re.escape(s)}(?!\w)", text)
        for s in spellings
    ), f"{name}: {reader} mentions none of {spellings}"


def test_metric_catalogue_lists_exactly_the_registry():
    documented = _first_column("Metric catalogue")
    assert len(documented) == len(set(documented)), "duplicate rows"
    registered = {
        metric.name for metric in REGISTRY if metric.name.startswith("repro_")
    }
    assert set(documented) == registered


def test_every_metric_family_has_a_reader():
    readers = _readers("Metric catalogue")
    assert set(readers) == set(_first_column("Metric catalogue"))
    for family, reader in readers.items():
        constants = _constants(
            instruments,
            lambda v, f=family: isinstance(v, Metric) and v.name == f,
        )
        _assert_read(family, reader, [family] + constants)


def test_event_taxonomy_lists_exactly_the_journal_vocabulary():
    documented = _first_column("Event taxonomy")
    assert len(documented) == len(set(documented)), "duplicate rows"
    assert set(documented) == set(EVENT_TYPES)
    # ... and each row's field column names exactly the event's fields.
    for event, fields in re.findall(
        r"^\| `([^`]+)` \| ([^|]*) \|", _section("Event taxonomy"),
        flags=re.M,
    ):
        assert tuple(re.findall(r"`([^`]+)`", fields)) == \
            EVENT_TYPES[event][1], event


def test_every_event_type_has_a_reader():
    readers = _readers("Event taxonomy")
    assert set(readers) == set(EVENT_TYPES)
    for event, reader in readers.items():
        constants = _constants(journal, lambda v, e=event: v == e)
        _assert_read(event, reader, [event] + constants)
