"""docs/observability.md lists exactly what the code publishes."""

import pathlib
import re

import repro.obs.instruments  # noqa: F401  (registers every family)
from repro.obs.journal import EVENT_TYPES
from repro.obs.metrics import REGISTRY

DOC = (
    pathlib.Path(__file__).resolve().parents[2] / "docs" / "observability.md"
).read_text()


def _first_column(section: str) -> list:
    """Backquoted first-column names of the table under ``section``."""
    body = DOC.split(f"### {section}\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", body, flags=re.M)


def test_metric_catalogue_lists_exactly_the_registry():
    documented = _first_column("Metric catalogue")
    assert len(documented) == len(set(documented)), "duplicate rows"
    registered = {
        metric.name for metric in REGISTRY if metric.name.startswith("repro_")
    }
    assert set(documented) == registered


def test_event_taxonomy_lists_exactly_the_journal_vocabulary():
    documented = _first_column("Event taxonomy")
    assert len(documented) == len(set(documented)), "duplicate rows"
    assert set(documented) == set(EVENT_TYPES)
    # ... and each row's field column names exactly the event's fields.
    body = DOC.split("### Event taxonomy\n", 1)[1].split("\n#", 1)[0]
    for event, fields in re.findall(
        r"^\| `([^`]+)` \| ([^|]*) \|", body, flags=re.M
    ):
        assert tuple(re.findall(r"`([^`]+)`", fields)) == \
            EVENT_TYPES[event][1], event
