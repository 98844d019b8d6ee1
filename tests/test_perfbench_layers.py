"""The traced benchmark's wrap targets still exist.

``perfbench/layers.py`` patches each ``(module, dotted path)`` in its
``WRAPS`` list by name when a run is traced (``--trace 1``).  A rename
in ``src/`` would otherwise break only that run, and only when someone
runs it.  This test loads the file as it is and resolves every target
the way ``Tracer.install`` does, without patching anything.
"""

import importlib
import importlib.util
import pathlib

LAYERS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, path: str):
    """The object ``Tracer.install`` would wrap for ``module``/``path``."""
    owner = importlib.import_module(module)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_every_wrap_target_resolves():
    wraps = _load_layers().WRAPS
    assert wraps
    for span, module, path, _value in wraps:
        try:
            target = _resolve(module, path)
        except (ImportError, AttributeError, KeyError) as exc:
            raise AssertionError(
                f"perfbench span {span!r}: {module}.{path} no longer "
                f"exists ({type(exc).__name__}: {exc})"
            ) from None
        assert callable(target), f"{module}.{path} is not callable"
