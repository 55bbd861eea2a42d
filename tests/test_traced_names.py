"""The names the traced benchmark harness looks up still exist.

`perfbench/traced_cli.py` rebinds every function in its LAYERS table and
every method in its METHODS table by name before the CLI starts; a
rename or a deletion in the package breaks its traced run.  This test
reads both tables from the harness file itself, so it fails as soon as
the package loses one of those names.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("traced_cli", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_the_package():
    harness = _load_harness()
    missing = []
    for module, functions in harness.LAYERS.items():
        home = importlib.import_module(f"fusionarith.{module}")
        missing += [f"{module}.{name}" for name in functions if not hasattr(home, name)]
    for (module, cls), methods in harness.METHODS.items():
        klass = getattr(importlib.import_module(f"fusionarith.{module}"), cls)
        missing += [f"{module}.{cls}.{name}" for name in methods if name not in klass.__dict__]
    assert missing == []
