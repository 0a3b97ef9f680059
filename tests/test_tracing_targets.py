"""The benchmark's tracing targets still name the package's functions.

`benchmarks/tracing.py` patches each entry of its TARGETS list by name,
so a function renamed or deleted in the package would only fail at
`benchmarks/run.py --trace 1`.  This loads that file by path and checks
that every entry resolves as the tracer resolves it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    missing = []
    for layer, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = owner is not None and name in vars(owner)
        else:
            found = callable(getattr(module, name, None))
        if not found:
            missing.append(f"{layer}.{attr}")
    assert missing == []
