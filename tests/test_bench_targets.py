"""The benchmark's tracer must find every name it wraps.

``perfbench/spans.py`` replaces module and class attributes by name, read
from ``owner.__dict__``; a refactor that moves or renames one of them
breaks every traced benchmark run.  This test reads the target table as
it is and fails first.
"""

import importlib.util
from pathlib import Path

import vmspec as vm
import vmspec.cli  # noqa: F401  (the tracer wraps names in the CLI module)


def test_every_traced_name_is_where_the_tracer_looks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in spans._targets(vm) if attr not in owner.__dict__]
    assert missing == []
