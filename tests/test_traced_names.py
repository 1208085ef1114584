"""Every entry point that ``perfbench/tracing.py`` wraps by name still
resolves in the package, so a renamed or deleted entry point fails here and
not only in a traced benchmark run.  The tracer file is parsed, not run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_entry_points():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS list in {TRACING.name}")


def test_traced_entry_points_resolve():
    points = traced_entry_points()
    assert points
    for mod_name, cls_name, attr in points:
        owner = importlib.import_module(f"loopnil.{mod_name}")
        if cls_name:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), (mod_name, cls_name, attr)
