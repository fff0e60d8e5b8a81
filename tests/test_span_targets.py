"""Every name that the benchmark's tracer (``critbench/spans.py``) patches
resolves on critlocus, so renaming a traced function or method fails here
instead of quietly dropping a layer from a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "critbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("critbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPAN_TARGETS


@pytest.mark.parametrize("name, module, attribute", span_targets())
def test_traced_name_resolves(name, module, attribute):
    obj = importlib.import_module(f"critlocus.{module}")
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj), (name, module, attribute)
