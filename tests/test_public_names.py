"""Public names: what BENCHMARK.json's per-layer metrics and minplus.__all__ name."""

import importlib
import inspect
import json
import re
from pathlib import Path

import minplus

BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"
SPAN_METRIC = re.compile(r"(\w+)\.(\w+)\.(?:calls|busy_s|peak_mb)")


def test_per_layer_span_metrics_name_public_functions():
    # the traced benchmark run records a span per public function of a layer
    # module; a metric whose function is gone or private has no span to read
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    spans = [match.groups() for match in map(SPAN_METRIC.fullmatch, metrics) if match]
    assert len(spans) >= 10
    for layer, name in spans:
        module = importlib.import_module(f"minplus.{layer}")
        function = getattr(module, name, None)
        assert not name.startswith("_"), f"{layer}.{name} is private"
        assert inspect.isfunction(function), f"minplus.{layer} has no function {name}"
        assert function.__module__ == module.__name__, f"{layer}.{name} is defined elsewhere"


def test_every_exported_name_resolves():
    assert len(set(minplus.__all__)) == len(minplus.__all__)
    for name in minplus.__all__:
        assert hasattr(minplus, name), f"minplus.__all__ names missing {name}"
