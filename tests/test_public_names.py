"""Public names: what BENCHMARK.json's per-layer metrics and minplus.__all__ name."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import minplus

BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"
PACKAGE = Path(minplus.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
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


def _names_used_in_package() -> set[str]:
    """Names each module of the package reads, outside the top-level
    definition of the same name; the re-exports in __init__ do not count."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_exported_name_has_a_caller():
    # a public name that only unit tests call belongs in the tests
    used = _names_used_in_package()
    tree = ast.parse(ACCEPTANCE.read_text())
    accepted = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "minplus"
        for alias in node.names
    }
    unused = [name for name in minplus.__all__ if name not in used | accepted]
    assert unused == [], f"exported but used neither in the package nor the acceptance tests: {unused}"


def test_only_core_touches_the_idempotency_verdict():
    # is_idempotent owns the verdict kept on a TropicalMatrix: it alone reads
    # and records it, and kleene_star marks its closure, so no other module
    # can keep a verdict that is_idempotent would not give
    touching = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "attr", None) == "_idempotent" or getattr(node, "value", None) == "_idempotent"
    )
    assert touching == [], f"modules other than core.py touch _idempotent: {touching}"
