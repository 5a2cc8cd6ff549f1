"""The benchmark's tracer wraps package functions by name; a traced run
fails at install if one of them is renamed or removed."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_function_and_method_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, functions in tracing.TARGETS:
        package_module = importlib.import_module(module)
        for name in functions:
            assert callable(getattr(package_module, name, None)), f"{module}.{name}"
    for _, module, cls_name, methods in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        for name in methods:
            assert callable(cls.__dict__.get(name)), f"{module}.{cls_name}.{name}"
