"""The end-to-end benchmark's layer tracer must find every entry point it wraps.

``perfbench/layers.py`` skips a ``(module, class, methods, layer)`` target
that does not resolve, so a refactor that renames or removes one of those
methods would zero its layer in every traced run without failing anything.
This test resolves every target the way the tracer does: the class by
import, each method as a plain function found by ``inspect.getattr_static``.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


def _resolves(owner, method: str) -> bool:
    try:
        fn = inspect.getattr_static(owner, method)
    except AttributeError:
        return False
    return isinstance(fn, types.FunctionType)


def test_every_perfbench_layer_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for module_name, class_name, methods, layer in targets:
        owner = getattr(importlib.import_module(module_name), class_name, None)
        missing += [
            f"{module_name}.{class_name}.{method} ({layer})"
            for method in methods
            if owner is None or not _resolves(owner, method)
        ]
    assert not missing, missing
