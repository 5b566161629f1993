"""The package namespace is the union of the layer modules' public names."""

from __future__ import annotations

import importlib
import types

import earmetrics

LAYERS = ("audio", "coherence", "loudness", "phase", "pipeline", "spectral", "stereo", "weighting")


def test_namespace_is_the_union_of_the_layer_modules_all():
    modules = [importlib.import_module(f"earmetrics.{name}") for name in LAYERS]
    owner = {name: module for module in modules for name in module.__all__}
    assert len(owner) == sum(len(module.__all__) for module in modules), "a name is exported twice"
    public = {
        name
        for name, value in vars(earmetrics).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(owner)
    for name, module in owner.items():
        assert getattr(earmetrics, name) is getattr(module, name), name
