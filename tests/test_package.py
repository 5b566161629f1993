"""The package namespace is the union of the layer modules' public names,
and the configs hold the options they hold now."""

from __future__ import annotations

import dataclasses
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


# Each metric has one definition; an option that selects a second one is a
# code path only its tests run. Adding a field means editing this on purpose.
CONFIG_FIELDS = {
    "StftConfig": ("fft_size", "hop"),
    "MultiScaleConfig": ("fft_sizes",),
}


def test_config_fields_are_pinned():
    got = {name: tuple(f.name for f in dataclasses.fields(getattr(earmetrics, name))) for name in CONFIG_FIELDS}
    assert got == CONFIG_FIELDS


# The building blocks take and return plain arrays; a new public wrapper type,
# like a new config field, means editing this on purpose.
PUBLIC_CLASSES = {
    "AudioBuffer",
    "BatchSummary",
    "BiquadCascade",
    "CurateDecision",
    "LoudnessResult",
    "MetricReport",
    "MultiScaleConfig",
    "ObjectiveBreakdown",
    "StftConfig",
    "TruePeakResult",
}


def test_public_classes_are_pinned():
    got = {name for name, value in vars(earmetrics).items() if not name.startswith("_") and isinstance(value, type)}
    assert got == PUBLIC_CLASSES
