"""Every name that the traced benchmark wraps, or that the package exports,
still exists.

The tracer looks each spec of bench/layers.json up in its owner's __dict__,
so a rename in the toolkit would break the traced run; the first test breaks
first.  A name left in `blackburn.__all__` after its object is gone would
fail only `from blackburn import *`; the second test reads each one.
"""

import importlib
import json
import os

import blackburn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_layer_spec_resolves():
    with open(os.path.join(ROOT, "bench", "layers.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["functions"]
    missing = []
    for spec in specs:
        module, *path, name = spec.split(".")
        owner = importlib.import_module(f"blackburn.{module}")
        for part in path:
            owner = getattr(owner, part)
        if name not in vars(owner):
            missing.append(spec)
    assert specs and missing == []


def test_every_public_export_resolves():
    missing = [name for name in blackburn.__all__ if not hasattr(blackburn, name)]
    assert blackburn.__all__ and missing == []
