"""Every function that the traced benchmark wraps still exists under its name.

The tracer looks each spec of bench/layers.json up in its owner's __dict__,
so a rename in the toolkit would break the traced run; this test breaks
first.
"""

import importlib
import json
import os

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
