"""Every traced-run hook in ``bench/layers.py`` names something that exists.

A hook whose target is gone is skipped by the tracer with a warning, and its
per-layer metric reads null; this test makes such a deletion fail instead.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers_under_test", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


layers = load_layers()


def test_hooks_cover_every_per_layer_source():
    names = {hook.name for hook in layers.HOOKS}
    sources = {source for _, _, how, source in layers.PER_LAYER if how != "value"}
    assert sources <= names


@pytest.mark.parametrize("hook", layers.HOOKS, ids=lambda hook: hook.name)
def test_every_hook_target_resolves(hook):
    module = importlib.import_module(f"ultrawave.{hook.module}")
    assert hook.targets
    for target in hook.targets:
        owner = module
        for attr in target.split("."):
            assert hasattr(owner, attr), f"ultrawave.{hook.module}.{target} does not exist"
            owner = getattr(owner, attr)
        assert callable(owner)
