"""The benchmark's layer hooks must resolve against the program.

``perfbench/layers.py`` wraps named functions and methods from outside
the program (``module:Owner.attr`` specs) and reads a class attribute
from the owner's own ``__dict__``, so a method that moves to a base class
breaks the benchmark even though every call still works. These tests
install and uninstall every span without running a workload.
"""

import importlib.util
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(layers):
    """Every (owner, attribute) the recorder patches."""
    targets = []
    for specs in layers.SPANS.values():
        for spec in specs:
            if spec == "@kernels":
                targets.extend(layers._kernel_build_targets())
            else:
                targets.append(layers._resolve(spec))
    return targets


def test_every_span_spec_resolves_on_its_own_owner(layers):
    for owner, attr in _targets(layers):
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner.__name__}.{attr} is inherited"
        else:
            assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize(
    "spec",
    [
        "repro.exec.job:SimJob.cache_key",
        "repro.perf.sweep:SweepSimulator.run",
        "repro.sim.detailed:DetailedSimulator.run",
    ],
)
def test_hooked_methods_are_defined_on_their_class(layers, spec):
    owner, attr = layers._resolve(spec)
    assert attr in owner.__dict__


def test_install_wraps_and_uninstall_restores(layers):
    targets = _targets(layers)
    before = [layers._raw(owner, attr) for owner, attr in targets]
    recorder = layers.Recorder().install()
    try:
        for (owner, attr), raw in zip(targets, before):
            assert layers._raw(owner, attr) is not raw, attr
    finally:
        recorder.uninstall()
    after = [layers._raw(owner, attr) for owner, attr in targets]
    assert all(a is b for a, b in zip(after, before))
