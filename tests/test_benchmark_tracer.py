"""The benchmark's layer tracer (perfbench/tracer.py) wraps program functions
by name, in the module its caller looks them up from. This test installs and
uninstalls it, so removing or moving a wrapped name fails here first."""

import os
import types

import pytest

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")


@pytest.fixture
def tracer_module():
    # Compiled from its source text, so nothing is written next to it.
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = TRACER_PATH
    with open(TRACER_PATH) as fh:
        exec(compile(fh.read(), TRACER_PATH, "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls(tracer_module):
    originals = [getattr(module, attr) for module, attr, _ in tracer_module.WRAPPED]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(module, attr) for module, attr, _ in tracer_module.WRAPPED]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _ in tracer_module.WRAPPED] == originals
