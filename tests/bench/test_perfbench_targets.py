"""The per-layer tracer's targets must resolve against the current tree.

``perfbench/layers.py`` wraps each ``(module, attribute)`` in its
``TARGETS`` table, patching ``Class.method`` through the class's own
``__dict__``.  A rename — or a method moved into a base class — would
otherwise only surface when ``perfbench/run.py --trace 1`` crashes, so the
table is checked here.  The benchmark module is compiled from its source
text, so nothing under ``perfbench/`` is imported as a package or written.
"""

import importlib
import types
from pathlib import Path

import pytest

from repro.core.communicator import HeaderQueue

LAYERS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _load_targets():
    module = types.ModuleType("_perfbench_layers")
    source = LAYERS_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(LAYERS_PATH), "exec"), module.__dict__)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize(
    "module_name,attribute",
    [(module_name, attribute) for _, module_name, attribute, _ in TARGETS],
    ids=[f"{module_name}:{attribute}" for _, module_name, attribute, _ in TARGETS],
)
def test_target_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    if "." not in attribute:
        assert callable(getattr(module, attribute))
        return
    class_name, method = attribute.split(".")
    cls = getattr(module, class_name)
    assert isinstance(cls, type)
    assert callable(cls.__dict__.get(method)), (
        f"{class_name}.{method} must be defined in {class_name}'s own class "
        "body: the tracer patches it through the class __dict__"
    )


def test_header_queue_reports_depth():
    # The traced put_many wrapper samples the queue depth after each batch.
    queue = HeaderQueue("q", reclaim=None)
    queue.put_many([{"seq": 0}, {"seq": 1}])
    assert queue.qsize() == 2
