"""The benchmark's trace hooks name functions the program still has.

``perfbench --trace 1`` wraps each (module, name) that ``trace_targets``
lists; a renamed or deleted function would break that run and nothing else.
"""

import importlib.util
from pathlib import Path

import liangflow
import liangflow.cli

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def test_every_trace_target_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)  # its top-level imports are the standard library only
    targets = worker.trace_targets(liangflow)
    assert targets
    for module, name, _ in targets:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
