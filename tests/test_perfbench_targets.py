"""The traced benchmark wraps library functions by name and reads their
arguments; every name it relies on must still exist.  Reads ``perfbench/``
and changes nothing there."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Arguments each span's counter reads, besides the projection counters'.
COUNTER_ARGS = {
    None: {"a", "b"},  # kernel_pairing's regime
    "kernels.shift_inner_product": {"B"},
    "construct.shapiro_shields": {"route"},
    "construct.pairing_gram": {"terms"},
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists(spans):
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_counters_find_their_arguments(spans):
    projections = []
    for module, attr, name, counter in spans.TARGETS:
        params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        if counter is not None and counter.__qualname__.startswith("_projection_counts."):
            projections.append(name)
            need = {"space", "M"} | ({"samples"} if name == "verify.extremal_check" else set())
            assert need <= set(params) and ({"p", "f"} & set(params)), (name, list(params))
        else:
            assert COUNTER_ARGS.get(name, set()) <= set(params), (name, list(params))
    assert sorted(projections) == ["construct.inner_projection_of",
                                   "construct.project_kernel_fd",
                                   "construct.project_target_fd",
                                   "verify.extremal_check"]
