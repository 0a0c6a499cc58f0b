"""The benchmark wraps library functions by name, reads their arguments and
calls them; every name and call it relies on must still fit the library.
Reads ``perfbench/`` and changes nothing there."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"

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


def test_workload_calls_bind_to_the_library():
    # Every kb.<name>(...) and cli.<name>(...) call in the workloads, and every
    # call through a module-level alias such as KT = kb.KernelTerm, must bind
    # to the current signature: a renamed or dropped parameter fails here,
    # not in the middle of a benchmark run.
    modules = {"kb": importlib.import_module("kernelblaschke"),
               "cli": importlib.import_module("kernelblaschke.cli")}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))

    def target(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            return f"{node.value.id}.{node.attr}"
        return None

    aliases = {t.id: target(stmt.value) for stmt in tree.body
               if isinstance(stmt, ast.Assign) and target(stmt.value)
               for t in stmt.targets if isinstance(t, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = target(node.func) or (isinstance(node.func, ast.Name)
                                     and aliases.get(node.func.id))
        if not name:
            continue
        prefix, attr = name.split(".")
        func = getattr(modules[prefix], attr, None)
        assert callable(func), (node.lineno, name)
        assert not any(isinstance(a, ast.Starred) for a in node.args), (node.lineno, name)
        assert all(k.arg for k in node.keywords), (node.lineno, name)
        try:
            inspect.signature(func).bind(*node.args, **{k.arg: k for k in node.keywords})
        except TypeError as exc:
            pytest.fail(f"workloads.py:{node.lineno}: {name}: {exc}")
        bound.append(name)
    assert {"kb.shapiro_shields", "kb.kernel_pairing", "kb.zero_report",
            "kb.inner_report", "cli.run_experiment"} <= set(bound)
