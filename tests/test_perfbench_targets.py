"""The benchmark wraps library functions by name, reads their arguments and
calls them; every name and call it relies on must still fit the library.
Reads ``perfbench/`` and changes nothing there."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import mpmath
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


def test_grams_and_combos_pair_through_kernel_pairing(monkeypatch):
    # The benchmark splits pairing time by regime around kernel_pairing, so
    # every Gram entry and every combo term must be one call to it.
    kb = importlib.import_module("kernelblaschke")
    kernels = importlib.import_module("kernelblaschke.kernels")
    construct = importlib.import_module("kernelblaschke.construct")
    calls = []
    real = kernels.kernel_pairing

    def counted(space, a, b, policy=kb.DEFAULT_POLICY):
        calls.append((a, b))
        return real(space, a, b, policy)

    monkeypatch.setattr(kernels, "kernel_pairing", counted)
    A2 = kb.bergman_space()
    terms = [kb.KernelTerm(0.1 * k + 0.05j, k % 3) for k in range(6)]
    construct.pairing_gram(A2, terms)
    assert len(calls) == 6 * 7 // 2
    calls.clear()
    combo = kb.KernelCombo(A2, tuple((t, 1.0 + k) for k, t in enumerate(terms)))
    kb.combo_derivative_at(A2, combo, 0.3, 1)
    assert calls == [(t, kb.KernelTerm(0.3, 1)) for t in terms]


def test_crosscheck_configs_read_and_pass(tmp_path, monkeypatch):
    # Every crosscheck task kind drives the CLI with its own configs, which
    # carry every route's keys: one task of each kind must read whole and pass.
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    monkeypatch.setattr(mpmath.mp, "dps", mpmath.mp.dps)  # it sets 40 digits
    spec.loader.exec_module(workloads)
    ran = set()
    for task in workloads.build("crosscheck", 1, str(tmp_path)):
        if task.kind not in ran:
            ran.add(task.kind)
            outcome = task.check(task.run())
            assert outcome.ok and not task.expects_refusal, (task.kind, outcome.note)
    assert {kind.split("-")[0] for kind in ran} == {
        "route", "verify", "zeros", "subspace", "extremal", "oracle"}
