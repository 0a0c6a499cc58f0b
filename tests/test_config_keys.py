"""Config keys: every object reader names the keys it reads, and any other key
is refused by its path, with the known keys, before anything is built."""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import kernelblaschke as kb
from kernelblaschke import cli
from kernelblaschke.jsonio import Field

from mpref import run_cli

POLY = {"leading": [1.0, 0.0], "roots": [{"point": [0.5, 0.0], "mult": 1}]}
SPACES = {
    "dirichlet": {"type": "dirichlet", "alpha": 0},
    "weights": {"type": "weights", "rule": "table", "boundary_order": 0,
                "values": [(k + 1.0) ** 2 for k in range(64)]},
    "local_dirichlet": {"type": "local_dirichlet", "zeta": [1.0, 0.0]},
    "custom": {"type": "custom", "gram": "table",
               "values": [[[float(m == n) * (m + 1), 0.0] for n in range(24)]
                          for m in range(24)],
               "reproducibility": [{"point": [0.5, 0.0], "order": "infinite"}]},
}
ROUTE = {"route": "oracle", "oracle_degree": 11, "taylor_degree": 40,
         "policy": {"target_tolerance": 1e-12, "max_terms": 100_000}}
MULTISET = {"multiset": {"origin": 0, "points": [{"point": [0.5, 0.0], "mult": 1}]}}
# Each task's own keys: one valid config of every task on every space holds
# them all, the route keys included whichever route runs.
TASKS = {
    "construct": {**MULTISET, **ROUTE},
    "verify": {**MULTISET, **ROUTE, "K": 5, "tolerance": 1e-8},
    "zeros": {**MULTISET, **ROUTE, "radius": 0.9, "tolerance": 1e-8, "scan": False},
    "subspace": {"p": POLY, "q": POLY, "M": 11, "tolerance": 1e-8, "expect": True},
    "extremal": {"p": POLY, "M": 11, **ROUTE},
    "oracle": {"p": POLY, "d": 0, "M": 11},
}
# The keys each object's reader knows, by the key that holds the object.
KNOWN = {
    "dirichlet": {"type", "alpha"},
    "weights": {"type", "rule", "values", "boundary_order"},
    "local_dirichlet": {"type", "zeta"},
    "custom": {"type", "gram", "values", "reproducibility"},
    "reproducibility": {"point", "order"},
    "multiset": {"origin", "points"},
    "points": {"point", "mult"},
    "p": {"leading", "roots"},
    "q": {"leading", "roots"},
    "roots": {"point", "mult"},
    "policy": {"target_tolerance", "max_terms"},
}
EVERY_KEY = sorted(set().union(*KNOWN.values(), *map(set, TASKS.values()),
                               {"name", "seed", "space", "task", "preset", "experiments"}))


def _config(task, space):
    return json.loads(json.dumps({"name": "keys", "seed": 1, "space": SPACES[space],
                                  **TASKS[task]}))


def _objects(node, path=()):
    """The path of every object in ``node``, itself included."""
    if isinstance(node, dict):
        yield path
    for key, child in (node.items() if isinstance(node, dict) else
                       enumerate(node) if isinstance(node, list) else ()):
        yield from _objects(child, path + (key,))


def _known(cfg, task, path):
    if not path:
        return {"name", "seed", "space", *TASKS[task]}
    if path == ("space",):
        return KNOWN[cfg["space"]["type"]]
    return KNOWN[next(key for key in reversed(path) if isinstance(key, str))]


def _dotted(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def test_every_base_config_runs(tmp_path, capsys):
    # The fuzz below starts from these: each reads whole and runs to a verdict.
    for task in TASKS:
        for space in SPACES:
            assert run_cli(tmp_path, task, _config(task, space)) in (0, 1), (task, space)
            assert capsys.readouterr().err == "", (task, space)


def _inserted(cfg, path, key, value=1):
    node = cfg
    for step in path:
        node = node[step]
    node[key] = value
    return cfg


def _batch(entry, **top):
    return {"experiments": [entry], **top}


_CONSTRUCT = "multiset, name, oracle_degree, policy, route, seed, space, taylor_degree"
# A misspelled or retired key at each level; each ran on the defaults (exit 0
# or 1) before, except the policy's, which had its own check and message.
MISSPELLED = (
    ("verify", "dirichlet", ("space",), "alpah", "a dirichlet space", "alpha, type"),
    ("verify", "weights", ("space",), "boundary_ordre", "a weights space",
     "boundary_order, rule, type, values"),
    ("verify", "local_dirichlet", ("space",), "zetta", "a local_dirichlet space", "type, zeta"),
    ("oracle", "custom", ("space",), "probe_size", "a custom space",
     "gram, reproducibility, type, values"),
    ("oracle", "custom", ("space", "reproducibility", 0), "ordre", "a reproducibility entry",
     "order, point"),
    ("verify", "dirichlet", ("multiset",), "orgin", "a multiset", "origin, points"),
    ("zeros", "dirichlet", ("multiset", "points", 0), "mul", "a multiset point", "mult, point"),
    ("oracle", "dirichlet", ("p",), "lead", "a polynomial", "leading, roots"),
    ("subspace", "dirichlet", ("q",), "root", "a polynomial", "leading, roots"),
    ("extremal", "dirichlet", ("p", "roots", 0), "mutl", "a root", "mult, point"),
    ("subspace", "dirichlet", ("q", "roots", 0), "pont", "a root", "mult, point"),
    ("verify", "dirichlet", ("policy",), "max_term", "a policy", "max_terms, target_tolerance"),
    ("construct", "dirichlet", (), "K", "a construct config", _CONSTRUCT),
    ("verify", "dirichlet", (), "tolerence", "a verify config",
     "K, multiset, name, oracle_degree, policy, route, seed, space, taylor_degree, tolerance"),
    ("zeros", "dirichlet", (), "radious", "a zeros config",
     "multiset, name, oracle_degree, policy, radius, route, scan, seed, space, "
     "taylor_degree, tolerance"),
    ("subspace", "dirichlet", (), "expcet", "a subspace config",
     "M, expect, name, p, q, seed, space, tolerance"),
    ("extremal", "dirichlet", (), "taylor_dgree", "an extremal config",
     "M, name, oracle_degree, p, policy, route, seed, space, taylor_degree"),
    ("oracle", "dirichlet", (), "oracle_degree", "an oracle config", "M, d, name, p, seed, space"),
)


def test_a_misspelled_key_at_each_level_exits_two(tmp_path, capsys):
    for task, space, path, key, what, known in MISSPELLED:
        cfg = _inserted(_config(task, space), path, key)
        assert run_cli(tmp_path, task, cfg) == 2, (task, path, key)
        assert capsys.readouterr().err == (
            f"config error: {_dotted(path + (key,))} is not a key of {what}; "
            f"known: {known}\n"), (task, path, key)
    # A batch file's top level, an entry and a preset entry.
    entry = dict(_config("construct", "dirichlet"), task="construct")
    preset = {"task": "preset", "preset": "paper-Rf-example"}
    for batch, message in (
            (_batch(entry, seed=3), "seed is not a key of a batch file; known: experiments"),
            (_batch(dict(entry, K=5)),
             "experiments[0].K is not a key of a construct config; known: multiset, name, "
             "oracle_degree, policy, route, seed, space, task, taylor_degree"),
            (_batch(dict(preset, sed=1)),
             "experiments[0].sed is not a key of a preset config; known: name, preset, seed, "
             "task")):
        assert run_cli(tmp_path, "batch", batch) == 2, batch
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert run_cli(tmp_path, "batch", _batch(entry)) == 0
    assert run_cli(tmp_path, "batch", _batch(dict(preset, seed=3))) == 0


def test_custom_gram_other_than_a_table_exits_two(tmp_path, capsys):
    # The custom reader ignored "gram": "rule" ran on the table (exit 0).  The
    # key stays optional.
    cfg = _config("oracle", "custom")
    for gram in ("rule", None, ["table"]):
        cfg["space"]["gram"] = gram
        assert run_cli(tmp_path, "oracle", cfg) == 2, gram
        assert capsys.readouterr().err.startswith('config error: space.gram must be "table"')
    del cfg["space"]["gram"]
    assert run_cli(tmp_path, "oracle", cfg) == 0


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(TASKS)), st.sampled_from(sorted(SPACES)), st.data())
def test_an_unknown_key_anywhere_exits_two_naming_it(tmp_path, capsys, task, space, data):
    cfg = _config(task, space)
    path = data.draw(st.sampled_from(list(_objects(cfg))), label="object")
    key = data.draw(st.sampled_from(EVERY_KEY) | st.text(max_size=6), label="key")
    assume(key not in _known(cfg, task, path))
    value = data.draw(st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=3))
    assert run_cli(tmp_path, task, _inserted(cfg, path, key, value)) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {_dotted(path + (key,))} is not a key of ")


def test_written_objects_read_back():
    # What a space, multiset, polynomial or policy writes, its reader reads:
    # no key it writes is refused.
    for sp in (kb.DirichletType(-1.0), kb.LocalDirichlet(1j),
               kb.WeightedHardy([1.0, 2.0, 4.0], boundary_order=0),
               kb.CustomGram([[2.0, 0.5j], [-0.5j, 3.0]], ((0.5, "infinite"), (1, 0)))):
        assert kb.space_from_json(Field(sp.to_json(), "space")) == sp
    p = kb.FactoredPoly(2j, ((0j, 2), (0.5, 1), (1j, 3)))
    assert kb.FactoredPoly.from_json(Field(p.to_json(), "p")) == p
    Z = kb.ReproducibleMultiset(1, ((0.3 - 0.2j, 2), (0.5, 1)))
    assert kb.ReproducibleMultiset.from_json(Field(Z.to_json(), "multiset")) == Z
    policy = kb.TruncationPolicy(1e-9, 5000)
    assert cli._parse_policy(Field({"policy": dataclasses.asdict(policy)})) == policy
    with pytest.raises(kb.ConfigError, match="^policy.bound_kind is not a key of a policy"):
        cli._parse_policy(Field({"policy": dict(dataclasses.asdict(policy), bound_kind=0)}))
