"""Command-line front end: config-driven experiments with JSON/CSV reports.

Each experiment is a single JSON config document; flags only override output
location, seed, and verbosity, so a report (which embeds its config) fully
describes the run.  The embedded config is the one written, except that a
custom Gram or weight table is cited by ``jsonio.table_digest`` of the array
the space parsed, not echoed.  Outputs are written atomically and are
byte-identical for identical (config, seed).  Exit status is 0 iff every
verdict holds and no error was raised.

Subcommands: construct, verify, subspace, zeros, extremal, oracle, preset,
batch.  See README for config schemas and the bundled presets.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import construct as _construct
from . import verify as _verify
from .errors import ConfigError, KernelSpaceError, UnboundedTail
from .jsonio import (Field, atomic_write_text, complex_pair, dumps_canonical,
                     table_digest)
from .kernels import TaylorSeries, TruncationPolicy
from .spaces import (DirichletType, FactoredPoly, LocalDirichlet,
                     ReproducibleMultiset, bergman_space, hardy_space,
                     reproducible_multiset, space_from_json)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )


def _parse_policy(cfg: Field) -> TruncationPolicy:
    """The policy's keys, each a positive number."""
    fields = {f.name: f.default for f in dataclasses.fields(TruncationPolicy)}
    obj = cfg.get("policy", {}).only("a policy", *fields)
    return TruncationPolicy(**{k: obj.get(k, v).number(type(v), "positive")
                               for k, v in fields.items()})


def _report_name(cfg: Field) -> str:
    """The config's ``name``, a string that names a file inside ``--out``."""
    name = cfg.get("name", "report")
    if name.string() in ("", ".", "..") or any(
            sep and sep in name.value for sep in ("/", os.sep, os.altsep, "\0")):
        raise name.error("a file name: not empty, '.' or '..', and no path separator")
    return name.value


# ---------------------------------------------------------------------------
# Construction dispatch
# ---------------------------------------------------------------------------

def _build(space, Z, cfg, policy):
    """The construction the config's route keys ask for, read and checked now
    and run when called."""
    field = cfg.get("route", "determinant")
    route = field.string()
    if route not in ("determinant", "solve", "oracle"):
        raise field.error('"determinant", "solve" or "oracle"')
    if route == "oracle":
        M = cfg.get("oracle_degree", 400).number(int, "positive")
        return lambda: _construct.oracle_result(space, Z, M=M)
    N = cfg.get("taylor_degree", 256).number(int, "non-negative")
    _construct.check_shapiro_shields(space, Z, route)
    return lambda: _construct.shapiro_shields(space, Z, route=route, policy=policy,
                                              taylor_degree=N)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

# Each task reads every value of its config and returns its run: a function
# that builds and gives (ok, report body).  A task config holds only the keys
# that _TASKS names, and, for a task that constructs, every route's keys, so
# that one config runs under each route.
_COMMON = ("name", "seed", "space")
_ROUTE = ("route", "taylor_degree", "oracle_degree", "policy")


def _checked(build, key, check):
    """The run that builds, then checks the result by ``check``, whose report
    goes under ``key``."""
    def run():
        result = build()
        report = check(result)
        return report.verdict, {"construction_route": result.route, key: report.to_json()}
    return run


def _task_construct(cfg, space):
    build = _build(space, ReproducibleMultiset.from_json(cfg["multiset"]), cfg,
                   _parse_policy(cfg))
    return lambda: (True, {"construction": build().to_json()})


def _task_verify(cfg, space):
    Z = ReproducibleMultiset.from_json(cfg["multiset"])
    policy = _parse_policy(cfg)
    K = cfg.get("K", 20).number(int, "positive")
    tol = cfg.get("tolerance", 1e-8).number(float, "positive")
    return _checked(_build(space, Z, cfg, policy), "inner_report",
                    lambda result: _verify.inner_report(space, result, K=K, tol=tol))


def _task_zeros(cfg, space):
    Z = ReproducibleMultiset.from_json(cfg["multiset"])
    policy = _parse_policy(cfg)
    radius = _verify.require_radius(cfg.get("radius", 0.99).number(float, "positive"))
    tol = cfg.get("tolerance", 1e-8).number(float, "positive")
    scan = cfg.get("scan", True).flag()
    return _checked(_build(space, Z, cfg, policy), "zero_report",
                    lambda result: _verify.zero_report(space, result, Z, radius=radius,
                                                       tol=tol, scan=scan, policy=policy))


def _task_subspace(cfg, space):
    p = FactoredPoly.from_json(cfg["p"])
    q = FactoredPoly.from_json(cfg["q"])
    M = cfg.get("M", 400).number(int, "positive")
    tol = cfg.get("tolerance", 1e-8).number(float, "positive")
    expect = cfg["expect"].flag() if "expect" in cfg else None

    def run():
        equal, evidence = _verify.subspace_equal(space, p, q, M=M, tol=tol)
        return expect is None or expect == equal, {"equal": equal, "evidence": evidence}
    return run


def _task_extremal(cfg, space):
    p = FactoredPoly.from_json(cfg["p"])
    policy = _parse_policy(cfg)
    M = cfg.get("M", 400).number(int, "positive")
    build = _build(space, reproducible_multiset(space, p), cfg, policy)
    return _checked(build, "extremal_report",
                    lambda result: _verify.extremal_check(space, p, result, M=M))


def _task_oracle(cfg, space):
    p = FactoredPoly.from_json(cfg["p"])
    M = cfg.get("M", 400).number(int, "positive")
    d = (cfg["d"].number(int, "non-negative") if "d" in cfg
         else reproducible_multiset(space, p).origin_multiplicity)
    return lambda: (True, {"d": d, "taylor": _construct.project_kernel_fd(
        space, p, d, M=M).to_json()})


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _rf_example_poly() -> FactoredPoly:
    return FactoredPoly(1.0, ((0j, 2), (0.5j, 1), (1.0 + 0j, 2), (-1.0 + 0j, 2)))


def _preset_rf_example(out_dir):
    """Reproducible-zero table of z^2 (z - i/2) (z^2 - 1)^2 across four spaces."""
    f = _rf_example_poly()
    cases = [
        ("alpha <= 1", DirichletType(1.0),
         ReproducibleMultiset(2, ((0.5j, 1),))),
        ("1 < alpha <= 3", DirichletType(2.0),
         ReproducibleMultiset(2, ((-1 + 0j, 1), (0.5j, 1), (1 + 0j, 1)))),
        ("3 < alpha <= 5", DirichletType(4.0),
         ReproducibleMultiset(2, ((-1 + 0j, 2), (0.5j, 1), (1 + 0j, 2)))),
        ("local dirichlet at 1", LocalDirichlet(1.0 + 0j),
         ReproducibleMultiset(2, ((0.5j, 1), (1 + 0j, 1)))),
    ]
    blocks = []
    ok = True
    for label, space, expected in cases:
        computed = reproducible_multiset(space, f)
        match = computed == expected
        ok = ok and match
        blocks.append({
            "range": label,
            "space": space.to_json(),
            "multiset": computed.to_json(),
            "expected": expected.to_json(),
            "match": match,
        })
    return ok, {"polynomial": f.to_json(), "cases": blocks}


def _preset_h2_blaschke(out_dir):
    """Determinant construction vs the closed-form product in the Hardy space."""
    zeros = [0.5 + 0j, -0.3 + 0.4j]
    space = hardy_space()
    Z = ReproducibleMultiset(0, tuple((z, 1) for z in zeros))
    ss = _construct.shapiro_shields(space, Z, route="determinant",
                                    taylor_degree=300)
    rational, taylor, evaluator = _construct.classical_blaschke(zeros, 300)
    cmp = _verify.scalar_multiple_check(ss.taylor, taylor, tol=1e-8)
    csv_path = os.path.join(out_dir, "h2-blaschke-circle.csv")
    moduli = emit_circle_profile(evaluator, 512, csv_path)
    max_dev = float(np.max(np.abs(moduli - 1.0)))
    ok = cmp.is_scalar_multiple and max_dev <= 1e-12
    return ok, {
        "zeros": [complex_pair(z) for z in zeros],
        "scalar_check": cmp.to_json(),
        "circle_profile": {"path": csv_path, "samples": 512,
                           "max_deviation_from_1": max_dev},
        "rational": rational.to_json(),
    }


def _preset_a2_residue(out_dir):
    """Residue-vanishing route vs determinant route in the Bergman space."""
    space = bergman_space()
    ok = True
    blocks = []
    for zeros in ([0.5 + 0j], [0.5 + 0j, -0.5 + 0j]):
        rational, taylor = _construct.bergman_rational(zeros, taylor_degree=400)
        Z = ReproducibleMultiset(0, tuple((z, 1) for z in zeros))
        ss = _construct.shapiro_shields(space, Z, route="determinant",
                                        taylor_degree=400)
        cmp = _verify.scalar_multiple_check(taylor, ss.taylor, tol=1e-8)
        residues = []
        for point in zeros:
            pole = 1.0 / point.conjugate()
            res = abs(_construct.rational_residue_at_double_pole(rational, pole))
            residues.append({"pole": complex_pair(pole), "abs_residue": res})
        res_ok = all(r["abs_residue"] <= 1e-10 for r in residues)
        ok = ok and cmp.is_scalar_multiple and res_ok
        blocks.append({
            "zeros": [complex_pair(z) for z in zeros],
            "scalar_check": cmp.to_json(),
            "residues": residues,
        })
    return ok, {"cases": blocks}


def _preset_a2_scan(out_dir):
    """Extraneous-zero scan over two-point Bergman multisets; signed report."""
    report = _verify.extraneous_zero_scan(bergman_space())
    passed = (not report["instance_found"]) or bool(report["all_scalar_checks_pass"])
    payload = dict(report)
    payload["report_sha256"] = hashlib.sha256(
        dumps_canonical(report).encode()).hexdigest()
    return passed, {"scan": payload}


_PRESETS = {
    "paper-Rf-example": _preset_rf_example,
    "h2-blaschke-match": _preset_h2_blaschke,
    "a2-residue-match": _preset_a2_residue,
    "a2-extraneous-scan": _preset_a2_scan,
}
PRESET_NAMES = tuple(_PRESETS)


# ---------------------------------------------------------------------------
# Circle profile
# ---------------------------------------------------------------------------

def emit_circle_profile(B, samples: int, path: str) -> np.ndarray:
    """Write CSV rows (theta, |B(e^(i theta))|) at uniform angles; returns moduli.

    B may be a callable / rational evaluator, or a TaylorSeries with zero tail
    bound (an exact polynomial).  Truncated series without a tail certificate
    on the circle are refused.
    """
    theta = 2.0 * math.pi * np.arange(samples) / samples
    points = np.exp(1j * theta)
    if isinstance(B, TaylorSeries):
        if B.tail_bound != 0.0:
            raise UnboundedTail(
                "circle profile of a truncated series needs tail_bound == 0; "
                "pass a rational evaluator instead")
        values = B(points)
    elif callable(B):
        values = np.asarray(B(points), dtype=complex)
    else:
        raise TypeError(f"cannot evaluate {type(B).__name__} on the circle")
    moduli = np.abs(values)
    lines = ["theta,modulus"]
    for t, m in zip(theta, moduli):
        lines.append(f"{t:.17g},{m:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    return moduli


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

# Each task's reader, and the keys its config holds besides _COMMON.
_TASKS = {
    "construct": (_task_construct, (*_ROUTE, "multiset")),
    "verify": (_task_verify, (*_ROUTE, "multiset", "K", "tolerance")),
    "zeros": (_task_zeros, (*_ROUTE, "multiset", "radius", "tolerance", "scan")),
    "subspace": (_task_subspace, ("p", "q", "M", "tolerance", "expect")),
    "extremal": (_task_extremal, (*_ROUTE, "p", "M")),
    "oracle": (_task_oracle, ("p", "d", "M")),
}


def _config_echo(cfg: dict, space) -> dict:
    """``cfg`` as written, with the ``values`` of a custom Gram or weight table
    replaced by ``jsonio.table_digest`` of the array ``space`` parsed."""
    if space.table is None:
        return cfg
    return dict(cfg, space=dict(cfg["space"], values=table_digest(space.table)))


@contextlib.contextmanager
def _argument_checks(task: str):
    """The library's argument checks (a ValueError, e.g. M too small) raised
    as a ConfigError naming ``task``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{task}: {exc}") from exc


def _read_experiment(task: str, cfg, seed: int | None, outer: tuple = ()):
    """Read and check every key and value of one experiment's config; returns
    its run, a function of ``(out_dir, quiet)`` that builds, writes the report
    and returns ``(ok, report_path)``.  ``outer`` names keys that the caller
    read from the config and took out (a batch entry's ``task``)."""
    cfg = Field.of(cfg)
    # Any integer, negative ones included: the seed is only recorded.
    effective_seed = seed if seed is not None else cfg.get("seed", 0).number(int)
    if task == "preset":
        name = cfg.only("a preset config", "preset", "seed", "name", *outer)["preset"]
        if name.value not in PRESET_NAMES:
            raise name.error(f"one of {', '.join(PRESET_NAMES)}")
        label, echo, preset = f"preset-{name.value}", cfg.value, _PRESETS[name.value]
    elif task in _TASKS:
        label = f"{task}-{_report_name(cfg)}"
        read, keys = _TASKS[task]
        with _argument_checks(task):
            space = space_from_json(cfg["space"])
            article = "an" if task[0] in "aeiou" else "a"
            build = read(cfg.only(f"{article} {task} config", *_COMMON, *keys, *outer), space)
        echo = _config_echo(cfg.value, space)
    else:
        raise ConfigError(f"unknown task {task!r}")

    def run(out_dir: str, quiet: bool) -> tuple[bool, str]:
        if task == "preset":
            ok, body = preset(out_dir)
        else:
            with _argument_checks(task):
                ok, body = build()
        report = {
            "task": task,
            "config": echo,
            "seed": effective_seed,
            "ok": ok,
            "report": body,
        }
        path = os.path.join(out_dir, f"{label}.json")
        atomic_write_text(path, dumps_canonical(report) + "\n")
        if not quiet:
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {label} -> {path}")
        return ok, path
    return run


def run_experiment(task: str, cfg, out_dir: str, seed: int | None,
                   quiet: bool = False) -> tuple[bool, str]:
    """Run one experiment; returns (ok, report_path).  ``cfg`` is the config
    object, or a ``jsonio.Field`` of it.  Every value is read before anything
    is built."""
    return _read_experiment(task, cfg, seed)(out_dir, quiet)


def _run_batch(cfg: Field, out_dir: str, seed: int | None, quiet: bool) -> bool:
    """Run each entry of ``experiments``: a config object with a ``task``, or
    the path of a config file that has one.  Every entry is read, and its file
    loaded, before the first runs."""
    experiments = cfg.only("a batch file", "experiments")["experiments"]
    entries = experiments.items()
    if not entries:
        raise experiments.error("a nonempty list")
    runs = []
    for i, entry in enumerate(entries):
        if isinstance(entry.value, str):
            entry = Field(load_config(entry.value), entry.path)
        task = entry["task"].string()
        sub = {k: v for k, v in entry.value.items() if k != "task"}
        sub.setdefault("name", f"batch-{i}")
        runs.append(_read_experiment(task, Field(sub, entry.path), seed, outer=("task",)))
    return all([run(out_dir, quiet)[0] for run in runs])  # a list: every entry runs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelblaschke",
        description="construct and verify inner-function analogues of "
                    "finite Blaschke products in reproducing kernel Hilbert spaces",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="reports", help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--quiet", action="store_true", help="suppress status lines")
    sub = parser.add_subparsers(dest="command", required=True)
    for task in (*_TASKS, "batch"):
        p = sub.add_parser(task, parents=[common])
        p.add_argument("--config", required=True, help="experiment config JSON")
    p = sub.add_parser("preset", parents=[common])
    p.add_argument("name", choices=PRESET_NAMES)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            ok, _ = run_experiment("preset", {"preset": args.name}, args.out,
                                   args.seed, args.quiet)
        elif args.command == "batch":
            ok = _run_batch(Field(load_config(args.config)), args.out, args.seed,
                            args.quiet)
        else:
            cfg = load_config(args.config)
            ok, _ = run_experiment(args.command, cfg, args.out, args.seed,
                                   args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KernelSpaceError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
