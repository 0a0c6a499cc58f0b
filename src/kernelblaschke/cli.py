"""Command-line front end: config-driven experiments with JSON/CSV reports.

Each experiment is a single JSON config document; flags only override output
location, seed, and verbosity, so a report (which embeds its config) fully
describes the run.  Outputs are written atomically and are byte-identical for
identical (config, seed).  Exit status is 0 iff every verdict holds and no
error was raised.

Subcommands: construct, verify, subspace, zeros, extremal, oracle, preset,
batch.  See README for config schemas and the bundled presets.
"""

from __future__ import annotations

import argparse
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
from .jsonio import atomic_write_text, complex_pair, dumps_canonical
from .kernels import TaylorSeries, TruncationPolicy
from .spaces import (DirichletType, FactoredPoly, LocalDirichlet,
                     ReproducibleMultiset, bergman_space, hardy_space,
                     reproducible_multiset, space_from_json)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )


def _field(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required config field '{key}'")
    return default


def _parse(cfg: dict, key: str, from_json):
    obj = _field(cfg, key, required=True)
    try:
        return from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad '{key}' object: {exc}")


def _parse_policy(cfg: dict) -> TruncationPolicy:
    """The policy's keys, each read by ``_positive``; any other key is an error."""
    obj = _field(cfg, "policy", default={})
    fields = {f.name: f.default for f in dataclasses.fields(TruncationPolicy)}
    if not isinstance(obj, dict) or not set(obj) <= set(fields):
        raise ConfigError(f"'policy' must be an object with keys among {sorted(fields)}, "
                          f"got {obj!r}")
    try:
        return TruncationPolicy(**{k: _positive(obj, k, v) for k, v in fields.items()})
    except ValueError as exc:
        raise ConfigError(f"bad 'policy' object: {exc}")


def _positive(cfg: dict, key: str, default, zero_ok: bool = False):
    value = cfg.get(key, default)
    try:
        value = type(default)(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field '{key}' must be numeric, got {value!r}")
    if value < 0 or (value == 0 and not zero_ok):
        sign = "non-negative" if zero_ok else "positive"
        raise ConfigError(f"config field '{key}' must be {sign}, got {value}")
    return value


def _flag(cfg: dict, key: str, default: bool) -> bool:
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"config field '{key}' must be true or false, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Construction dispatch
# ---------------------------------------------------------------------------

def _build(space, Z, cfg, policy):
    route = str(cfg.get("route", "determinant"))
    if route == "oracle":
        return _construct.oracle_result(space, Z,
                                         M=_positive(cfg, "oracle_degree", 400))
    return _construct.shapiro_shields(
        space, Z, route=route, policy=policy,
        taylor_degree=_positive(cfg, "taylor_degree", 256, zero_ok=True))


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _task_construct(cfg):
    space = _parse(cfg, "space", space_from_json)
    Z = _parse(cfg, "multiset", ReproducibleMultiset.from_json)
    result = _build(space, Z, cfg, _parse_policy(cfg))
    return True, {"construction": result.to_json()}


def _task_verify(cfg):
    space = _parse(cfg, "space", space_from_json)
    Z = _parse(cfg, "multiset", ReproducibleMultiset.from_json)
    result = _build(space, Z, cfg, _parse_policy(cfg))
    report = _verify.inner_report(space, result.taylor,
                                  K=_positive(cfg, "K", 20),
                                  tol=_positive(cfg, "tolerance", 1e-8))
    return report.verdict, {"construction_route": result.route,
                            "inner_report": report.to_json()}


def _task_zeros(cfg):
    space = _parse(cfg, "space", space_from_json)
    Z = _parse(cfg, "multiset", ReproducibleMultiset.from_json)
    policy = _parse_policy(cfg)
    result = _build(space, Z, cfg, policy)
    report = _verify.zero_report(space, result, Z,
                                 radius=_positive(cfg, "radius", 0.99),
                                 tol=_positive(cfg, "tolerance", 1e-8),
                                 scan=_flag(cfg, "scan", True),
                                 policy=policy)
    return report.verdict, {"construction_route": result.route,
                            "zero_report": report.to_json()}


def _task_subspace(cfg):
    space = _parse(cfg, "space", space_from_json)
    p = _parse(cfg, "p", FactoredPoly.from_json)
    q = _parse(cfg, "q", FactoredPoly.from_json)
    equal, evidence = _verify.subspace_equal(
        space, p, q, M=_positive(cfg, "M", 400),
        tol=_positive(cfg, "tolerance", 1e-8))
    ok = True
    if "expect" in cfg:
        ok = _flag(cfg, "expect", True) == equal
    return ok, {"equal": equal, "evidence": evidence}


def _task_extremal(cfg):
    space = _parse(cfg, "space", space_from_json)
    p = _parse(cfg, "p", FactoredPoly.from_json)
    if "samples" in cfg:
        raise ConfigError(
            "config field 'samples' is no longer read: extremal optimality is "
            "decided by the exact span supremum, not by random unit vectors; "
            "remove the field")
    Z = reproducible_multiset(space, p)
    result = _build(space, Z, cfg, _parse_policy(cfg))
    report = _verify.extremal_check(space, p, result, M=_positive(cfg, "M", 400))
    return report.verdict, {"construction_route": result.route,
                            "extremal_report": report.to_json()}


def _task_oracle(cfg):
    space = _parse(cfg, "space", space_from_json)
    p = _parse(cfg, "p", FactoredPoly.from_json)
    d = _positive(cfg, "d", reproducible_multiset(space, p).origin_multiplicity,
                  zero_ok=True)
    taylor = _construct.project_kernel_fd(space, p, d,
                                          M=_positive(cfg, "M", 400))
    return True, {"d": d, "taylor": taylor.to_json()}


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

_TASKS = {
    "construct": _task_construct,
    "verify": _task_verify,
    "zeros": _task_zeros,
    "subspace": _task_subspace,
    "extremal": _task_extremal,
    "oracle": _task_oracle,
}


def run_experiment(task: str, cfg: dict, out_dir: str, seed: int | None,
                   quiet: bool = False) -> tuple[bool, str]:
    """Run one experiment; returns (ok, report_path)."""
    effective_seed = seed if seed is not None else int(cfg.get("seed", 0))
    if task == "preset":
        name = cfg.get("preset")
        if name not in _PRESETS:
            raise ConfigError(
                f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
        ok, body = _PRESETS[name](out_dir)
        label = f"preset-{name}"
    elif task in _TASKS:
        try:
            ok, body = _TASKS[task](cfg)
        except ValueError as exc:  # the library's argument checks, e.g. M too small
            raise ConfigError(f"{task}: {exc}") from exc
        label = f"{task}-{cfg.get('name', 'report')}"
    else:
        raise ConfigError(f"unknown task {task!r}")
    report = {
        "task": task,
        "config": cfg,
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


def _run_batch(cfg: dict, out_dir: str, seed: int | None, quiet: bool) -> bool:
    experiments = _field(cfg, "experiments", required=True)
    if not isinstance(experiments, list) or not experiments:
        raise ConfigError("'experiments' must be a nonempty list")
    all_ok = True
    for i, entry in enumerate(experiments):
        if isinstance(entry, str):
            sub = load_config(entry)
        elif isinstance(entry, dict):
            sub = dict(entry)
        else:
            raise ConfigError(f"experiments[{i}] must be a path or an object")
        sub_task = sub.pop("task", None)
        if sub_task is None:
            raise ConfigError(f"experiments[{i}] is missing 'task'")
        sub.setdefault("name", f"batch-{i}")
        ok, _ = run_experiment(sub_task, sub, out_dir, seed, quiet)
        all_ok = all_ok and ok
    return all_ok


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
            ok = _run_batch(load_config(args.config), args.out, args.seed,
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
