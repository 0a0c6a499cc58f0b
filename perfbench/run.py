"""kernelblaschke benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it print the environment, the host slowness, and every metric
with its unit (timings at host slowness 1, each with its wall-clock figure).
Result records and the trace sidecar go to ``.bench_build/perfbench/``.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5
# Times the imports of run.py in a fresh interpreter; argv holds the paths.
IMPORT_PROBE = ("import sys; from time import perf_counter as c; t = c(); "
                "sys.path[:0] = sys.argv[1:]; import kernelblaschke, spans, workloads; "
                "print(c() - t)")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The host's speed.  On a shared machine the same code runs up to half again
# slower in one minute than in the next, for every task kind alike.  A run
# times a fixed calibration kernel after each set-up and about once a second
# between tasks, and reports its timings at the speed where the kernel's
# median takes CALIBRATION_NOMINAL_S (slowness 1); the wall-clock figures are
# kept beside them.
CALIBRATION_EVERY_S = 1.0
CALIBRATION_NOMINAL_S = 0.040
NORMALIZED = {"tasks_per_s": -1, "task_p50_ms": 1, "task_tail_ms": 1, "setup_s": 1}

END_TO_END_UNITS = {
    "tasks_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "series", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the caller's environment says."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def probe_imports() -> float:
    """Seconds the library and benchmark imports take in a fresh interpreter."""
    paths = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *paths],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def calibration_s() -> float:
    """Seconds a fixed mix of dense eigenvalues, interpreted Python and array
    streaming takes: the host-speed probe, independent of the library."""
    import numpy as np
    matrix = np.random.default_rng(0).standard_normal((160, 160))
    t0 = perf_counter()
    np.linalg.eigvals(matrix)
    total = 0
    for i in range(150_000):
        total += i * i
    x = np.exp(1j * np.arange(2**18) * 1e-3)
    np.cumsum(x * x.conj())
    return perf_counter() - t0


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, else the environment."""
    import ctypes
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found or {var: os.environ.get(var) for var in BLAS_VARS}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
        "blas_threads": blas_threads(),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def execute(task):
    """Run one task; returns (latency s, output or None, error or None)."""
    t0 = perf_counter()
    try:
        out = task.run()
    except Exception as exc:  # typed or untyped, the error is the task's result
        return perf_counter() - t0, None, exc
    return perf_counter() - t0, out, None


def judge(task, out, error, workloads, kernel_space_error):
    """The task's outcome against its reference."""
    if error is not None:
        if isinstance(error, kernel_space_error):
            return workloads.Outcome(task.expects_refusal,
                                     f"{type(error).__name__}: {error}")
        return workloads.Outcome(False, f"untyped {type(error).__name__}: {error}")
    try:
        return task.check(out)
    except Exception as exc:  # a malformed output fails its task
        return workloads.Outcome(False, f"check raised {type(exc).__name__}: {exc}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import kernelblaschke
        import spans as tracing
        import workloads
        from kernelblaschke.errors import KernelSpaceError
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(kernelblaschke.__file__).resolve().parents:
        print(f"perfbench: kernelblaschke was imported from {kernelblaschke.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = perf_counter() - T_START

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="reports-") as scratch:
        # Each set-up sample is the imports (this process's first, then fresh
        # interpreters') plus input generation, references and the warm-up.
        imports, setup_times, probes = [import_s], [], []
        for i in range(SETUP_REPEATS):
            if i:
                imports.append(probe_imports())
            t0 = perf_counter()
            tasks = workloads.build(args.workload, args.seed, scratch)
            execute(tasks[0])  # the untimed warm-up task
            setup_times.append(imports[i] + perf_counter() - t0)
            probes.append(calibration_s())
        result = measure(args, tasks, tracing, workloads, KernelSpaceError)
    result["setup_s"] = statistics.median(setup_times)
    result["setup_repeats_s"] = setup_times
    result["import_s"] = imports
    result["probes_s"] = probes + result.pop("loop_probes_s")
    slowness = statistics.median(result["probes_s"]) / CALIBRATION_NOMINAL_S
    result["host_slowness"] = slowness
    for name, power in NORMALIZED.items():
        result[f"wall_{name}"] = result[name]
        result[name] /= slowness ** power
    return report(args, result, out_dir, tracing)


def measure(args, tasks, tracing, workloads, kernel_space_error) -> dict:
    """The closed loop: the next task starts when the previous one is judged.

    The loop runs whole decks and stops at the first deck boundary past the
    deadline, so every run measures the same mix of tasks.  Between tasks it
    times the host-speed probe; probe time is not loop time.
    """
    deck = len(tasks) // workloads.DECKS
    rec = tracing.Recorder() if args.trace else None
    patch = tracing.Patch(rec) if args.trace else None
    latencies, traced, untraced = [], [], []
    failures, notes, cert, planted, kinds = 0, [], [], 0, {}
    i = 0
    t_loop = perf_counter()
    deadline = t_loop + args.seconds
    probes, probe_at, probe_s = [], t_loop + CALIBRATION_EVERY_S, 0.0
    while True:
        task = tasks[i % len(tasks)]
        # In a traced run every task runs twice, traced and untraced in
        # alternating order, so the overhead is measured on the same inputs.
        modes = ((True, False) if i % 2 == 0 else (False, True)) if rec else (False,)
        for traced_mode in modes:
            if traced_mode:
                rec.task_id = i
                patch.install()
                root = rec.open("task")
            latency, out, error = execute(task)
            if traced_mode:
                rec.close(root)
                patch.remove()
                traced.append(latency)
            elif rec:
                untraced.append(latency)
            outcome = judge(task, out, error, workloads, kernel_space_error)
            latencies.append(latency)
            kinds.setdefault(task.kind, []).append(latency)
            cert.extend(outcome.cert)
            planted += task.planted
            if not outcome.ok:
                failures += 1
                if len(notes) < 5:
                    notes.append(f"{task.kind}: {outcome.note}")
        i += 1
        if i % deck == 0 and perf_counter() >= deadline:
            break
        if perf_counter() >= probe_at:
            t0 = perf_counter()
            probes.append(calibration_s())
            t1 = perf_counter()
            probe_s += t1 - t0
            probe_at = t1 + CALIBRATION_EVERY_S
    wall = perf_counter() - t_loop - probe_s
    probes.append(calibration_s())  # at least one, however short the loop
    tail_s, pct = tail(latencies)
    n = len(latencies)
    result = {
        "attempted": n,
        "failed": failures,
        "failure_notes": notes,
        "tasks_per_s": n / wall,
        "task_p50_ms": 1e3 * statistics.median(latencies),
        "task_tail_ms": 1e3 * tail_s,
        "task_tail_percentile": pct,
        "samples": n,
        "failed_ratio": failures / n,
        "cert_pairs_checked": len(cert),
        "cert_violations": sum(cert),
        "cert_violation_ratio": sum(cert) / len(cert) if cert else None,
        "planted_share": planted / n,
        "kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(kinds.items())},
        "kind_count": {k: len(v) for k, v in sorted(kinds.items())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loop_probes_s": probes,
    }
    if rec:
        layers = tracing.per_layer(rec)
        layers["trace_overhead_ratio"] = sum(untraced) / sum(traced)
        layers["kernels.kernel_pairing.cert_checked"] = len(cert)
        layers["kernels.kernel_pairing.cert_violations"] = sum(cert)
        layers["tasks.planted_share"] = planted / n
        result["per_layer"] = layers
        result["recorder"] = rec
    return result


def report(args, result, out_dir, tracing) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    print(f"perfbench env {json.dumps(env, sort_keys=True)}")
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"tasks={result['attempted']} failed={result['failed']} "
          f"planted_share={result['planted_share']:.4f}")
    for note in result["failure_notes"]:
        print(f"perfbench failure {note}", file=sys.stderr)
    cert_base = f"{result['cert_violations']}/{result['cert_pairs_checked']} pairs"
    def wall(name):
        return f"wall clock {result['wall_' + name]:.6g}"

    print(f"perfbench host slowness {result['host_slowness']:.4f} "
          f"({len(result['probes_s'])} probes); timings below are at slowness 1, "
          f"each with its wall-clock figure")
    rows = [
        ("tasks_per_s", result["tasks_per_s"], "1/s",
         f"higher, {wall('tasks_per_s')}"),
        ("task_p50_ms", result["task_p50_ms"], "ms",
         f"lower, {result['samples']} samples, {wall('task_p50_ms')}"),
        ("task_tail_ms", result["task_tail_ms"], "ms",
         f"lower, p{result['task_tail_percentile']:.2f}, {wall('task_tail_ms')}"),
        ("failed_ratio", result["failed_ratio"], "ratio",
         f"lower, {result['failed']}/{result['attempted']} tasks"),
        ("cert_violation_ratio", result["cert_violation_ratio"], "ratio",
         f"lower, {cert_base}"),
        ("setup_s", result["setup_s"], "s", f"lower, {wall('setup_s')}"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "lower"),
    ]
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<22} {shown:>12} {unit:<6} ({note})")

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in result["per_layer"].items()}
        for name, value in result["per_layer"].items():
            print(f"  {name:<52} {value:>14.6g} {_unit(name)}")
        tracing.write_sidecar(result.pop("recorder"), out_dir / f"trace-{tag}.jsonl",
                              {"workload": args.workload, "seed": args.seed,
                               "clock": "ms since the first span"})
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              **{k: v for k, v in result.items() if k != "recorder"}}
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("dense_flops_computed"):
        return "flop"
    if name.endswith(".bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
