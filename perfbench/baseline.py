"""Measure every workload over several seeds and write a baseline file.

    python3 perfbench/baseline.py --seeds 1-10 --second-seeds 11-20 --seconds 30 \
        --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed with tracing off, then once per
workload with tracing on (first seed), one process at a time, and writes
the median and quartiles of every end-to-end metric, the traced per-layer
metrics, the shares that test the ROADMAP's baseline claims (each with its
base), and the environment record.  With ``--second-seeds`` it measures a
second set of seeds afterwards and sets each ``BENCHMARK.json`` metric's
spread in both sets, and the second median's change, against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

WORKLOADS = ("scan", "series", "crosscheck")
SUMMARIZED = ("tasks_per_s", "task_p50_ms", "task_tail_ms", "task_tail_percentile",
              "samples", "failed_ratio", "cert_violation_ratio", "setup_s",
              "peak_rss_mb", "planted_share", "host_slowness", "wall_tasks_per_s",
              "wall_task_p50_ms", "wall_task_tail_ms", "wall_setup_s")
# (claim, per-layer share, base, workload, claimed share)
CLAIMS = (
    ("np.roots is about 97% of the scan", "verify.zero_report.root_find_share",
     "traced_task_ms", "scan", 0.97),
    ("polyder/polyval are about 76% of subspace_equal",
     "verify.subspace_equal.poly_eval_share", "verify.subspace_equal.total_ms",
     "crosscheck", 0.76),
)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    subprocess.run(cmd, check=True, cwd=run.ROOT, stdout=subprocess.DEVNULL,
                   timeout=600)
    path = run.ROOT / ".bench_build" / "perfbench" / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def summary(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"values": []}
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None, "values": values}


def agreement(first: dict, second: dict) -> dict:
    """Each gated metric of two sets of runs against its BENCHMARK.json bound."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = first[name]["median"], second[name]["median"]
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        out[name] = {"bound": bound, "first_median": a, "second_median": b,
                     "second_worse_by": worse,
                     "first_spread": first[name]["iqr_over_median"],
                     "second_spread": second[name]["iqr_over_median"],
                     "within": worse <= bound and (name == "setup_s" or max(
                         first[name]["iqr_over_median"],
                         second[name]["iqr_over_median"]) <= bound)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--second-seeds", default=None)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)
    out = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        records = [one_run(workload, s, args.seconds, 0) for s in seeds]
        traced = one_run(workload, seeds[0], args.seconds, 1)
        out["env"] = records[0]["env"]
        out["workloads"][workload] = {
            "end_to_end": {k: summary([r[k] for r in records]) for k in SUMMARIZED},
            "kind_p50_ms": records[0]["kind_p50_ms"],
            "per_layer_seed": seeds[0],
            "per_layer": traced["per_layer"],
        }
    if args.second_seeds:
        out["second_seeds"] = seed_range(args.second_seeds)
        for workload in WORKLOADS:
            entry = out["workloads"][workload]
            records = [one_run(workload, s, args.seconds, 0) for s in out["second_seeds"]]
            entry["second_set"] = {k: summary([r[k] for r in records]) for k in SUMMARIZED}
            entry["agreement"] = agreement(entry["end_to_end"], entry["second_set"])
    out["claims"] = []
    for claim, share, base, workload, claimed in CLAIMS:
        layers = out["workloads"][workload]["per_layer"]
        out["claims"].append({
            "claim": claim, "workload": workload, "share": share,
            "measured": layers[share], "base": base, "base_ms": layers[base],
            "claimed": claimed,
            "verdict": "confirmed" if abs(layers[share] - claimed) <= 0.05 else "refuted",
        })
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
