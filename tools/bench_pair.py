"""Paired benchmark of two commits: writes ``BENCH_<n>.json``.

    python3 tools/bench_pair.py --number 10 --title "what the change does" \
        --parent HEAD~1 --change HEAD --claim series:task_tail_ms --holdout 6

Each commit is exported with ``git archive`` into a fresh directory under
``--work`` (default ``.bench_build/pair``), so neither side sees uncommitted
files and the repository's own checkout is untouched; ``perfbench/run.py``
then runs from each copy, one run at a time, as ``PROTOCOL`` says.

The claimed workload (crosscheck when no claim is given) runs ten pairs,
the others five; the held-out pair and the traced pair run on it too.  The
output holds the environment, each metric's runs, median, quartiles
(inclusive method) and wins per pair, every task kind's p50, the per-layer
numbers of the traced runs (each ``*_ms`` figure also divided by its run's
host slowness) and every run record.  Its ``suite`` key holds each CLI
preset's median wall time per side over ``SUITE_RUNS`` runs, as
``SUITE_PROTOCOL`` says.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PROTOCOL = (
    "Parent and change ran from two fresh copies of their commits (git archive), "
    "one run at a time. For each workload and seed the two sides ran back to "
    "back, parent first on odd seeds and change first on even seeds: {traced} "
    "on seeds {claim}, {others} on seeds {other}, --seconds {seconds:g} "
    "--trace 0. {holdout}One traced run per side ({traced}, seed 1, --trace 1) "
    "gives the per-layer numbers; each *_ms figure is given raw and divided by "
    "its run's host slowness. Timings are run.py's, normalized to host "
    "slowness 1; each record keeps its wall-clock figures.")
SECONDS = 30
WORKLOADS = ("crosscheck", "scan", "series")
CLAIM_SEEDS = list(range(1, 11))  # the claimed workload: ten pairs
OTHER_SEEDS = list(range(1, 6))
SUITE_RUNS = 5  # runs per side of each CLI preset
SUITE_PROTOCOL = (
    "Each run is one fresh process per side, from the side's copy, with one "
    "BLAS thread; it imports the package, then times cli.main on each preset "
    "once, in PRESET_NAMES order, writing to a temporary directory. {runs} "
    "runs per side, the parent first on even runs and the change first on odd "
    "ones; each figure is the median over the runs in ms, wall clock, not "
    "normalized to host slowness.")
SUITE_TIMER = """
import json, tempfile, time
from kernelblaschke import cli
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in cli.PRESET_NAMES:
        start = time.perf_counter()
        cli.main(["preset", name, "--out", tmp, "--quiet"])
        out[name] = (time.perf_counter() - start) * 1e3
print(json.dumps(out))
"""
END_TO_END = {"tasks_per_s": "higher", "task_p50_ms": "lower",
              "task_tail_ms": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True,
                        help="n in the output name BENCH_<n>.json")
    parser.add_argument("--title", default="", help="one line: what the change does")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--holdout", type=int, default=None,
                        help="seed of the claimed workload (crosscheck without "
                        "a claim) run as one more pair, kept apart")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    parser.add_argument("--work", type=Path, default=REPO / ".bench_build" / "pair")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default BENCH_<n>.json at the repo root)")
    return parser.parse_args(argv)


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Extract commit ``rev`` into an empty ``dest``; returns its full hash."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    dest.mkdir(parents=True, exist_ok=False)
    tar = subprocess.run(["git", "-C", str(REPO), "archive", sha],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One run.py run from ``tree``; returns the record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}:\n{done.stderr}")
    path = tree / ".bench_build" / "perfbench" / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def pair(trees: dict, workload: str, seed: int, trace: int = 0) -> dict:
    """Both sides on one seed, the parent first on odd seeds."""
    order = ("parent", "change") if seed % 2 else ("change", "parent")
    out = {}
    for side in order:
        out[side] = run_once(trees[side], workload, seed, trace)
        print(f"  {workload} seed {seed} trace {trace} {side}: "
              f"{out[side]['attempted']} tasks, {out[side]['failed']} failed",
              flush=True)
    return out


def suite(trees: dict) -> dict:
    """Each preset's median wall time per side over ``SUITE_RUNS`` runs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    runs = {"parent": [], "change": []}
    for r in range(SUITE_RUNS):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            env["PYTHONPATH"] = str(trees[side] / "src")
            done = subprocess.run([sys.executable, "-c", SUITE_TIMER], cwd=trees[side],
                                  env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"preset timing failed in {trees[side]}:\n{done.stderr}")
            runs[side].append(json.loads(done.stdout))
    print(f"  suite: {SUITE_RUNS} preset runs per side", flush=True)
    return {"protocol": SUITE_PROTOCOL.format(runs=SUITE_RUNS),
            "preset_ms": {name: {side: spread([run[name] for run in runs[side]])
                                 for side in runs} for name in runs["parent"][0]}}


def spread(runs: list[float]) -> dict:
    if len(runs) < 2:
        return {"median": runs[0], "q1": runs[0], "q3": runs[0], "runs": runs}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarize(pairs: list[dict], seeds: list[int]) -> dict:
    """Per metric: each side's runs and quartiles, and the change's wins per pair."""
    out = {"seeds": seeds,
           "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
           "attempted": {s: sum(p[s]["attempted"] for p in pairs)
                         for s in ("parent", "change")}}
    for metric, better in END_TO_END.items():
        runs = {s: [p[s][metric] for p in pairs] for s in ("parent", "change")}
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - q) > 0 for q, c in zip(runs["parent"], runs["change"]))
        out[metric] = {"better": better,
                       "parent": spread(runs["parent"]), "change": spread(runs["change"]),
                       "change_wins": f"{wins}/{len(pairs)}",
                       "median_change_ratio": statistics.median(runs["change"])
                       / statistics.median(runs["parent"])}
    kinds = sorted(set().union(*(p[s]["kind_p50_ms"] for p in pairs
                                 for s in ("parent", "change"))))
    out["kind_p50_ms_median"] = {kind: {s: median_or_none(
        [p[s]["kind_p50_ms"][kind] / p[s]["host_slowness"]
         for p in pairs if kind in p[s]["kind_p50_ms"]]) for s in ("parent", "change")}
        for kind in kinds}
    return out


def layers(traced: dict) -> dict:
    """Per-layer figures of the traced pair; each ``*_ms`` figure is also
    given divided by its run's host slowness, as run.py gives the timings."""
    out = {}
    for name in sorted(set(traced["parent"]["per_layer"])
                       | set(traced["change"]["per_layer"])):
        row = {s: traced[s]["per_layer"].get(name) for s in ("parent", "change")}
        if name.endswith("_ms"):
            row.update({f"{s}_at_slowness_1": None if row[s] is None
                        else row[s] / traced[s]["host_slowness"]
                        for s in ("parent", "change")})
        out[name] = row
    return out


def median_or_none(values: list[float]) -> float | None:
    """The median, or None for a kind that one side's short runs never reached."""
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = parse_args(argv)
    # The claimed workload runs ten pairs, the held-out pair and the traced pair.
    target = args.claim.split(":")[0] if args.claim else "crosscheck"
    if target not in WORKLOADS:
        raise SystemExit(f"unknown workload {target!r} in --claim")
    plan = [(w, CLAIM_SEEDS if w == target else OTHER_SEEDS) for w in WORKLOADS]
    args.work.mkdir(parents=True, exist_ok=True)
    trees, commits = {}, {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        trees[side] = args.work / side
        if trees[side].exists():
            raise SystemExit(f"{trees[side]} exists; remove it or pass another --work")
        commits[side] = export(rev, trees[side])
    records, summary = [], {}
    for workload, seeds in plan:
        pairs = []
        for seed in seeds:
            pairs.append(pair(trees, workload, seed))
            records += [{"side": s, "workload": workload, "seed": seed, "trace": 0,
                         "record": r} for s, r in pairs[-1].items()]
        summary[workload] = summarize(pairs, seeds)
    result = {
        "change": args.title,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace T",
        "kind_p50_note": "kind_p50_ms_median: median over the seeds of each task "
                         "kind's p50, divided by the run's host slowness",
        "protocol": PROTOCOL.format(
            claim=",".join(map(str, CLAIM_SEEDS)),
            others=" and ".join(w for w in WORKLOADS if w != target),
            other=",".join(map(str, OTHER_SEEDS)), seconds=SECONDS, traced=target,
            holdout="" if args.holdout is None else
            f"{target.capitalize()} seed {args.holdout} ran one more pair, held out "
            "of the medians and reported apart. "),
        "env": records[0]["record"]["env"],
        "summary": summary,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        s = summary[workload][metric]
        result["claim"] = {"workload": workload, "metric": metric,
                           "parent_median": s["parent"]["median"],
                           "change_median": s["change"]["median"],
                           "parent_iqr": s["parent"]["q3"] - s["parent"]["q1"],
                           "median_change_ratio": s["median_change_ratio"],
                           "change_wins": s["change_wins"]}
    if args.holdout is not None:
        held = pair(trees, target, args.holdout)
        records += [{"side": s, "workload": target, "seed": args.holdout,
                     "trace": 0, "holdout": True, "record": r} for s, r in held.items()]
        result["holdout"] = {"workload": target, "seed": args.holdout,
                             **{m: {s: held[s][m] for s in ("parent", "change")}
                                for m in END_TO_END}}
    result["suite"] = suite(trees)
    traced = pair(trees, target, 1, trace=1)
    records += [{"side": s, "workload": target, "seed": 1, "trace": 1,
                 "record": r} for s, r in traced.items()]
    result[f"layers_{target}_seed1_traced"] = layers(traced)
    result["records"] = records
    out = args.out or REPO / f"BENCH_{args.number}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=False)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
