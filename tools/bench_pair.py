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
host slowness) and every run record.  Its ``suite`` key holds, per side
over ``SUITE_RUNS`` runs, each CLI preset's wall time, the Tier-1 suite's
wall time and its time per test file, and each acceptance criterion's time
against its budget, as ``SUITE_PROTOCOL`` says.  Standard library only.
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
import tempfile
import time
import xml.etree.ElementTree as ET
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
SUITE_RUNS = 5  # runs per side of the presets and of the Tier-1 suite
SUITE_PROTOCOL = (
    "Each run is two fresh processes per side, from the side's copy, with one "
    "BLAS thread. The first imports the package, then times cli.main on each "
    "preset once, in PRESET_NAMES order, writing to a temporary directory "
    "(preset_ms). The second runs the Tier-1 command, python -m pytest -q "
    "--continue-on-collection-errors, with --junitxml: tier1_wall_s is its wall "
    "time; tier1_file_s sums, per test file, the times pytest reports for its "
    "test cases (set-up, call and tear-down; collection and imports fall "
    "outside them); criterion_s holds each test_criterion_* test's time, with "
    "its budget where the test has one (criteria 1, 2 and 9); tier1_failed "
    "counts the test cases that failed or errored. {runs} runs per side, the "
    "parent first on even runs and the change first on odd ones; each figure "
    "is the median over the runs, wall clock, not normalized to host slowness.")
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
    args = parser.parse_args(argv)
    # Checked before the first run: the claim is read only once every pair has run.
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in WORKLOADS or metric not in END_TO_END:
            parser.error(f"--claim must be WORKLOAD:METRIC with WORKLOAD one of "
                         f"{', '.join(WORKLOADS)} and METRIC one of {', '.join(END_TO_END)}; "
                         f"got {args.claim!r}")
    return args


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
    """Each preset's and the Tier-1 suite's figures per side over ``SUITE_RUNS``
    runs, as ``SUITE_PROTOCOL`` says."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    presets = {"parent": [], "change": []}
    tier1 = {"parent": [], "change": []}
    for r in range(SUITE_RUNS):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            env["PYTHONPATH"] = str(trees[side] / "src")
            done = subprocess.run([sys.executable, "-c", SUITE_TIMER], cwd=trees[side],
                                  env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"preset timing failed in {trees[side]}:\n{done.stderr}")
            presets[side].append(json.loads(done.stdout))
            tier1[side].append(tier1_once(trees[side], env))
    print(f"  suite: {SUITE_RUNS} preset and Tier-1 runs per side", flush=True)
    runs = [run for side_runs in tier1.values() for run in side_runs]
    files = sorted(set().union(*(run["files"] for run in runs)))
    criteria = sorted(set().union(*(run["criteria"] for run in runs)))
    budgets = {"1": 1.0, "2": 60.0, "9": 300.0}  # the criteria's gates, in seconds
    return {"protocol": SUITE_PROTOCOL.format(runs=SUITE_RUNS),
            "preset_ms": {name: sides(presets, lambda run: run[name])
                          for name in presets["parent"][0]},
            "tier1_wall_s": sides(tier1, lambda run: run["wall_s"]),
            "tier1_failed": {side: [run["failed"] for run in tier1[side]] for side in tier1},
            "tier1_file_s": {path: sides(tier1, lambda run: run["files"].get(path))
                             for path in files},
            "criterion_s": {name: {"budget_s": budgets.get(name.split("_")[2]),
                                   **sides(tier1, lambda run: run["criteria"].get(name))}
                            for name in criteria}}


def sides(runs: dict, pick) -> dict:
    """Per side, the spread of ``pick(run)`` over the runs where it is not None
    (a test file or criterion that one side lacks), or None."""
    out = {}
    for side, side_runs in runs.items():
        values = [v for v in map(pick, side_runs) if v is not None]
        out[side] = spread(values) if values else None
    return out


def tier1_once(tree: Path, env: dict) -> dict:
    """One Tier-1 run from ``tree``: its wall time, each test file's summed case
    times, each acceptance criterion's time, and the count of failed cases,
    read from pytest's JUnit XML."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "junit.xml")
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pytest", "-q",
                        "--continue-on-collection-errors", f"--junitxml={report}"],
                       cwd=tree, env=env, capture_output=True, text=True)
        wall_s = time.perf_counter() - start
        if not os.path.exists(report):
            raise SystemExit(f"the Tier-1 run in {tree} wrote no JUnit XML")
        cases = list(ET.parse(report).getroot().iter("testcase"))
    out = {"wall_s": wall_s, "files": {}, "criteria": {}, "failed": 0}
    for case in cases:
        # classname is the module path, "tests.test_acceptance", for a
        # function outside a class.
        parts = case.get("classname", "").split(".")
        module = next((i for i, p in enumerate(parts) if p.startswith("test_")), len(parts) - 1)
        path = "/".join(parts[: module + 1]) + ".py"
        seconds = float(case.get("time", 0.0))
        out["files"][path] = out["files"].get(path, 0.0) + seconds
        if case.get("name", "").startswith("test_criterion_"):
            out["criteria"][case.get("name")] = seconds
        out["failed"] += any(case.find(tag) is not None for tag in ("failure", "error"))
    return out


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
