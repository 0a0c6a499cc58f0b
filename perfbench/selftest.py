"""Self-test: one deliberately wrong reference must raise failed_ratio.

    python3 perfbench/selftest.py [--seed 1]

Runs every task of the first crosscheck deck once with the references as
generated, then again with one reference corrupted (the first H2 Blaschke
coefficient table, shifted by 1e-6 at degree 1).  Then runs the first
Bergman pairing at 1 - |a| = 1e-4 of the series workload against its closed
form, and against the closed form off by 1e-3 of its size.  Exits 0 when
the clean passes have no failure and each corrupted pass fails exactly the
task that uses the corrupted reference.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

import run

run.pin_blas_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402
from kernelblaschke.errors import KernelSpaceError  # noqa: E402


def failed_ratio(seed: int, scratch: str) -> tuple[float, list[str]]:
    tasks = workloads.build("crosscheck", seed, scratch)
    deck = tasks[: len(tasks) // workloads.DECKS]
    failed = []
    for task in deck:
        _, out, error = run.execute(task)
        if not run.judge(task, out, error, workloads, KernelSpaceError).ok:
            failed.append(task.kind)
    return len(failed) / len(deck), failed


def pairing_fails(seed: int, rel_error: float) -> bool:
    """Whether the first A2 pairing at 1 - |a| = 1e-4 fails its reference."""
    original = workloads._closed_kernel

    def shifted(space, a, b):
        return original(space, a, b) * (1 + rel_error)

    workloads._closed_kernel = shifted
    try:
        tasks = workloads.build("series", seed, "")
    finally:
        workloads._closed_kernel = original
    task = next(t for t in tasks if t.kind == "near-A2-0.0001")
    _, out, error = run.execute(task)
    return not run.judge(task, out, error, workloads, KernelSpaceError).ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    out_dir = run.ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="selftest-") as scratch:
        clean, clean_failed = failed_ratio(args.seed, scratch)
        original = workloads.blaschke_coefficients
        calls = []

        def corrupted(m0, entries, n):
            coeffs = original(m0, entries, n)
            calls.append(1)
            if len(calls) == 1:
                coeffs[1] += 1e-6
            return coeffs

        workloads.blaschke_coefficients = corrupted
        try:
            wrong, wrong_failed = failed_ratio(args.seed, scratch)
        finally:
            workloads.blaschke_coefficients = original
    print(f"clean references:    failed_ratio {clean:.4f} {clean_failed}")
    print(f"one wrong reference: failed_ratio {wrong:.4f} {wrong_failed}")
    pair_clean = pairing_fails(args.seed, 0.0)
    pair_wrong = pairing_fails(args.seed, 1e-3)
    print(f"A2 pairing at 1-|a|=1e-4: fails {pair_clean} on its closed form, "
          f"{pair_wrong} on the closed form off by 1e-3")
    ok = (clean == 0.0 and wrong > clean and wrong_failed == ["route-H2"]
          and not pair_clean and pair_wrong)
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
