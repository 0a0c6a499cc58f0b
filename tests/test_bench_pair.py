"""The paired-benchmark tool refuses a malformed ``--claim`` before it runs
anything.  Imports ``tools/bench_pair.py``; starts no run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_claim_is_checked_before_the_first_run(bench_pair, tmp_path, monkeypatch, capsys):
    # A mistyped metric raised KeyError, and a claim without ":" ValueError,
    # only once every pair and the suite had run.
    def refuse(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pair, "export", refuse)
    work = tmp_path / "work"
    for bad in ("scan:task_tail_mss", "scan", "scan:", "sacn:task_p50_ms",
                ":task_p50_ms", "scan:task_p50_ms:x"):
        with pytest.raises(SystemExit) as info:
            bench_pair.main(["--number", "1", "--claim", bad, "--work", str(work)])
        assert info.value.code == 2, bad
        assert "--claim must be WORKLOAD:METRIC" in capsys.readouterr().err, bad
    assert not work.exists()
    for workload in bench_pair.WORKLOADS:
        for metric in bench_pair.END_TO_END:
            claim = f"{workload}:{metric}"
            assert bench_pair.parse_args(["--number", "1", "--claim", claim]).claim == claim
    assert bench_pair.parse_args(["--number", "1"]).claim is None
