"""Tests of the benchmark itself, at a tiny input scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SCALE = "0.05"
SEED = "11"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


_RUNS: dict[tuple, subprocess.CompletedProcess] = {}


def tiny(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    """One tiny run per argument set, shared between tests."""
    key = (workload, trace, *extra)
    if key not in _RUNS:
        _RUNS[key] = bench("--workload", workload, "--seed", SEED,
                           "--seconds", "0.2", "--trace", str(trace),
                           "--scale", SCALE, *extra)
    return _RUNS[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_contract_metric_is_printed_with_its_unit(
    workload, trace, section
):
    proc = tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == declared
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_exactly(workload):
    first = result_of(tiny(workload, 1))["metrics"]
    second = result_of(tiny(workload, 1, "--digests", "none"))["metrics"]
    counts = {name for name, m in first.items()
              if m["unit"] in ("count", "B", "events")
              or name.endswith("vector_frac")}
    assert counts
    assert {n: first[n]["value"] for n in counts} == {
        n: second[n]["value"] for n in counts}


def test_wrong_reference_digest_fails_the_run(tmp_path):
    digests = tmp_path / "digests.json"
    recorded = bench("--record-digests", "--seed", SEED, "--scale", SCALE,
                     "--digests", str(digests))
    assert recorded.returncode == 0, recorded.stderr[-2000:]
    good = tiny("multirank32", 0, "--digests", str(digests))
    assert good.returncode == 0, good.stderr[-2000:]
    assert "digests: committed" in good.stdout

    payload = json.loads(digests.read_text())
    payload["digests"]["multirank32/cbt"] = "0" * 64
    digests.write_text(json.dumps(payload))
    bad = tiny("multirank32", 0, "--digests", str(digests), "--seconds", "0")
    assert bad.returncode != 0
    result = result_of(bad)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "MISMATCH multirank32/cbt" in bad.stderr


def _shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()


def _processes_running(marker: str) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if marker.encode() in cmdline and str(RUN).encode() in cmdline:
            found.append(int(entry.name))
    return found


def _stray_processes() -> set[int]:
    """Resource trackers and unreaped (zombie) processes."""
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if state == "Z" or b"resource_tracker" in cmdline:
            found.add(int(entry.name))
    return found


def test_pool_workers_and_shared_memory_are_cleaned_up():
    before = _shm_segments()
    strays = _stray_processes()
    proc = bench("--workload", "multirank32", "--seed", "97531",
                 "--seconds", "0.2", "--scale", SCALE)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not _processes_running("97531")
    assert not _stray_processes() - strays
    assert not {s for s in _shm_segments() - before if s.startswith("psm_")}


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_contract_is_well_formed():
    assert CONTRACT["command"][:2] == ["python3", "perfbench/run.py"]
    assert CONTRACT["paths"] == ["perfbench"]
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in CONTRACT[section]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
