"""Fast self-test of the benchmark at tiny sizes (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` keeps to its format, that every
workload prints every metric that file names, with its unit, in both
modes, that a deliberately perturbed output is caught and counted as
failed, and that the runner refuses to run where ``src/`` is missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> None:
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    assert all(NAME.match(name) for name in names), names
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in (
            "lower", "higher"
        ), metric
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(cwd: Path, workload: str, trace: int, *extra: str):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--scale", "tiny", *extra,
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = result_of(run(ROOT, workload, trace))
            assert result["correct"] and result["failed"] == 0, result
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in wanted}, workload
            for metric in wanted:
                got = metrics[metric["name"]]
                assert got["unit"] == metric["unit"], (workload, got)
                assert isinstance(got["value"], (int, float))
                assert not isinstance(got["value"], bool)
                if trace == 0:
                    assert got["value"] > 0, (workload, metric["name"])
        corrupted = result_of(run(ROOT, workload, 0, "--corrupt"))
        assert not corrupted["correct"] and corrupted["failed"] > 0, workload
        print(f"ok {workload}", flush=True)

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "ran without the program"
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok runner refuses to run without src/", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
