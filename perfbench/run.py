"""Benchmark runner for the load-balancing simulator.

Run from the repository root::

    python3 perfbench/run.py --workload cycle_single --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` spends about half the time untraced and
half traced and reports the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The program under test is imported from ``src/`` of the checkout; the
run fails (exit 2, no result) when it is not there.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the reference box has two
# cpus and suite_sweep already runs two worker processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cycle_single", "fabric_replicas", "suite_sweep")


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only: small sizes, and a deliberately perturbed output
    # that the checks must catch.
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import importlib

    from machine import fingerprint

    out_dir = HERE / "out"
    run_dir = out_dir / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = importlib.import_module(args.workload)
        outcome = workload.run(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            scale=args.scale, corrupt=args.corrupt, out_dir=run_dir,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if outcome.tracer is not None:
        # A layer whose span never fired was not timed: its time went to
        # a parent span, so the traced run cannot be trusted.
        calls = outcome.tracer.calls()
        missing = [name for name in workload.LAYER_SPANS if not calls[name]]
        outcome.attempted += len(workload.LAYER_SPANS)
        outcome.failed += len(missing)
        if missing:
            outcome.notes.append("never called: " + ", ".join(missing))

    machine = fingerprint()
    print("fingerprint: " + json.dumps(machine, sort_keys=True), flush=True)
    for note in outcome.notes:
        print(note, flush=True)
    metrics = {}
    bypassed = []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in outcome.metrics:
            if not args.trace:
                _fail(f"{args.workload} did not measure {name}", 3)
            bypassed.append(name)
        value = outcome.metrics.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:>16.6g} {unit}", flush=True)
    if bypassed:
        print("not exercised by this workload (0): " + ", ".join(bypassed))
    ratio = outcome.failed / max(outcome.attempted, 1)
    print(f"{'failed_ratio':40s} {ratio:>16.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.tracer is not None:
        outcome.tracer.write(out_dir / f"{stem}-spans.jsonl")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "fingerprint": machine,
         "notes": outcome.notes, **result},
        indent=1,
    ))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
