"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every ``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``,
every ``per_layer`` metric with ``--trace 1``).  The exit code is 1 when any
output was wrong, 2 when the benchmark could not run at all (then nothing
is printed).  ``--trace 1`` also writes the spans to
``.perfbench/traces/<workload>-seed<N>.jsonl``.  ``--held-out`` lets the
seed also draw ``large_procs``' control-flow graphs, which the gated runs
keep fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict

import batch
from common import OUT, ROOT, BenchError, WorkDir, import_program
from speed import PROBE_REF_MS


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json`` at the checkout root."""

    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_end_to_end(workload: str, seed: int, seconds: float, held_out: bool, workdir):
    values, outcome, speed = batch.end_to_end(workload, seed, seconds, workdir, held_out)
    attempted, failed = outcome.attempted, outcome.failed
    values["ok_frac"] = (attempted - failed) / attempted
    # Times are at reference speed; this is how fast the machine was.
    print(json.dumps({"probe_ms": speed.median_ms(), "probe_ref_ms": PROBE_REF_MS}))
    return values, attempted, failed, failed, None


def run_per_layer(workload: str, seed: int, _seconds: float, held_out: bool, workdir):
    import serve

    values, outcome, tracer, procedures = batch.per_layer(workload, seed, workdir, held_out)
    service_values, verdict = serve.serve_procedures(procedures, workdir)
    values.update(service_values)
    attempted = outcome.attempted + verdict.attempted
    failed = outcome.failed + verdict.failed
    wrong = outcome.failed + verdict.wrong
    unfired = tracer.unfired()
    if unfired:
        raise BenchError(f"layer boundaries never fired: {', '.join(unfired)}")
    return values, attempted, failed, wrong, tracer


def pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` unless already pinned.

    The program's results depend on string-hash order in places (equal-cost
    placement ties), so a run is reproducible, and comparable with the
    server children, only with one fixed hash seed for every process.
    """

    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main() -> int:
    pin_hash_seed()
    # A terminated run still stops its children and removes its scratch.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=batch.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="let the seed draw large_procs' graphs too (held-out inputs)")
    args = parser.parse_args()

    try:
        units = declared_metrics(bool(args.trace))
        import_program()
        with WorkDir() as workdir:
            runner = run_per_layer if args.trace else run_end_to_end
            values, attempted, failed, wrong, tracer = runner(
                args.workload, args.seed, args.seconds, args.held_out, workdir
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if set(values) != set(units):
        missing, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
