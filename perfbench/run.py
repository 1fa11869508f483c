"""Paper-workload benchmark: one run of one workload.

    python3 perfbench/run.py --workload crime-location --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``crime-location``, ``mammals-location``: consecutive location
  iterations at the paper's §III settings;
- ``water-spread``: consecutive location + spread iterations;
- ``service-mixed``: an in-process mining server with a durable store,
  driven in a closed loop by ``min(2, nproc)`` HTTP clients.

The run builds its inputs from ``--seed``, measures for ``--seconds``,
checks every output, prints a human summary, and prints as its last
stdout line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``; the per-layer
metrics with ``--trace 1``, from a run with spans recorded around the
layers' public calls). The full record, with the environment it ran in,
is appended to ``perfbench/out/results.jsonl`` for ``compare.py``.

Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import common

common.pin_threads()  # before anything imports numpy

WORKLOAD_NAMES = ("crime-location", "mammals-location", "water-spread", "service-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))

    if args.workload == "service-mixed":
        import service as workload_module
    else:
        import mining as workload_module
    runner = workload_module.run_traced if args.trace else workload_module.run
    outcome = runner(args.workload, args.seed, args.seconds)

    for entry in outcome["metrics"].values():
        # A run whose every operation failed has no times; keep the
        # result valid JSON (it is already marked incorrect).
        if not math.isfinite(entry["value"]):
            entry["value"] = 0.0
    attempted = max(int(outcome["attempted"]), 1)
    failed = int(outcome["failed"])
    result = {
        "correct": failed == 0 and outcome["attempted"] > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": outcome["metrics"],
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        error_rate=failed / attempted,
        environment=common.environment(),
        notes=outcome["notes"],
    )
    common.OUT.mkdir(parents=True, exist_ok=True)
    with open(common.OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"samples={outcome['notes'].get('samples')} "
          f"error_rate={record['error_rate']:g} ({failed}/{attempted})")
    for problem in outcome["notes"].get("problems", []):
        print(f"  FAILED {problem}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
