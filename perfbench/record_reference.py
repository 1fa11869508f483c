"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_reference.py crime-location --seeds 0-19
    python3 perfbench/record_reference.py water-spread --seeds 0-19 --episodes 12
    python3 perfbench/record_reference.py service-mixed --seeds 0-19

For each run seed, mines the episodes a run would mine (one per run
seed, or ``--episodes`` per run seed for workloads that mine new data
every episode), each from a fresh miner, and writes description,
extension size and SI (plus spread direction and variance) of every
iteration to ``perfbench/reference/<workload>.json``, keyed by dataset
seed. For ``service-mixed`` it mines, in-process, the cold specs of the
first ``service.REFERENCE_JOBS`` jobs of each client's plan, each to
the most iterations the plan asks of it. Run it only on a commit whose
outputs are known to be right; the gate holds later commits to them.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

common.pin_threads()


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="0-19")
    parser.add_argument("--episodes", type=int, default=12)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(common.SRC))
    if args.workload == "service-mixed":
        doc = record_service(parse_seeds(args.seeds))
    else:
        doc = record_mining(args.workload, parse_seeds(args.seeds), args.episodes)
    doc.update(workload=args.workload, run_seeds=args.seeds, git_rev=common.git_rev())
    common.REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path = common.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def record_mining(name: str, run_seeds: list[int], episodes: int) -> dict:
    import gate
    import mining

    workload = mining.WORKLOADS[name]
    episodes = episodes if workload.data_per_episode else 1
    seeds = {}
    for seed in run_seeds:
        for episode in range(episodes):
            dataset_seed = workload.dataset_seed(seed, episode)
            miner = workload.miner(workload.make(dataset_seed))
            seeds[str(dataset_seed)] = [
                gate.iteration_record(miner.step(kind=workload.kind))
                for _ in range(workload.episode)
            ]
            print(f"{name} dataset seed {dataset_seed}: "
                  f"{seeds[str(dataset_seed)][0]['description']}", file=sys.stderr)
    return {
        "kind": workload.kind,
        "iterations_per_seed": workload.episode,
        "episodes_per_run_seed": episodes,
        "config": {
            "beam_width": mining.PAPER_CONFIG.beam_width,
            "max_depth": mining.PAPER_CONFIG.max_depth,
            "top_k": mining.PAPER_CONFIG.top_k,
            "n_split_points": mining.PAPER_CONFIG.n_split_points,
            "split_strategy": mining.PAPER_CONFIG.split_strategy,
        },
        "seeds": seeds,
    }


def record_service(run_seeds: list[int]) -> dict:
    from repro.api import Workspace

    import gate
    import service

    seeds = {}
    with Workspace() as local:
        for seed in run_seeds:
            specs = service.reference_specs(seed)
            for dataset_seed, n in specs.items():
                result = local.mine(service.spec_of(dataset_seed, n))
                seeds[str(dataset_seed)] = [gate.iteration_record(it) for it in result.iterations]
            print(f"service-mixed run seed {seed}: {len(specs)} cold specs", file=sys.stderr)
    return {
        "kind": "location",
        "jobs_per_client": service.REFERENCE_JOBS,
        "clients": service.MAX_CLIENTS,
        "config": dict(service.JOB_SEARCH, dataset="socio"),
        "seeds": seeds,
    }


if __name__ == "__main__":
    sys.exit(main())
