"""Correctness gate: every measured operation is checked, and failures
count against ``attempted``.

Three checks on the mining workloads:

- **reference** — each iteration's description, extension size and SI
  (plus spread direction and variance on ``water-spread``) equal the
  outputs recorded from the seed commit for the shipped seeds
  (``reference/<workload>.json``, made by ``record_reference.py``);
- **re-score** — for any seed, the winner of each iteration is scored
  again through ``SubgroupDiscovery.score_description`` under the
  belief state it was mined in, and must match the beam's score and
  extension;
- **repeat** — every repetition of an iteration in one run equals its
  first run.

Numbers are compared at the golden tolerance.
"""

from __future__ import annotations

import json
import math

from common import REFERENCE_DIR

#: The golden-fixture tolerance (tests/golden): scaled by max(1, |x|).
TOLERANCE = 1e-9


def close(a: float, b: float, tol: float = TOLERANCE) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol * max(1.0, abs(b))


def iteration_record(iteration) -> dict:
    """The checked outputs of one mining iteration, as plain JSON."""
    location = iteration.location
    record = {
        "description": str(location.description),
        "size": int(len(location.indices)),
        "si": float(location.score.si),
    }
    if iteration.spread is not None:
        record["direction"] = [float(x) for x in iteration.spread.direction]
        record["variance"] = float(iteration.spread.variance)
    return record


def record_problems(got: dict, want: dict) -> list[str]:
    """Differences between two iteration records (empty when equal)."""
    problems = []
    if got["description"] != want["description"]:
        problems.append(f"description {got['description']!r} != {want['description']!r}")
    if got["size"] != want["size"]:
        problems.append(f"size {got['size']} != {want['size']}")
    if not close(got["si"], want["si"]):
        problems.append(f"si {got['si']!r} != {want['si']!r}")
    if ("direction" in got) != ("direction" in want):
        problems.append("spread present on one side only")
    elif "direction" in want:
        if len(got["direction"]) != len(want["direction"]) or not all(
            close(a, b) for a, b in zip(got["direction"], want["direction"])
        ):
            problems.append("spread direction differs")
        if not close(got["variance"], want["variance"]):
            problems.append(f"variance {got['variance']!r} != {want['variance']!r}")
    return problems


class References:
    """Reference iteration records of one workload, by dataset seed."""

    def __init__(self, workload: str) -> None:
        path = REFERENCE_DIR / f"{workload}.json"
        self.doc = json.loads(path.read_text()) if path.exists() else {"seeds": {}}

    def expected(self, dataset_seed: int, index: int) -> dict | None:
        """Record of iteration ``index`` (1-based), or None if not shipped."""
        iterations = self.doc["seeds"].get(str(dataset_seed), [])
        return iterations[index - 1] if index <= len(iterations) else None


def rescore_problems(miner_factory, iterations) -> list[list[str]]:
    """Re-score each iteration's winner under the beliefs it was mined in.

    ``miner_factory()`` builds a fresh ``SubgroupDiscovery`` on the same
    dataset and settings; it assimilates the iterations one by one, so
    iteration ``k`` is scored after iterations ``1..k-1``. Returns one
    problem list per iteration.
    """
    checker = miner_factory()
    out = []
    for iteration in iterations:
        location = iteration.location
        problems = []
        try:
            scored = checker.score_description(location.description)
        except Exception as exc:  # the gate reports, it does not crash
            problems.append(f"re-score raised {type(exc).__name__}: {exc}")
        else:
            if len(scored.indices) != len(location.indices) or any(
                int(a) != int(b) for a, b in zip(scored.indices, location.indices)
            ):
                problems.append("re-scored extension differs")
            if not close(scored.si, location.score.si):
                problems.append(
                    f"re-scored si {scored.si!r} != beam si {location.score.si!r}"
                )
        out.append(problems)
        checker.assimilate(location)
        if iteration.spread is not None:
            checker.assimilate(iteration.spread)
    return out
