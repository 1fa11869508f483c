"""Error contract: degenerate data fails with a typed ``repro.errors`` error.

Each case runs the whole front path a dataframe user takes,
``SubgroupDiscovery(from_dataframe(...)).step()``, and pins which
exception it raises today and the gist of its message. A change that
turns one of these into a crash, a different error or a silently mined
result fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import errors
from repro.datasets import from_dataframe
from repro.search.miner import SubgroupDiscovery

N_ROWS = 40


def frame_with_target(target: np.ndarray) -> dict:
    rng = np.random.default_rng(0)
    return {
        "x": rng.normal(size=N_ROWS),
        "group": rng.choice(["a", "b", "c"], N_ROWS),
        "y": target,
    }


def spiked(value: float) -> np.ndarray:
    target = np.random.default_rng(1).normal(size=N_ROWS)
    target[3] = value
    return target


CASES = {
    "zero-variance target": (
        frame_with_target(np.ones(N_ROWS)),
        errors.ModelError,
        "zero variance",
    ),
    "NaN target": (frame_with_target(spiked(np.nan)), errors.DataError, "missing values"),
    "inf target": (frame_with_target(spiked(np.inf)), errors.DataError, "NaN/inf"),
    "constant-only description column": (
        {"const": np.ones(N_ROWS), "y": spiked(0.0)},
        errors.SearchError,
        "no admissible subgroup",
    ),
    "2-row dataset": (
        {"x": np.array([1.0, 2.0]), "y": np.array([0.5, 1.5])},
        errors.SearchError,
        "no admissible subgroup",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_input_raises_typed_error(case):
    frame, expected, message = CASES[case]
    assert issubclass(expected, errors.ReproError)
    with pytest.raises(expected, match=message):
        SubgroupDiscovery(from_dataframe(frame, "y")).step()
