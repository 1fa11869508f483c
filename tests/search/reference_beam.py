"""A plain, slow reference for :class:`repro.search.beam.LocationBeamSearch`.

One :class:`Description`, one row mask and one :class:`ScoredSubgroup`
per candidate, each scored by itself through the background model's own
Eq. 13 (:func:`repro.interest.ic.location_ic`). It is the
straightforward form of the search (the per-candidate loop the
index-space kernel replaced), kept as the oracle the kernel is tested
against.

Subgroups with equal extensions and lengths tie in SI, and floating
point may break such a tie either way: a batched product rounds a row
differently by its position in the batch. ``rank_ic`` lets the caller
rank candidates by another implementation's ICs (looked up by
description), so both searches break those ties alike; the reference
still reports, and the caller checks, its own ICs.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.interest.dl import LOCATION, DLParams, description_length
from repro.interest.ic import location_ic
from repro.interest.si import PatternScore
from repro.lang.description import Description
from repro.search.config import SearchConfig
from repro.search.results import ScoredSubgroup, SearchResult
from repro.stats.statistics import subgroup_mean
from repro.utils.timer import TimeBudget


def reference_beam_search(
    operator,
    model,
    targets: np.ndarray,
    *,
    config: SearchConfig = SearchConfig(),
    dl_params: DLParams = DLParams(),
    on_candidate: Callable[[ScoredSubgroup], None] | None = None,
    rank_ic: Callable[[Description], float] | None = None,
) -> SearchResult:
    """Level-wise beam search, one candidate at a time."""
    n_rows = model.n_rows
    budget = TimeBudget(config.time_budget_seconds)
    max_size = min(int(math.floor(config.max_coverage_fraction * n_rows)), n_rows - 1)

    logged: list[tuple[float, int, ScoredSubgroup]] = []
    beam: list[tuple[Description, np.ndarray]] = [
        (Description(), np.ones(n_rows, dtype=bool))
    ]
    seen: set[Description] = set()
    n_evaluated = 0
    depth_reached = 0
    expired = False

    for depth in range(1, config.max_depth + 1):
        candidates: list[tuple[Description, np.ndarray]] = []
        for parent, parent_mask in beam:
            if budget.expired:
                expired = True
                break
            for refined, condition in operator.refinements(parent):
                if refined in seen:
                    continue
                seen.add(refined)
                mask = parent_mask & operator.mask_of(condition)
                size = int(mask.sum())
                if size < config.min_coverage or size > max_size:
                    continue
                candidates.append((refined, mask))
        if expired or not candidates:
            break
        depth_reached = depth
        scored: list[tuple[float, ScoredSubgroup]] = []
        for description, mask in candidates:
            mean = subgroup_mean(targets, mask, weights=model.weights)
            ic = location_ic(model, mask, mean)
            dl = description_length(len(description), kind=LOCATION, params=dl_params)
            entry = ScoredSubgroup(
                description=description,
                indices=np.flatnonzero(mask),
                observed_mean=mean,
                score=PatternScore(ic=ic, dl=dl),
            )
            si = entry.si if rank_ic is None else rank_ic(description) / dl
            scored.append((si, entry))
            logged.append((si, n_evaluated, entry))
            n_evaluated += 1
            if on_candidate is not None:
                on_candidate(entry)
        scored.sort(key=lambda pair: -pair[0])
        beam = [
            (entry.description, np.isin(np.arange(n_rows), entry.indices))
            for _, entry in scored[: config.beam_width]
        ]

    logged.sort(key=lambda t: (-t[0], t[1]))
    ranked = tuple(entry for _, _, entry in logged[: config.top_k])
    return SearchResult(
        best=ranked[0] if ranked else None,
        log=ranked,
        n_evaluated=n_evaluated,
        depth_reached=depth_reached,
        expired=expired,
    )
