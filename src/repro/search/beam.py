"""Beam search for location patterns (§II-D).

Level-wise exploration of conjunctions: keep the ``beam_width`` highest-
SI descriptions of each arity, expand each by every admissible condition,
and log the overall ``top_k``.

Each level runs in index space. Refinements are generated and
deduplicated as integer keys (:meth:`RefinementOperator.refine_key`),
and their statistics come from one matrix product per block of beam
parents: with ``C`` the condition-mask matrix and ``P`` the parents'
row masks, ``C @ [P | P∘T | P∘H]`` holds the row count, the target sums
and the per-model-block counts of every (parent, condition) pair
(weighted sums and counts when the model carries case weights). Rows no
parent of the block covers contribute nothing, so the product runs over
the block's covered rows only. That is all the information content
needs. Both covariance cases are batched: one precision serves every
candidate when every model block shares one covariance (always true
before any spread pattern has been assimilated, since location updates
leave covariances alone), and otherwise the pooled covariances are
factored by stacked Choleskys over fixed-size chunks of candidates.
:class:`~repro.lang.description.Description` and
:class:`~repro.search.results.ScoredSubgroup` objects are built only for
the candidates that enter the top-k log or the next beam, and for every
scored candidate when an observer listens.

Parent blocks are capped by a fixed working-set size and scored through
an :class:`~repro.engine.executor.Executor`. Block boundaries depend only
on the data shape, the model's block count and the beam length, never
on the worker count, and blocks come back in order, so a
``ProcessExecutor`` run returns bit-identical results to a serial one.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.executor import Executor, SerialExecutor
from repro.errors import SearchError
from repro.events import MiningObserver
from repro.interest.dl import LOCATION, DLParams, description_length
from repro.interest.si import PatternScore
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.gaussian import LOG_2PI
from repro.obs import clock
from repro.obs.instruments import (
    BEAM_CANDIDATES,
    BEAM_FILTERED_CONTRADICTORY,
    BEAM_FILTERED_COVERAGE,
    BEAM_FILTERED_DUPLICATE,
    BEAM_FILTERED_REDUNDANT,
    BEAM_PHASE_CANDIDATE_GEN,
    BEAM_PHASE_MERGE,
    BEAM_PHASE_PRUNE,
    BEAM_PHASE_SCORE,
)
from repro.obs.trace import TRACER, current
from repro.search.config import SearchConfig
from repro.search.results import ScoredSubgroup, SearchResult
from repro.utils.linalg import log_det_psd, solve_psd
from repro.utils.timer import TimeBudget

#: Bytes of stacked right-hand side ``[P | P∘T | P∘H]`` per parent block,
#: counted over all ``n`` rows although a block's product only runs over
#: the rows its parents cover. A fixed bound on the scoring working set,
#: not a tuning option: one block holds a whole beam of 40 on crime
#: (d = 1) and three parents on mammals (d = 124).
BLOCK_BYTES = 8 << 20

#: Bytes of stacked pooled covariances per chunk of candidates when the
#: model blocks' covariances differ: 32 candidates at d = 16. Small,
#: because the stacked factors and solves are temporaries of the same
#: size and larger chunks raise the peak memory without saving time.
IC_CHUNK_BYTES = BLOCK_BYTES >> 7


class LocationICScorer:
    """Batched Eq. 13 evaluation against a frozen background model.

    The scorer snapshots the model's block structure once; it must be
    rebuilt after the model assimilates a pattern (the miner does this).
    """

    #: Arrays the shared-memory transport may move out of the pickled
    #: payload (:func:`repro.engine.shm.publish`): everything that scales
    #: with the dataset, plus the nested model (which declares its own).
    __shm_arrays__ = (
        "model",
        "targets",
        "_labels",
        "_onehot",
        "_block_means",
        "_block_covs",
        "_weights",
    )

    def __init__(self, model: BackgroundModel, targets: np.ndarray) -> None:
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets[:, None]
        if targets.shape != (model.n_rows, model.dim):
            raise SearchError(
                f"targets shape {targets.shape} does not match model "
                f"({model.n_rows}, {model.dim})"
            )
        self.model = model
        self.targets = targets
        self._weights = model.weights
        self._labels = np.asarray(model.labels)
        self._n_blocks = model.n_blocks
        self._block_means = np.stack(
            [model.block_mean(b) for b in range(model.n_blocks)]
        )
        self._block_covs = np.stack(
            [model.block_cov(b) for b in range(model.n_blocks)]
        )
        # One-hot block membership for batched per-block counts.
        self._onehot = np.zeros((model.n_rows, model.n_blocks))
        self._onehot[np.arange(model.n_rows), self._labels] = 1.0

        first = self._block_covs[0]
        self._uniform_cov = all(
            np.array_equal(first, self._block_covs[b]) for b in range(self._n_blocks)
        )
        if self._uniform_cov:
            d = model.dim
            self._precision = solve_psd(first, np.eye(d))
            self._logdet = log_det_psd(first)

    def score_masks(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ICs and observed means for a ``(k, n)`` boolean mask stack.

        On weighted models, ``sizes`` is the total subgroup weight and
        the per-block counts are weighted counts; the IC formulas are
        unchanged because the weighted model covariance stays
        ``Sigma_I = sum_b c_b Sigma_b / W^2`` with weighted ``c_b``
        (frequency semantics — see the background model).
        """
        masks = np.asarray(masks)
        n = self.model.n_rows
        if masks.ndim != 2 or masks.shape[1] != n:
            raise SearchError(f"masks must be (k, {n}), got {masks.shape}")
        # Each mask is a refinement of the full data by a one-off pool.
        admitted, ics, observed = self.score_refinements(
            np.ascontiguousarray(masks.T, dtype=bool),
            np.ones((1, n), dtype=bool),
            [np.arange(masks.shape[0])],
            1,
            n,
        )
        if not admitted.all():
            raise SearchError("cannot score an empty subgroup")
        return ics, observed

    def score_mask(self, mask: np.ndarray) -> tuple[float, np.ndarray]:
        """IC and observed mean of a single subgroup mask."""
        ics, observed = self.score_masks(np.asarray(mask)[None, :])
        return float(ics[0]), observed[0]

    def score_refinements(
        self,
        matrix: np.ndarray,
        parents: np.ndarray,
        conditions: list[np.ndarray],
        min_size: int,
        max_size: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score the refinements of a block of parents by pool conditions.

        ``matrix`` is the transposed ``(n, m)`` boolean condition-mask
        matrix, ``parents`` a ``(p, n)`` boolean stack of parent masks,
        and ``conditions[j]`` the condition indices (columns of
        ``matrix``) to refine parent ``j`` by. A refinement is admitted
        when its row count lies in ``[min_size, max_size]``. Returns
        ``(admitted, ics, observed)``: one flag per listed refinement,
        in order, then the ICs and observed means of the admitted ones.
        """
        d = self.targets.shape[1]
        n_blocks = self._n_blocks
        p = parents.shape[0]
        width = _rhs_width(d, n_blocks)
        # Only the rows some parent covers add to any refinement.
        rows = np.flatnonzero(parents.any(axis=0))
        covered = parents[:, rows].T
        # Column groups, each p wide: (weighted) sizes, target sums and
        # block counts. Unit weights build the identical right-hand side
        # as no weights, so they score bit-identically.
        rhs = np.empty((rows.shape[0], width, p))
        rhs[:, 0, :] = covered
        if self._weights is not None:
            rhs[:, 0, :] *= self._weights[rows, None]
        scaled = rhs[:, 0, None, :]
        np.multiply(self.targets[rows, :, None], scaled, out=rhs[:, 1 : 1 + d, :])
        np.multiply(
            self._onehot[rows, :, None], scaled, out=rhs[:, 1 + d : 1 + d + n_blocks, :]
        )
        # C[:, rows] as floats: only the gathered rows are ever converted.
        gathered = matrix[rows].astype(float).T
        stats = (gathered @ rhs.reshape(rows.shape[0], width * p)).reshape(-1, width, p)
        # Coverage limits are in rows, whatever the weights.
        if self._weights is None:
            counts = stats[:, 0, :]
        else:
            counts = gathered @ covered.astype(float)
        picked = np.concatenate(
            [stats[chosen, :, j] for j, chosen in enumerate(conditions)]
        )
        row_counts = np.concatenate(
            [counts[chosen, j] for j, chosen in enumerate(conditions)]
        )
        admitted = (row_counts >= min_size) & (row_counts <= max_size)
        picked = picked[admitted]
        ics, observed = self._ic(
            picked[:, 0], picked[:, 1 : 1 + d], picked[:, 1 + d : 1 + d + n_blocks]
        )
        return admitted, ics, observed

    def _ic(
        self, sizes: np.ndarray, sums: np.ndarray, block_counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """ICs and observed means from per-subgroup (weighted) sizes,
        target sums and per-block counts."""
        observed = sums / sizes[:, None]
        model_means = (block_counts @ self._block_means) / sizes[:, None]
        diffs = observed - model_means
        d = self.model.dim

        if self._uniform_cov:
            # Sigma_I = Sigma / |I|: Mahalanobis scales by |I|, logdet by
            # -d log |I|. One matmul scores every candidate.
            maha = np.sum((diffs @ self._precision) * diffs, axis=1) * sizes
            logdet = self._logdet - d * np.log(sizes)
            ics = 0.5 * (d * LOG_2PI + logdet + maha)
            return ics, observed

        # Sigma_I = sum_b c_b Sigma_b / |I|^2, factored a chunk at a time.
        # einsum sums the blocks in order, as the model's own pooled
        # covariance does; a GEMM rounds differently, which moved ICs by
        # 1e-8 relative on a near-singular (collinear-target) model.
        chunk = max(1, IC_CHUNK_BYTES // (8 * d * d))
        ics = np.empty(sizes.shape[0])
        for lo in range(0, sizes.shape[0], chunk):
            hi = min(lo + chunk, sizes.shape[0])
            covs = np.einsum("kb,bde->kde", block_counts[lo:hi], self._block_covs)
            covs /= (sizes[lo:hi] ** 2)[:, None, None]
            try:
                chol = np.linalg.cholesky(covs)
            except np.linalg.LinAlgError:
                # A singular pooled covariance in the chunk: the helpers'
                # lstsq/eigvalsh fallbacks score it.
                for k in range(hi - lo):
                    maha = float(diffs[lo + k] @ solve_psd(covs[k], diffs[lo + k]))
                    ics[lo + k] = 0.5 * (d * LOG_2PI + log_det_psd(covs[k]) + maha)
                continue
            z = np.linalg.solve(chol, diffs[lo:hi, :, None])[:, :, 0]
            logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
            ics[lo:hi] = 0.5 * (d * LOG_2PI + logdet + np.sum(z * z, axis=1))
        return ics, observed


def _rhs_width(dim: int, n_blocks: int) -> int:
    """Column groups per parent in :meth:`LocationICScorer.score_refinements`."""
    return 1 + dim + n_blocks


def _score_block(context: tuple, payload: tuple) -> tuple:
    """Executor entry point: score the refinements of one parent block."""
    scorer, matrix = context
    return scorer.score_refinements(matrix, *payload)


class LocationBeamSearch:
    """Beam search maximizing the SI of location patterns.

    Parameters
    ----------
    operator:
        Refinement operator over the dataset's description attributes.
    scorer:
        Batched IC scorer bound to the current background model.
    config:
        Beam width, depth, coverage limits, time budget.
    dl_params:
        DL weights; SI of a candidate with ``c`` conditions is
        ``IC / (gamma c + eta)``.
    executor:
        Backend scoring the parent blocks; serial by default, and
        guaranteed to return the serial result at any parallelism (see
        module docstring).
    observer:
        Optional :class:`~repro.events.MiningObserver`; its
        ``on_candidate`` hook fires for every admissible candidate the
        search scores, in generation order, in the coordinating process
        (block scoring may be parallel, event delivery never is).
    """

    def __init__(
        self,
        operator: RefinementOperator,
        scorer: LocationICScorer,
        *,
        config: SearchConfig = SearchConfig(),
        dl_params: DLParams = DLParams(),
        executor: Executor | None = None,
        observer: MiningObserver | None = None,
    ) -> None:
        self.operator = operator
        self.scorer = scorer
        self.config = config
        self.dl_params = dl_params
        self.executor = executor if executor is not None else SerialExecutor()
        self.observer = observer

    def run(self) -> SearchResult:
        """Execute the level-wise search; returns the winner and the log."""
        config = self.config
        operator = self.operator
        n_rows = self.scorer.model.n_rows
        budget = TimeBudget(config.time_budget_seconds)
        max_size = int(math.floor(config.max_coverage_fraction * n_rows))
        # The full data is never an interesting subgroup of itself.
        max_size = min(max_size, n_rows - 1)

        pool_size = len(operator)
        masks = operator.condition_matrix
        # DL by number of conditions, i.e. by the length of a key.
        dls = np.array(
            [math.nan]
            + [
                description_length(c, kind=LOCATION, params=self.dl_params)
                for c in range(1, config.max_depth + 1)
            ]
        )
        # Keys are fixed-width rows, so equal keys are equal bytes.
        key_bytes = np.dtype((np.void, config.max_depth * np.dtype(np.intp).itemsize))
        beam = [(operator.root_key(config.max_depth), np.ones(n_rows, dtype=bool))]
        seen: set[bytes] = set()
        # The top-k log as ascending (-si, serial) pairs, where a serial
        # numbers candidates in generation order, and the entries built
        # for the pairs in it.
        log: list[tuple[float, int]] = []
        entries: dict[int, ScoredSubgroup] = {}
        n_evaluated = 0
        depth_reached = 0
        expired = False

        # Phase instrumentation: two clock reads per phase per level,
        # recorded against pre-bound histogram children. Spans reuse the
        # same boundaries and only materialize inside an active trace.
        trace_ctx = current()

        # The scorer and the condition masks are shipped to the workers
        # once per run, not per level, transposed so that a block gathers
        # its covered rows, and as booleans (an eighth of the floats).
        context = (self.scorer, np.ascontiguousarray(masks.T))
        with self.executor.session(context) as session:
            for depth in range(1, config.max_depth + 1):
                t_gen = clock.perf_counter()
                conditions: list[np.ndarray] = []
                keys: list[np.ndarray] = []
                n_redundant = n_contradictory = n_duplicate = 0
                for key, _ in beam:
                    if budget.expired:
                        expired = True
                        break
                    refined, refined_keys, redundant, contradictory = (
                        operator.refine_key(key)
                    )
                    # First occurrence in generation order wins, before
                    # (and whatever) the coverage filter decides.
                    fresh = []
                    raws = refined_keys.view(key_bytes).ravel().tolist()
                    for i, raw in enumerate(raws):
                        if raw not in seen:
                            seen.add(raw)
                            fresh.append(i)
                    conditions.append(refined[fresh])
                    keys.append(refined_keys[fresh])
                    n_redundant += redundant
                    n_contradictory += contradictory
                    n_duplicate += refined.shape[0] - len(fresh)
                BEAM_FILTERED_REDUNDANT.inc(n_redundant)
                BEAM_FILTERED_CONTRADICTORY.inc(n_contradictory)
                BEAM_FILTERED_DUPLICATE.inc(n_duplicate)
                t_score = clock.perf_counter()
                BEAM_PHASE_CANDIDATE_GEN.observe(t_score - t_gen)
                TRACER.record("candidate_gen", t_gen, t_score, trace_ctx)
                if expired:
                    break

                blocks = session.map(
                    _score_block,
                    [
                        (
                            np.stack([mask for _, mask in beam[lo:hi]]),
                            conditions[lo:hi],
                            config.min_coverage,
                            max_size,
                        )
                        for lo, hi in self._blocks(len(beam))
                    ],
                )
                admitted = np.concatenate([block[0] for block in blocks])
                ics = np.concatenate([block[1] for block in blocks])
                observed = np.concatenate([block[2] for block in blocks])
                parent_of = np.repeat(
                    np.arange(len(beam)), [c.shape[0] for c in conditions]
                )[admitted]
                condition_of = np.concatenate(conditions)[admitted]
                key_of = np.concatenate(keys)[admitted]
                n_candidates = ics.shape[0]
                BEAM_FILTERED_COVERAGE.inc(admitted.shape[0] - n_candidates)
                t_merge = clock.perf_counter()
                BEAM_PHASE_SCORE.observe(t_merge - t_score)
                TRACER.record(
                    "score",
                    t_score,
                    t_merge,
                    trace_ctx,
                    tags={"depth": depth, "candidates": n_candidates},
                )
                if not n_candidates:
                    break
                BEAM_CANDIDATES.inc(n_candidates)
                depth_reached = depth

                lengths = np.count_nonzero(key_of < pool_size, axis=1)
                sis = ics / dls[lengths]

                def entry(i: int) -> ScoredSubgroup:
                    mask = beam[parent_of[i]][1] & masks[condition_of[i]]
                    return ScoredSubgroup(
                        description=operator.description_of(key_of[i]),
                        indices=np.flatnonzero(mask),
                        # A copy: a view would pin the level's whole array.
                        observed_mean=observed[i].copy(),
                        score=PatternScore(ic=float(ics[i]), dl=float(dls[lengths[i]])),
                    )

                if self.observer is not None:
                    for i in range(n_candidates):
                        self.observer.on_candidate(entry(i))
                order = np.argsort(-sis, kind="stable")
                top = order[: config.top_k].tolist()
                first = n_evaluated
                n_evaluated += n_candidates
                log = sorted(
                    log + [(-si, first + i) for si, i in zip(sis[top].tolist(), top)]
                )[: config.top_k]
                entries = {
                    serial: entries[serial] if serial < first else entry(serial - first)
                    for _, serial in log
                }
                t_prune = clock.perf_counter()
                BEAM_PHASE_MERGE.observe(t_prune - t_merge)
                TRACER.record("merge", t_merge, t_prune, trace_ctx)

                beam = [
                    (key_of[i], beam[parent_of[i]][1] & masks[condition_of[i]])
                    for i in order[: config.beam_width].tolist()
                ]
                t_done = clock.perf_counter()
                BEAM_PHASE_PRUNE.observe(t_done - t_prune)
                TRACER.record("prune", t_prune, t_done, trace_ctx)

        ranked = [entries[serial] for _, serial in log]
        return SearchResult(
            best=ranked[0] if ranked else None,
            log=tuple(ranked),
            n_evaluated=n_evaluated,
            depth_reached=depth_reached,
            expired=expired,
        )

    def _blocks(self, n_parents: int) -> list[tuple[int, int]]:
        """Consecutive parent ranges whose stacked right-hand side fits
        in :data:`BLOCK_BYTES`: a function of the data shape, the model's
        block count and the beam length only."""
        model = self.scorer.model
        width = _rhs_width(model.dim, model.n_blocks)
        per_block = max(1, BLOCK_BYTES // (8 * model.n_rows * width))
        return [
            (lo, min(lo + per_block, n_parents))
            for lo in range(0, n_parents, per_block)
        ]
