"""Edge cases of the beam's scoring kernel.

:meth:`LocationICScorer.score_refinements` takes a block's statistics
over only the rows its parents cover, and the non-uniform-covariance IC
factors pooled covariances a chunk of candidates at a time. Every IC
here is checked per candidate against the model's own Eq. 13
(:func:`repro.interest.ic.location_ic`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.errors import ModelError
from repro.events import EventLog
from repro.interest.ic import location_ic
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.patterns import SpreadConstraint
from repro.search import beam as beam_module
from repro.search.beam import LocationBeamSearch, LocationICScorer
from repro.search.config import SearchConfig
from repro.stats.statistics import subgroup_mean

N_ROWS = 150


def make_dataset(seed: int, targets: np.ndarray, weights=None) -> Dataset:
    rng = np.random.default_rng(seed)
    n = targets.shape[0]
    columns = [
        Column("x", AttributeKind.NUMERIC, rng.uniform(-3, 3, n)),
        Column("o", AttributeKind.ORDINAL, rng.choice([0.0, 1.0, 3.0], n)),
        Column("flag", AttributeKind.BINARY, rng.integers(0, 2, n).astype(float)),
        Column("label", AttributeKind.CATEGORICAL, rng.choice(["a", "b", "c"], n)),
    ]
    names = [f"t{i}" for i in range(targets.shape[1])]
    return Dataset(f"kernel-{seed}", columns, targets, names, weights=weights)


def spread_model(targets: np.ndarray, **prior) -> BackgroundModel:
    """A model whose blocks no longer share one covariance."""
    model = BackgroundModel.from_targets(targets, **prior)
    inside = np.zeros(targets.shape[0], dtype=bool)
    inside[:40] = True
    direction = np.zeros(targets.shape[1])
    direction[0] = 1.0
    model.assimilate(SpreadConstraint.from_data(targets, inside, direction))
    return model


def rows_mask(*ranges: tuple[int, int]) -> np.ndarray:
    mask = np.zeros(N_ROWS, dtype=bool)
    for lo, hi in ranges:
        mask[lo:hi] = True
    return mask


def score_block(scorer, operator, parents, min_size=1, max_size=N_ROWS):
    """The kernel on one block refining every parent by the whole pool."""
    matrix = np.ascontiguousarray(operator.condition_matrix.T)
    pool = np.arange(matrix.shape[1])
    return scorer.score_refinements(
        matrix, parents, [pool] * parents.shape[0], min_size, max_size
    )


def reference_block(model, targets, operator, parents, min_size=1, max_size=N_ROWS):
    """Per refinement: admitted by row count, then Eq. 13 of each one."""
    admitted, ics, means = [], [], []
    for parent in parents:
        for condition in operator.condition_matrix:
            mask = parent & condition
            ok = min_size <= int(mask.sum()) <= max_size
            admitted.append(ok)
            if ok:
                mean = subgroup_mean(targets, mask, weights=model.weights)
                ics.append(location_ic(model, mask, mean))
                means.append(mean)
    return np.array(admitted), np.array(ics), np.array(means)


def assert_block_matches(scorer, operator, parents, **limits):
    model, targets = scorer.model, scorer.targets
    admitted, ics, means = score_block(scorer, operator, parents, **limits)
    want_admitted, want_ics, want_means = reference_block(
        model, targets, operator, parents, **limits
    )
    np.testing.assert_array_equal(admitted, want_admitted)
    np.testing.assert_allclose(ics, want_ics, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(means, want_means, rtol=1e-9, atol=1e-12)
    return admitted, ics


@pytest.fixture()
def targets():
    return np.random.default_rng(3).standard_normal((N_ROWS, 2))


class TestRowRestriction:
    def test_parents_on_small_disjoint_row_sets(self, targets):
        dataset = make_dataset(0, targets)
        operator = RefinementOperator(dataset)
        scorer = LocationICScorer(BackgroundModel.from_targets(targets), targets)
        parents = np.stack([rows_mask((0, 9)), rows_mask((40, 47)), rows_mask((120, 135))])
        admitted, _ = assert_block_matches(scorer, operator, parents)
        assert admitted.any() and not admitted.all()

    def test_parents_whose_union_is_every_row(self, targets):
        dataset = make_dataset(1, targets)
        operator = RefinementOperator(dataset)
        scorer = LocationICScorer(spread_model(targets), targets)
        parents = np.stack(
            [rows_mask((0, 75)), rows_mask((75, N_ROWS)), rows_mask((30, 110))]
        )
        assert parents.any(axis=0).all()
        assert_block_matches(scorer, operator, parents)

    def test_weighted_block_admits_by_row_count(self, targets):
        weights = np.random.default_rng(4).uniform(0.2, 3.0, N_ROWS)
        dataset = make_dataset(2, targets, weights=weights)
        operator = RefinementOperator(dataset)
        model = BackgroundModel.from_targets(targets, weights=weights)
        scorer = LocationICScorer(model, targets)
        parents = np.stack([rows_mask((0, 30)), rows_mask((50, 60), (90, 130))])
        limits = {"min_size": 6, "max_size": 14}
        admitted, _ = assert_block_matches(scorer, operator, parents, **limits)
        # The limits must tell row counts from weighted sizes here.
        by_weight = [
            6 <= weights[parent & condition].sum() <= 14
            for parent in parents
            for condition in operator.condition_matrix
        ]
        assert admitted.any()
        assert not np.array_equal(admitted, by_weight)

    def test_unit_weights_are_bit_identical_to_none(self, targets):
        operator = RefinementOperator(make_dataset(3, targets))
        parents = np.stack([rows_mask((0, 20), (60, 80)), rows_mask((10, 140))])
        plain = LocationICScorer(BackgroundModel.from_targets(targets), targets)
        unit = LocationICScorer(
            BackgroundModel.from_targets(targets, weights=np.ones(N_ROWS)), targets
        )
        for a, b in zip(
            score_block(plain, operator, parents), score_block(unit, operator, parents)
        ):
            np.testing.assert_array_equal(a, b)


def three_per_chunk(monkeypatch, dim: int) -> None:
    """Shrink the IC chunk to 3 candidates of dimension ``dim``."""
    monkeypatch.setattr(beam_module, "IC_CHUNK_BYTES", 3 * 8 * dim * dim)


def singular_scorer() -> tuple[LocationICScorer, int]:
    """A scorer whose pooled covariances are singular, and its seed.

    A duplicated target column and no prior jitter make every pooled
    covariance singular; whether a Cholesky factor still goes through
    is up to rounding. The prior itself must pass that test, so take
    the first seed whose prior does.
    """
    for seed in range(40):
        base = np.random.default_rng(seed).standard_normal((N_ROWS, 2))
        targets = np.column_stack([base, base[:, 0]])
        try:
            model = spread_model(targets, jitter=0.0)
        except ModelError:
            continue
        scorer = LocationICScorer(model, targets)
        assert not scorer._uniform_cov
        return scorer, seed
    pytest.fail("no seed gave a singular prior that factors")


class TestChunkedNonUniformIC:
    def test_chunk_boundaries_inside_a_level(self, monkeypatch):
        targets = np.random.default_rng(5).standard_normal((N_ROWS, 3))
        dataset = make_dataset(5, targets)
        model = spread_model(targets)
        scorer = LocationICScorer(model, targets)
        assert not scorer._uniform_cov
        config = SearchConfig(beam_width=4, max_depth=2, top_k=10)

        def search():
            stream = EventLog()
            LocationBeamSearch(
                RefinementOperator(dataset), scorer, config=config, observer=stream
            ).run()
            return stream.candidates

        unchunked = search()
        three_per_chunk(monkeypatch, 3)
        chunked = search()
        assert len(chunked) == len(unchunked) > 3
        for candidate, whole in zip(chunked, unchunked):
            # Each candidate is factored alone, whatever its chunk.
            assert candidate.score.ic == whole.score.ic
            want = location_ic(
                model, candidate.indices, subgroup_mean(targets, candidate.indices)
            )
            assert candidate.score.ic == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_near_singular_pooled_covariance(self, monkeypatch):
        """Collinear targets leave the prior's jitter as the only floor
        (condition number ~1e9): the stacked Choleskys still agree."""
        base = np.random.default_rng(6).standard_normal((N_ROWS, 2))
        targets = np.column_stack([base, base[:, 0]])
        three_per_chunk(monkeypatch, 3)
        scorer = LocationICScorer(spread_model(targets), targets)
        parents = np.stack([rows_mask((0, 60)), rows_mask((50, N_ROWS))])
        assert_block_matches(scorer, RefinementOperator(make_dataset(6, targets)), parents)

    def test_singular_chunk_falls_back_per_candidate(self, monkeypatch):
        scorer, seed = singular_scorer()
        three_per_chunk(monkeypatch, 3)
        solved = []

        def spy(a, b):
            solved.append(a.shape)
            return solve_psd(a, b)

        solve_psd = beam_module.solve_psd
        monkeypatch.setattr(beam_module, "solve_psd", spy)
        parents = np.stack([rows_mask((0, 60)), rows_mask((50, N_ROWS))])
        operator = RefinementOperator(make_dataset(seed, scorer.targets))
        admitted, _ = assert_block_matches(scorer, operator, parents)
        assert admitted.any()
        assert solved, "no chunk took the per-candidate fallback"

