"""Differential test: the index-space beam kernel against a plain loop.

:func:`reference_beam.reference_beam_search` builds one description, mask and scored
subgroup per candidate and scores it through the model's own Eq. 13. The kernel must return the same search:
descriptions, extensions, DLs, ``n_evaluated``, ``depth_reached``,
``expired`` and the ``on_candidate`` stream exactly, ICs and means to
1e-9. Hypothesis draws mixed-kind datasets, 1-3 targets, case weights,
spread-assimilated (non-uniform covariance) models, narrow beams and
coverage limits sitting on candidate sizes.

The reference ranks by the kernel's ICs (see :mod:`reference_beam`), so
candidates that tie to rounding are ordered alike; its own ICs are
still checked against the kernel's.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_beam
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.events import MiningObserver
from repro.search import beam as beam_module
from repro.search.beam import LocationBeamSearch, LocationICScorer
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery

LABELS = ("north", "south", "east", "west")


class Recorder(MiningObserver):
    def __init__(self) -> None:
        self.candidates = []

    def on_candidate(self, candidate) -> None:
        self.candidates.append(candidate)


def make_dataset(seed: int, n_rows: int, dim: int) -> Dataset:
    """Mixed numeric/ordinal/binary/categorical data with a planted shift."""
    rng = np.random.default_rng(seed)
    flag = rng.integers(0, 2, n_rows).astype(float)
    label = rng.choice(LABELS, n_rows)
    x = rng.uniform(-3, 3, n_rows)
    targets = rng.standard_normal((n_rows, dim))
    targets[flag == 1.0] += 1.5
    targets[(label == "north") & (x > 0)] -= 2.0
    columns = [
        Column("x", AttributeKind.NUMERIC, x),
        Column("y", AttributeKind.NUMERIC, rng.normal(0, 2, n_rows)),
        Column("o", AttributeKind.ORDINAL, rng.choice([0.0, 1.0, 3.0, 5.0], n_rows)),
        Column("flag", AttributeKind.BINARY, flag),
        Column("label", AttributeKind.CATEGORICAL, label),
    ]
    names = [f"t{i}" for i in range(dim)]
    return Dataset(f"oracle-{seed}", columns, targets, names)


def assert_same_entry(a, b) -> None:
    assert a.description == b.description
    assert np.array_equal(a.indices, b.indices)
    assert a.score.dl == b.score.dl
    assert a.score.ic == pytest.approx(b.score.ic, rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(a.observed_mean, b.observed_mean, rtol=1e-9, atol=1e-12)


def assert_same_search(kernel, reference) -> None:
    assert kernel.n_evaluated == reference.n_evaluated
    assert kernel.depth_reached == reference.depth_reached
    assert kernel.expired == reference.expired
    assert len(kernel.log) == len(reference.log)
    for a, b in zip(kernel.log, reference.log):
        assert_same_entry(a, b)
    assert (kernel.best is None) == (reference.best is None)


def compare(miner: SubgroupDiscovery, config: SearchConfig):
    """Run both searches on the miner's current beliefs; return the kernel's."""
    scorer = LocationICScorer(miner.model, miner.targets)
    kernel_stream, reference_stream = Recorder(), Recorder()
    kernel = LocationBeamSearch(
        miner.operator,
        scorer,
        config=config,
        dl_params=miner.dl_params,
        observer=kernel_stream,
    ).run()
    kernel_ics = {c.description: c.score.ic for c in kernel_stream.candidates}

    def rank_ic(description):
        assert description in kernel_ics, f"kernel never scored {description}"
        return kernel_ics[description]

    reference = reference_beam.reference_beam_search(
        miner.operator,
        miner.model,
        miner.targets,
        config=config,
        dl_params=miner.dl_params,
        on_candidate=reference_stream.on_candidate,
        rank_ic=rank_ic,
    )
    assert_same_search(kernel, reference)
    assert len(kernel_stream.candidates) == len(reference_stream.candidates)
    assert len(kernel_stream.candidates) == kernel.n_evaluated
    for a, b in zip(kernel_stream.candidates, reference_stream.candidates):
        assert_same_entry(a, b)
    if kernel.best is not None:
        rescored = miner.score_description(kernel.best.description)
        assert np.array_equal(rescored.indices, kernel.best.indices)
        assert rescored.score.dl == kernel.best.score.dl
        assert rescored.si == pytest.approx(kernel.best.si, rel=1e-9, abs=1e-9)
    return kernel


configs = st.builds(
    SearchConfig,
    beam_width=st.sampled_from([1, 2, 5, 40]),
    max_depth=st.integers(1, 3),
    top_k=st.sampled_from([1, 7, 150]),
    n_split_points=st.integers(1, 4),
)


class TestKernelMatchesReference:
    @given(
        seed=st.integers(0, 2**16),
        n_rows=st.integers(20, 90),
        dim=st.integers(1, 3),
        config=configs,
    )
    @settings(max_examples=40, deadline=None)
    def test_unweighted(self, seed, n_rows, dim, config):
        miner = SubgroupDiscovery(make_dataset(seed, n_rows, dim), config=config)
        compare(miner, config)

    @given(seed=st.integers(0, 2**16), dim=st.integers(1, 3), config=configs)
    @settings(max_examples=25, deadline=None)
    def test_case_weights(self, seed, dim, config):
        dataset = make_dataset(seed, 60, dim)
        weights = np.random.default_rng(seed).uniform(0.2, 3.0, dataset.n_rows)
        compare(SubgroupDiscovery(dataset.with_weights(weights), config=config), config)

    @given(seed=st.integers(0, 2**16), dim=st.integers(1, 3), config=configs)
    @settings(max_examples=25, deadline=None)
    def test_unit_weights_are_bit_identical(self, seed, dim, config):
        dataset = make_dataset(seed, 60, dim)
        plain = compare(SubgroupDiscovery(dataset, config=config), config)
        unit = compare(
            SubgroupDiscovery(dataset.with_weights(np.ones(60)), config=config), config
        )
        assert plain.n_evaluated == unit.n_evaluated
        for a, b in zip(plain.log, unit.log):
            assert a.description == b.description
            assert a.score.ic == b.score.ic
            assert np.array_equal(a.observed_mean, b.observed_mean)

    @given(seed=st.integers(0, 2**16), dim=st.integers(2, 3), config=configs)
    @settings(max_examples=15, deadline=None)
    def test_non_uniform_covariance_after_spread(self, seed, dim, config):
        miner = SubgroupDiscovery(make_dataset(seed, 80, dim), config=config, seed=seed)
        miner.step(kind="spread")
        assert not LocationICScorer(miner.model, miner.targets)._uniform_cov
        compare(miner, config)

    @given(seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_coverage_limits_on_candidate_sizes(self, seed, data):
        dataset = make_dataset(seed, 70, 2)
        miner = SubgroupDiscovery(dataset)
        sizes = sorted(
            {int(miner.operator.mask_of(c).sum()) for c in miner.operator.conditions}
        )
        low = data.draw(st.sampled_from([s for s in sizes if s >= 2] or [2]))
        high = data.draw(st.sampled_from([s for s in sizes if s >= low] or [70]))
        config = SearchConfig(
            beam_width=data.draw(st.sampled_from([1, 3, 10])),
            max_depth=3,
            top_k=20,
            min_coverage=low,
            max_coverage_fraction=high / 70,
        )
        miner = SubgroupDiscovery(dataset, config=config)
        kernel = compare(miner, config)
        max_size = min(int(np.floor(config.max_coverage_fraction * 70)), 69)
        assert all(low <= entry.size <= max_size for entry in kernel.log)


class CountdownBudget:
    """A budget that expires after a fixed number of polls."""

    polls = 0

    def __init__(self, seconds) -> None:
        self.left = type(self).polls

    @property
    def expired(self) -> bool:
        self.left -= 1
        return self.left < 0


class TestExpiredBudget:
    def test_zero_budget(self):
        config = SearchConfig(beam_width=5, max_depth=3, time_budget_seconds=0.0)
        kernel = compare(SubgroupDiscovery(make_dataset(0, 60, 2), config=config), config)
        assert kernel.expired and kernel.best is None

    @pytest.mark.parametrize("polls", [1, 2, 4, 7])
    def test_budget_expiring_between_parents(self, monkeypatch, polls):
        """The budget is polled once per parent by both searches; the
        level it runs out in is dropped whole."""
        monkeypatch.setattr(CountdownBudget, "polls", polls)
        monkeypatch.setattr(beam_module, "TimeBudget", CountdownBudget)
        monkeypatch.setattr(reference_beam, "TimeBudget", CountdownBudget)
        config = SearchConfig(beam_width=5, max_depth=3, top_k=30)
        kernel = compare(SubgroupDiscovery(make_dataset(1, 60, 2), config=config), config)
        assert kernel.expired
