"""Tests for the refinement operator."""

import numpy as np
import pytest

from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.errors import DataError, LanguageError
from repro.lang.conditions import EqualsCondition, NumericCondition
from repro.lang.description import Description
from repro.lang.refinement import RefinementOperator


@pytest.fixture()
def dataset(rng):
    columns = [
        Column("num", AttributeKind.NUMERIC, rng.standard_normal(50)),
        Column("bin", AttributeKind.BINARY, rng.integers(0, 2, 50).astype(float)),
        Column("cat", AttributeKind.CATEGORICAL, rng.choice(["r", "g", "b"], 50)),
        Column("const", AttributeKind.NUMERIC, np.zeros(50)),
    ]
    return Dataset("toy", columns, rng.standard_normal((50, 1)), ["y"])


class TestPool:
    def test_pool_composition(self, dataset):
        op = RefinementOperator(dataset)
        kinds = {}
        for cond in op.conditions:
            kinds.setdefault(cond.attribute, []).append(cond)
        # numeric: 4 split points x 2 ops = 8 conditions.
        assert len(kinds["num"]) == 8
        # binary: 2 equalities; categorical: 3 equalities.
        assert len(kinds["bin"]) == 2
        assert len(kinds["cat"]) == 3
        # constant column yields nothing.
        assert "const" not in kinds

    def test_attribute_subset(self, dataset):
        op = RefinementOperator(dataset, attributes=["bin"])
        assert {c.attribute for c in op.conditions} == {"bin"}

    def test_unknown_attribute(self, dataset):
        with pytest.raises(DataError, match="unknown"):
            RefinementOperator(dataset, attributes=["nope"])

    def test_len(self, dataset):
        op = RefinementOperator(dataset)
        assert len(op) == len(op.conditions)


class TestMasks:
    def test_mask_cached_and_readonly(self, dataset):
        op = RefinementOperator(dataset)
        cond = op.conditions[0]
        mask1 = op.mask_of(cond)
        mask2 = op.mask_of(cond)
        assert mask1 is mask2
        with pytest.raises(ValueError):
            mask1[0] = True

    def test_mask_of_is_a_condition_matrix_row(self, dataset):
        op = RefinementOperator(dataset)
        for i, cond in enumerate(op.conditions):
            np.testing.assert_array_equal(op.mask_of(cond), op.condition_matrix[i])
        assert op.condition_matrix.flags.writeable is False

    def test_mask_of_a_condition_outside_the_pool(self, dataset):
        op = RefinementOperator(dataset)
        outside = NumericCondition("num", "<=", 0.123)
        assert outside not in op.conditions
        mask = op.mask_of(outside)
        np.testing.assert_array_equal(mask, outside.mask(dataset))
        assert mask.flags.writeable is False

    def test_condition_matrix_is_built_on_first_use(self, dataset):
        op = RefinementOperator(dataset)
        assert op._index_cache is None
        op.mask_of(op.conditions[0])
        assert op._index_cache is not None

    def test_duplicate_pool_conditions_rejected(self, dataset, monkeypatch):
        twice = EqualsCondition("bin", 1.0)
        monkeypatch.setattr(
            RefinementOperator, "_build_pool", lambda self, *args: [twice, twice]
        )
        op = RefinementOperator(dataset)
        with pytest.raises(LanguageError, match="duplicate"):
            op.condition_matrix

    def test_extension_mask_matches_description(self, dataset):
        op = RefinementOperator(dataset)
        description = Description(
            (NumericCondition("num", "<=", 0.0), EqualsCondition("bin", 1.0))
        )
        np.testing.assert_array_equal(
            op.extension_mask(description), description.matches(dataset)
        )


class TestRefinements:
    def test_root_refinements_cover_pool(self, dataset):
        op = RefinementOperator(dataset)
        refined = list(op.refinements(Description()))
        assert len(refined) == len(op.conditions)
        for description, condition in refined:
            assert len(description) == 1
            assert condition in op.conditions

    def test_extensions_shrink(self, dataset):
        op = RefinementOperator(dataset)
        parent = Description((EqualsCondition("bin", 1.0),))
        parent_mask = op.extension_mask(parent)
        for refined, condition in op.refinements(parent):
            child_mask = parent_mask & op.mask_of(condition)
            assert not np.any(child_mask & ~parent_mask)

    def test_no_duplicate_equality_on_same_attribute(self, dataset):
        op = RefinementOperator(dataset)
        parent = Description((EqualsCondition("cat", "r"),))
        for refined, _ in op.refinements(parent):
            cats = [
                c for c in refined.conditions
                if isinstance(c, EqualsCondition) and c.attribute == "cat"
            ]
            assert len(cats) == 1

    def test_no_noop_refinements(self, dataset):
        """Refining never returns a description equal to its parent."""
        op = RefinementOperator(dataset)
        parent = Description((NumericCondition("num", "<=", -10.0),)).canonical()
        for refined, _ in op.refinements(parent):
            assert refined != parent

    def test_loosening_bound_skipped(self, dataset):
        """Adding a looser <= bound canonicalizes away and is skipped."""
        op = RefinementOperator(dataset)
        tightest = min(
            c.threshold
            for c in op.conditions
            if isinstance(c, NumericCondition) and c.attribute == "num" and c.op == "<="
        )
        parent = Description((NumericCondition("num", "<=", tightest),))
        for refined, _ in op.refinements(parent):
            le_bounds = [
                c.threshold
                for c in refined.conditions
                if isinstance(c, NumericCondition)
                and c.attribute == "num" and c.op == "<="
            ]
            assert le_bounds == [tightest]

    def test_contradictions_skipped(self, dataset):
        op = RefinementOperator(dataset)
        for refined, _ in op.refinements(Description()):
            for deeper, _ in op.refinements(refined):
                assert not deeper.is_contradictory()
