"""Tests for dataframe-native ingestion (``from_dataframe``).

pandas is optional, so these tests exercise the duck-typed mapping path
(a dict of column arrays is a valid "frame") and only touch the pandas
path when pandas happens to be installed.
"""

import numpy as np
import pytest

from repro.datasets import AttributeKind, from_dataframe, to_dataframe
from repro.errors import DataError

try:
    import pandas
except ImportError:
    pandas = None


def _frame():
    return {
        "region": np.array(["north", "south", "south", "north", "east"]),
        "age": np.array([23.0, 31.0, 45.0, 52.0, 38.0]),
        "subscribed": np.array([True, False, True, True, False]),
        "score_a": np.array([0.1, 0.9, -0.3, 0.4, 0.0]),
        "score_b": np.array([1.1, -0.2, 0.5, 0.3, -0.7]),
    }


class TestKindInference:
    def test_infers_selector_kinds(self):
        dataset = from_dataframe(_frame(), target=["score_a", "score_b"])
        kinds = {c.name: c.kind for c in dataset.columns()}
        assert kinds == {
            "region": AttributeKind.CATEGORICAL,
            "age": AttributeKind.NUMERIC,
            "subscribed": AttributeKind.BINARY,
        }
        assert dataset.n_rows == 5
        assert dataset.target_names == ["score_a", "score_b"]

    def test_numeric_01_column_is_binary(self):
        frame = {**_frame(), "flag": np.array([0, 1, 1, 0, 1])}
        dataset = from_dataframe(frame, target="score_a")
        kinds = {c.name: c.kind for c in dataset.columns()}
        assert kinds["flag"] is AttributeKind.BINARY

    def test_digit_strings_are_categorical(self):
        frame = {**_frame(), "grade": np.array(["0", "1", "2", "1", "0"])}
        dataset = from_dataframe(frame, target="score_a")
        grade = dataset.column("grade")
        assert grade.kind is AttributeKind.CATEGORICAL
        assert sorted(grade.domain()) == ["0", "1", "2"]

    def test_binary_looking_digit_strings_are_categorical(self):
        frame = {**_frame(), "flag": np.array(["0", "1", "1", "0", "1"])}
        dataset = from_dataframe(frame, target="score_a")
        assert dataset.column("flag").kind is AttributeKind.CATEGORICAL

    def test_digit_strings_opt_in_to_numeric(self):
        frame = {**_frame(), "grade": np.array(["0", "1", "2", "1", "0"])}
        dataset = from_dataframe(frame, target="score_a", kinds={"grade": "numeric"})
        grade = dataset.column("grade")
        assert grade.kind is AttributeKind.NUMERIC
        np.testing.assert_array_equal(grade.values, [0.0, 1.0, 2.0, 1.0, 0.0])

    def test_object_column_of_numbers_stays_numeric(self):
        frame = {**_frame(), "income": np.array([1.5, None, 3.0, 2.5, 4.0], dtype=object)}
        dataset = from_dataframe(frame, target="score_a", dropna=True)
        assert dataset.column("income").kind is AttributeKind.NUMERIC

    def test_kind_override(self):
        dataset = from_dataframe(
            _frame(), target="score_a", kinds={"age": "ordinal"}
        )
        kinds = {c.name: c.kind for c in dataset.columns()}
        assert kinds["age"] is AttributeKind.ORDINAL

    def test_single_target_string(self):
        dataset = from_dataframe(_frame(), target="score_a")
        assert dataset.target_names == ["score_a"]
        assert dataset.n_targets == 1

    def test_ignore_drops_columns(self):
        dataset = from_dataframe(_frame(), target="score_a", ignore=["region"])
        assert "region" not in [c.name for c in dataset.columns()]


class TestWeights:
    def test_weights_column_consumed(self):
        frame = {**_frame(), "w": np.array([1.0, 2.0, 0.5, 1.5, 1.0])}
        dataset = from_dataframe(
            frame, target=["score_a", "score_b"], weights="w"
        )
        assert "w" not in [c.name for c in dataset.columns()]
        np.testing.assert_array_equal(
            dataset.weights, [1.0, 2.0, 0.5, 1.5, 1.0]
        )

    def test_weights_array(self):
        weights = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
        dataset = from_dataframe(_frame(), target="score_a", weights=weights)
        np.testing.assert_array_equal(dataset.weights, weights)
        assert dataset.total_weight() == pytest.approx(6.0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(DataError):
            from_dataframe(
                _frame(),
                target="score_a",
                weights=np.array([1.0, -1.0, 1.0, 1.0, 1.0]),
            )

    def test_unknown_weights_column_rejected(self):
        with pytest.raises(DataError, match="not in frame"):
            from_dataframe(_frame(), target="score_a", weights="nope")


class TestMissingValues:
    def test_missing_values_raise_by_default(self):
        frame = _frame()
        frame["age"][2] = np.nan
        with pytest.raises(DataError, match="age"):
            from_dataframe(frame, target="score_a")

    def test_dropna_drops_rows(self):
        frame = _frame()
        frame["age"][2] = np.nan
        dataset = from_dataframe(frame, target="score_a", dropna=True)
        assert dataset.n_rows == 4

    def test_dropna_drops_rows_with_missing_weights(self):
        frame = {**_frame(), "w": np.array([1.0, np.nan, 1.0, 1.0, 1.0])}
        dataset = from_dataframe(
            frame, target="score_a", weights="w", dropna=True
        )
        assert dataset.n_rows == 4
        assert dataset.weights.shape == (4,)

    def test_all_rows_missing_raises(self):
        frame = _frame()
        frame["age"][:] = np.nan
        with pytest.raises(DataError, match="no rows left"):
            from_dataframe(frame, target="score_a", dropna=True)


class TestValidation:
    def test_unknown_target_rejected(self):
        with pytest.raises(DataError, match="not in frame"):
            from_dataframe(_frame(), target="nope")

    def test_non_numeric_target_rejected(self):
        with pytest.raises(DataError, match="numeric"):
            from_dataframe(_frame(), target="region")

    def test_no_description_columns_rejected(self):
        frame = {"a": np.arange(4.0), "b": np.arange(4.0)}
        with pytest.raises(DataError, match="description"):
            from_dataframe(frame, target=["a", "b"])

    def test_non_frame_rejected(self):
        with pytest.raises(DataError, match="dataframe-like"):
            from_dataframe([1, 2, 3], target="a")


class TestToDataframe:
    @pytest.mark.skipif(pandas is not None, reason="pandas is installed")
    def test_graceful_error_without_pandas(self):
        dataset = from_dataframe(_frame(), target="score_a")
        with pytest.raises(DataError, match=r"sisd\[dataframe\]"):
            to_dataframe(dataset)

    @pytest.mark.skipif(pandas is None, reason="needs pandas")
    def test_round_trip(self):
        weights = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
        dataset = from_dataframe(
            pandas.DataFrame(_frame()), target="score_a", weights=weights
        )
        frame = to_dataframe(dataset, weights_column="w")
        assert frame.shape == (5, 6)
        np.testing.assert_array_equal(frame["w"].to_numpy(), weights)
        rebuilt = from_dataframe(frame, target="score_a", weights="w")
        np.testing.assert_array_equal(rebuilt.targets, dataset.targets)
        np.testing.assert_array_equal(rebuilt.weights, dataset.weights)
