"""Dataframe-native ingestion and export for :class:`Dataset`.

This is the front door for the pandas-pipeline user (the wikimedia-style
survey workflow): :func:`from_dataframe` turns a dataframe into a typed
:class:`~repro.datasets.schema.Dataset` — inferring one selector kind per
column the way pysubgroup's ``create_selectors`` does — and
:func:`to_dataframe` goes back.

pandas is deliberately *not* a hard dependency. :func:`from_dataframe`
is duck-typed: anything with ``.columns`` and column ``__getitem__``
(a pandas/polars-style frame) works, and so does a plain mapping of
column name → 1-D array-like, so ingestion and the whole weighted mining
stack run on machines without pandas. Only :func:`to_dataframe`, which
must *construct* a dataframe, needs pandas installed — via the optional
``sisd[dataframe]`` extra.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.datasets.schema import AttributeKind, Column, Dataset, validate_weights
from repro.errors import DataError

__all__ = ["from_dataframe", "to_dataframe"]


def _require_pandas():
    try:
        import pandas
    except ImportError:
        raise DataError(
            "this operation builds a pandas DataFrame but pandas is not "
            'installed; install the optional extra with: pip install "sisd[dataframe]"'
        ) from None
    return pandas


def _frame_columns(frame: Any) -> list[str]:
    """Column names of a dataframe-like or a mapping, in order."""
    if isinstance(frame, Mapping):
        return [str(c) for c in frame.keys()]
    columns = getattr(frame, "columns", None)
    if columns is None:
        raise DataError(
            f"expected a dataframe-like object (with .columns) or a mapping "
            f"of column arrays, got {type(frame).__name__}"
        )
    return [str(c) for c in columns]


def _column_values(frame: Any, name: str) -> np.ndarray:
    values = np.asarray(frame[name])
    if values.ndim != 1:
        raise DataError(f"column {name!r} must be 1-D, got shape {values.shape}")
    return values


def _is_missing(values: np.ndarray) -> np.ndarray:
    """Row mask of missing entries (NaN for floats, None/NaN for objects)."""
    if values.dtype.kind == "f":
        return np.isnan(values)
    if values.dtype.kind == "O":
        return np.array(
            [v is None or (isinstance(v, float) and np.isnan(v)) for v in values],
            dtype=bool,
        )
    return np.zeros(values.shape[0], dtype=bool)


def _infer_kind(values: np.ndarray) -> tuple[AttributeKind, np.ndarray]:
    """One selector kind per column, pysubgroup-style.

    bool → binary; anything non-numeric → categorical (equality
    selectors); numeric taking only the values {0, 1} → binary; any
    other numeric → numeric (inequality selectors over split points).
    Numeric means a numeric dtype, or an object column holding only
    numbers (a mapping column that had missing values): strings of
    digits such as ``"0"``/``"1"``/``"2"`` are labels, and ``kinds=``
    opts such a column in to the numeric path. Returns the kind together
    with values coerced to the schema's storage dtype (float for
    orderable/binary, str-able objects for categorical).
    """
    if values.dtype.kind == "b":
        return AttributeKind.BINARY, values.astype(float)
    numbers = values.dtype.kind in ("i", "u", "f") or (
        values.dtype.kind == "O"
        and all(
            isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, (bool, np.bool_))
            for v in values
        )
    )
    if not numbers:
        return AttributeKind.CATEGORICAL, values.astype(str)
    numeric = values.astype(float)
    distinct = np.unique(numeric)
    if distinct.shape[0] <= 2 and np.isin(distinct, (0.0, 1.0)).all():
        return AttributeKind.BINARY, numeric
    return AttributeKind.NUMERIC, numeric


def from_dataframe(
    frame: Any,
    target: str | Sequence[str],
    *,
    weights: str | np.ndarray | None = None,
    name: str = "dataframe",
    kinds: Mapping[str, str | AttributeKind] | None = None,
    ignore: Iterable[str] = (),
    dropna: bool = False,
) -> Dataset:
    """Build a typed :class:`Dataset` from a dataframe (or column mapping).

    Parameters
    ----------
    frame:
        A pandas-style dataframe (``.columns`` + column ``__getitem__``)
        or a plain mapping of column name → 1-D array-like.
    target:
        Target column name, or a list of names for multivariate targets.
        Every other column becomes a description attribute.
    weights:
        Case weights: the *name* of a column in ``frame`` (consumed — it
        does not also become a description attribute) or an explicit
        array of per-row weights. ``None`` mines unweighted.
    name:
        Dataset name for reports and fingerprints.
    kinds:
        Optional per-column overrides of the inferred selector kind,
        e.g. ``{"grade": "ordinal"}``; values are
        :class:`AttributeKind` members or their string values.
    ignore:
        Columns to exclude entirely.
    dropna:
        When true, rows with a missing value in any used column are
        dropped (weights included). When false (default), missing values
        raise :class:`DataError` naming the offending column.
    """
    columns = _frame_columns(frame)
    target_names = [target] if isinstance(target, str) else [str(t) for t in target]
    if not target_names:
        raise DataError("target must name at least one column")
    ignored = {str(c) for c in ignore}
    weight_column = weights if isinstance(weights, str) else None

    missing = [t for t in target_names if t not in columns]
    if weight_column is not None and weight_column not in columns:
        missing.append(weight_column)
    if missing:
        raise DataError(f"columns not in frame: {missing} (have {columns})")

    consumed = set(target_names) | ignored | ({weight_column} if weight_column else set())
    description_names = [c for c in columns if c not in consumed]
    if not description_names:
        raise DataError("no description columns left after targets/weights/ignore")

    raw: dict[str, np.ndarray] = {
        c: _column_values(frame, c) for c in description_names + target_names
    }
    n_rows = next(iter(raw.values())).shape[0]

    if weight_column is not None:
        weight_values: np.ndarray | None = _column_values(frame, weight_column).astype(float)
    elif weights is not None:
        weight_values = np.asarray(weights, dtype=float)
        if weight_values.ndim != 1 or weight_values.shape[0] != n_rows:
            raise DataError(
                f"weights must be 1-D of length {n_rows}, got shape {weight_values.shape}"
            )
    else:
        weight_values = None

    keep = np.ones(n_rows, dtype=bool)
    for column_name, values in raw.items():
        bad = _is_missing(values)
        if bad.any():
            if not dropna:
                raise DataError(
                    f"column {column_name!r} has {int(bad.sum())} missing values; "
                    f"pass dropna=True to drop those rows"
                )
            keep &= ~bad
    if weight_values is not None:
        bad = np.isnan(weight_values)
        if bad.any():
            if not dropna:
                raise DataError(
                    f"weights have {int(bad.sum())} missing values; "
                    f"pass dropna=True to drop those rows"
                )
            keep &= ~bad
    if not keep.all():
        raw = {c: v[keep] for c, v in raw.items()}
        if weight_values is not None:
            weight_values = weight_values[keep]
    if next(iter(raw.values())).shape[0] == 0:
        raise DataError("no rows left after dropping missing values")

    dataset_columns: list[Column] = []
    for column_name in description_names:
        kind, values = _infer_kind(raw[column_name])
        if kinds is not None and column_name in kinds:
            override = kinds[column_name]
            kind = override if isinstance(override, AttributeKind) else AttributeKind(override)
            if kind is AttributeKind.CATEGORICAL:
                values = raw[column_name].astype(str)
            else:
                values = raw[column_name].astype(float)
        dataset_columns.append(Column(column_name, kind, values))

    try:
        targets_matrix = np.stack(
            [raw[t].astype(float) for t in target_names], axis=1
        )
    except (TypeError, ValueError):
        raise DataError(f"target columns {target_names} must be numeric") from None

    return Dataset(
        name,
        dataset_columns,
        targets_matrix,
        target_names,
        weights=validate_weights(weight_values, targets_matrix.shape[0]),
    )


def to_dataframe(dataset: Dataset, *, weights_column: str | None = None):
    """The dataset's descriptions + targets as a pandas DataFrame.

    ``weights_column`` names an extra column to emit the case weights
    into (omitted when the dataset carries none). Requires pandas (the
    ``sisd[dataframe]`` extra).
    """
    pandas = _require_pandas()
    data: dict[str, np.ndarray] = {}
    for column in dataset.columns():
        data[column.name] = column.values
    for j, target_name in enumerate(dataset.target_names):
        data[target_name] = dataset.targets[:, j]
    if weights_column is not None and dataset.weights is not None:
        if weights_column in data:
            raise DataError(
                f"weights column {weights_column!r} collides with an existing column"
            )
        data[weights_column] = dataset.weights
    return pandas.DataFrame(data)
