"""Refinement operator: the candidate-generation step of beam search.

Builds the pool of atomic conditions for a dataset (inequalities at the
discretized split points for numeric/ordinal attributes, equalities for
categorical/binary ones) and expands a description by one condition at a
time, in two forms:

- :meth:`RefinementOperator.refinements` works on :class:`Description`
  objects, one refinement at a time.
- :meth:`RefinementOperator.refine_key` works in index space: a
  canonical description is a *key*, the ascending row of its conditions'
  positions in the canonically sorted pool, and one call refines a key
  by the whole pool with array operations. Keys and canonical
  descriptions are in bijection (the pool holds no duplicate
  condition), so deduplicating keys deduplicates descriptions.

The condition-mask matrix (one boolean row per pool condition) is built
on first use and shared by :meth:`~RefinementOperator.mask_of` and the
beam search's batched statistics.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.datasets.schema import AttributeKind, Dataset
from repro.errors import LanguageError
from repro.lang.conditions import GE, LE, Condition, EqualsCondition, NumericCondition
from repro.lang.description import Description
from repro.lang.discretize import split_points


class _ConditionIndex:
    """Array view of a condition pool, built once per operator on first use."""

    def __init__(self, pool: list[Condition], dataset: Dataset) -> None:
        m = len(pool)
        self.position = {condition: i for i, condition in enumerate(pool)}
        if len(self.position) != m:
            # Keys stand for descriptions only if conditions are unique.
            raise LanguageError("condition pool holds duplicate conditions")
        matrix = np.zeros((m, dataset.n_rows), dtype=bool)
        for i, condition in enumerate(pool):
            matrix[i] = condition.mask(dataset)
        matrix.setflags(write=False)
        self.matrix = matrix
        #: One view object per row, so ``mask_of`` hands out the same
        #: array for equal conditions.
        self.rows = tuple(matrix)
        order = sorted(range(m), key=lambda i: pool[i].sort_key())
        self.by_rank = tuple(pool[i] for i in order)
        self.rank = np.empty(m, dtype=np.intp)
        self.rank[order] = np.arange(m)
        self.of_rank = np.asarray(order, dtype=np.intp)
        attribute_ids: dict[str, int] = {}
        self.attr = np.array(
            [attribute_ids.setdefault(c.attribute, len(attribute_ids)) for c in pool],
            dtype=np.intp,
        )
        self.n_attributes = len(attribute_ids)
        ops = [c.op if isinstance(c, NumericCondition) else None for c in pool]
        self.is_le = np.array([op == LE for op in ops], dtype=bool)
        self.is_ge = np.array([op == GE for op in ops], dtype=bool)
        self.is_eq = ~(self.is_le | self.is_ge)
        self.threshold = np.array(
            [c.threshold if isinstance(c, NumericCondition) else 0.0 for c in pool]
        )


class RefinementOperator:
    """Generates one-condition refinements of descriptions over a dataset.

    Parameters
    ----------
    dataset:
        The data whose description attributes define the language.
    n_split_points:
        Number of thresholds per numeric attribute (paper default: 4).
    strategy:
        Split-point strategy, see :func:`repro.lang.discretize.split_points`.
    attributes:
        Optional subset of description attributes to condition on.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        n_split_points: int = 4,
        strategy: str = "percentile",
        attributes: Sequence[str] | None = None,
    ) -> None:
        self.dataset = dataset
        names = list(attributes) if attributes is not None else dataset.description_names
        for name in names:
            dataset.column(name)  # raises DataError on unknown names
        self._pool: list[Condition] = self._build_pool(names, n_split_points, strategy)
        self._index_cache: _ConditionIndex | None = None

    def _build_pool(
        self, names: Sequence[str], n_split_points: int, strategy: str
    ) -> list[Condition]:
        pool: list[Condition] = []
        for name in names:
            column = self.dataset.column(name)
            if column.is_constant():
                continue  # no condition on a constant column can split the data
            if column.kind.is_orderable:
                thresholds = split_points(
                    column, n_split_points=n_split_points, strategy=strategy
                )
                lo, hi = float(column.values.min()), float(column.values.max())
                for t in thresholds:
                    # "x <= max" and "x >= min" are trivially true; skip them.
                    if t < hi:
                        pool.append(NumericCondition(name, LE, float(t)))
                    if t > lo:
                        pool.append(NumericCondition(name, GE, float(t)))
            elif column.kind in (AttributeKind.CATEGORICAL, AttributeKind.BINARY):
                for value in column.domain():
                    pool.append(EqualsCondition(name, value))
            else:  # pragma: no cover - enum is exhaustive
                raise LanguageError(f"unsupported attribute kind {column.kind}")
        return pool

    @property
    def _index(self) -> _ConditionIndex:
        if self._index_cache is None:
            self._index_cache = _ConditionIndex(self._pool, self.dataset)
        return self._index_cache

    # ------------------------------------------------------------------ #
    # Pool access
    # ------------------------------------------------------------------ #
    @property
    def conditions(self) -> list[Condition]:
        """The full candidate-condition pool (copy)."""
        return list(self._pool)

    def __len__(self) -> int:
        return len(self._pool)

    @property
    def condition_matrix(self) -> np.ndarray:
        """Read-only ``(len(self), n_rows)`` boolean masks, in pool order."""
        return self._index.matrix

    def mask_of(self, condition: Condition) -> np.ndarray:
        """Read-only boolean row mask of one condition.

        A pool condition gets its row of :attr:`condition_matrix` (the
        same array object for every equal condition); any other
        condition is evaluated afresh.
        """
        index = self._index
        position = index.position.get(condition)
        if position is not None:
            return index.rows[position]
        mask = condition.mask(self.dataset)
        mask.setflags(write=False)
        return mask

    def extension_mask(self, description: Description) -> np.ndarray:
        """Extension mask of a description using the condition masks."""
        mask = np.ones(self.dataset.n_rows, dtype=bool)
        for condition in description.conditions:
            mask = mask & self.mask_of(condition)
            if not mask.any():
                break
        return mask

    # ------------------------------------------------------------------ #
    # Refinement
    # ------------------------------------------------------------------ #
    def refinements(
        self, description: Description
    ) -> Iterator[tuple[Description, Condition]]:
        """Yield ``(refined_description, added_condition)`` pairs.

        Refinements that do not change the canonical form (e.g. adding a
        looser bound on an already-bounded attribute) and refinements
        that are syntactically contradictory are skipped. Extensions are
        *not* computed here; the caller combines its cached parent mask
        with ``mask_of(added_condition)``.
        """
        parent = description.canonical()
        equality_bound = {
            c.attribute for c in parent.conditions if isinstance(c, EqualsCondition)
        }
        for condition in self._pool:
            if isinstance(condition, EqualsCondition):
                if condition.attribute in equality_bound:
                    # A conjunction with two equalities on one attribute is
                    # either redundant or empty; never useful.
                    continue
            refined = parent.with_condition(condition).canonical()
            if refined == parent:
                continue
            if refined.is_contradictory():
                continue
            yield refined, condition

    def root_key(self, width: int) -> np.ndarray:
        """The key of the empty description, with ``width`` slots."""
        return np.full(width, len(self._pool), dtype=np.intp)

    def description_of(self, key: np.ndarray) -> Description:
        """The canonical description a key stands for."""
        by_rank = self._index.by_rank
        m = len(self._pool)
        return Description(tuple(by_rank[r] for r in key.tolist() if r < m))

    def refine_key(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Index-space :meth:`refinements` of one canonical description.

        ``key`` holds the description's canonical ranks in ascending
        order, padded with ``len(self)``; it needs one free slot. Returns
        ``(conditions, keys, n_redundant, n_contradictory)``:
        ``conditions`` are the pool positions of the admissible added
        conditions in pool order, ``keys`` the refined descriptions'
        keys (same width), and the counts say how many pool conditions
        were skipped for leaving the canonical form unchanged or for
        making it contradictory (a second equality on one attribute
        counts as either, by whether it repeats the first).
        """
        index = self._index
        m = len(self._pool)
        le = np.full(index.n_attributes, np.inf)
        ge = np.full(index.n_attributes, -np.inf)
        le_slot = np.full(index.n_attributes, -1, dtype=np.intp)
        ge_slot = np.full(index.n_attributes, -1, dtype=np.intp)
        equals = np.full(index.n_attributes, -1, dtype=np.intp)
        length = 0
        for slot, rank in enumerate(key.tolist()):
            if rank >= m:
                break
            length += 1
            i = index.of_rank[rank]
            a = index.attr[i]
            if index.is_le[i]:
                le[a], le_slot[a] = index.threshold[i], slot
            elif index.is_ge[i]:
                ge[a], ge_slot[a] = index.threshold[i], slot
            else:
                equals[a] = i
        if length == key.shape[0]:
            raise LanguageError("key has no free slot to refine into")

        attr, threshold = index.attr, index.threshold
        is_le, is_ge, is_eq = index.is_le, index.is_ge, index.is_eq
        # The canonical form keeps the tightest bound per attribute and
        # side, so a looser-or-equal bound changes nothing.
        redundant = (
            (is_le & (threshold >= le[attr]))
            | (is_ge & (threshold <= ge[attr]))
            | (is_eq & (equals[attr] == np.arange(m)))
        )
        contradictory = ~redundant & (
            (is_le & (ge[attr] > threshold))
            | (is_ge & (threshold > le[attr]))
            | (is_eq & (equals[attr] >= 0))
        )
        conditions = np.flatnonzero(~(redundant | contradictory))
        # A tighter bound replaces the parent's bound on that side; any
        # other condition takes the first free slot.
        slot = np.where(is_le, le_slot[attr], np.where(is_ge, ge_slot[attr], -1))
        slot = slot[conditions]
        slot[slot < 0] = length
        keys = np.repeat(key[None, :], conditions.shape[0], axis=0)
        keys[np.arange(conditions.shape[0]), slot] = index.rank[conditions]
        keys.sort(axis=1)
        return (
            conditions,
            keys,
            int(np.count_nonzero(redundant)),
            int(np.count_nonzero(contradictory)),
        )
