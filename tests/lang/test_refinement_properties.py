"""Property-based tests of the refinement operator's invariants.

Seeded randomized datasets drive three families of properties:

- **Monotonicity** — every refinement's extension mask is a subset of
  its parent's (a conjunction can only shrink the extension), which is
  what makes beam search's ``parent_mask & mask_of(condition)`` and the
  branch-and-bound pruning sound.
- **Memoization transparency** — :meth:`RefinementOperator.mask_of`
  returns arrays identical to a fresh evaluation, caches by value, and
  hands out read-only views.
- **Textual round-trip** — descriptions survive ``str`` →
  :meth:`Description.parse` (exactly for thresholds representable at
  the renderer's 6 significant digits; textually for arbitrary pool
  thresholds).
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.lang.conditions import EqualsCondition, NumericCondition
from repro.lang.description import Description
from repro.lang.refinement import RefinementOperator

N_ROWS = 80
LABELS = ("north", "south", "east")


@functools.lru_cache(maxsize=32)
def make_dataset(seed: int) -> Dataset:
    """One randomized mixed-kind dataset per seed (cached: immutable)."""
    rng = np.random.default_rng(seed)
    columns = [
        Column("x", AttributeKind.NUMERIC, rng.uniform(-5, 5, N_ROWS)),
        Column("y", AttributeKind.NUMERIC, rng.normal(0, 2, N_ROWS)),
        Column("o", AttributeKind.ORDINAL, rng.choice([0.0, 1.0, 3.0, 5.0], N_ROWS)),
        Column("b", AttributeKind.BINARY, rng.integers(0, 2, N_ROWS).astype(float)),
        Column("c", AttributeKind.CATEGORICAL, rng.choice(LABELS, N_ROWS)),
    ]
    return Dataset(f"prop-{seed}", columns, rng.standard_normal((N_ROWS, 2)), ["t1", "t2"])


@functools.lru_cache(maxsize=32)
def make_operator(seed: int) -> RefinementOperator:
    return RefinementOperator(make_dataset(seed), n_split_points=3)


def draw_description(draw, operator: RefinementOperator) -> Description:
    """A random conjunction of pool conditions (possibly empty)."""
    pool = operator.conditions
    k = draw(st.integers(min_value=0, max_value=3))
    indices = draw(
        st.lists(
            st.integers(0, len(pool) - 1), min_size=k, max_size=k
        )
    )
    return Description(tuple(pool[i] for i in indices))


class TestRefinementMonotonicity:
    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_refinement_mask_is_subset_of_parent(self, seed, data):
        operator = make_operator(seed)
        parent = draw_description(data.draw, operator)
        parent_mask = operator.extension_mask(parent.canonical())
        for refined, condition in operator.refinements(parent):
            refined_mask = operator.extension_mask(refined)
            assert not np.any(refined_mask & ~parent_mask), (
                f"refinement {refined} covers rows outside its parent {parent}"
            )
            # The incremental evaluation the beam search actually uses
            # must agree with evaluating the refinement from scratch.
            np.testing.assert_array_equal(
                refined_mask, parent_mask & operator.mask_of(condition)
            )

    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_refinements_strictly_extend_the_canonical_form(self, seed, data):
        operator = make_operator(seed)
        parent = draw_description(data.draw, operator).canonical()
        for refined, _ in operator.refinements(parent):
            assert refined != parent
            assert not refined.is_contradictory()


class TestKeySpaceRefinement:
    """``refine_key`` is ``refinements`` in index space: the same added
    conditions in the same order, keys that decode to the same
    descriptions, and every other pool condition counted as redundant
    or contradictory."""

    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_description_refinements(self, seed, data):
        operator = make_operator(seed)
        pool = operator.conditions
        width = 5
        key = operator.root_key(width)
        for _ in range(data.draw(st.integers(0, width - 1))):
            _, keys, _, _ = operator.refine_key(key)
            if keys.shape[0] == 0:
                break
            key = keys[data.draw(st.integers(0, keys.shape[0] - 1))]
        parent = operator.description_of(key)
        assert parent == parent.canonical()

        conditions, keys, redundant, contradictory = operator.refine_key(key)
        expected = list(operator.refinements(parent))
        assert [pool[i] for i in conditions] == [c for _, c in expected]
        assert [operator.description_of(k) for k in keys] == [r for r, _ in expected]
        assert len(expected) + redundant + contradictory == len(operator)

    def test_keys_and_canonical_descriptions_are_in_bijection(self):
        operator = make_operator(0)
        key = operator.root_key(3)
        _, keys, _, _ = operator.refine_key(key)
        seen = {}
        for child in keys:
            _, grandchildren, _, _ = operator.refine_key(child)
            for k in grandchildren:
                seen.setdefault(k.tobytes(), operator.description_of(k))
        assert len(set(seen.values())) == len(seen)


class TestMaskMemoization:
    @given(seed=st.integers(0, 19))
    @settings(max_examples=20, deadline=None)
    def test_memoized_masks_equal_fresh_evaluation(self, seed):
        operator = make_operator(seed)
        dataset = make_dataset(seed)
        for condition in operator.conditions:
            np.testing.assert_array_equal(
                operator.mask_of(condition), condition.mask(dataset)
            )

    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_repeated_lookups_return_the_identical_readonly_array(self, seed, data):
        operator = make_operator(seed)
        pool = operator.conditions
        condition = pool[data.draw(st.integers(0, len(pool) - 1))]
        first = operator.mask_of(condition)
        second = operator.mask_of(condition)
        assert first is second  # cached object, not a recomputation
        assert first.flags.writeable is False
        # An equal-by-value condition object hits the same entry.
        if isinstance(condition, NumericCondition):
            twin = NumericCondition(condition.attribute, condition.op, condition.threshold)
        else:
            twin = EqualsCondition(condition.attribute, condition.value)
        assert operator.mask_of(twin) is first


#: Thresholds exactly representable at __str__'s 6 significant digits:
#: k/1000 for |k| < 100000 prints back to the same decimal, so parsing
#: the rendering reproduces the identical double.
exact_thresholds = st.integers(-99999, 99999).map(lambda k: k / 1000)
numeric_conditions = st.builds(
    NumericCondition,
    st.sampled_from(["x", "y", "o"]),
    st.sampled_from(["<=", ">="]),
    exact_thresholds,
)
equals_conditions = st.one_of(
    st.builds(EqualsCondition, st.just("b"), st.sampled_from([0.0, 1.0])),
    st.builds(EqualsCondition, st.just("c"), st.sampled_from(list(LABELS))),
)
exact_descriptions = (
    st.lists(st.one_of(numeric_conditions, equals_conditions), max_size=5)
    .map(tuple)
    .map(Description)
)


class TestStrParseRoundTrip:
    @given(description=exact_descriptions)
    @settings(max_examples=150, deadline=None)
    def test_exact_round_trip(self, description):
        assert Description.parse(str(description)) == description

    @given(description=exact_descriptions)
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_survives_round_trip(self, description):
        canon = description.canonical()
        assert Description.parse(str(canon)).canonical() == canon

    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pool_descriptions_round_trip_textually(self, seed, data):
        # Percentile split points carry full float precision; __str__
        # renders 6 significant digits, so the guaranteed invariant is
        # textual idempotence: one parse absorbs the rounding, after
        # which str/parse is a fixed point.
        operator = make_operator(seed)
        description = draw_description(data.draw, operator)
        parsed = Description.parse(str(description))
        assert str(parsed) == str(description)
        assert Description.parse(str(parsed)) == parsed

    def test_empty_description_round_trips(self):
        assert Description.parse(str(Description())) == Description()
        assert Description.parse("") == Description()

    def test_equality_values_containing_operator_tokens(self):
        # A label may legitimately contain '<='; the equality form must
        # win over a numeric misreading.
        tricky = Description((EqualsCondition("c", "a <= b"),))
        assert Description.parse(str(tricky)) == tricky

    def test_equality_values_containing_the_conjunction_token(self):
        tricky = Description(
            (
                EqualsCondition("country", "Trinidad AND Tobago"),
                NumericCondition("x", "<=", 1.5),
            )
        )
        assert Description.parse(str(tricky)) == tricky

    def test_non_finite_looking_labels_stay_strings(self):
        for label in ("nan", "inf", "-inf"):
            condition = EqualsCondition("c", label)
            parsed = Description.parse(str(Description((condition,))))
            assert parsed == Description((condition,))
            assert isinstance(parsed.conditions[0].value, str)
