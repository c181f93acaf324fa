"""``Placement.qualifying_counts`` answers exactly what its fragments do.

The placement counts every site at once from one binary-search pair
over the relation's sorted column; the reference is each fragment's own
``count_in_range``.  Both must agree on every placement the simulator
builds (range, hash, BERD, MAGIC, a 32 -> 64 rescale, MAGIC after
online grid splits), on empty fragments, and on awkward bounds: outside
the domain, ``low > high`` and floats.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BerdStrategy,
    HashStrategy,
    MagicStrategy,
    MagicTuning,
    RangePredicate,
    RangeStrategy,
)
from repro.dynamics import OnlineGridMaintainer, rescale_placement
from repro.storage import make_wisconsin

CARDINALITY = 3_000
ATTRIBUTES = ("unique1", "unique2", "ten")


def _magic(shape=10):
    return MagicStrategy(
        ("unique1", "unique2"),
        tuning=MagicTuning(shape={"unique1": shape, "unique2": shape},
                           mi={"unique1": 4.0, "unique2": 4.0}))


def _strategies():
    return {"range": RangeStrategy("unique1"),
            "hash": HashStrategy("unique1"),
            "berd": BerdStrategy("unique1", ["unique2"]),
            "magic": _magic()}


def _split_magic():
    placement = _magic(shape=8).partition(
        make_wisconsin(CARDINALITY, seed=3), 8)
    placement.qualifying_counts(RangePredicate("unique1", 0, 100))  # index
    maintainer = OnlineGridMaintainer(
        placement, capacity=int(placement.directory.counts.max()) + 2)
    while maintainer.splits_performed < 2:
        maintainer.note_insert({"unique1": 5, "unique2": 5})
    return placement


def _placements():
    relation = make_wisconsin(CARDINALITY, seed=21)
    tiny = make_wisconsin(6, seed=1)
    placements = {}
    for name, strategy in _strategies().items():
        placements[name] = strategy.partition(relation, 8)
        placements[f"{name}-32to64"] = rescale_placement(
            strategy.partition(relation, 32), 64)[0]
    # Six tuples on eight sites: some fragments are empty.
    placements["hash-empty-fragments"] = HashStrategy("unique1").partition(
        tiny, 8)
    placements["magic-split"] = _split_magic()
    return placements


PLACEMENTS = _placements()

_BOUND = st.one_of(
    st.integers(min_value=-50, max_value=CARDINALITY + 50),
    st.floats(min_value=-50.0, max_value=CARDINALITY + 50.0,
              allow_nan=False))


def _expected(placement, predicate):
    return np.array(
        [fragment.count_in_range(predicate.attribute, predicate.low,
                                 predicate.high)
         for fragment in placement.fragments], dtype=np.int64)


def test_some_fixture_fragments_are_empty():
    assert (PLACEMENTS["hash-empty-fragments"].cardinalities() == 0).any()


@pytest.mark.parametrize("name", sorted(PLACEMENTS))
@given(attribute=st.sampled_from(ATTRIBUTES), low=_BOUND, high=_BOUND)
@settings(max_examples=60, deadline=None)
def test_counts_equal_per_fragment_counts(name, attribute, low, high):
    placement = PLACEMENTS[name]
    # RangePredicate rejects low > high; the placement only reads the
    # three fields, so a plain namespace carries the inverted bounds.
    predicate = SimpleNamespace(attribute=attribute, low=low, high=high)
    counts = placement.qualifying_counts(predicate)
    assert counts.dtype == np.int64
    assert counts.shape == (placement.num_sites,)
    np.testing.assert_array_equal(counts, _expected(placement, predicate))


@pytest.mark.parametrize("name", sorted(PLACEMENTS))
def test_whole_domain_counts_are_the_cardinalities(name):
    placement = PLACEMENTS[name]
    counts = placement.qualifying_counts(
        RangePredicate("unique1", -1, 10 * CARDINALITY))
    np.testing.assert_array_equal(counts, placement.cardinalities())
