"""The crawl's driver-side seen set against a Python ``set`` reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from go_htmldate_ray.state.seen_filter import SeenSet

# a narrow range forces repeats within and across batches; the full int64
# range covers negatives and the extremes
_key = st.integers(-8, 8) | st.integers(-(2**63), 2**63 - 1)
_op = st.tuples(
    st.sampled_from(["add", "check_and_add", "contains", "drain", "load_deltas"]),
    st.lists(_key, max_size=12),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_op, max_size=30))
def test_seen_set_matches_python_set(ops):
    seen = SeenSet()
    ref: set[int] = set()
    since_drain: set[int] = set()
    for op, batch in ops:
        if op == "contains":
            assert seen.contains(batch).tolist() == [h in ref for h in batch]
        elif op == "drain":
            assert seen.drain_deltas() == [sorted(since_drain)]
            since_drain = set()
        elif op == "load_deltas":
            # checkpoint replay: merged, but never part of the next delta
            seen.load_deltas([batch[::2], batch[1::2], []])
            ref.update(batch)
        else:
            want = []
            for h in batch:
                want.append(h not in ref)
                if h not in ref:
                    since_drain.add(h)
                ref.add(h)
            if op == "add":
                seen.add(batch)
            else:
                assert seen.check_and_add(batch).tolist() == want
        assert seen.total() == len(ref)
    assert seen.keys.tolist() == sorted(ref)


def test_seen_set_load_restores_exactly():
    """Replaying checkpointed key lists into a fresh set (what resume
    does) restores exactly their union and records no delta."""
    seen = SeenSet()
    seen.load_deltas([[7, -1], [3, 7]])
    assert seen.keys.tolist() == [-1, 3, 7]
    assert seen.drain_deltas() == [[]]


def test_seen_set_raises_past_budget(monkeypatch):
    from go_htmldate_ray.stages import blocks

    monkeypatch.setattr(blocks, "LIGHT_TABLE_BYTES", 10 * 8)
    seen = SeenSet()
    seen.add(range(10))  # exactly at the budget
    seen.add([0, 9])  # nothing new: no growth
    with pytest.raises(ValueError, match="budget"):
        seen.add([10])
    with pytest.raises(ValueError, match="budget"):
        seen.load_deltas([[-1]])
    assert seen.total() == 10
