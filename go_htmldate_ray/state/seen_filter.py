"""URL-seen set: the crawl's incremental membership state.

One sorted, unique ``int64`` numpy array of url hashes owned by the crawl
driver for the length of one ``crawl()`` call.  Membership is a binary
search (:func:`member`), so it is exact; inserts merge new keys in and
record them as the current wave's delta, which is what the per-wave
checkpoint writes.

The array is bounded by :data:`~go_htmldate_ray.stages.blocks.LIGHT_TABLE_BYTES`
(128 MiB, about 16.7M URLs): a merge that would take it past the budget
raises ``ValueError`` instead.
"""

from __future__ import annotations

import numpy as np

from ..stages import blocks
from ..stages.joins import sorted_lookup


def member(keys: np.ndarray, hashes) -> np.ndarray:
    """Boolean mask: which ``hashes`` are in the sorted unique ``keys``."""
    return sorted_lookup(keys, np.asarray(hashes, dtype=np.int64))[1]


class SeenSet:
    # ``n_shards`` is accepted and ignored for perfbench's state probe;
    # the next benchmark change drops it.
    def __init__(self, n_shards: int | None = None):
        self.keys = np.empty(0, dtype=np.int64)
        self._delta: list[np.ndarray] = []

    def contains(self, hashes) -> np.ndarray:
        """Read-only batch membership test, in input order."""
        return member(self.keys, hashes)

    def check_and_add(self, hashes) -> np.ndarray:
        """Insert ``hashes``; True where a hash was not seen before (the
        first of several equal hashes in one batch counts as new)."""
        h = np.asarray(hashes, dtype=np.int64)
        uniq, first = np.unique(h, return_index=True)
        fresh = ~member(self.keys, uniq)
        self._merge(uniq[fresh], record=True)
        flags = np.zeros(len(h), dtype=bool)
        flags[first[fresh]] = True
        return flags

    def add(self, hashes) -> None:
        uniq = np.unique(np.asarray(hashes, dtype=np.int64))
        self._merge(uniq[~member(self.keys, uniq)], record=True)

    def _merge(self, new: np.ndarray, record: bool) -> None:
        """Merge sorted unique keys that are not yet members."""
        if not len(new):
            return
        n = len(self.keys) + len(new)
        if n * self.keys.itemsize > blocks.LIGHT_TABLE_BYTES:
            raise ValueError(
                f"crawl seen set: {n} url hashes exceed the "
                f"{blocks.LIGHT_TABLE_BYTES}-byte driver budget"
            )
        self.keys = np.insert(self.keys, np.searchsorted(self.keys, new), new)
        if record:
            self._delta.append(new)

    def drain_deltas(self) -> list[list[int]]:
        """Keys added since the previous drain, as ONE sorted key list
        (the per-wave checkpoint payload: I/O ∝ wave size)."""
        d = np.sort(np.concatenate(self._delta)) if self._delta else self.keys[:0]
        self._delta = []
        return [d.tolist()]

    def load_deltas(self, key_lists: list[list[int]]) -> None:
        """Merge checkpointed key lists (any number of lists, so the
        per-shard layout of older checkpoints loads too); not recorded
        as a delta."""
        flat = np.unique(np.fromiter((h for keys in key_lists for h in keys), np.int64))
        self._merge(flat[~member(self.keys, flat)], record=False)

    def total(self) -> int:
        return len(self.keys)
