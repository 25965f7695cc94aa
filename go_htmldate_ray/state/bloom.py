"""Distributed Bloom filter over URL keys (the north rule's "bloom" half
of the URL-seen membership state; the crawl's exact seen set lives in
:mod:`.seen_filter`).

Unlike the crawl's seen set — which the driver updates wave by wave — a
Bloom filter is a pure commutative OR-monoid, so it builds
as an embarrassingly parallel per-block partial aggregation: every block
emits its local bitmap, the driver ORs the (one-per-block, fixed-size)
partials, and the final bitmap broadcasts to the probe stage.  No
shuffle, no actor round-trips, no mutation ordering.

Hash scheme (pinned so a DuckDB oracle can recompute bit positions):

    h64   = first 8 md5 bytes of the key, big-endian        (uint64)
    h1    = h64 >> 32
    h2    = (h64 & 0xFFFFFFFF) | 1                          (odd step)
    pos_i = (h1 + i * h2) mod m_bits,  i = 0 .. k-1

i.e. Kirsch–Mitzenmacher double hashing ("Less hashing, same
performance", ESA 2006): k positions from one 64-bit hash.  With
m_bits a power of two and i < k <= 8, every intermediate fits uint64
exactly, and the SQL side mirrors it with UBIGINT arithmetic on
``('0x' || substr(md5(key), 1, 16))::UBIGINT``.

Sizing at scale: m_bits ≈ -n·ln(p)/ln(2)² for target false-positive
rate p (≈1.2 GiB per 10⁹ keys at p=1%).  The final bitmap should then
travel as a ``ray.put`` object ref resolved once per worker (plasma
maps numpy buffers zero-copy); the probe stage below broadcasts by
closure only because test fixtures use sub-KiB filters.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

_LOW32 = np.uint64(0xFFFFFFFF)


def key_hash64(key: str) -> int:
    """First 8 md5 bytes big-endian — full 64-bit (no sign squeeze; the
    SQL mirror is ('0x' || substr(md5(key), 1, 16))::UBIGINT)."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


def hash_keys(keys: list[str]) -> np.ndarray:
    return np.array([key_hash64(k) for k in keys], dtype=np.uint64)


class BloomFilter:
    """Fixed-size Bloom filter over 64-bit key hashes, vectorized.

    Bit storage is a uint64 word array; all per-key work (positions,
    set, test) runs as numpy kernels over whole hash arrays.
    """

    def __init__(self, m_bits: int, k: int = 4):
        if m_bits <= 0 or m_bits % 64 != 0:
            raise ValueError("m_bits must be a positive multiple of 64")
        if not 1 <= k <= 8:
            raise ValueError("k must be in 1..8")
        self.m_bits = m_bits
        self.k = k
        self.words = np.zeros(m_bits // 64, dtype=np.uint64)

    def positions(self, hashes: np.ndarray) -> np.ndarray:
        """(k, n) bit positions via double hashing — exact uint64."""
        h = hashes.astype(np.uint64, copy=False)
        h1 = h >> np.uint64(32)
        h2 = (h & _LOW32) | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + i * h2[None, :]) % np.uint64(self.m_bits)

    def add_hashes(self, hashes: np.ndarray) -> None:
        pos = self.positions(hashes).ravel()
        np.bitwise_or.at(
            self.words, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
        )

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Boolean array: all k bits set per key (maybe-seen)."""
        if hashes.size == 0:
            return np.zeros(0, dtype=bool)
        pos = self.positions(hashes)
        bits = (
            self.words[pos >> np.uint64(6)] >> (pos & np.uint64(63))
        ) & np.uint64(1)
        return bits.all(axis=0)

    def merge_words(self, words: np.ndarray) -> None:
        np.bitwise_or(self.words, words, out=self.words)

    def to_bytes(self) -> bytes:
        return self.words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, k: int) -> "BloomFilter":
        words = np.frombuffer(data, dtype=np.uint64)
        f = cls(m_bits=words.size * 64, k=k)
        f.words = words.copy()
        return f

    def fill_ratio(self) -> float:
        return float(
            np.unpackbits(self.words.view(np.uint8)).sum() / self.m_bits
        )

    def expected_fpr(self) -> float:
        """Current false-positive probability estimate: fill_ratio^k
        (the probability all k probe bits land on set bits)."""
        return self.fill_ratio() ** self.k


def m_bits_for(n_keys: int, target_fpr: float) -> int:
    """Standard Bloom sizing m = -n·ln(p)/ln(2)², rounded up to a whole
    uint64 word (≈1.2 GiB per 10⁹ keys at p = 1%)."""
    import math

    if n_keys <= 0 or not 0 < target_fpr < 1:
        raise ValueError("need n_keys > 0 and 0 < target_fpr < 1")
    m = -n_keys * math.log(target_fpr) / (math.log(2) ** 2)
    return ((int(math.ceil(m)) + 63) // 64) * 64


def k_for(m_bits: int, n_keys: int) -> int:
    """Optimal hash count k = (m/n)·ln 2, clamped to this module's 1..8."""
    import math

    return max(1, min(8, round(m_bits / max(n_keys, 1) * math.log(2))))


def partial_bitmap_batch(
    batch: pa.Table, *, key_column: str, m_bits: int, k: int
) -> pa.Table:
    """Per-block Bloom partial: one row holding this block's OR'd bitmap.

    The block-level OR-monoid partial is what makes the build a single
    streaming pass — the driver combines one fixed-size row per block
    (m_bits/8 bytes each), never the keys themselves.
    """
    f = BloomFilter(m_bits, k)
    keys = batch.column(key_column).to_pylist()
    if keys:
        f.add_hashes(hash_keys([s or "" for s in keys]))
    return pa.table({"words": pa.array([f.to_bytes()], pa.binary())})


def combine_bitmaps(rows: list[dict], *, m_bits: int, k: int) -> BloomFilter:
    """OR the per-block partial rows into the final filter (driver-side;
    input is one small fixed-size row per block, NOT per key)."""
    f = BloomFilter(m_bits, k)
    for r in rows:
        f.merge_words(np.frombuffer(r["words"], dtype=np.uint64))
    return f
