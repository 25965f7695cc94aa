"""Block-level helpers shared by the iterative and hybrid operators.

Many operators here hold light int64 or signature rows and choose between
gathering them in one place (a single-task fast path, a broadcast small
side, or a driver-side fold) and staying distributed.  That choice is made
in exactly one place, :func:`light_table`, against one byte budget.
"""

from __future__ import annotations

import pyarrow as pa

# One in-memory budget for every bounded collection: above it the rows stay
# distributed and the operator takes its scale path.  128 MiB covers the
# largest broadcast small side the operators used to accept (100k byte-packed
# 128-permutation MinHash signatures, ≈104 MB) and is far above every input
# up to sf0.1, where the largest (orders, 150k rows) is under 4 MB.
LIGHT_TABLE_BYTES = 128 << 20


def rebase(ds, n_blocks: int):
    """``ds`` materialized in ``n_blocks`` blocks, as a fresh Dataset over
    them (zero-copy object-store refs).  Iterative algorithms MUST cut the
    lineage each round: a materialized Dataset still carries its whole
    stats ancestry, and Ray's stats summarisation recurses over it —
    exponentially across rounds (observed as a driver hang in
    stats.to_summary by round ~6).  And they pin the block count: else
    each round's union and shuffle multiply tiny blocks (round 4 took
    100× round 0)."""
    import ray.data

    return ray.data.from_arrow_refs(ds.repartition(n_blocks).materialize().to_arrow_refs())


def light_table(ds, schema: pa.Schema) -> pa.Table | None:
    """The rows of ``ds`` as ONE driver-side Arrow table with exactly the
    columns of ``schema``, or ``None`` when the dataset's in-memory size is
    above :data:`LIGHT_TABLE_BYTES`.

    The size comes from block metadata (free once materialized), so the
    decision costs no execution and is taken before any distributed setup.
    Zero-row and zero-column blocks are dropped before the concat: a
    shuffle with more output blocks than rows emits schema-less empty
    blocks, and their column set need not match the declared schema.
    ``ds`` should already be materialized; a lazy dataset is materialized
    here, which executes its lineage once.  ``materialize()`` is free on a
    materialized dataset and also pins a ``from_arrow`` one, whose
    ``to_arrow_refs`` would otherwise start a Ray Data execution.
    """
    import ray

    ds = ds.materialize()
    if ds.size_bytes() > LIGHT_TABLE_BYTES:
        return None
    parts = [
        t.select(schema.names).cast(schema)
        for t in ray.get(ds.to_arrow_refs())
        if t.num_rows and t.num_columns
    ]
    return pa.concat_tables(parts) if parts else schema.empty_table()
