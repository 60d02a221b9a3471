"""Near-even partitioning of work items across host workers.

The sharded fleet runner (:mod:`repro.parallel.shard`) splits a fleet of
paths into contiguous, near-equal shards with :func:`chunk_evenly`, one
shard per worker process.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")

__all__ = ["chunk_evenly"]


def chunk_evenly(items: Sequence[T], parts: int) -> list[list[T]]:
    """Split ``items`` into at most ``parts`` chunks of near-equal size.

    The first ``len(items) % parts`` chunks get one extra element; empty
    chunks are never returned.

    >>> chunk_evenly([1, 2, 3, 4, 5], 2)
    [[1, 2, 3], [4, 5]]
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    items = list(items)
    if not items:
        return []
    parts = min(parts, len(items))
    base, extra = divmod(len(items), parts)
    chunks: list[list[T]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks
