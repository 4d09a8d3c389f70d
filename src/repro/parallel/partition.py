"""Chunk arithmetic for the batched query streams.

Streaming designs are drawn in fixed-size query batches, each keyed by its
batch index; the stream path and the compiled-design regeneration count
those batches with the same helper.
"""

from __future__ import annotations

from repro.util.validation import check_nonneg_int, check_positive_int

__all__ = ["chunk_count"]


def chunk_count(total: int, chunk: int) -> int:
    """Number of fixed-size chunks needed to cover ``total`` items.

    Examples
    --------
    >>> chunk_count(10, 3)
    4
    """
    total = check_nonneg_int(total, "total")
    chunk = check_positive_int(chunk, "chunk")
    return -(-total // chunk)
