"""The segment-scan kernel and the per-layer executor built on it.

:func:`scan_segments` is the engine's only implementation of UCNN's
inner loop.  It evaluates a program's passes over a windows-major
``(W, N)`` block with three vectorized primitives per level:

1. **gather** — the traversal-ordered activation stream of every window
   in one indexed copy;
2. **segment sum** — ``np.add.reduceat`` over ``seg_starts`` folds the
   stream into per-segment sums (the accumulator Á/Â of the walk);
3. **weight + filter fold** — an elementwise multiply by the weight
   schedule and a second ``reduceat`` over ``filter_starts`` yield each
   filter's dot product, written into the caller's ``(K, W)`` view.

:func:`execute_program` (the per-layer path), the fused executor of
:mod:`repro.engine.fusion` (one call per filter-group shard) and
:meth:`repro.core.indirection.FactorizedFilter.execute_vectorized` all
run it.  All arithmetic is int64, so results are bit-identical to the
per-entry walk and the dense matmul (the same value mod 2**64).

Given a ``live`` mask, the kernel drops gather entries whose activation
is zero in *every* window of the block before the scan — a zero adds
nothing to an int64 sum, so only wasted gathers and adds are skipped
(ReuseSense-style activation reuse on top of UCNN's weight reuse).
Segments left empty are zeroed after the scan, since ``reduceat``
would otherwise leak the next segment's first element into them.  The
fused executor owns the policy
(:data:`repro.engine.fusion.SPARSE_AUTO_MIN_ZERO_FRACTION`); the
per-layer executor never compresses.

:func:`execute_program` chunks windows so the gathered matrix stays
near :data:`CHUNK_BUDGET_ELEMS` elements, so any batch runs in constant
memory.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.engine.program import SegmentPass, TableProgram

#: Target size (int64 elements) of one chunk's gathered matrix (~64 MiB).
CHUNK_BUDGET_ELEMS = 8_000_000


def _validated_windows(windows: np.ndarray, filter_size: int) -> np.ndarray:
    """Validate ``(n, N)`` integer windows and cast them to int64."""
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] != filter_size:
        raise ValueError(f"windows must be (n, {filter_size}), got {windows.shape}")
    if windows.dtype.kind not in "iub":
        raise ValueError(
            f"engine windows must be integers (got dtype {windows.dtype}); "
            "quantize activations explicitly instead of relying on truncation"
        )
    return windows.astype(np.int64, copy=False)


def compressed_segments(
    seg_starts: np.ndarray, prefix: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Remap a pass's segment partition onto a compressed gather stream.

    Args:
        seg_starts: the pass's segment start offsets into the *full*
            gather stream (int64, strictly ascending).
        prefix: ``(E + 1,)`` int64 prefix sums of the keep mask over the
            full stream — ``prefix[i]`` is how many of the first ``i``
            entries survive compression.
        total: entries in the compressed stream (``prefix[-1]``); must
            be >= 1 (the caller handles the all-dropped stream).

    Returns:
        ``(starts, empty)`` — int64 start offsets into the compressed
        stream, and the boolean mask of segments whose entries were all
        dropped (their reduceat output must be zeroed: with equal
        consecutive indices reduceat returns the element at the index,
        which belongs to the *next* segment).

    Starts may equal ``total``: a run of all-dropped segments at the
    tail of the stream maps there, and clamping it lower would steal
    the last entry from the preceding live segment (reduceat ends
    segment ``i`` at ``starts[i + 1]``).  Callers must therefore pad
    the compressed stream with one zero sentinel column at index
    ``total`` before reducing with these offsets.
    """
    raw = prefix[seg_starts]
    ends = np.empty_like(raw)
    ends[:-1] = raw[1:]
    ends[-1] = total
    return raw, raw == ends


def scan_segments(
    gather: np.ndarray,
    passes: Sequence[SegmentPass],
    block: np.ndarray,
    out: np.ndarray,
    live: np.ndarray | None = None,
    gather_buf: np.ndarray | None = None,
    seg_buf: np.ndarray | None = None,
) -> None:
    """Run one program's segment scan over a block of windows.

    Args:
        gather: the program's gather indices into a window (int64).
        passes: the program's :class:`SegmentPass` sequence.
        block: ``(W, N)`` int64 windows, any strides.
        out: ``(K, W)`` int64 output view; row ``p.filter_ids[i]`` of
            each pass is overwritten.  Rows no pass writes are left
            untouched (the caller zeroes them).
        live: optional ``(N,)`` boolean mask, False where the window
            position is zero in every row of ``block``.  Gather entries
            reading a dead position are dropped (bit-identical).
        gather_buf, seg_buf: optional flat int64 scratch holding at
            least ``W * len(gather)`` and ``W * max segments`` elements;
            the kernel allocates when they are omitted.  ``gather_buf``
            requires a C-contiguous ``block`` (take copies any other).
    """
    width = block.shape[0]
    prefix = None
    total = gather.size
    if live is not None:
        keep = live[gather]
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            out[...] = 0
            return
        if kept < total:
            prefix = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(keep, out=prefix[1:])
            # The zero sentinel column at index ``kept`` that
            # compressed_segments needs: any dropped entry reads a
            # position that is zero in every window.
            gather = np.append(gather[keep], gather[~keep][0])
            total = kept
    if gather_buf is None:
        gathered = block[:, gather]
    else:
        # ``mode="clip"`` lets take write straight into the scratch (the
        # default mode buffers ``out``); every index is in range.
        gathered = gather_buf[: width * gather.size].reshape(width, gather.size)
        np.take(block, gather, axis=1, out=gathered, mode="clip")
    for p in passes:
        if prefix is None:
            starts, empty = p.seg_starts, None
        else:
            starts, empty = compressed_segments(p.seg_starts, prefix, total)
        seg = None if seg_buf is None else seg_buf[: width * starts.size].reshape(width, starts.size)
        seg = np.add.reduceat(gathered, starts, axis=1, out=seg)
        if empty is not None and empty.any():
            seg[:, empty] = 0
        seg *= p.weights
        out[p.filter_ids] = np.add.reduceat(seg, p.filter_starts, axis=1).T


def execute_program(
    program: TableProgram,
    windows: np.ndarray,
    chunk: int | None = None,
) -> np.ndarray:
    """Evaluate a compiled program over a batch of windows.

    Args:
        program: the compiled :class:`TableProgram`.
        windows: ``(n, N)`` integer matrix of flattened input tiles.
        chunk: windows per chunk (default: sized so the gathered matrix
            stays near :data:`CHUNK_BUDGET_ELEMS` elements).

    Returns:
        ``(K, n)`` int64 dot products, bit-identical to walking each
        group's tables per window.

    Raises:
        ValueError: on shape mismatch or non-integer windows.
    """
    windows = _validated_windows(windows, program.filter_size)
    n = windows.shape[0]
    out = np.zeros((program.num_filters, n), dtype=np.int64)
    if chunk is None:
        chunk = max(1, CHUNK_BUDGET_ELEMS // max(1, program.num_entries))
    for lo in range(0, n, chunk):
        hi = lo + chunk
        scan_segments(program.gather, program.passes, windows[lo:hi], out[:, lo:hi])
    return out
