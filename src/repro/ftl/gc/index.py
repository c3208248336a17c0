"""Incremental GC victim index: O(1) selection over any block count.

The seed implementation re-derived the victim candidate set on every
selection — an O(blocks) boolean-mask allocation plus a full-array scan
per collected block, inside the GC burst loop.  At the scaled
geometries the roadmap targets (10-100x the default block count) that
scan dominates replay time (Dayan & Bonnet; Nagel et al. both identify
victim-selection data structures as the scaling lever for this loop).

:class:`VictimIndex` instead maintains the candidate set *as it
changes*: one bucket per invalid-page count, each bucket an intrusive
membership array (swap-remove with a per-block position table), so
every state transition a block can make is a constant-time bucket move:

* **block fills** (``FlashArray.program``/``program_run`` reaches the
  block's last page) — enters the bucket for its current invalid count,
  if it already holds invalid pages;
* **page invalidated** (``FlashArray.invalidate``) — member blocks move
  up one bucket; a full non-member with its first invalid page enters
  bucket 1;
* **block erased** (``FlashArray.erase``) — leaves the index.

Eligibility mirrors ``BlockAllocator.victim_candidates_mask`` exactly:
fully written and holding at least one invalid page.  Active blocks are
never fully written (the allocator retires a block from its active slot
the moment it fills), so "full" already implies "not active" and no
allocator callback is needed.

Greedy selection becomes "pop the highest nonempty bucket" (amortized
O(1): the max-bucket cursor only walks down as far as erases pushed it
up), with ties broken to the lowest block id — bit-identical to the
masked-argmax oracle the policies keep as their reference path.  Cost-
benefit and random policies enumerate candidates through
:meth:`iter_buckets` / :meth:`sorted_candidates` in O(candidates)
instead of O(blocks).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np


class VictimIndex:
    """Buckets of GC-eligible blocks keyed by invalid-page count."""

    __slots__ = (
        "_write_ptr", "_invalid", "_blocks", "_ppb",
        "_bucket_of", "_pos", "_buckets", "_max", "_size",
    )

    def __init__(self, flash) -> None:
        # The flash columns, not the FlashArray: the array points back
        # at this index, and a cycle would keep every replayed device
        # alive until a full cycle-collector pass.  Both columns are
        # only ever mutated in place.
        self._write_ptr = flash.write_ptr
        self._invalid = flash.invalid_count
        ppb = flash.pages_per_block
        self._ppb = ppb
        blocks = flash.blocks
        self._blocks = blocks
        #: invalid-count bucket a block sits in, or -1 when not a member.
        self._bucket_of: List[int] = [-1] * blocks
        #: position of a member block inside its bucket (swap-remove).
        self._pos: List[int] = [0] * blocks
        self._buckets: List[List[int]] = [[] for _ in range(ppb + 1)]
        #: upper bound on the highest nonempty bucket (lazily tightened).
        self._max = 0
        self._size = 0
        self.rebuild()

    def __len__(self) -> int:
        return self._size

    # -- mutation hooks (called from FlashArray) -------------------------------

    def on_block_full(self, block: int, invalid: int) -> None:
        """A block's last page just programmed; index it if reclaimable."""
        if invalid > 0:
            self._add(block, invalid)

    def on_invalidate(self, block: int, invalid: int) -> None:
        """A page of ``block`` went VALID -> INVALID (count now ``invalid``)."""
        bucket_of = self._bucket_of
        cur = bucket_of[block]
        if cur >= 0:
            # Member: move up one bucket (invalid == cur + 1).
            pos = self._pos
            old = self._buckets[cur]
            i = pos[block]
            last = old.pop()
            if last != block:
                old[i] = last
                pos[last] = i
            new = self._buckets[invalid]
            pos[block] = len(new)
            new.append(block)
            bucket_of[block] = invalid
            if invalid > self._max:
                self._max = invalid
        elif self._write_ptr[block] == self._ppb:
            # Full block gaining its first invalid page becomes eligible.
            self._add(block, invalid)

    def on_erase(self, block: int) -> None:
        """Block erased: it leaves the candidate set."""
        if self._bucket_of[block] >= 0:
            self._remove(block)

    def sync_block(self, block: int, invalid: int, full: bool) -> None:
        """Force one block's membership to match its flash end state.

        The batched write kernel applies a run's programs and
        invalidations out of order and reconciles the index afterwards:
        final membership only depends on the block's final ``(full,
        invalid)`` state, never on the interleaving that produced it.
        """
        want = invalid if (full and invalid > 0) else -1
        cur = self._bucket_of[block]
        if cur == want:
            return
        if cur >= 0:
            self._remove(block)
        if want >= 0:
            self._add(block, want)

    def rebuild(self) -> None:
        """Re-derive the whole index from flash state (O(blocks)).

        Used at construction and available to tests; steady-state
        maintenance never calls this.
        """
        for bucket in self._buckets:
            bucket.clear()
        blocks = self._blocks
        self._bucket_of = [-1] * blocks
        self._pos = [0] * blocks
        self._max = 0
        self._size = 0
        invalid = self._invalid
        full = np.nonzero((self._write_ptr == self._ppb) & (invalid > 0))[0]
        for block in full.tolist():
            self._add(block, int(invalid[block]))

    # -- internal bucket ops ---------------------------------------------------

    def _add(self, block: int, invalid: int) -> None:
        bucket = self._buckets[invalid]
        self._pos[block] = len(bucket)
        bucket.append(block)
        self._bucket_of[block] = invalid
        self._size += 1
        if invalid > self._max:
            self._max = invalid

    def _remove(self, block: int) -> None:
        pos = self._pos
        bucket = self._buckets[self._bucket_of[block]]
        i = pos[block]
        last = bucket.pop()
        if last != block:
            bucket[i] = last
            pos[last] = i
        self._bucket_of[block] = -1
        self._size -= 1

    # -- selection views -------------------------------------------------------

    def top_block(self) -> int:
        """Lowest-id block in the highest nonempty bucket, or -1.

        The greedy victim: maximum invalid-page count, ties to the
        lowest block id — the same answer as ``argmax`` over the masked
        invalid-count array.
        """
        b = self._max
        buckets = self._buckets
        while b > 0 and not buckets[b]:
            b -= 1
        self._max = b
        if b == 0:
            return -1
        return min(buckets[b])

    def iter_buckets(self) -> Iterator[Tuple[int, List[int]]]:
        """Nonempty buckets as ``(invalid_count, blocks)``, descending.

        The yielded lists are the live membership arrays: callers must
        not mutate them or the index while iterating.
        """
        buckets = self._buckets
        b = self._max
        while b > 0 and not buckets[b]:
            b -= 1
        self._max = b
        for inv in range(b, 0, -1):
            bucket = buckets[inv]
            if bucket:
                yield inv, bucket

    def sorted_candidates(self) -> np.ndarray:
        """All candidate blocks, ascending, as an int64 array.

        Matches ``np.nonzero(mask)[0]`` on the oracle mask — the array
        the random policy draws from, so seeded runs stay bit-identical.
        """
        size = self._size
        if size == 0:
            return np.empty(0, dtype=np.int64)
        out = np.empty(size, dtype=np.int64)
        offset = 0
        for bucket in self._buckets:
            n = len(bucket)
            if n:
                out[offset : offset + n] = bucket
                offset += n
        out.sort()
        return out

    def candidates_mask(self) -> np.ndarray:
        """Boolean eligibility mask over all blocks (fallback/oracle view)."""
        mask = np.zeros(self._blocks, dtype=bool)
        for bucket in self._buckets:
            if bucket:
                mask[bucket] = True
        return mask

    # -- invariants ------------------------------------------------------------

    def check_consistency(self, allocator) -> None:
        """Full cross-check against flash state and the oracle mask
        (tests only: O(blocks))."""
        invalid = self._invalid
        seen = 0
        for inv, bucket in enumerate(self._buckets):
            for i, block in enumerate(bucket):
                if self._bucket_of[block] != inv:
                    raise AssertionError(
                        f"block {block} in bucket {inv} but bucket_of says "
                        f"{self._bucket_of[block]}"
                    )
                if self._pos[block] != i:
                    raise AssertionError(f"block {block} position desynced")
                if int(invalid[block]) != inv:
                    raise AssertionError(
                        f"block {block} indexed at invalid={inv} but flash "
                        f"says {int(invalid[block])}"
                    )
                seen += 1
        if seen != self._size:
            raise AssertionError(f"index size {self._size} != members {seen}")
        if not np.array_equal(self.candidates_mask(), allocator.victim_candidates_mask()):
            raise AssertionError("victim index disagrees with the oracle mask")
