"""Segmented odd-only sieve of Eratosthenes with checkpointed prime counting.

A PrimeTable stores one bit per odd integer in [0, limit] (1/16 byte per
integer; 2 is implicit) plus a cumulative prime count at every 2^16
boundary.  The table is padded to whole 64-bit words, and pi and the
word rank pi_below_words count the same words: pi(x) is a checkpoint
lookup plus an np.bitwise_count over at most 512 whole words and one
masked word, and the rank is the checkpoint of its first word's block
plus a cumulative popcount from that block's start.  pi_array answers pi
for a whole integer array from the rank over just the words its values
span, built per call; no other module reads the bits.  The primes
themselves are unpacked from the bits on demand, by one kernel on the
block pool.  The table caches a prefix of them, every prime below some
checkpoint boundary, grown in whole blocks to the largest prime or
index a caller has asked for: nth_prime reads it by index (an int or an
index array), and primes_array(x) returns its primes <= x.
primes_between(lo, hi) unpacks the primes of a range into a fresh array
and caches nothing, for scans that read each prime once.  The sieve
clears the multiples of the 17 odd primes below 64 by ANDing each packed
segment with five fixed byte patterns, and only the primes from 67 on by
slices.  A table can grow from a smaller one: build_table(limit, base)
copies the base's bits, counts and cached primes below its last whole
checkpoint block and sieves only the rest.
Tables live in memory only: sieving costs a few nanoseconds per integer,
so there is no file format to keep.  Tables are immutable once built and
safe to share between threads; every query outside [0, limit] (or an
index outside [1, prime_count]) is a hard error because silently
extrapolating would invalidate the certificates built on top of these
counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from math import isqrt, prod

import numpy as np

from .errors import RangeQueryError

__all__ = ["PrimeTable", "build_table", "SEGMENT_SIZE", "CHECKPOINT_SPAN"]

# values per sieve segment: SEGMENT_SIZE / 2 odd slots, SEGMENT_SIZE / 16 bytes
SEGMENT_SIZE = 1 << 20
CHECKPOINT_SPAN = 1 << 16   # one cumulative pi checkpoint per this many values
_BLOCK_BYTES = CHECKPOINT_SPAN >> 4   # table bytes per checkpoint block
_BLOCK_WORDS = CHECKPOINT_SPAN >> 7   # table words per checkpoint block

# _ODD_EXPAND[b]: the 0/1 flags of the 16 values a table byte with bits b
# stands for; bit j flags value 2j + 1, and even values stay 0
_ODD_EXPAND = np.zeros((256, 16), dtype=np.uint8)
_ODD_EXPAND[:, 1::2] = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")


def _pattern(group: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """(period, bytes): table bytes with the odd multiples of group's primes
    cleared, from byte 0 on and one segment past a whole period.  The
    multiples repeat every prod(group) bytes because 16 values, a byte,
    are prime to each p, so a segment at table byte b ANDs the slice at
    phase b mod period."""
    period = prod(group)
    slots = np.ones(8 * (period + (SEGMENT_SIZE >> 4)), dtype=bool)
    for p in group:
        slots[p >> 1::p] = False          # slot i is 2i + 1
    return period, np.packbits(slots, bitorder="little")


# the 17 odd primes below 64, in five patterns of 71 to 250 KiB (0.66 MB):
# they make most of a sieve's slice writes, and one AND a pattern clears
# their multiples in a whole packed segment.  The slices clear the rest.
_PATTERN_GROUPS = ((3, 5, 7, 11, 13), (17, 19, 23), (29, 31, 37),
                   (41, 43, 47), (53, 59, 61))
_PATTERNS = [_pattern(g) for g in _PATTERN_GROUPS]
_PATTERN_SLOTS = np.array([p >> 1 for g in _PATTERN_GROUPS for p in g])
_SLICED_FROM = 64
_FALSE = np.zeros((), dtype=bool)   # a ready numpy value: cheaper slice writes

# numpy's searchsorted, take, unpackbits and ufuncs release the GIL, so
# array work split into blocks runs on up to 4 cores; block edges never
# depend on the worker count, so neither do the results
_WORKERS = min(4, len(os.sched_getaffinity(0)))
_POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="primes-block")
_POOLED_FROM = 4                       # fewer blocks run on the caller


def _run_blocks(fn, items) -> None:
    """fn(item) for every item: on the pool from _POOLED_FROM items on,
    else on the calling thread.  Every block finishes before the first
    error in item order is raised, so none is left writing."""
    if len(items) < _POOLED_FROM or _WORKERS < 2:
        for item in items:
            fn(item)
        return
    futures = [_POOL.submit(fn, item) for item in items]
    wait(futures)
    for future in futures:
        future.result()


# a fresh table's cached prefix: 2, the prime without a bit, and the odd
# primes of no checkpoint block yet
_FRESH_PRIMES = np.array([2], dtype=np.int64)
_FRESH_PRIMES.flags.writeable = False


def _small_sieve(limit: int) -> np.ndarray:
    """Plain sieve for the base primes up to sqrt of the table limit."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags).astype(np.int64)


class PrimeTable:
    """Immutable prime table over [0, limit] with O(checkpoint) pi queries.

    Bit i of the table stands for the odd integer 2i + 1; 2 is the one
    even prime and is answered without a bit.  nth_prime and
    primes_array read a cached read-only int64 prefix of the primes: 2
    and every odd prime below a checkpoint boundary, grown on demand in
    whole checkpoint blocks, at least doubling, to the largest index or
    prime asked for.  So a table that only answers pi() never unpacks a
    prime, and one that answers nth_prime(n) holds about the first n.
    Two threads may grow the prefix at the same time; each returns the
    prefix it built, every prefix agrees with every other where both
    reach, and whichever is kept, the race is benign.
    """

    __slots__ = ("limit", "prime_count", "_bits", "_words", "_checkpoints",
                 "_primes", "__weakref__")

    def __init__(self, limit: int, bits: np.ndarray, checkpoints: np.ndarray,
                 primes: np.ndarray):
        self.limit = limit
        # packed little-endian: bit i (bit i & 7 of byte i >> 3) is 2i + 1
        self._bits = bits
        # the same buffer as 64-bit words (bit i & 63 of word i >> 6), which
        # pi and pi_below_words count
        self._words = bits.view("<u8")
        # checkpoints[j] = #{p odd prime : p < j * 2^16}
        self._checkpoints = checkpoints
        self.prime_count = self.pi(limit)
        # the cached prefix: 2 and the odd primes below j * 2^16 for some
        # checkpoint j, so 1 + checkpoints[j] of them
        self._primes = primes

    # -- scalar queries ------------------------------------------------

    def _check_range(self, x: int) -> None:
        if x < 0 or x > self.limit:
            raise RangeQueryError(
                f"x={x} outside sieved range [0, {self.limit}]")

    def is_prime(self, x: int) -> bool:
        self._check_range(x)
        if not x & 1:
            return x == 2
        i = x >> 1
        return bool((self._bits[i >> 3] >> (i & 7)) & 1)

    def pi(self, x: int) -> int:
        """Number of primes <= x: the checkpoint of x's block plus the
        popcount of its words below x's word and of that word's low bits."""
        self._check_range(x)
        if x < 2:
            return 0
        slots = (x + 1) >> 1                          # odd numbers <= x
        word, block = slots >> 6, x >> 16
        count = 1 + int(self._checkpoints[block])     # 1 for the prime 2
        count += int(np.bitwise_count(
            self._words[block * _BLOCK_WORDS:word]).sum())
        mask = (1 << (slots & 63)) - 1
        return count + (int(self._words[word]) & mask).bit_count()

    def pi_below_words(self, w_lo: int, w_hi: int) -> np.ndarray:
        """The primes below 128w, 2 counted below word 0, for every table
        word w in [w_lo, w_hi], as an int64 array: the checkpoint of
        w_lo's block plus the cumulative popcount of the words from that
        block's start.  w_hi may be the word count, the table's end."""
        if w_lo < 0 or w_hi < w_lo or w_hi > len(self._words):
            raise RangeQueryError(
                f"words [{w_lo}, {w_hi}] outside [0, {len(self._words)}]")
        first = w_lo - w_lo % _BLOCK_WORDS
        below = np.empty(w_hi + 1 - first, dtype=np.int64)
        below[0] = 1 + self._checkpoints[first // _BLOCK_WORDS]
        np.cumsum(np.bitwise_count(self._words[first:w_hi]), out=below[1:])
        below[1:] += below[0]
        return below[w_lo - first:]

    def pi_array(self, x: np.ndarray) -> np.ndarray:
        """pi at every entry of an integer array x in [0, limit], as int64.

        A rank over the table words that x spans, local to the call: the
        primes through each of those words, from pi_below_words, less the
        popcount of each value's own word from its bit on.  So the cost
        is a few passes over x and over (max x - min x) / 128 words, plus
        at most one checkpoint block, with no index kept in the table.
        """
        if x.dtype.kind not in "iu":
            raise TypeError(f"pi_array needs an integer array, got {x.dtype}")
        lo, hi = (int(x.min()), int(x.max())) if x.size else (0, 0)
        if lo < 0 or hi > self.limit:
            raise RangeQueryError(
                f"x in [{lo}, {hi}] outside sieved range [0, {self.limit}]")
        x = x.astype(np.int64, copy=False)
        # v has (v + 1) >> 1 odd numbers up to it, the slots below
        # s = (v + 1) >> 1: the words up to s >> 6 but for the bits of word
        # s >> 6 from s & 63 on
        w_lo, w_hi = (lo + 1) >> 7, (hi + 1) >> 7
        words = self._words[w_lo:w_hi + 1]
        counts = self.pi_below_words(w_lo, w_hi + 1)[1:]   # through word w
        s = x + (1 - 128 * w_lo)
        s >>= 1                                  # slots from word w_lo on
        word = s >> 6
        count = counts.take(word)
        word = words.take(word)
        s &= 63
        word >>= s.view(np.uint64)               # the bits from the slot on
        count -= np.bitwise_count(word)
        if lo < 2:
            count -= x < 2                       # no prime 2 below 2
        return count

    def nth_prime(self, n: int | np.ndarray) -> int | np.ndarray:
        """p_n for an int n or an int64 index array; 1 <= n <= prime_count.
        Reads the cached prefix, grown first if it lacks the largest n."""
        if isinstance(n, np.ndarray):
            if n.size and (n.min() < 1 or n.max() > self.prime_count):
                raise RangeQueryError(
                    f"indices {n.min()}..{n.max()} outside "
                    f"[1, {self.prime_count}] for limit {self.limit}")
            return self._prefix(int(n.max(initial=0)))[n - 1]
        if n < 1 or n > self.prime_count:
            raise RangeQueryError(
                f"n={n} outside [1, {self.prime_count}] for limit {self.limit}")
        return int(self._prefix(n)[n - 1])

    # -- bulk access ---------------------------------------------------

    def pi_cumulative(self, hi: int) -> np.ndarray:
        """Array A with A[x] = pi(x) for all 0 <= x < hi."""
        if hi < 0 or hi > self.limit + 1:
            raise RangeQueryError(f"[0, {hi}) outside [0, {self.limit + 1})")
        # byte b expands to the 0/1 flags of the 16 values [16b, 16b + 16)
        flags = np.take(_ODD_EXPAND, self._bits[:(hi + 15) >> 4],
                        axis=0).reshape(-1)[:hi]
        if hi > 2:
            flags[2] = 1                     # the prime without a bit
        return np.cumsum(flags, dtype=np.int64)

    def primes_array(self, x: int) -> np.ndarray:
        """Every prime <= x as int64, ascending, for 0 <= x <= limit: a
        read-only view of the cached prefix, grown first to x's block."""
        self._check_range(x)
        primes = self._prefix(1 + int(self._checkpoints[(x >> 16) + 1]))
        return primes[:primes.searchsorted(x, side="right")]

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        """The primes in [lo, hi) as a fresh int64 array, for
        0 <= lo <= hi <= limit + 1: unpacked from the checkpoint blocks
        the range meets, with nothing cached."""
        if lo < 0 or hi < lo or hi > self.limit + 1:
            raise RangeQueryError(
                f"[{lo}, {hi}) outside [0, {self.limit + 1})")
        j_lo, j_hi = lo >> 16, -(-hi >> 16)
        first = 1 + int(self._checkpoints[j_lo]) if j_lo else 0
        primes = np.empty(1 + int(self._checkpoints[j_hi]) - first,
                          dtype=np.int64)
        if not j_lo:
            primes[0] = 2
        self._unpack(primes, first, j_lo * _BLOCK_BYTES,
                     min(j_hi * _BLOCK_BYTES, len(self._bits)))
        return primes[primes.searchsorted(lo):primes.searchsorted(hi)]

    def _prefix(self, count: int) -> np.ndarray:
        """The cached prefix, first grown, if it holds fewer than count
        primes, to the first checkpoint boundary with count primes below
        it and to at least twice its blocks: the old prefix is copied once
        and the new blocks unpack in place after it.  A grown prefix
        replaces the old one and is returned."""
        old, cp = self._primes, self._checkpoints
        if count <= len(old):
            return old
        j_old = int(cp.searchsorted(len(old) - 1))
        j = min(max(int(cp.searchsorted(count - 1)), 2 * j_old), len(cp) - 1)
        primes = np.empty(1 + int(cp[j]), dtype=np.int64)
        primes[:len(old)] = old
        self._unpack(primes, 0, j_old * _BLOCK_BYTES,
                     min(j * _BLOCK_BYTES, len(self._bits)))
        primes.flags.writeable = False
        self._primes = primes
        return primes

    def _unpack(self, out: np.ndarray, first: int, b_lo: int,
                b_hi: int) -> None:
        """The one unpack: write the odd primes of table bytes [b_lo, b_hi)
        into out, p_{i+1} at out[i - first], with b_lo on a checkpoint
        block.  One job per sieve segment's bytes, on the block pool."""
        seg_bytes = SEGMENT_SIZE >> 4

        def unpack(b: int) -> None:
            # jobs start on checkpoint blocks, so each one's primes start
            # after 2 and the odd primes of the blocks below it
            flags = np.unpackbits(self._bits[b:min(b + seg_bytes, b_hi)],
                                  bitorder="little")
            seg = np.flatnonzero(flags.view(bool))
            pos = 1 + int(self._checkpoints[b // _BLOCK_BYTES]) - first
            odd = np.multiply(seg, 2, out=out[pos:pos + len(seg)])
            odd += 16 * b + 1

        _run_blocks(unpack, range(b_lo, b_hi, seg_bytes))

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit}, prime_count={self.prime_count})"


def build_table(limit: int, base: PrimeTable | None = None) -> PrimeTable:
    """Sieve the odd numbers in [0, limit] segment by segment and return an
    immutable table.

    With a base table (any limit), the bits and checkpoint counts below
    the base's last whole 2^16-value checkpoint block are copied from it
    and only the rest is sieved: the base's last partial block marks
    every value past its limit as composite.  The new table's cached
    prefix starts as the base's, cut to those shared blocks.  The new
    table never refers to the base, only to the base's prefix, and only
    until its own prefix first grows.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")

    base_primes = _small_sieve(isqrt(limit))
    odd_base = base_primes[np.searchsorted(base_primes, _SLICED_FROM):]
    slots = (limit + 1) >> 1                 # odd numbers 1, 3, ..., <= limit
    # byte b holds the odd numbers in [16b, 16b + 16).  pi and pi_array read
    # 64-bit word (x + 1) >> 7 for every x <= limit, so the table runs in
    # whole words to the end of that one, past a byte for every value
    bits = np.zeros(8 * (((limit + 1) >> 7) + 1), dtype=np.uint8)
    checkpoints = np.zeros(-(-len(bits) // _BLOCK_BYTES) + 1, dtype=np.int64)
    # resume at block j0: the whole blocks the base and the new table share
    j0 = 0 if base is None else min(base.limit + 1, limit + 1) >> 16
    b0 = j0 * _BLOCK_BYTES
    primes = _FRESH_PRIMES
    if j0:
        bits[:b0] = base._bits[:b0]
        checkpoints[:j0 + 1] = base._checkpoints[:j0 + 1]
        primes = base._primes
        primes = primes[:min(len(primes), 1 + int(checkpoints[j0]))]
    seg_slots = SEGMENT_SIZE >> 1
    seg = np.empty(seg_slots, dtype=bool)

    for s_lo in range(b0 << 3, slots, seg_slots):
        n = min(seg_slots, slots - s_lo)
        lo = 2 * s_lo                # the segment holds odd v in [lo, lo + 2n)
        seg[:n] = True
        if s_lo == 0:
            seg[0] = False           # 1 is not prime
        # first odd multiple of p at or past max(p^2, lo), as a slot offset;
        # consecutive odd multiples sit p slots apart
        first = -(-lo // odd_base) * odd_base
        first += odd_base * (first % 2 == 0)
        offsets = (np.maximum(odd_base * odd_base, first) - lo) >> 1
        for p, off in zip(odd_base.tolist(), offsets.tolist()):
            if off < n:
                seg[off:n:p] = _FALSE
        packed = np.packbits(seg[:n], bitorder="little")
        b_lo = s_lo >> 3
        for period, pattern in _PATTERNS:
            phase = b_lo % period
            packed &= pattern[phase:phase + len(packed)]
        if s_lo == 0:                # the pattern primes are not multiples
            keep = _PATTERN_SLOTS[_PATTERN_SLOTS < n]
            np.bitwise_or.at(packed, keep >> 3,
                             np.left_shift(1, keep & 7).astype(np.uint8))
        bits[b_lo:b_lo + len(packed)] = packed
        # segments start on block boundaries and seg_slots is a whole
        # number of blocks, so each segment fills its own
        blocks = np.add.reduceat(np.bitwise_count(packed),
                                 np.arange(0, len(packed), _BLOCK_BYTES),
                                 dtype=np.int64)
        j = b_lo // _BLOCK_BYTES
        checkpoints[j + 1:j + 1 + len(blocks)] = blocks

    # checkpoints[j0] is already cumulative; the blocks past it add up
    np.cumsum(checkpoints[j0:], out=checkpoints[j0:])
    return PrimeTable(limit, bits, checkpoints, primes)
