"""Segmented sieve of Eratosthenes with checkpointed prime counting.

A PrimeTable stores one bit per integer in [0, limit] plus a cumulative
prime count at every 2^16 boundary, so pi(x) is a checkpoint lookup plus
an np.bitwise_count over at most 8 KiB.  The primes themselves sit in a
single int64 array that the table builds on first use: nth_prime reads
it by index (an int or an index array), primes_array by value range.
Tables live in memory only: sieving costs a few nanoseconds per integer,
so there is no file format to keep.  Tables are immutable once built and
safe to share between threads; every query outside [0, limit] (or an
index outside [1, prime_count]) is a hard error because silently
extrapolating would invalidate the certificates built on top of these
counts.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import RangeQueryError

__all__ = ["PrimeTable", "build_table", "SEGMENT_SIZE", "CHECKPOINT_SPAN"]

SEGMENT_SIZE = 1 << 20      # values sieved per segment
CHECKPOINT_SPAN = 1 << 16   # one cumulative pi checkpoint per this many values


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

    nth_prime and primes_array read one read-only int64 array of every
    prime <= limit, built segment by segment on first use, so a table
    that only answers pi() never pays for it.  Two threads may build it
    at the same time; both build identical arrays and either may be
    kept, so the race is benign.
    """

    __slots__ = ("limit", "prime_count", "_bits", "_checkpoints", "_primes")

    def __init__(self, limit: int, bits: np.ndarray, checkpoints: np.ndarray):
        self.limit = limit
        self._bits = bits              # packed little-endian, bit v of byte v>>3
        self._checkpoints = checkpoints  # checkpoints[j] = #{p prime : p < j * 2^16}
        self.prime_count = self.pi(limit)
        self._primes: np.ndarray | None = None

    # -- scalar queries ------------------------------------------------

    def _check_range(self, x: int) -> None:
        if x < 0 or x > self.limit:
            raise RangeQueryError(
                f"x={x} outside sieved range [0, {self.limit}]")

    def is_prime(self, x: int) -> bool:
        self._check_range(x)
        return bool((self._bits[x >> 3] >> (x & 7)) & 1)

    def pi(self, x: int) -> int:
        """Number of primes <= x."""
        self._check_range(x)
        block = x >> 16
        count = int(self._checkpoints[block])
        lo_byte = block << 13          # (block * 2^16) / 8
        hi_byte = (x + 1) >> 3
        if hi_byte > lo_byte:
            count += int(np.bitwise_count(self._bits[lo_byte:hi_byte]).sum())
        rem = (x + 1) & 7
        if rem:
            count += (int(self._bits[hi_byte]) & ((1 << rem) - 1)).bit_count()
        return count

    def nth_prime(self, n: int | np.ndarray) -> int | np.ndarray:
        """p_n for an int n or an int64 index array; 1 <= n <= prime_count."""
        if isinstance(n, np.ndarray):
            if n.size and (n.min() < 1 or n.max() > self.prime_count):
                raise RangeQueryError(
                    f"indices {n.min()}..{n.max()} outside "
                    f"[1, {self.prime_count}] for limit {self.limit}")
            return self._all_primes()[n - 1]
        if n < 1 or n > self.prime_count:
            raise RangeQueryError(
                f"n={n} outside [1, {self.prime_count}] for limit {self.limit}")
        return int(self._all_primes()[n - 1])

    # -- bulk access ---------------------------------------------------

    def indicator(self, lo: int, hi: int) -> np.ndarray:
        """0/1 uint8 array over values in [lo, hi); lo must be a multiple of 8."""
        if lo < 0 or hi > self.limit + 1 or lo > hi:
            raise RangeQueryError(f"[{lo}, {hi}) outside [0, {self.limit + 1})")
        if lo & 7:
            raise ValueError("lo must be byte-aligned (multiple of 8)")
        nbytes = (hi - lo + 7) >> 3
        chunk = self._bits[lo >> 3: (lo >> 3) + nbytes]
        return np.unpackbits(chunk, bitorder="little")[: hi - lo]

    def pi_cumulative(self, hi: int, dtype=np.int64) -> np.ndarray:
        """Array A with A[x] = pi(x) for all 0 <= x < hi."""
        return np.cumsum(self.indicator(0, hi), dtype=dtype)

    def primes_array(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """All primes with lo <= p < hi as int64, ascending: a read-only view.

        This reads primes by value; nth_prime reads them by index.
        """
        if hi is None:
            hi = self.limit + 1
        if lo < 0 or hi > self.limit + 1 or lo > hi:
            raise RangeQueryError(f"[{lo}, {hi}) outside [0, {self.limit + 1})")
        primes = self._all_primes()
        return primes[np.searchsorted(primes, lo):np.searchsorted(primes, hi)]

    def _all_primes(self) -> np.ndarray:
        primes = self._primes
        if primes is None:
            primes = np.empty(self.prime_count, dtype=np.int64)
            pos = 0
            for lo in range(0, self.limit + 1, SEGMENT_SIZE):
                hi = min(lo + SEGMENT_SIZE, self.limit + 1)
                seg = np.flatnonzero(self.indicator(lo, hi).view(bool)) + lo
                primes[pos:pos + len(seg)] = seg
                pos += len(seg)
            primes.flags.writeable = False
            self._primes = primes
        return primes

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit}, prime_count={self.prime_count})"


def build_table(limit: int) -> PrimeTable:
    """Sieve [0, limit] segment by segment and return an immutable table."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")

    base = _small_sieve(isqrt(limit))
    bits = np.zeros(((limit + 1) + 7) >> 3, dtype=np.uint8)

    for lo in range(0, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            seg[:2] = False
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            seg[start - lo:: p] = False
        packed = np.packbits(seg, bitorder="little")
        bits[lo >> 3: (lo >> 3) + len(packed)] = packed

    # mask stray bits beyond limit in the last byte
    rem = (limit + 1) & 7
    if rem:
        bits[-1] &= (1 << rem) - 1

    # one uint8 popcount per byte, zero-padded to whole blocks; the row sums
    # cast to int64 in small buffered chunks, never the whole array at once
    block_bytes = CHECKPOINT_SPAN >> 3
    counts = np.zeros(-(-len(bits) // block_bytes) * block_bytes, dtype=np.uint8)
    np.bitwise_count(bits, out=counts[:len(bits)])
    checkpoints = np.zeros(len(counts) // block_bytes + 1, dtype=np.int64)
    np.cumsum(counts.reshape(-1, block_bytes).sum(axis=1, dtype=np.int64),
              out=checkpoints[1:])
    return PrimeTable(limit, bits, checkpoints)
