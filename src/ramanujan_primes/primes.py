"""Segmented sieve of Eratosthenes with checkpointed prime counting.

A PrimeTable stores one bit per integer in [0, limit] plus a cumulative
prime count at every 2^16 boundary, so pi(x) is a checkpoint lookup plus a
popcount over at most 8 KiB.  The primes themselves, the one way to get
primes by index or by range, sit in a single int64 array that the table
builds on first use.  Tables are immutable once built and safe to share
between threads; every query outside [0, limit] is a hard error because
silently extrapolating would invalidate the certificates built on top of
these counts.
"""

from __future__ import annotations

import hashlib
import struct
from math import isqrt

import numpy as np

from .errors import RangeQueryError, ResourceBudgetError

__all__ = ["PrimeTable", "build_table", "SEGMENT_SIZE", "CHECKPOINT_SPAN"]

SEGMENT_SIZE = 1 << 20      # values sieved per segment
CHECKPOINT_SPAN = 1 << 16   # one cumulative pi checkpoint per this many values

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

_CACHE_MAGIC = b"RPTB"
_CACHE_VERSION = 1


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
            count += int(_POPCOUNT[self._bits[lo_byte:hi_byte]].sum())
        rem = (x + 1) & 7
        if rem:
            count += int(_POPCOUNT[self._bits[hi_byte] & ((1 << rem) - 1)])
        return count

    def nth_prime(self, n: int) -> int:
        """The nth prime, 1-indexed."""
        if n < 1 or n > self.prime_count:
            raise RangeQueryError(
                f"n={n} outside [1, {self.prime_count}] for limit {self.limit}")
        return int(self._all_primes()[n - 1])

    def count_primes_below_ratio(self, num: int, den: int, strict: bool = True) -> int:
        """#{p prime : p < num/den} (strict) or p <= num/den (non-strict).

        All comparisons reduce to integer division; the rational bound is
        never converted to floating point.
        """
        if num < 0 or den < 1:
            raise ValueError("need num >= 0 and den >= 1")
        if num > self.limit * den:
            raise RangeQueryError(
                f"{num}/{den} outside sieved range [0, {self.limit}]")
        if strict:
            # largest integer < num/den is ceil(num/den) - 1
            bound = -((-num) // den) - 1
        else:
            bound = num // den
        if bound < 0:
            return 0
        return self.pi(bound)

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
        """All primes in [lo, hi) as int64, ascending: a read-only view.

        primes_array()[i - 1] is p_i.
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

    # -- binary cache ----------------------------------------------------

    def save(self, path) -> None:
        digest = hashlib.sha256(self._bits.tobytes()).digest()
        with open(path, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack("<IQ", _CACHE_VERSION, self.limit))
            fh.write(digest)
            fh.write(self._bits.tobytes())

    @classmethod
    def load(cls, path) -> "PrimeTable":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _CACHE_MAGIC:
                raise ValueError(f"not a prime table cache: magic {magic!r}")
            version, limit = struct.unpack("<IQ", fh.read(12))
            if version != _CACHE_VERSION:
                raise ValueError(f"unsupported cache version {version}")
            digest = fh.read(32)
            raw = fh.read()
        if hashlib.sha256(raw).digest() != digest:
            raise ValueError("prime table cache checksum mismatch")
        bits = np.frombuffer(raw, dtype=np.uint8)
        expected = ((limit + 1) + 7) >> 3
        if len(bits) != expected:
            raise ValueError("prime table cache truncated")
        return cls(limit, bits, _checkpoints_from_bits(limit, bits))

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit}, prime_count={self.prime_count})"


def _checkpoints_from_bits(limit: int, bits: np.ndarray) -> np.ndarray:
    nblocks = (limit >> 16) + 1
    per_block = np.zeros(nblocks, dtype=np.int64)
    counts = _POPCOUNT[bits]
    for j in range(nblocks):
        lo = j << 13
        hi = min(lo + (CHECKPOINT_SPAN >> 3), len(bits))
        per_block[j] = counts[lo:hi].sum()
    checkpoints = np.zeros(nblocks + 1, dtype=np.int64)
    np.cumsum(per_block, out=checkpoints[1:])
    return checkpoints


def build_table(limit: int, *, segment_size: int = SEGMENT_SIZE,
                memory_budget: int | None = None) -> PrimeTable:
    """Sieve [0, limit] segment by segment and return an immutable table."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    nbytes = ((limit + 1 + 7) >> 3) + 8 * ((limit >> 16) + 2) + segment_size
    if memory_budget is not None and nbytes > memory_budget:
        raise ResourceBudgetError(
            f"table to {limit} needs about {nbytes} bytes, budget is {memory_budget}",
            required=nbytes, cap=memory_budget)

    base = _small_sieve(isqrt(limit))
    bits = np.zeros(((limit + 1) + 7) >> 3, dtype=np.uint8)

    for lo in range(0, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
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

    return PrimeTable(limit, bits, _checkpoints_from_bits(limit, bits))
