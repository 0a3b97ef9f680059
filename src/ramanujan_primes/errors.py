"""Exception types shared across the package."""

from __future__ import annotations


class RangeQueryError(ValueError):
    """A table query (pi, pi_array, nth_prime, ...) fell outside its range.

    Raised instead of extrapolating: answers outside the table would not be
    certified and must never be guessed.
    """


class ResourceBudgetError(RuntimeError):
    """A computation would exceed the configured sieve budget.

    Raised where the cap is crossed, before anything past it is sieved.

    Attributes:
        required: the limit or prime index that would have been needed.
        cap: the configured ceiling that blocked it.
    """

    def __init__(self, message: str, *, required: int | None = None,
                 cap: int | None = None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class ThresholdDomainError(ValueError):
    """An analytic estimate was evaluated below its certified validity range."""
