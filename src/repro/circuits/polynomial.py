"""Polynomials in several variables with power-series coefficients.

A :class:`Polynomial` is the object of equation (3) in the paper::

    p(x_1, ..., x_n) = a_0 + sum_{k=1..N} a_k * x_{i1} * x_{i2} * ... * x_{i nk}

where every coefficient ``a_k`` (including the constant ``a_0``) is a power
series truncated at the common degree ``d``, and each monomial is described by
its support ``(i1 < i2 < ... < i nk)`` (general exponents are supported and
reduced to this multilinear form by the common-factor trick).

The class is purely structural: evaluation lives in
:mod:`repro.circuits.reference` (sequential oracle) and in
:mod:`repro.core.system` (the staged, data-parallel algorithm of the paper).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import StagingError
from ..series.series import PowerSeries
from .monomial import Monomial

__all__ = ["Polynomial"]


class Polynomial:
    """A polynomial in ``dimension`` variables with power-series coefficients."""

    __slots__ = ("dimension", "constant", "monomials")

    def __init__(self, dimension: int, constant: PowerSeries, monomials: Iterable[Monomial]):
        if dimension < 1:
            raise StagingError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.constant = constant
        self.monomials = list(monomials)
        self._validate()

    def _validate(self) -> None:
        degree = self.constant.degree
        for k, monomial in enumerate(self.monomials, start=1):
            if monomial.coefficient.degree != degree:
                raise StagingError(
                    f"monomial {k} has coefficient degree {monomial.coefficient.degree}, "
                    f"expected {degree}"
                )
            if monomial.support and monomial.support[-1] >= self.dimension:
                raise StagingError(
                    f"monomial {k} uses variable {monomial.support[-1]} "
                    f"but the polynomial has only {self.dimension} variables"
                )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_supports(
        cls,
        dimension: int,
        constant: PowerSeries,
        supports: Sequence[Sequence[int]],
        coefficients: Sequence[PowerSeries],
    ) -> "Polynomial":
        """Build a multilinear polynomial from supports and coefficients."""
        if len(supports) != len(coefficients):
            raise StagingError("supports and coefficients must have the same length")
        monomials = [
            Monomial.make(coefficient, support)
            for support, coefficient in zip(supports, coefficients)
        ]
        return cls(dimension, constant, monomials)

    # ------------------------------------------------------------------ #
    # structure (Table 2 quantities)
    # ------------------------------------------------------------------ #
    @property
    def n_monomials(self) -> int:
        """``N`` — the number of monomials, not counting the constant term."""
        return len(self.monomials)

    @property
    def series_degree(self) -> int:
        """The truncation degree ``d`` of every coefficient series."""
        return self.constant.degree

    @property
    def max_variables_per_monomial(self) -> int:
        """``m`` — the largest number of distinct variables in one monomial."""
        if not self.monomials:
            return 0
        return max(monomial.n_variables for monomial in self.monomials)

    @property
    def is_multilinear(self) -> bool:
        """True when every monomial has all exponents equal to one."""
        return all(monomial.is_multilinear for monomial in self.monomials)

    def supports(self) -> list[tuple[int, ...]]:
        """The list of variable-index tuples, one per monomial."""
        return [monomial.support for monomial in self.monomials]

    def structure_key(self) -> tuple:
        """A hashable key identifying the staging-relevant structure.

        Two polynomials with the same dimension, truncation degree and
        monomial exponent patterns produce identical job schedules regardless
        of their coefficient values, so this key is what the schedule caches
        index on.
        """
        return (
            self.dimension,
            self.series_degree,
            tuple(monomial.exponents for monomial in self.monomials),
        )

    def variables_used(self) -> set[int]:
        """The set of variable indices appearing in at least one monomial."""
        used: set[int] = set()
        for monomial in self.monomials:
            used.update(monomial.support)
        return used

    def monomials_per_variable(self) -> dict[int, int]:
        """How many monomials contain each variable (drives the addition tree)."""
        counts = {v: 0 for v in range(self.dimension)}
        for monomial in self.monomials:
            for v in monomial.support:
                counts[v] += 1
        return counts

    def convolution_job_count(self) -> int:
        """Total number of convolution jobs of the first stage (Table 2)."""
        return sum(monomial.convolution_job_count() for monomial in self.monomials)

    def addition_job_count(self) -> int:
        """Total number of addition jobs of the second stage (Table 2).

        The value of ``p`` needs ``N`` additions (one per monomial, the
        constant term folded in), and the derivative with respect to variable
        ``v`` needs ``count(v) - 1`` additions, where ``count(v)`` is the
        number of monomials containing ``v``.
        """
        total = self.n_monomials
        for count in self.monomials_per_variable().values():
            if count > 1:
                total += count - 1
        return total

    def summary(self) -> dict[str, int]:
        """The row of Table 2 for this polynomial."""
        return {
            "n": self.dimension,
            "m": self.max_variables_per_monomial,
            "N": self.n_monomials,
            "convolutions": self.convolution_job_count(),
            "additions": self.addition_job_count(),
        }

    # ------------------------------------------------------------------ #
    def map_coefficients(self, func) -> "Polynomial":
        """Apply ``func`` to every coefficient series (e.g. precision change)."""
        return Polynomial(
            self.dimension,
            func(self.constant),
            [Monomial(func(m.coefficient), m.exponents) for m in self.monomials],
        )

    def __repr__(self) -> str:
        return (
            f"Polynomial(n={self.dimension}, N={self.n_monomials}, "
            f"m={self.max_variables_per_monomial}, d={self.series_degree})"
        )

    def __str__(self) -> str:
        if not self.monomials:
            return "a0"
        terms = ["a0"] + [f"a{k}*{m}" for k, m in enumerate(self.monomials, start=1)]
        return " + ".join(terms)
