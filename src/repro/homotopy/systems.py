"""Systems of polynomials with power-series coefficients.

The motivating application of the paper is the robust path tracker of
PHCpack: Newton's method on power series requires, at every iteration, the
value and the Jacobian of a *system* of polynomials at a vector of series.
:class:`PolynomialSystem` delegates that work to the batched
:class:`repro.core.SystemEvaluator`, which evaluates all equations through
one fused job schedule (shared slot layout, one wide launch per layer) and
memoises the staging in a structure-keyed LRU cache — so the repeated system
constructions of Newton/path-tracking clients pay the staging cost once per
structure, and whole batches of input vectors (many paths, many predictor
points) sweep through the schedule in one pass via :meth:`evaluate_batch`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from fractions import Fraction

from ..circuits.polynomial import Polynomial
from ..circuits.reference import EvaluationResult
from ..core.system import ScheduleCache, SystemEvaluator
from ..errors import StagingError
from ..md.complexmd import ComplexMD
from ..md.multidouble import MultiDouble
from ..series.series import PowerSeries

__all__ = ["PolynomialSystem", "lift_value"]


def lift_value(value, limbs: int):
    """Promote one coefficient to a multiple double with ``limbs`` limbs.

    The precision-escalation retry of the many-path scheduler re-runs failed
    paths with every number widened: plain reals/complexes become
    multiple-double values by exact zero extension, existing multiple doubles
    pad (exact, when ``limbs`` does not shrink them), and exact
    :class:`~fractions.Fraction` coefficients stay exact — they already carry
    unlimited precision, so lifting them would only lose it.
    """
    if isinstance(value, MultiDouble):
        return value.to_precision(limbs)
    if isinstance(value, ComplexMD):
        return value.to_precision(limbs)
    if isinstance(value, complex):
        return ComplexMD.from_complex(value, limbs)
    if isinstance(value, Fraction):
        return value
    return MultiDouble.from_float(float(value), limbs)


class PolynomialSystem:
    """A square (or rectangular) system of polynomials in ``dimension`` variables.

    Parameters
    ----------
    polynomials:
        The equations; all must share dimension and truncation degree.
    mode:
        Execution mode of the underlying :class:`repro.core.SystemEvaluator`
        (``"reference"``, ``"staged"`` or the tensorized ``"vectorized"``
        backend, which sweeps whole fused layers as NumPy multidouble calls —
        real or complex, over paired limb planes — and falls back to
        ``"staged"`` only for exact fraction rings).
    cache:
        Forwarded to the system evaluator (the default schedule cache is
        process-wide).
    """

    def __init__(
        self,
        polynomials: Sequence[Polynomial],
        mode: str = "staged",
        cache: ScheduleCache | None = None,
    ):
        polynomials = list(polynomials)
        if not polynomials:
            raise StagingError("a system needs at least one polynomial")
        self.evaluator = SystemEvaluator(polynomials, mode=mode, cache=cache)
        self.polynomials = polynomials
        self.dimension = self.evaluator.dimension
        self.degree = self.evaluator.degree
        self.mode = mode

    # ------------------------------------------------------------------ #
    @property
    def n_equations(self) -> int:
        return len(self.polynomials)

    @property
    def is_square(self) -> bool:
        return self.n_equations == self.dimension

    def evaluate(self, z: Sequence[PowerSeries]) -> list[EvaluationResult]:
        """Value and gradient of every equation at ``z`` (one fused pass)."""
        return self.evaluator.evaluate(z)

    def evaluate_batch(
        self, zs: Sequence[Sequence[PowerSeries]]
    ) -> list[list[EvaluationResult]]:
        """Evaluate the system at ``B`` input vectors in one batched sweep."""
        return self.evaluator.evaluate_batch(zs)

    def make_context(self, batch: int, buffer=None):
        """A resident :class:`repro.core.EvalContext` for repeated sweeps.

        Newton and the path tracker hold one context across all their
        iterations/steps: the fused slot tensor is packed once, later sweeps
        update only the input slots in place, and outputs are unpacked on
        demand.  ``buffer`` optionally places the packed limb tensor in a
        caller-provided writable buffer (a shared-memory segment for the
        process-sharded runner).  See
        :meth:`repro.core.SystemEvaluator.make_context`.
        """
        return self.evaluator.make_context(batch, buffer=buffer)

    def residual(self, z: Sequence[PowerSeries]) -> list[PowerSeries]:
        """The vector ``F(z)`` only."""
        return [result.value for result in self.evaluate(z)]

    def jacobian(self, results: Sequence[EvaluationResult]) -> list[list[PowerSeries]]:
        """Assemble the Jacobian matrix from per-equation results."""
        return [list(result.gradient) for result in results]

    def job_summary(self) -> dict:
        """Statistics of the fused schedule (launches, jobs, slots)."""
        return self.evaluator.job_summary()

    def cache_stats(self) -> dict:
        """Hit/miss accounting of the schedule cache behind this system."""
        return self.evaluator.cache_stats()

    def with_mode(self, mode: str | None) -> "PolynomialSystem":
        """This system re-targeted at another execution mode.

        Shares the polynomials and the schedule cache, so the
        switch costs one cache hit — this is what lets Newton and the path
        tracker steer structurally identical systems onto the vectorized
        backend without restaging anything.  ``None`` or the current mode
        return ``self``.
        """
        if mode is None or mode == self.mode:
            return self
        return PolynomialSystem(self.polynomials, mode=mode, cache=self.evaluator.cache)

    def with_precision(self, limbs: int, mode: str | None = None) -> "PolynomialSystem":
        """This system with every coefficient lifted to ``limbs`` limbs.

        The lift goes through :func:`lift_value`, so it is exact whenever it
        widens.  The polynomial *structure* is unchanged, which means the
        lifted system hits the same memoised schedules (and compiled tensor
        programs) as the original — precision escalation restages nothing.
        """
        return self.map(
            lambda p: p.map_coefficients(
                lambda series: series.map(lambda c: lift_value(c, limbs))
            ),
            mode=mode,
        )

    def map(
        self, func: Callable[[Polynomial], Polynomial], mode: str | None = None
    ) -> "PolynomialSystem":
        """Apply a transformation to every equation (e.g. precision change).

        The transformed system inherits this system's execution configuration
        (mode, schedule cache) unless ``mode`` overrides it.
        """
        return PolynomialSystem(
            [func(p) for p in self.polynomials],
            mode=mode if mode is not None else self.mode,
            cache=self.evaluator.cache,
        )

    def __len__(self) -> int:
        return self.n_equations

    def __getitem__(self, index: int) -> Polynomial:
        return self.polynomials[index]

    def __repr__(self) -> str:
        return f"PolynomialSystem(equations={self.n_equations}, n={self.dimension}, d={self.degree})"
