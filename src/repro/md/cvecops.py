"""Whole-array complex multiple-double arithmetic on split limb planes.

The paper's complex kernels keep real and imaginary parts in *separate*
arrays so consecutive threads keep touching consecutive memory.  The
functions here give that layout to the arbitrarily shaped limb components
consumed by the tensorized execution backend (:mod:`repro.core.tensor`): every complex
operand is a *pair* of limb-component sequences (``k`` NumPy arrays each,
leading limb first), one for the real plane and one for the imaginary plane.

Each complex ring operation decomposes into real whole-array sweeps of
:mod:`repro.md.vecops` in exactly the order the scalar
:class:`repro.md.ComplexMD` operators use —

* multiply: four real multiplies and one subtraction/one addition
  (``ar*br - ai*bi``, ``ar*bi + ai*br``),
* add/subtract: two real additions/subtractions,
* scale by a real factor: two real scales —

so the vectorised complex stack is bit-compatible with the scalar one (the
test suite asserts this limb by limb).  With ``limbs == 1`` everything
collapses to the plain-double complex formulas, matching Python's own
``complex`` arithmetic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .vecops import md_add_rows, md_div_rows, md_mul_rows, md_scale_rows, md_sub_rows

__all__ = [
    "cmd_add_rows",
    "cmd_sub_rows",
    "cmd_mul_rows",
    "cmd_scale_rows",
    "cmd_div_rows",
    "cmd_reciprocal_rows",
]

#: A complex operand: (real limb components, imaginary limb components).
Planes = Sequence[np.ndarray]


def cmd_add_rows(
    ar: Planes, ai: Planes, br: Planes, bi: Planes, limbs: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Elementwise complex multiple-double sum, plane by plane."""
    return md_add_rows(ar, br, limbs), md_add_rows(ai, bi, limbs)


def cmd_sub_rows(
    ar: Planes, ai: Planes, br: Planes, bi: Planes, limbs: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Elementwise complex multiple-double difference, plane by plane."""
    return md_sub_rows(ar, br, limbs), md_sub_rows(ai, bi, limbs)


def cmd_mul_rows(
    ar: Planes, ai: Planes, br: Planes, bi: Planes, limbs: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Elementwise complex multiple-double product.

    Four real whole-array multiplies feed one renormalised subtraction (real
    part) and one renormalised addition (imaginary part) — the operation
    order of :meth:`repro.md.ComplexMD.__mul__`, so the results agree with
    the scalar path to the last limb.
    """
    real = md_sub_rows(md_mul_rows(ar, br, limbs), md_mul_rows(ai, bi, limbs), limbs)
    imag = md_add_rows(md_mul_rows(ar, bi, limbs), md_mul_rows(ai, br, limbs), limbs)
    return real, imag


def cmd_div_rows(
    ar: Planes, ai: Planes, br: Planes, bi: Planes, limbs: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Elementwise complex multiple-double quotient ``a / b``.

    Replays :meth:`repro.md.ComplexMD.__truediv__` operation for operation —
    multiply the numerator by the conjugate of the denominator (with the
    imaginary plane negated limb by limb, exactly as ``conjugate()`` does),
    divide both planes of the product by ``|b|^2`` — so the result matches
    the scalar complex division to the last limb.  With ``limbs == 1`` this
    is the naive textbook formula; Python's own ``complex`` division uses
    Smith's scaled algorithm instead, so the one-limb complex ring agrees
    only to rounding (the multidouble rings are the bit-exact ones).
    """
    denom = md_add_rows(md_mul_rows(br, br, limbs), md_mul_rows(bi, bi, limbs), limbs)
    conj_bi = [-np.asarray(row, dtype=np.float64) for row in bi]
    num_r = md_sub_rows(
        md_mul_rows(ar, br, limbs), md_mul_rows(ai, conj_bi, limbs), limbs
    )
    num_i = md_add_rows(
        md_mul_rows(ar, conj_bi, limbs), md_mul_rows(ai, br, limbs), limbs
    )
    return md_div_rows(num_r, denom, limbs), md_div_rows(num_i, denom, limbs)


def cmd_reciprocal_rows(
    br: Planes, bi: Planes, limbs: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Elementwise complex multiple-double reciprocal ``1 / b``.

    The scalar series code computes complex reciprocals as
    ``(b/b) / b`` (:func:`repro.series.series._reciprocal`), and for complex
    operands ``b/b`` is *not* guaranteed to be the exact unit (the imaginary
    part is a rounding residue of ``im*re - re*im``).  Both divisions are
    therefore replayed verbatim so the batched solver stays bit-compatible
    with the scalar pivot inversions.
    """
    one_r, one_i = cmd_div_rows(br, bi, br, bi, limbs)
    return cmd_div_rows(one_r, one_i, br, bi, limbs)


def cmd_scale_rows(
    ar: Planes, ai: Planes, factor: np.ndarray, limbs: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Multiply complex values by a plain-double *real* factor array, exactly.

    The integer exponent factors of the schedules' scale jobs are real, so
    the complex scale is two independent real error-free scales.
    """
    return md_scale_rows(ar, factor, limbs), md_scale_rows(ai, factor, limbs)
