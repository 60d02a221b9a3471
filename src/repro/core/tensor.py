"""Tensorized execution backend: whole-layer NumPy sweeps over fused schedules.

The staged executors of :mod:`repro.core.system` restore the paper's launch
*width* — one fused layer carries the jobs of every equation and every batch
instance — but still execute that width as a Python-level loop over
:class:`repro.series.PowerSeries` objects, one job at a time.  This module
turns the width into actual SIMD work, the host-side analogue of "one kernel
launch per layer" with the paper's structure-of-arrays data layout:

* :class:`SlotTensor` packs the fused slot array of a whole batch into one
  contiguous limb tensor of shape ``(limbs, total_slots x batch, degree+1)``
  — row ``b * total_slots + s`` holds the coefficients of slot ``s`` of
  instance ``b``, one NumPy plane per limb — with gather/scatter back to
  :class:`repro.series.PowerSeries` coefficients (floats or
  :class:`repro.md.MultiDouble`);
* :func:`compile_tensor_program` compiles a
  :class:`repro.core.FusedSystemSchedule` once per structure into a
  :class:`TensorProgram`: per fused layer, the job tuples are transposed
  into NumPy index arrays (inputs, outputs, scale factors), so nothing is
  interpreted per job at execution time;
* :meth:`TensorProgram.run` executes each fused layer as a handful of
  whole-layer NumPy calls: a batched truncated convolution
  (:func:`convolve_rows`, the many-triples generalisation of
  :func:`repro.series.convolve_vectorized`), one vectorised scale pass, and
  one renormalised addition per tree level — all built on
  :func:`repro.md.veft.vec_two_prod` / :func:`repro.md.vrenorm.vec_renormalize`
  through :mod:`repro.md.vecops`.

The backend is registered as the fifth execution mode (``"vectorized"``) of
:class:`repro.core.SystemEvaluator`.  It covers every ring the vectorised
multiple-double stack supports — plain doubles, :class:`MultiDouble` of any
limb count, Python complexes and :class:`repro.md.ComplexMD`.  Complex data
lives in a :class:`ComplexSlotTensor` holding *paired* real and imaginary
limb planes (the split layout of :class:`repro.md.ComplexMDArray`), and the
complex layer sweeps decompose into real sweeps through
:mod:`repro.md.cvecops` in the exact operation order of the scalar
:class:`repro.md.ComplexMD` — so the PHCpack-style unit-circle workloads of
the paper run on the fast path bit-compatibly with the staged oracle.
Evaluators fall back to the staged path only for exact fractions, which keep
their oracle role.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..md.complexmd import ComplexMD
from ..md.cvecops import cmd_add_rows, cmd_mul_rows, cmd_scale_rows
from ..md.multidouble import MultiDouble
from ..md.vecops import md_add_rows, md_mul_rows, md_scale_rows
from ..series.series import PowerSeries
from .system import FusedSystemSchedule

__all__ = [
    "SlotTensor",
    "ComplexSlotTensor",
    "TensorLayer",
    "TensorProgram",
    "adopt_buffer",
    "collapse_limbs",
    "compile_tensor_program",
    "convolve_rows",
    "convolve_rows_complex",
    "infer_ring",
    "join_rings",
    "make_tensor",
    "max_magnitudes",
    "tensor_nbytes",
]

#: Coefficient types the backend packs losslessly into limb planes.
_REAL_SCALARS = (int, float, np.floating, np.integer)
#: Plain complex scalars (one limb per plane).
_COMPLEX_SCALARS = (complex, np.complexfloating)


# --------------------------------------------------------------------- #
# ring inference
# --------------------------------------------------------------------- #
def infer_ring(series_iter: Iterable[PowerSeries]) -> tuple[str, int] | None:
    """Detect the coefficient ring of a collection of series.

    Returns a ``(kind, limbs)`` pair, where ``kind`` is one of the four
    corners of the ring lattice the backend packs losslessly —

    * ``"float"`` — real scalars only (one limb);
    * ``"md"`` — some :class:`repro.md.MultiDouble` (``limbs`` is the
      largest precision seen; plain doubles promote exactly);
    * ``"complex"`` — some plain complex, no multiple doubles;
    * ``"cmd"`` — some :class:`repro.md.ComplexMD` (or complexes mixed with
      multiple doubles)

    — and ``None`` for any ring the tensor backend cannot carry (exact
    fractions); the caller then falls back to the staged object path.
    """
    kind = "float"
    limbs = 1
    for series in series_iter:
        for c in series.coefficients:
            if isinstance(c, MultiDouble):
                kind = _join_kinds(kind, "md")
                limbs = max(limbs, c.precision.limbs)
            elif isinstance(c, ComplexMD):
                kind = "cmd"
                limbs = max(limbs, c.precision.limbs)
            elif isinstance(c, _COMPLEX_SCALARS):
                kind = _join_kinds(kind, "complex")
            elif isinstance(c, (int, np.integer)):
                # Exact integers ride along only while a double carries them
                # exactly; beyond 53 bits the staged object path keeps them
                # exact and the tensor would not.
                if not _int_fits_double(c):
                    return None
            elif not isinstance(c, _REAL_SCALARS):
                return None
    return kind, limbs


def _int_fits_double(value) -> bool:
    """True when an exact integer survives the round trip through a double."""
    try:
        return float(value) == value
    except OverflowError:
        return False


def _join_kinds(a: str, b: str) -> str:
    """Least upper bound of two ring kinds (float < md, float < complex < cmd)."""
    kinds = {a, b}
    is_complex = bool(kinds & {"complex", "cmd"})
    is_md = bool(kinds & {"md", "cmd"})
    if is_complex:
        return "cmd" if is_md else "complex"
    return "md" if is_md else "float"


def join_rings(a: tuple[str, int], b: tuple[str, int]) -> tuple[str, int]:
    """The smallest ring that carries both operand rings losslessly.

    Plain doubles/complexes promote into multiple-double planes by zero
    extension and real values into complex tensors with a zero imaginary
    plane, so the join never rounds anything.
    """
    return _join_kinds(a[0], b[0]), max(a[1], b[1])


# --------------------------------------------------------------------- #
# limb decomposition helpers (shared by the real and complex tensors)
# --------------------------------------------------------------------- #
def _limb_tuple(value, limbs: int) -> tuple[float, ...]:
    """A real scalar or :class:`MultiDouble` as exactly ``limbs`` doubles.

    Values with fewer limbs are zero-extended (exact), values with more are
    renormalised down — the same promotion rule :meth:`SlotTensor.pack`
    applies.  Exact integers are refused when a double cannot carry them
    (the evaluator routes such rings to the staged fallback via
    :func:`infer_ring` before any packing; this raise is the backstop for
    direct callers).
    """
    if isinstance(value, MultiDouble):
        parts = value.limbs
        if len(parts) > limbs:
            parts = value.to_precision(limbs).limbs
        return parts + (0.0,) * (limbs - len(parts))
    if isinstance(value, (int, np.integer)) and not _int_fits_double(value):
        raise TypeError(
            f"integer {value!r} is not exactly representable as a double limb"
        )
    if isinstance(value, _REAL_SCALARS):
        return (float(value),) + (0.0,) * (limbs - 1)
    raise TypeError(
        f"cannot represent {type(value).__name__} as real multiple-double limbs"
    )


def _complex_parts(value):
    """Split one coefficient into (real, imag) components.

    Real scalars and :class:`MultiDouble` values get an exact zero imaginary
    part; anything outside the supported lattice raises ``TypeError``.
    """
    if isinstance(value, ComplexMD):
        return value.real, value.imag
    if isinstance(value, _COMPLEX_SCALARS):
        return float(value.real), float(value.imag)
    if isinstance(value, (MultiDouble,) + _REAL_SCALARS):
        return value, 0.0
    raise TypeError(
        f"cannot pack {type(value).__name__} coefficients into a ComplexSlotTensor"
    )


def _series_block(series: PowerSeries, limbs: int) -> np.ndarray:
    """One real series as a ``(limbs, degree+1)`` limb block."""
    return np.asarray(
        [_limb_tuple(c, limbs) for c in series.coefficients], dtype=np.float64
    ).T


# --------------------------------------------------------------------- #
# shared-buffer residence (process sharding)
# --------------------------------------------------------------------- #
def tensor_nbytes(kind: str, limbs: int, rows: int, width: int) -> int:
    """Bytes one packed slot tensor of the given ring and shape occupies.

    This is how the sharded fleet runner sizes a
    :class:`multiprocessing.shared_memory` segment *before* any worker has
    packed anything: the shape follows from the fused layout (``rows =
    batch x total_slots``, ``width = degree + 1``) and the ring from
    :func:`infer_ring`, so the parent can allocate and the worker adopt with
    :meth:`SlotTensor.from_buffer` / :meth:`ComplexSlotTensor.from_buffer` —
    complex rings carry two limb-plane blocks (real, then imaginary).
    """
    planes = 2 if kind in ("complex", "cmd") else 1
    return planes * limbs * rows * width * 8


def adopt_buffer(buffer, spec: dict) -> "SlotTensor | ComplexSlotTensor":
    """Adopt a packed tensor living in ``buffer`` as a zero-copy view.

    ``spec`` is the dict :meth:`SlotTensor.export_buffer` /
    :meth:`ComplexSlotTensor.export_buffer` returned — ``ring``, ``limbs``,
    ``rows`` and ``width`` — so a worker process (or the parent, reading a
    worker's live tensor) reconstructs the exact tensor without copying or
    repacking a single limb.
    """
    cls = ComplexSlotTensor if spec["ring"] in ("complex", "cmd") else SlotTensor
    return cls.from_buffer(
        buffer,
        limbs=spec["limbs"],
        rows=spec["rows"],
        width=spec["width"],
        ring=spec["ring"],
    )


# --------------------------------------------------------------------- #
# the packed slot tensor
# --------------------------------------------------------------------- #
class SlotTensor:
    """The fused slot array of a whole batch as one limb tensor.

    ``data[i, r, k]`` is limb ``i`` of coefficient ``k`` of slot row ``r``;
    with batch stride ``total_slots``, row ``b * total_slots + s`` is slot
    ``s`` of instance ``b`` — the same flat layout the staged sweep uses,
    transposed into the paper's one-array-per-limb memory shape.
    """

    __slots__ = ("data", "ring")

    #: Real tensor: one set of limb planes (see :class:`ComplexSlotTensor`).
    is_complex = False

    def __init__(self, data: np.ndarray, ring: str = "md"):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 3:
            raise ValueError(
                f"SlotTensor expects a (limbs, rows, degree+1) array, got shape {data.shape}"
            )
        if ring not in ("float", "md"):
            raise ValueError(f"unknown ring {ring!r}; choose 'float' or 'md'")
        self.data = data
        self.ring = ring

    # ------------------------------------------------------------------ #
    @property
    def limbs(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        """Coefficients per series row (``degree + 1``)."""
        return self.data.shape[2]

    @property
    def degree(self) -> int:
        return self.width - 1

    def copy(self) -> "SlotTensor":
        return SlotTensor(self.data.copy(), self.ring)

    # ------------------------------------------------------------------ #
    # shared-buffer residence
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Bytes the limb planes occupy (what :meth:`export_buffer` needs)."""
        return self.data.nbytes

    def buffer_spec(self) -> dict:
        """The adoption recipe of this tensor (see :func:`adopt_buffer`)."""
        return {
            "ring": self.ring,
            "limbs": self.limbs,
            "rows": self.rows,
            "width": self.width,
        }

    def export_buffer(self, buffer) -> dict:
        """Move the limb planes into ``buffer`` and return the adoption spec.

        ``buffer`` is any writable buffer (typically the ``buf`` of a
        :class:`multiprocessing.shared_memory.SharedMemory` segment) of at
        least :attr:`nbytes` bytes.  One ``memcpy`` — not a repack: the
        packed representation crosses the process boundary bit for bit, and
        :meth:`from_buffer` on the other side is a zero-copy view.
        """
        out = np.ndarray(self.data.shape, dtype=np.float64, buffer=buffer)
        np.copyto(out, self.data)
        return self.buffer_spec()

    @classmethod
    def from_buffer(
        cls, buffer, limbs: int, rows: int, width: int, ring: str = "md"
    ) -> "SlotTensor":
        """Adopt a packed tensor from a (shared) buffer, zero copy.

        The returned tensor's ``data`` is a view into ``buffer``: in-place
        updates (:meth:`write_series`, :meth:`zero_rows`, program sweeps) are
        visible to every process holding the same segment, which is what
        makes a sharded fleet's residency *shared* instead of per-process.
        """
        data = np.ndarray((limbs, rows, width), dtype=np.float64, buffer=buffer)
        return cls(data, ring)

    # ------------------------------------------------------------------ #
    # gather: series -> tensor rows
    # ------------------------------------------------------------------ #
    @classmethod
    def pack(
        cls, slots: Sequence[PowerSeries], limbs: int, ring: str = "md"
    ) -> "SlotTensor":
        """Pack a flat slot array of series into one limb tensor.

        Every coefficient must be a real scalar or a :class:`MultiDouble`;
        values with fewer limbs than the tensor are zero-extended (exact),
        values with more limbs are renormalised down.
        """
        if not slots:
            raise ValueError("cannot pack an empty slot array")
        width = slots[0].degree + 1
        for r, series in enumerate(slots):
            if series.degree + 1 != width:
                raise ValueError(
                    f"slot {r} has degree {series.degree}, expected {width - 1}"
                )
        data = cls._pack_uniform(slots, limbs, width, ring)
        if data is None:
            data = np.zeros((limbs, len(slots), width), dtype=np.float64)
            for r, series in enumerate(slots):
                for k, c in enumerate(series.coefficients):
                    if isinstance(c, MultiDouble):
                        parts = c.limbs
                        if len(parts) > limbs:
                            parts = c.to_precision(limbs).limbs
                        data[: len(parts), r, k] = parts
                    else:
                        # _limb_tuple rejects anything a double limb cannot
                        # carry exactly (fractions, oversized exact ints).
                        data[0, r, k] = _limb_tuple(c, 1)[0]
        return cls(data, ring)

    @staticmethod
    def _pack_uniform(slots, limbs: int, width: int, ring: str) -> np.ndarray | None:
        """Fast path: every coefficient shares one representation.

        Slot arrays of one precision pack through a single nested
        comprehension + transpose instead of a per-coefficient Python loop;
        odd inputs (mismatched limb counts, unsupported coefficients) return
        ``None`` and take the general loop.  The dispatch follows the
        declared ``ring``, never a sampled coefficient, and the md path
        zero-extends real scalars explicitly (exact) rather than let
        ``MultiDouble.__float__`` silently round limbs away — a float-ring
        system evaluated at md inputs (a supported mix) stays on the fast
        path instead of failing over.
        """
        tail = (0.0,) * (limbs - 1)

        def limb_row(c):
            if isinstance(c, MultiDouble):
                return c.limbs
            if isinstance(c, (int, np.integer)) and not _int_fits_double(c):
                raise TypeError(type(c).__name__)
            if isinstance(c, _REAL_SCALARS):
                return (float(c),) + tail
            # Fractions etc. would survive float() only by rounding; punt to
            # the general loop, which raises the proper TypeError.
            raise TypeError(type(c).__name__)

        try:
            if ring == "md":
                nested = [
                    [limb_row(c) for c in s.coefficients] for s in slots
                ]
                block = np.asarray(nested, dtype=np.float64)  # (rows, width, k)
                if block.shape != (len(slots), width, limbs):
                    return None
                return np.ascontiguousarray(block.transpose(2, 0, 1))
            rows = [s.coefficients for s in slots]
            if any(
                not isinstance(c, _REAL_SCALARS)
                or (isinstance(c, (int, np.integer)) and not _int_fits_double(c))
                for row in rows
                for c in row
            ):
                # np.asarray would lossily coerce anything with __float__
                # (Fraction, multi-limb MultiDouble, 54-bit ints); punt
                # instead.
                raise TypeError("non-exact coefficient in float-ring pack")
            block = np.asarray(rows, dtype=np.float64)  # (rows, width)
            if block.shape != (len(slots), width):
                return None
            data = np.zeros((limbs, len(slots), width), dtype=np.float64)
            data[0] = block
            return data
        except (AttributeError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------ #
    # scatter: tensor rows -> series
    # ------------------------------------------------------------------ #
    def zero_series(self) -> PowerSeries:
        """A zero series in this tensor's coefficient ring."""
        if self.ring == "float":
            return PowerSeries([0.0] * self.width)
        zero = MultiDouble.zero(self.limbs)
        return PowerSeries([zero] * self.width)

    def series_at(self, row: int) -> PowerSeries:
        """Scatter one tensor row back into a :class:`PowerSeries`."""
        if self.ring == "float":
            return PowerSeries([float(v) for v in self.data[0, row, :]])
        block = self.data[:, row, :]
        return PowerSeries(
            [
                MultiDouble(tuple(block[:, k]), self.limbs)
                for k in range(self.width)
            ]
        )

    def to_slots(self) -> list[PowerSeries]:
        """Scatter the whole tensor back into a flat slot array of series."""
        return [self.series_at(r) for r in range(self.rows)]

    # ------------------------------------------------------------------ #
    # resident updates (gather/scatter without repacking)
    # ------------------------------------------------------------------ #
    def write_series(self, rows: np.ndarray | Sequence[int], series: PowerSeries) -> None:
        """Write one series into every listed row, in place.

        This is the residency primitive: a resident evaluation context
        updates only the input rows that changed instead of repacking the
        whole slot array, so repeated Newton sweeps pay one
        :meth:`pack` total.
        """
        self.data[:, rows, :] = _series_block(series, self.limbs)[:, None, :]

    def zero_rows(self, rows: np.ndarray | Sequence[int]) -> None:
        """Reset the listed rows to exact zero (the product region between runs)."""
        self.data[:, rows, :] = 0.0


# --------------------------------------------------------------------- #
# the complex packed slot tensor
# --------------------------------------------------------------------- #
class ComplexSlotTensor:
    """The fused slot array of a whole batch as *paired* limb tensors.

    The complex analogue of :class:`SlotTensor`: real and imaginary parts
    live in two separate ``(limbs, rows, degree+1)`` limb tensors — the
    split storage of :class:`repro.md.ComplexMDArray`, which is also the
    paper's coalesced complex memory layout — with the same row convention
    (row ``b * total_slots + s`` is slot ``s`` of instance ``b``).

    ``ring`` is ``"cmd"`` (complex multiple doubles, scattered back to
    :class:`repro.md.ComplexMD`) or ``"complex"`` (one limb per plane,
    scattered back to plain Python complexes).
    """

    __slots__ = ("real", "imag", "ring")

    is_complex = True

    def __init__(self, real: np.ndarray, imag: np.ndarray, ring: str = "cmd"):
        real = np.ascontiguousarray(real, dtype=np.float64)
        imag = np.ascontiguousarray(imag, dtype=np.float64)
        if real.ndim != 3 or real.shape != imag.shape:
            raise ValueError(
                "ComplexSlotTensor expects two (limbs, rows, degree+1) arrays of "
                f"one shape, got {real.shape} and {imag.shape}"
            )
        if ring not in ("complex", "cmd"):
            raise ValueError(f"unknown ring {ring!r}; choose 'complex' or 'cmd'")
        self.real = real
        self.imag = imag
        self.ring = ring

    # ------------------------------------------------------------------ #
    @property
    def limbs(self) -> int:
        return self.real.shape[0]

    @property
    def rows(self) -> int:
        return self.real.shape[1]

    @property
    def width(self) -> int:
        """Coefficients per series row (``degree + 1``)."""
        return self.real.shape[2]

    @property
    def degree(self) -> int:
        return self.width - 1

    def copy(self) -> "ComplexSlotTensor":
        return ComplexSlotTensor(self.real.copy(), self.imag.copy(), self.ring)

    # ------------------------------------------------------------------ #
    # shared-buffer residence
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Bytes both limb-plane blocks occupy (real block, then imaginary)."""
        return self.real.nbytes + self.imag.nbytes

    def buffer_spec(self) -> dict:
        """The adoption recipe of this tensor (see :func:`adopt_buffer`)."""
        return {
            "ring": self.ring,
            "limbs": self.limbs,
            "rows": self.rows,
            "width": self.width,
        }

    def export_buffer(self, buffer) -> dict:
        """Move both limb-plane blocks into ``buffer``; return the spec.

        The layout is the real block followed by the imaginary block, the
        contract :meth:`from_buffer` adopts — one ``memcpy`` per plane, no
        repacking across the process boundary.
        """
        shape = self.real.shape
        real = np.ndarray(shape, dtype=np.float64, buffer=buffer)
        imag = np.ndarray(shape, dtype=np.float64, buffer=buffer, offset=self.real.nbytes)
        np.copyto(real, self.real)
        np.copyto(imag, self.imag)
        return self.buffer_spec()

    @classmethod
    def from_buffer(
        cls, buffer, limbs: int, rows: int, width: int, ring: str = "cmd"
    ) -> "ComplexSlotTensor":
        """Adopt paired limb planes from a (shared) buffer, zero copy."""
        shape = (limbs, rows, width)
        offset = limbs * rows * width * 8
        real = np.ndarray(shape, dtype=np.float64, buffer=buffer)
        imag = np.ndarray(shape, dtype=np.float64, buffer=buffer, offset=offset)
        return cls(real, imag, ring)

    # ------------------------------------------------------------------ #
    # gather: series -> tensor rows
    # ------------------------------------------------------------------ #
    @classmethod
    def pack(
        cls, slots: Sequence[PowerSeries], limbs: int, ring: str = "cmd"
    ) -> "ComplexSlotTensor":
        """Pack a flat slot array of series into paired limb tensors.

        Coefficients may be :class:`repro.md.ComplexMD`, plain complexes,
        real scalars or :class:`MultiDouble` values (real data gets an exact
        zero imaginary plane); limb promotion follows the
        :meth:`SlotTensor.pack` rules, applied per plane.
        """
        if not slots:
            raise ValueError("cannot pack an empty slot array")
        width = slots[0].degree + 1
        for r, series in enumerate(slots):
            if series.degree + 1 != width:
                raise ValueError(
                    f"slot {r} has degree {series.degree}, expected {width - 1}"
                )
        planes = cls._pack_uniform(slots, limbs, width)
        if planes is not None:
            real, imag = planes
        else:
            real = np.zeros((limbs, len(slots), width), dtype=np.float64)
            imag = np.zeros((limbs, len(slots), width), dtype=np.float64)
            for r, series in enumerate(slots):
                for k, c in enumerate(series.coefficients):
                    re, im = _complex_parts(c)
                    real[:, r, k] = _limb_tuple(re, limbs)
                    imag[:, r, k] = _limb_tuple(im, limbs)
        return cls(real, imag, ring)

    @staticmethod
    def _pack_uniform(slots, limbs: int, width: int):
        """Fast path: one nested comprehension per plane instead of a
        per-coefficient loop (see :meth:`SlotTensor._pack_uniform`)."""
        try:
            pairs = [
                [
                    tuple(_limb_tuple(part, limbs) for part in _complex_parts(c))
                    for c in s.coefficients
                ]
                for s in slots
            ]
        except (AttributeError, TypeError, ValueError):
            return None
        block = np.asarray(pairs, dtype=np.float64)  # (rows, width, 2, limbs)
        if block.shape != (len(slots), width, 2, limbs):
            return None
        block = block.transpose(2, 3, 0, 1)  # (2, limbs, rows, width)
        return np.ascontiguousarray(block[0]), np.ascontiguousarray(block[1])

    # ------------------------------------------------------------------ #
    # scatter: tensor rows -> series
    # ------------------------------------------------------------------ #
    def zero_series(self) -> PowerSeries:
        """A zero series in this tensor's coefficient ring."""
        if self.ring == "complex":
            return PowerSeries([0j] * self.width)
        zero = ComplexMD(MultiDouble.zero(self.limbs), MultiDouble.zero(self.limbs))
        return PowerSeries([zero] * self.width)

    def series_at(self, row: int) -> PowerSeries:
        """Scatter one tensor row back into a :class:`PowerSeries`."""
        if self.ring == "complex":
            return PowerSeries(
                [
                    complex(self.real[0, row, k], self.imag[0, row, k])
                    for k in range(self.width)
                ]
            )
        re = self.real[:, row, :]
        im = self.imag[:, row, :]
        return PowerSeries(
            [
                ComplexMD(
                    MultiDouble(tuple(re[:, k]), self.limbs),
                    MultiDouble(tuple(im[:, k]), self.limbs),
                )
                for k in range(self.width)
            ]
        )

    def to_slots(self) -> list[PowerSeries]:
        """Scatter the whole tensor back into a flat slot array of series."""
        return [self.series_at(r) for r in range(self.rows)]

    # ------------------------------------------------------------------ #
    # resident updates (gather/scatter without repacking)
    # ------------------------------------------------------------------ #
    def write_series(self, rows: np.ndarray | Sequence[int], series: PowerSeries) -> None:
        """Write one series into every listed row of both planes, in place."""
        parts = [_complex_parts(c) for c in series.coefficients]
        real = np.asarray(
            [_limb_tuple(re, self.limbs) for re, _ in parts], dtype=np.float64
        ).T
        imag = np.asarray(
            [_limb_tuple(im, self.limbs) for _, im in parts], dtype=np.float64
        ).T
        self.real[:, rows, :] = real[:, None, :]
        self.imag[:, rows, :] = imag[:, None, :]

    def zero_rows(self, rows: np.ndarray | Sequence[int]) -> None:
        """Reset the listed rows to exact zero in both planes."""
        self.real[:, rows, :] = 0.0
        self.imag[:, rows, :] = 0.0


def make_tensor(
    slots: Sequence[PowerSeries], kind: str, limbs: int
) -> "SlotTensor | ComplexSlotTensor":
    """Pack a slot array into the tensor variant matching a ring ``kind``.

    ``kind`` is one of the lattice corners :func:`infer_ring` reports:
    ``"float"``/``"md"`` produce a :class:`SlotTensor`, ``"complex"``/
    ``"cmd"`` a :class:`ComplexSlotTensor`.
    """
    if kind in ("complex", "cmd"):
        return ComplexSlotTensor.pack(slots, limbs=limbs, ring=kind)
    return SlotTensor.pack(slots, limbs=limbs, ring=kind)


# --------------------------------------------------------------------- #
# the batched convolution kernel
# --------------------------------------------------------------------- #
def collapse_limbs(planes: np.ndarray) -> np.ndarray:
    """Collapse a stack of limb planes to plain doubles, the scalar way.

    ``planes`` has the limb axis leading; the result drops it.  The sum runs
    from the *least* significant limb upward starting at ``0.0``, exactly
    like :meth:`repro.md.MultiDouble.to_float`, so magnitude comparisons on
    collapsed values (pivot selection, residual norms) agree with the scalar
    code path bit for bit.
    """
    total = np.zeros(planes.shape[1:], dtype=np.float64)
    for plane in planes[::-1]:
        total += plane
    return total


def max_magnitudes(planes) -> np.ndarray:
    """Largest coefficient magnitude per instance of ``(limbs, m, rows, width)``.

    ``planes`` is one real limb tensor or a ``(real, imag)`` pair.  Limbs
    collapse like :meth:`repro.md.MultiDouble.to_float` and complex moduli
    use ``np.hypot`` (which matches Python's ``abs(complex)`` bit for bit,
    where ``np.abs`` on complex128 can round one ulp differently), so entry
    ``i`` equals the scalar :func:`repro.homotopy.residual_norm` of
    instance ``i``'s unpacked series.
    """
    if isinstance(planes, tuple):
        magnitudes = np.hypot(collapse_limbs(planes[0]), collapse_limbs(planes[1]))
    else:
        magnitudes = np.abs(collapse_limbs(planes))
    return magnitudes.max(axis=(1, 2))


def convolve_rows(x: np.ndarray, y: np.ndarray, limbs: int) -> np.ndarray:
    """Truncated convolution of many series pairs in one sweep.

    ``x`` and ``y`` are stacked limb tensors of shape ``(limbs, m, n)`` —
    ``m`` independent (x, y) operand pairs of ``n`` coefficients each, the
    gathered input rows of one fused convolution layer across all equations
    and batch instances.  The result has the same shape and holds the
    truncated products.

    This is :func:`repro.series.convolve_vectorized` generalised from one
    triple to a whole layer: pass ``j`` multiplies column ``j`` of every
    ``x`` row into the leading ``n - j`` columns of the matching ``y`` row
    and accumulates into the output tail — ``n`` whole-layer multiple-double
    multiply/add sweeps regardless of how many jobs the layer carries.  The
    per-coefficient accumulation order (increasing ``j``) matches
    :func:`repro.series.convolve_direct`.
    """
    if x.shape != y.shape:
        raise ValueError(f"operand tensors must share shape, got {x.shape} and {y.shape}")
    n = x.shape[2]
    out = np.zeros_like(x)
    for j in range(n):
        xj = [x[i, :, j : j + 1] for i in range(limbs)]  # (m, 1), broadcasts
        yh = [y[i, :, : n - j] for i in range(limbs)]  # (m, n - j)
        products = md_mul_rows(xj, yh, limbs)
        acc = md_add_rows([out[i, :, j:] for i in range(limbs)], products, limbs)
        for i in range(limbs):
            out[i, :, j:] = acc[i]
    return out


def convolve_rows_complex(
    xr: np.ndarray,
    xi: np.ndarray,
    yr: np.ndarray,
    yi: np.ndarray,
    limbs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated *complex* convolution of many series pairs in one sweep.

    The four operands are the real/imaginary limb tensors of ``m`` stacked
    (x, y) pairs, shaped ``(limbs, m, n)`` like :func:`convolve_rows`; the
    result is the pair of real/imaginary limb tensors of the truncated
    complex products.

    Pass ``j`` forms the complex products of column ``j`` of every ``x`` row
    with the leading ``n - j`` columns of the matching ``y`` row through
    :func:`repro.md.cvecops.cmd_mul_rows` (four real multiply sweeps, one
    subtraction, one addition) and accumulates them with one complex
    addition (two real sweeps) — the per-coefficient operation order of the
    scalar :class:`repro.md.ComplexMD` convolution, so the two paths agree
    to the last limb of both planes.
    """
    if not (xr.shape == xi.shape == yr.shape == yi.shape):
        raise ValueError(
            "operand tensors must share one shape, got "
            f"{xr.shape}, {xi.shape}, {yr.shape} and {yi.shape}"
        )
    n = xr.shape[2]
    out_r = np.zeros_like(xr)
    out_i = np.zeros_like(xi)
    for j in range(n):
        ar = [xr[i, :, j : j + 1] for i in range(limbs)]  # (m, 1), broadcasts
        ai = [xi[i, :, j : j + 1] for i in range(limbs)]
        br = [yr[i, :, : n - j] for i in range(limbs)]  # (m, n - j)
        bi = [yi[i, :, : n - j] for i in range(limbs)]
        pr, pi = cmd_mul_rows(ar, ai, br, bi, limbs)
        acc_r, acc_i = cmd_add_rows(
            [out_r[i, :, j:] for i in range(limbs)],
            [out_i[i, :, j:] for i in range(limbs)],
            pr,
            pi,
            limbs,
        )
        for i in range(limbs):
            out_r[i, :, j:] = acc_r[i]
            out_i[i, :, j:] = acc_i[i]
    return out_r, out_i


# --------------------------------------------------------------------- #
# the layer compiler
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TensorLayer:
    """One fused layer, transposed from job tuples into index arrays.

    ``kind`` is ``"convolution"`` (``in1 * in2 -> out``), ``"scale"``
    (``out *= factors``) or ``"addition"`` (``out += in1``); the arrays hold
    per-instance slot indices, replicated across the batch at run time by
    adding the instance base offsets.
    """

    kind: str
    in1: np.ndarray | None
    in2: np.ndarray | None
    out: np.ndarray
    factors: np.ndarray | None = None

    @property
    def jobs(self) -> int:
        return int(self.out.size)


@dataclass(frozen=True)
class TensorProgram:
    """A compiled fused schedule: one :class:`TensorLayer` per wide launch.

    Compiling depends only on the polynomial structure, so programs are
    memoised in the :class:`repro.core.ScheduleCache` next to the fused
    schedule they were compiled from.
    """

    total_slots: int
    degree: int
    layers: tuple[TensorLayer, ...]

    @property
    def launches(self) -> int:
        """Whole-layer NumPy launches per instance sweep."""
        return len(self.layers)

    def run(
        self,
        tensor: "SlotTensor | ComplexSlotTensor",
        batch: int,
        active: np.ndarray | None = None,
    ) -> "SlotTensor | ComplexSlotTensor":
        """Execute every fused layer on the packed slot tensor, in place.

        Each layer gathers its operand rows (across all ``batch`` instances
        at once), applies one whole-layer vectorised multiple-double
        operation, and scatters the results back — the Python interpreter
        sees a handful of NumPy calls per layer, never a per-job loop.  The
        index arrays are ring-agnostic: a :class:`SlotTensor` runs the real
        sweeps, a :class:`ComplexSlotTensor` the complex ones (each complex
        sweep decomposing into a few real sweeps over the paired planes).

        ``active`` optionally restricts the sweep to a subset of instance
        indices: only their rows are gathered, computed and scattered —
        rows belonging to masked-out instances are untouched.  The row
        operations are elementwise per instance, so an active instance's
        results are bit-identical whether or not the others sweep alongside
        it; this is what lets the many-path scheduler keep a shrinking fleet
        resident in one packed tensor instead of repacking survivors.
        """
        if tensor.rows != batch * self.total_slots:
            raise ValueError(
                f"tensor has {tensor.rows} rows, expected "
                f"{batch} x {self.total_slots}"
            )
        if active is not None:
            active = np.asarray(active, dtype=np.int64)
            if active.size and (active.min() < 0 or active.max() >= batch):
                raise ValueError(
                    f"active instance indices must lie in [0, {batch}), got "
                    f"[{active.min()}, {active.max()}]"
                )
        if tensor.is_complex:
            return self._run_complex(tensor, batch, active)
        data = tensor.data
        limbs = tensor.limbs
        instances = np.arange(batch, dtype=np.int64) if active is None else active
        bases = (instances * self.total_slots)[:, None]
        for layer in self.layers:
            out_rows = (layer.out[None, :] + bases).reshape(-1)
            if layer.kind == "convolution":
                in1_rows = (layer.in1[None, :] + bases).reshape(-1)
                in2_rows = (layer.in2[None, :] + bases).reshape(-1)
                data[:, out_rows, :] = convolve_rows(
                    data[:, in1_rows, :], data[:, in2_rows, :], limbs
                )
            elif layer.kind == "scale":
                factors = np.tile(layer.factors, len(instances))[:, None]  # (m, 1)
                gathered = [data[i, out_rows, :] for i in range(limbs)]
                scaled = md_scale_rows(gathered, factors, limbs)
                for i in range(limbs):
                    data[i, out_rows, :] = scaled[i]
            else:  # addition
                in1_rows = (layer.in1[None, :] + bases).reshape(-1)
                sources = [data[i, in1_rows, :] for i in range(limbs)]
                targets = [data[i, out_rows, :] for i in range(limbs)]
                summed = md_add_rows(targets, sources, limbs)
                for i in range(limbs):
                    data[i, out_rows, :] = summed[i]
        return tensor

    def _run_complex(
        self, tensor: "ComplexSlotTensor", batch: int, active: np.ndarray | None = None
    ) -> "ComplexSlotTensor":
        """The complex layer sweeps: same index arrays, paired limb planes."""
        real = tensor.real
        imag = tensor.imag
        limbs = tensor.limbs
        instances = np.arange(batch, dtype=np.int64) if active is None else active
        bases = (instances * self.total_slots)[:, None]
        for layer in self.layers:
            out_rows = (layer.out[None, :] + bases).reshape(-1)
            if layer.kind == "convolution":
                in1_rows = (layer.in1[None, :] + bases).reshape(-1)
                in2_rows = (layer.in2[None, :] + bases).reshape(-1)
                out_r, out_i = convolve_rows_complex(
                    real[:, in1_rows, :],
                    imag[:, in1_rows, :],
                    real[:, in2_rows, :],
                    imag[:, in2_rows, :],
                    limbs,
                )
                real[:, out_rows, :] = out_r
                imag[:, out_rows, :] = out_i
            elif layer.kind == "scale":
                factors = np.tile(layer.factors, len(instances))[:, None]  # (m, 1)
                scaled_r, scaled_i = cmd_scale_rows(
                    [real[i, out_rows, :] for i in range(limbs)],
                    [imag[i, out_rows, :] for i in range(limbs)],
                    factors,
                    limbs,
                )
                for i in range(limbs):
                    real[i, out_rows, :] = scaled_r[i]
                    imag[i, out_rows, :] = scaled_i[i]
            else:  # addition
                in1_rows = (layer.in1[None, :] + bases).reshape(-1)
                summed_r, summed_i = cmd_add_rows(
                    [real[i, out_rows, :] for i in range(limbs)],
                    [imag[i, out_rows, :] for i in range(limbs)],
                    [real[i, in1_rows, :] for i in range(limbs)],
                    [imag[i, in1_rows, :] for i in range(limbs)],
                    limbs,
                )
                for i in range(limbs):
                    real[i, out_rows, :] = summed_r[i]
                    imag[i, out_rows, :] = summed_i[i]
        return tensor


def compile_tensor_program(fused: FusedSystemSchedule) -> TensorProgram:
    """Transpose every fused layer's job list into NumPy index arrays.

    Jobs within one fused layer are independent by construction (that is
    what makes them one launch), so their outputs are distinct rows and the
    gather-compute-scatter execution of :meth:`TensorProgram.run` cannot
    race with itself.
    """
    layers: list[TensorLayer] = []
    for layer in fused.convolution_layers:
        if not layer:
            continue
        layers.append(
            TensorLayer(
                kind="convolution",
                in1=np.asarray([job.input1 for job in layer], dtype=np.int64),
                in2=np.asarray([job.input2 for job in layer], dtype=np.int64),
                out=np.asarray([job.output for job in layer], dtype=np.int64),
            )
        )
    if fused.scale_jobs:
        layers.append(
            TensorLayer(
                kind="scale",
                in1=None,
                in2=None,
                out=np.asarray([job.slot for job in fused.scale_jobs], dtype=np.int64),
                factors=np.asarray(
                    [float(job.factor) for job in fused.scale_jobs], dtype=np.float64
                ),
            )
        )
    for layer in fused.addition_layers:
        if not layer:
            continue
        layers.append(
            TensorLayer(
                kind="addition",
                in1=np.asarray([job.source for job in layer], dtype=np.int64),
                in2=None,
                out=np.asarray([job.target for job in layer], dtype=np.int64),
            )
        )
    return TensorProgram(
        total_slots=fused.total_slots, degree=fused.degree, layers=tuple(layers)
    )
