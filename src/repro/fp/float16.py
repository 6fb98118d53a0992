"""Mixed-precision (FP16 operand / FP32 accumulate) arithmetic helpers.

The SM80 ``16x8x16 F32F16F16F32`` MMA instruction used throughout the paper
multiplies two half-precision tiles and accumulates the products in single
precision.  The helpers here reproduce that numerical behaviour with NumPy so
that checksum round-off (the source of false alarms in Figures 12 and 14)
matches what a Tensor Core would produce to first order.

A Tensor Core loads each FP16 tile once and reuses it for every MMA that
reads it.  :class:`FP16Operand` is that tile: an operand rounded through FP16
once, which :func:`fp16_matmul` then takes as either operand without rounding
it again.
"""

from __future__ import annotations

import numpy as np

#: Largest finite half-precision value.
FP16_MAX: float = float(np.finfo(np.float16).max)

#: Smallest positive normal half-precision value.
FP16_MIN_NORMAL: float = float(np.finfo(np.float16).tiny)


def to_fp16(x: np.ndarray | float) -> np.ndarray:
    """Cast ``x`` to half precision (values out of range saturate to inf)."""
    return np.asarray(x, dtype=np.float16)


def to_fp32(x: np.ndarray | float) -> np.ndarray:
    """Cast ``x`` to single precision."""
    return np.asarray(x, dtype=np.float32)


#: Float32 arrays at least this large round on their bit patterns.  The
#: integer passes cost about 20 us whatever the size, and NumPy's cast only
#: costs more from about 2K elements on (2-CPU x86-64 host, NumPy 2.4).
_INTEGER_ROUNDING_MIN_SIZE = 4096

#: Float32 bit patterns of 2**-14 (FP16's smallest normal) and 65520 (the
#: smallest magnitude FP16 rounds to infinity): the FP16-normal range is
#: ``[_NORMAL_LOW, _NORMAL_HIGH)`` in magnitude bits.
_NORMAL_LOW = np.uint32(0x38800000)
_NORMAL_HIGH = np.uint32(0x477FF000)


def _numpy_quantize(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float16).astype(np.float32)


def fp16_quantize(x: np.ndarray | float) -> np.ndarray:
    """Round ``x`` through half precision and return it as float32.

    This models storing an intermediate result to an FP16 register/shared
    memory tile and reading it back for the next computation stage.

    The result is bitwise NumPy's ``x -> float16 -> float32`` cast, in the
    same memory order (the order of a GEMM operand picks the BLAS call).  A
    float32 array of 4096 or more elements takes a faster route to it:
    every element of the FP16-normal range (``2**-14 <= |x| < 65520``) is
    rounded to nearest-even on its bit pattern, by adding half a unit of
    the 13 dropped mantissa bits (minus one when the kept bits are even)
    and clearing them; a carry into the exponent is the correct rounding
    too.  FP16 subnormals and zeros, overflow to infinity, infinities and
    NaNs keep NumPy's cast.
    """
    if not (
        isinstance(x, np.ndarray)
        and x.dtype == np.float32
        and x.size >= _INTEGER_ROUNDING_MIN_SIZE
    ):
        return _numpy_quantize(x)
    bits = x.view(np.uint32)
    # Every new array below follows ``x``'s memory order (NumPy's default
    # order="K"), as the cast does.
    rounded = np.right_shift(bits, 13)
    np.bitwise_and(rounded, 1, out=rounded)
    np.add(rounded, 0x0FFF, out=rounded)
    np.add(rounded, bits, out=rounded)
    np.bitwise_and(rounded, np.uint32(0xFFFFE000), out=rounded)
    # |x| outside the normal range, as one unsigned compare: magnitudes
    # below the range wrap around past its top.
    offset = np.bitwise_and(bits, np.uint32(0x7FFFFFFF))
    np.subtract(offset, _NORMAL_LOW, out=offset)
    special = np.greater_equal(offset, _NORMAL_HIGH - _NORMAL_LOW)
    out = rounded.view(np.float32)
    if special.any():
        out[special] = _numpy_quantize(x[special])
    return out


def machine_epsilon(dtype: np.dtype | type = np.float16) -> float:
    """Return the unit round-off of ``dtype`` (used to calibrate thresholds)."""
    return float(np.finfo(dtype).eps)


class FP16Operand:
    """A GEMM operand rounded through FP16 once, held as read-only float32.

    ``FP16Operand(x)`` is the only way to build one, and it always rounds:
    the values are :func:`fp16_quantize` of ``x`` (``x``'s dtype -> float16
    -> float32, in ``x``'s memory order), so an operand can never hold values
    FP16 cannot represent.  Rounding is idempotent -- every FP16 bit pattern
    (NaN payloads, subnormals, signed zeros and infinities included) widened
    to float32 comes back bit-identical -- so wrapping an operand again
    returns the same values without another round trip.

    Pass it to :func:`fp16_matmul` in place of the array it was built from
    whenever that array feeds more than one GEMM: the products are bitwise
    the ones the plain array gives, because they multiply the same float32
    values in the same memory order.  Build it from a view in the order the
    products would otherwise receive (``np.swapaxes(k, -1, -2)``, not ``k``):
    rounding keeps that order, and the order of each matrix decides which
    BLAS call runs.  Callers that round a floating type wider than float32
    must cast to float32 first when the plain path does, since float64 ->
    FP16 and float64 -> float32 -> FP16 can differ.

    Basic indexing (integers, slices, ``...``, ``None``) returns another
    operand viewing the same values in the same order, for per-trial and
    per-block views.
    There is no arithmetic: NumPy operators and ufuncs refuse the type, so
    the rounded values are only ever read by :func:`fp16_matmul`.
    """

    __slots__ = ("_values",)
    #: Make ``array + operand`` and every other ufunc raise ``TypeError``.
    __array_ufunc__ = None

    def __init__(self, x: "np.ndarray | float | FP16Operand"):
        if isinstance(x, FP16Operand):
            values = x._values
        else:
            values = fp16_quantize(x)
            values.flags.writeable = False
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError("FP16Operand is immutable")

    @property
    def values(self) -> np.ndarray:
        """The rounded values: a read-only float32 array."""
        return self._values

    @property
    def shape(self) -> tuple[int, ...]:
        return self._values.shape

    def __getitem__(self, index) -> "FP16Operand":
        items = index if isinstance(index, tuple) else (index,)
        for item in items:
            basic = item is None or item is Ellipsis or isinstance(item, (slice, int, np.integer))
            if not basic or isinstance(item, (bool, np.bool_)):
                raise TypeError(
                    "FP16Operand supports basic indexing only (integers, slices, ..., None)"
                )
        view = object.__new__(FP16Operand)
        object.__setattr__(view, "_values", self._values[index])
        return view


def _rounded(x) -> np.ndarray:
    """``x`` rounded through FP16 as float32, reusing an operand's rounding."""
    return x.values if isinstance(x, FP16Operand) else fp16_quantize(x)


def fp16_matmul(a, b) -> np.ndarray:
    """Multiply ``a @ b`` the way a Tensor Core MMA does.

    Operands are quantized to FP16; the multiply-accumulate is carried out in
    FP32 and the result is returned in FP32 (the paper keeps the accumulator
    and the final attention output in FP32 before the final store).  This is
    the one product every kernel calls.

    Parameters
    ----------
    a, b:
        Arrays whose trailing two dimensions are multiplied.  Batched inputs
        (any number of leading dimensions) are supported.  Either operand may
        be an :class:`FP16Operand`, which is used as already rounded; a plain
        array is rounded here, on every call.  The product is bitwise the
        same either way.

    Returns
    -------
    np.ndarray
        ``a @ b`` with float32 dtype.
    """
    return np.matmul(_rounded(a), _rounded(b), dtype=np.float32)
