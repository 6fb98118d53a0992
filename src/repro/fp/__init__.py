"""Floating-point substrate: FP16 emulation and bit-level fault primitives.

The paper's kernels run on Tensor Cores with half-precision (FP16) inputs and
single-precision (FP32) accumulation.  Soft errors are modelled as bit flips
inside those representations.  This package provides:

* :mod:`repro.fp.float16` -- mixed-precision helpers that mimic the Tensor
  Core behaviour (FP16 operands, FP32 accumulate) on top of NumPy, and
  :class:`~repro.fp.float16.FP16Operand`, an operand rounded to FP16 once.
* :mod:`repro.fp.bitflip` -- bit-level views of FP16/FP32 values and the
  bit-flip primitives used by the fault injector.
"""

from repro.fp.float16 import (
    FP16_MAX,
    FP16_MIN_NORMAL,
    FP16Operand,
    fp16_matmul,
    fp16_quantize,
    machine_epsilon,
    to_fp16,
    to_fp32,
)
from repro.fp.bitflip import (
    bits_to_float,
    flip_bit,
    flip_bit_array,
    float_to_bits,
    random_bit_positions,
)

__all__ = [
    "FP16_MAX",
    "FP16_MIN_NORMAL",
    "FP16Operand",
    "fp16_matmul",
    "fp16_quantize",
    "machine_epsilon",
    "to_fp16",
    "to_fp32",
    "bits_to_float",
    "flip_bit",
    "flip_bit_array",
    "float_to_bits",
    "random_bit_positions",
]
