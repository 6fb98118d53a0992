"""Tensor-Core GEMM substrate: MMA thread/data layout and ABFT checksums.

This package rebuilds the pieces of the paper's Section 3.3 that live below
the attention kernel:

* :mod:`repro.gemm.mma` -- the thread-to-data ownership maps of the
  ``SM80_16x8x16_F32F16F16F32_TN`` MMA atom and the 64x16x16 TiledMMA used by
  EFTA.  The strided checksum design is derived from (and validated against)
  these maps.
* :mod:`repro.gemm.checksum` -- traditional element-wise ABFT checksums
  (Huang & Abraham) and the paper's strided tensor checksums, each with
  encode / verify / locate / correct operations.
"""

from repro.gemm.mma import MMAAtomLayout, SM80_16x8x16, TiledMMALayout, EFTA_TILED_MMA
from repro.gemm.checksum import (
    ChecksumVerdict,
    encode_column_checksums,
    encode_row_checksums,
    encode_strided_row_checksums,
    strided_sums,
    verify_column_checksums,
    verify_row_checksums,
    verify_strided_checksums,
)

__all__ = [
    "MMAAtomLayout",
    "SM80_16x8x16",
    "TiledMMALayout",
    "EFTA_TILED_MMA",
    "ChecksumVerdict",
    "encode_column_checksums",
    "encode_row_checksums",
    "encode_strided_row_checksums",
    "strided_sums",
    "verify_column_checksums",
    "verify_row_checksums",
    "verify_strided_checksums",
]
