"""FT-Transformer reproduction: end-to-end fault tolerant attention (EFTA).

Top-level convenience re-exports.  The primary entry points are:

* :class:`repro.core.EFTAttention` / :class:`repro.core.EFTAttentionOptimized`
  -- the paper's contribution: single-kernel attention with hybrid strided
  ABFT + SNVR protection.
* :class:`repro.core.DecoupledFTAttention` -- the operation-level baseline.
* :class:`repro.fault.FaultInjector` -- single-event-upset injection into any
  pipeline stage.
* :class:`repro.transformer.TransformerModel` -- the Transformer inference
  substrate (GPT2 / BERT / T5 configurations) built on the protected kernels.
* :class:`repro.hardware.AttentionCostModel` -- the A100 roofline model used
  to regenerate the paper's timing figures and tables.
"""

from repro.core import (
    AttentionConfig,
    DecoupledFTAttention,
    EFTAttention,
    EFTAttentionOptimized,
    FaultToleranceReport,
    ProtectionScheme,
    available_schemes,
    build_scheme,
    get_scheme,
    register_scheme,
)
from repro.fault import FaultInjector, FaultSite, FaultSpec
from repro.hardware import A100_PCIE_40GB, AttentionCostModel, AttentionWorkload

#: Unified-experiment names resolved lazily (PEP 562): ``import repro`` stays
#: cheap for kernel-only users, and the engine, executors and stores of
#: ``repro.exec`` load on first use.
_EXEC_EXPORTS = (
    "ExperimentResult",
    "ExperimentSpec",
    "available_executors",
    "register_executor",
    "run_experiment",
)


def __getattr__(name: str):
    if name in _EXEC_EXPORTS:
        from repro import exec as _exec

        return getattr(_exec, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"

__all__ = [
    "AttentionConfig",
    "DecoupledFTAttention",
    "EFTAttention",
    "EFTAttentionOptimized",
    "FaultToleranceReport",
    "ProtectionScheme",
    "available_schemes",
    "build_scheme",
    "get_scheme",
    "register_scheme",
    "FaultInjector",
    "FaultSite",
    "FaultSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "available_executors",
    "register_executor",
    "run_experiment",
    "A100_PCIE_40GB",
    "AttentionCostModel",
    "AttentionWorkload",
    "__version__",
]
