"""Fault-injection framework: fault model, injector, campaign runner, metrics.

The fault model follows Section 2.2 of the paper: transient computing-unit
faults (single event upsets) silently corrupt freshly computed values by
flipping bits; memory faults are assumed handled by ECC and interconnect
faults by FT-MPI, so injection targets the *outputs of computation steps*
(GEMM tiles, exponentials, reductions), not stored operands.

Monte-Carlo campaigns (the evidence behind Figures 12 and 14 and Tables 1-2)
are per-trial kernels registered on :mod:`repro.fault.runner`; they run
through :func:`repro.exec.run_experiment` (or ``python -m repro run
spec.json``) on any executor backend, with per-trial derived seeds
(``SeedSequence.spawn``), checkpoint/resume and bit-identical aggregates
regardless of worker count.  New workloads plug in with::

    from repro.fault.runner import register_campaign

    @register_campaign("my_campaign")
    def _my_trial(rng, params):
        ...  # one Monte-Carlo trial
        return {"injected": 1, "detected": 1, "corrected": 1, "output_rel_error": 0.0}

* :mod:`repro.fault.models` -- fault sites, fault specifications, SEU / BER
  sampling.
* :mod:`repro.fault.injector` -- the :class:`FaultInjector` used by the
  protected kernels, plus bit-error-rate style corruption helpers.
* :mod:`repro.fault.metrics` -- per-trial outcomes and campaign aggregates
  (detection rate, false-alarm rate, coverage, error distributions).
* :mod:`repro.fault.runner` -- the trial-kernel registry and the worker
  primitives every executor backend shares.
* :mod:`repro.fault.campaign` -- the registered trial kernels behind Figures
  12 and 14, plus the ``transformer_inference`` model-level kernel.
* :mod:`repro.fault.dictionary` -- the fault dictionary: the
  ``@register_fault_model`` strategy registry (stuck-at, bursts, memory
  lines, at-rest weight corruption, intermittents) and pre-materialized
  faultload artifacts replayable byte-identically across schemes, backends
  and worker counts.
"""

from repro.fault.models import FaultSite, FaultSpec, InjectionRecord
from repro.fault.injector import FaultInjector, inject_bit_errors
from repro.fault.metrics import CampaignResult, TrialOutcome

#: Registry and fault-dictionary names resolved lazily (PEP 562), so
#: ``import repro.fault`` loads neither module until one of them is used.
_RUNNER_EXPORTS = (
    "available_campaigns",
    "campaign_summaries",
    "register_campaign",
)
_DICTIONARY_EXPORTS = (
    "FAULTLOAD_SCHEMA_VERSION",
    "FaultModel",
    "Faultload",
    "FaultloadGenerator",
    "available_fault_models",
    "fault_model_summaries",
    "faultload_digest",
    "get_fault_model",
    "load_faultload",
    "register_fault_model",
)


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.fault import runner

        return getattr(runner, name)
    if name in _DICTIONARY_EXPORTS:
        from repro.fault import dictionary

        return getattr(dictionary, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FaultSite",
    "FaultSpec",
    "InjectionRecord",
    "FaultInjector",
    "inject_bit_errors",
    "CampaignResult",
    "TrialOutcome",
    "available_campaigns",
    "campaign_summaries",
    "register_campaign",
    "FAULTLOAD_SCHEMA_VERSION",
    "FaultModel",
    "Faultload",
    "FaultloadGenerator",
    "available_fault_models",
    "fault_model_summaries",
    "faultload_digest",
    "get_fault_model",
    "load_faultload",
    "register_fault_model",
]
