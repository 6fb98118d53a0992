"""Batched transformer fault-injection trials (the Monte-Carlo hot path).

The scalar ``transformer_inference`` kernel runs one full model forward per
trial; that forward is a chain of small GEMMs and elementwise ops whose cost
is dominated by per-call NumPy overhead.  This module folds a whole chunk of
trials into one tensor program: the trials' token batches are stacked along
the model's batch axis, every linear layer becomes one batched GEMM, and the
attention runs the scheme's own kernel over the trial axis
(:meth:`repro.core.schemes.ProtectionScheme.forward_batched`, the only
implementation of each built-in scheme's kernel -- a scalar ``forward`` is
that kernel at a trial axis of one).  Each trial keeps its own
:class:`~repro.fault.injector.FaultInjector`, whose faults are applied to
that trial's slice of the stacked intermediates.

``transformer_inference`` is the campaign whose batch kernel pays for its
code (3.8-5.9x over per-trial forwards in ``BENCH_2.json``).
:mod:`repro.fault.campaign` attaches :func:`_transformer_inference_batch` to
the registry right after the scalar kernel, so importing this module
registers nothing and works in any order.

Byte-parity with the per-trial model forward is enforced by
``tests/fault/test_batched.py`` and rests on two rules:

* the trial axis is never flattened into a GEMM's row dimension (a fused 2D
  GEMM can pick a different kernel blocking for the larger row count and
  drift in the last bits -- observed on the wide ``lm_head`` projection);
  every matmul stays batched-last-two-dims so each trial's slice is the very
  same product the per-trial forward computes;
* every injector sees the exact ``corrupt`` offer sequence of the per-trial
  forward (same sites, same blocks, same per-trial array shapes), so its
  occurrence counting and element draws are unchanged.

The model-level step still exists twice: ``TransformerModel.forward`` and
:func:`_forward_batched` (``perfbench`` traces both by module path, so
merging them waits for the next benchmark change).  A scheme whose
attention has no ``forward_batched`` declines the chunk (returns ``None``)
before consuming any generator, and the trials run one by one.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.attention.flash import flash_attention
from repro.attention.tiling import merge_heads, split_heads
from repro.core.config import FaultToleranceReport
from repro.fault.injector import _BatchFaultRouter
from repro.fp.float16 import FP16Operand, fp16_matmul


# --------------------------------------------------------------------------- #
# Token-batch cache
# --------------------------------------------------------------------------- #
#: Stacked token batches keyed by (prompt identity, n_trials).  The prompt
#: array comes out of the transformer fixture LRU and is identical for every
#: chunk of a campaign, so the ``(n_trials * 1, seq)`` tile is built once per
#: (fixture, batch size) instead of on every chunk.  Holding a strong
#: reference to the keyed array keeps its id() from being reused while the
#: entry lives.
_TOKEN_BATCHES: OrderedDict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = OrderedDict()
_TOKEN_BATCH_LIMIT = 32


def _token_batch(ids: np.ndarray, n_trials: int) -> np.ndarray:
    key = (id(ids), int(n_trials))
    hit = _TOKEN_BATCHES.get(key)
    if hit is not None and hit[0] is ids:
        _TOKEN_BATCHES.move_to_end(key)
        return hit[1]
    batch = np.concatenate([ids] * n_trials, axis=0)
    _TOKEN_BATCHES[key] = (ids, batch)
    _TOKEN_BATCHES.move_to_end(key)
    while len(_TOKEN_BATCHES) > _TOKEN_BATCH_LIMIT:
        _TOKEN_BATCHES.popitem(last=False)
    return batch


# --------------------------------------------------------------------------- #
# Stacked layers
# --------------------------------------------------------------------------- #
def _linear_batched(layer, x: np.ndarray, router: _BatchFaultRouter, protected: bool):
    """Mirror of ``ProtectedLinear.__call__`` with the stacked fault router.

    The trial axis is kept (``(n_trials, seq, dim)``) and the projection runs
    as a batched-last-two-dims matmul rather than one flattened 2D GEMM, so
    each trial's rows are the very same ``(seq, in_dim) @ (in_dim, out_dim)``
    product the scalar forward computes -- bit-identical.  When ``protected``,
    the checksum GEMMs run stacked too and the strided verification runs once
    over the stack, repairing flagged trials exactly like the scalar routine
    (verification happens before the bias add, as in the scalar layer).  As there, the float32 input is rounded to FP16 once
    for all three GEMMs and the weight on every call.  Returns ``(y,
    verdicts)`` with one verdict per trial, or ``verdicts=None`` when
    unprotected.
    """
    from repro.fault.models import FaultSite
    from repro.gemm.checksum import verify_strided_checksums_stacked

    x = FP16Operand(np.asarray(x, dtype=np.float32))
    y = fp16_matmul(x, layer.weight)
    router.corrupt(FaultSite.LINEAR, y)
    verdicts = None
    if protected:
        y_check1 = fp16_matmul(x, layer._w_check1)
        y_check2 = fp16_matmul(x, layer._w_check2)
        verdicts = verify_strided_checksums_stacked(
            y,
            y_check1,
            y_check2,
            stride=layer.checksum_stride,
            atol=layer.checksum_atol,
            rtol=layer.checksum_rtol,
        )
    if layer.bias is not None:
        y = y + layer.bias
    return y, verdicts


def _record_verdicts(verdicts, reports, stage: str) -> None:
    """Per-trial mirror of ``MultiHeadAttention._record``."""
    if verdicts is None:
        return
    for report, verdict in zip(reports, verdicts):
        report.record_detection(stage, verdict.detected)
        report.record_correction(stage, verdict.corrected)
        report.record_uncorrectable(stage, verdict.uncorrectable)


def _forward_batched_unprotected(model, token_ids: np.ndarray, router: _BatchFaultRouter) -> np.ndarray:
    """One stacked forward of the scheme-``"none"`` model, returning logits.

    Fast path for linear-only fault sites: the attention math runs through the
    vectorized :func:`repro.attention.flash.flash_attention` recurrence
    (bit-identical to ``UnprotectedAttention``), skipping the per-tile
    ``corrupt`` offers -- which is sound because occurrence counting is per
    site, so offers at attention sites cannot influence linear-site faults.
    """
    x = model.embedding(token_ids)
    for block in model.blocks:
        mha = block.attention
        cfg = mha.attention.config
        h = block.ln_attn(x)
        q, _ = _linear_batched(mha.q_proj, h, router, False)
        k, _ = _linear_batched(mha.k_proj, h, router, False)
        v, _ = _linear_batched(mha.v_proj, h, router, False)
        heads = flash_attention(
            split_heads(q, mha.num_heads),
            split_heads(k, mha.num_heads),
            split_heads(v, mha.num_heads),
            scale=cfg.effective_scale,
            block_size=cfg.block_size,
            mixed_precision=True,
        )
        out, _ = _linear_batched(mha.out_proj, merge_heads(heads), router, False)
        x = x + out
        f = block.ln_ffn(x)
        hidden, _ = _linear_batched(block.ffn.fc_in, f, router, False)
        ffn_out, _ = _linear_batched(block.ffn.fc_out, block.ffn.activation(hidden), router, False)
        x = x + ffn_out
    x = model.final_norm(x)
    logits, _ = _linear_batched(model.lm_head, x, router, False)
    return logits


def _forward_batched(
    model,
    token_ids: np.ndarray,
    router: _BatchFaultRouter,
    reports: list[FaultToleranceReport],
) -> np.ndarray:
    """One stacked forward mirroring ``TransformerModel.forward`` for any
    scheme whose attention kernel supports the batched path.

    Follows the scalar model step for step: pre-norm blocks, QKV projections
    recorded after all three (like ``MultiHeadAttention``), the scheme's own
    ``forward_batched`` attention, the FFN activation clamp with per-trial
    restriction counts, and an LM head that is verified but -- like the
    scalar forward -- never recorded in the report.
    """
    protect = model.protects_linear
    x = model.embedding(token_ids)
    for block in model.blocks:
        mha = block.attention
        h = block.ln_attn(x)
        q, vq = _linear_batched(mha.q_proj, h, router, protect)
        k, vk = _linear_batched(mha.k_proj, h, router, protect)
        v, vv = _linear_batched(mha.v_proj, h, router, protect)
        for verdicts, stage in ((vq, "q_proj"), (vk, "k_proj"), (vv, "v_proj")):
            _record_verdicts(verdicts, reports, stage)
        heads, attn_reports = mha.attention.forward_batched(
            split_heads(q, mha.num_heads),
            split_heads(k, mha.num_heads),
            split_heads(v, mha.num_heads),
            router,
        )
        for report, attn_report in zip(reports, attn_reports):
            report.merge(attn_report)
        out, vo = _linear_batched(mha.out_proj, merge_heads(heads), router, protect)
        _record_verdicts(vo, reports, "out_proj")
        x = x + out
        f = block.ln_ffn(x)
        hidden, vi = _linear_batched(block.ffn.fc_in, f, router, protect)
        _record_verdicts(vi, reports, "ffn_in")
        activated = block.ffn.activation(hidden)
        if protect:
            bound = block.ffn.activation_bound
            clipped = np.clip(activated, -bound, bound)
            changed = clipped != activated
            if changed.any():
                counts = changed.reshape(len(reports), -1).sum(axis=1)
                for report, count in zip(reports, counts):
                    restricted = int(count)
                    if restricted:
                        report.record_detection("ffn_activation", restricted)
                        report.record_restoration("ffn_activation", restricted)
            activated = clipped
        ffn_out, vout = _linear_batched(block.ffn.fc_out, activated, router, protect)
        _record_verdicts(vout, reports, "ffn_out")
        x = x + ffn_out
    x = model.final_norm(x)
    logits, _ = _linear_batched(model.lm_head, x, router, protect)
    return logits


def _transformer_inference_batch(rngs: list, params: dict) -> list[dict] | None:
    """Batched transformer trials: one stacked forward for the whole chunk.

    Per-trial fault planning replays the scalar kernel's exact draw order on
    each trial's own generator (site, bit, occurrence per fault, then the
    injector seed), so the resulting records -- and the JSONL checkpoint --
    are byte-identical to the scalar path.
    """
    from repro.fault.campaign import _transformer_fixture, _validate_sites
    from repro.fault.dictionary import faultload_digest, get_fault_model, load_faultload
    from repro.fault.injector import FaultInjector
    from repro.fault.metrics import TrialOutcome
    from repro.fault.models import FaultSite, FaultSpec

    model, ids, clean_logits, site_counts = _transformer_fixture(params)
    fault_model = str(params.get("fault_model", "seu"))
    model_params = dict(params.get("model_params", {}))
    replay_trials = None
    if "faultload" in params:
        faultload = load_faultload(params["faultload"])
        trial_indices = params.get("_trial_indices")
        if trial_indices is None:
            raise ValueError(
                "faultload replay requires the campaign runner to supply "
                "'_trial_indices'; run through repro.fault.runner / repro.exec"
            )
        replay_trials = [faultload.specs_for(int(i)) for i in trial_indices]
        replay_models = {
            get_fault_model(s.fault_model) for specs in replay_trials for s in specs
        }
        if any(m.at_rest for m in replay_models):
            # At-rest faults mutate the shared model fixture per trial; the
            # stacked forward cannot express that.  Decline before touching
            # any generator so the scalar kernel runs trial by trial.
            return None
        sites = sorted(
            {s.site for specs in replay_trials for s in specs}, key=lambda s: s.value
        )
        _validate_sites(sites, site_counts, params)
    else:
        if get_fault_model(fault_model).at_rest:
            return None
        sites = params.get("site", "linear")
        if isinstance(sites, str):
            sites = [sites]
        sites = [FaultSite(str(s)) for s in sites]
        _validate_sites(sites, site_counts, params)
    use_flash = model.scheme_name == "none" and all(s == FaultSite.LINEAR for s in sites)
    if not use_flash and not all(
        block.attention.attention.supports_batched for block in model.blocks
    ):
        # The scheme's attention kernel has no batched forward.  Decline
        # before touching any generator: the scalar fallback must see
        # pristine per-trial streams.
        return None

    bits = [int(b) for b in params.get("bits", [12, 13, 14])]
    dtype = str(params.get("dtype", "fp16"))
    tol = float(params.get("correction_tol", 0.02))
    use_ber = "bit_error_rate" in params
    if use_ber:
        ber = float(params["bit_error_rate"])
        exposure_bits = 2.0 * model.num_parameters() * ids.shape[1] * 16.0

    injectors = []
    if replay_trials is not None:
        # Replay mode: the specs come verbatim from the artifact; the only
        # per-trial draw (matching the scalar kernel) is the injector seed.
        for rng, specs in zip(rngs, replay_trials):
            injectors.append(
                FaultInjector(specs=list(specs), seed=int(rng.integers(2**31)))
            )
    else:
        for rng in rngs:
            n_faults = int(rng.poisson(ber * exposure_bits)) if use_ber else 1
            specs = []
            for _ in range(n_faults):
                site = sites[int(rng.integers(len(sites)))]
                specs.append(
                    FaultSpec(
                        site=site,
                        bit=bits[int(rng.integers(len(bits)))],
                        dtype=dtype,
                        occurrence=int(rng.integers(site_counts[site])),
                        fault_model=fault_model,
                        model_params=model_params,
                    )
                )
            injectors.append(FaultInjector(specs=specs, seed=int(rng.integers(2**31))))

    n_trials = len(rngs)
    token_batch = _token_batch(ids, n_trials)
    router = _BatchFaultRouter(injectors)
    if use_flash:
        reports = None
        logits = _forward_batched_unprotected(model, token_batch, router)
    else:
        reports = [FaultToleranceReport() for _ in range(n_trials)]
        logits = _forward_batched(model, token_batch, router, reports)

    denom = max(float(np.abs(clean_logits).max()), 1e-12)
    # One stacked |faulty - clean| pass; the per-trial max over its own slice
    # is the same value the scalar kernel's whole-array max produces.
    deviations = np.abs(logits - clean_logits).reshape(n_trials, -1).max(axis=1)
    records = []
    for t, injector in enumerate(injectors):
        applied = len(injector.records)
        deviation = float(deviations[t])
        if not np.isfinite(deviation):
            deviation = 10.0 * denom
        rel_err = min(deviation / denom, 10.0)
        report = reports[t] if reports is not None else None
        record = TrialOutcome(
            injected=applied,
            detected=int(report.total_detections) if report is not None else 0,
            corrected=applied if rel_err < tol else 0,
            false_alarm=(
                bool(applied == 0 and report.detected_any)
                if report is not None
                else False
            ),
            output_rel_error=rel_err if applied else 0.0,
        ).to_dict()
        if replay_trials is not None:
            record["fault_digest"] = faultload_digest(replay_trials[t])
        records.append(record)
    return records
