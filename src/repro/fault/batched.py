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

Most of a trial repeats the fault-free run: its values are fault-free until
its fault fires and wherever the fault never reaches.  The FFN's GELU, the
costliest elementwise op of the forward, therefore runs only on the
elements whose input bits differ from the fault-free run's and copies the
fault-free output everywhere else (:func:`_golden_activations`); GELU is
elementwise, so the values are the ones evaluating every element gives.
Each linear operand is rounded to FP16 once: the layer-norm output ``h``
once for the q, k and v projections, and each layer's weight and checksum
columns once per model, kept in the transformer fixture
(:func:`_linear_batched`).

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
def _rounded_input(x) -> FP16Operand:
    """A linear layer's input cast to float32 and rounded to FP16, once."""
    return x if isinstance(x, FP16Operand) else FP16Operand(np.asarray(x, dtype=np.float32))


def _linear_batched(layer, x, router: _BatchFaultRouter, protected: bool, weights: dict):
    """Mirror of ``ProtectedLinear.__call__`` with the stacked fault router.

    The trial axis is kept (``(n_trials, seq, dim)``) and the projection runs
    as a batched-last-two-dims matmul rather than one flattened 2D GEMM, so
    each trial's rows are the very same ``(seq, in_dim) @ (in_dim, out_dim)``
    product the scalar forward computes -- bit-identical.  When ``protected``,
    the checksum GEMMs run stacked too and the strided verification runs once
    over the stack, repairing flagged trials exactly like the scalar routine
    (verification happens before the bias add, as in the scalar layer).  As
    there, the float32 input is rounded to FP16 once for all three GEMMs; an
    input that is already an :class:`FP16Operand` (``h``, shared by the q, k
    and v projections) is used as is.  The weight and its two checksum
    columns are rounded once per model: ``weights`` (the fixture's
    ``fp16_weights``) maps each layer to its three operands, filled here on
    the layer's first call.  Returns ``(y, verdicts)`` with one verdict per
    trial, or ``verdicts=None`` when unprotected.
    """
    from repro.fault.models import FaultSite
    from repro.gemm.checksum import verify_strided_checksums_stacked

    x = _rounded_input(x)
    operands = weights.get(layer)
    if operands is None:
        operands = weights[layer] = tuple(
            FP16Operand(w) for w in (layer.weight, layer._w_check1, layer._w_check2)
        )
    w, w_check1, w_check2 = operands
    y = fp16_matmul(x, w)
    router.corrupt(FaultSite.LINEAR, y)
    verdicts = None
    if protected:
        y_check1 = fp16_matmul(x, w_check1)
        y_check2 = fp16_matmul(x, w_check2)
        verdicts = verify_strided_checksums_stacked(
            y,
            y_check1,
            y_check2,
            stride=layer.checksum_stride,
            atol=layer.checksum_atol,
            rtol=layer.checksum_rtol,
        )
    if layer.bias is not None:
        y += layer.bias
    return y, verdicts


def _record_verdicts(verdicts, reports, stage: str) -> None:
    """Per-trial mirror of ``MultiHeadAttention._record``."""
    if verdicts is None:
        return
    for report, verdict in zip(reports, verdicts):
        report.record_detection(stage, verdict.detected)
        report.record_correction(stage, verdict.corrected)
        report.record_uncorrectable(stage, verdict.uncorrectable)


def _forward_batched_unprotected(
    model, token_ids: np.ndarray, router: _BatchFaultRouter, activations: list, weights: dict
) -> np.ndarray:
    """One stacked forward of the scheme-``"none"`` model, returning logits.

    Fast path for linear-only fault sites: the attention math runs through the
    vectorized :func:`repro.attention.flash.flash_attention` recurrence
    (bit-identical to ``UnprotectedAttention``), skipping the per-tile
    ``corrupt`` offers -- which is sound because occurrence counting is per
    site, so offers at attention sites cannot influence linear-site faults.
    ``activations`` holds one FFN activation per block (see
    :func:`_golden_activations`) and ``weights`` the model's rounded linear
    weights (see :func:`_linear_batched`).
    """
    x = model.embedding(token_ids)
    for block, activate in zip(model.blocks, activations):
        mha = block.attention
        cfg = mha.attention.config
        h = _rounded_input(block.ln_attn(x))
        q, _ = _linear_batched(mha.q_proj, h, router, False, weights)
        k, _ = _linear_batched(mha.k_proj, h, router, False, weights)
        v, _ = _linear_batched(mha.v_proj, h, router, False, weights)
        heads = flash_attention(
            split_heads(q, mha.num_heads),
            split_heads(k, mha.num_heads),
            split_heads(v, mha.num_heads),
            scale=cfg.effective_scale,
            block_size=cfg.block_size,
            mixed_precision=True,
        )
        out, _ = _linear_batched(mha.out_proj, merge_heads(heads), router, False, weights)
        x = x + out
        f = block.ln_ffn(x)
        hidden, _ = _linear_batched(block.ffn.fc_in, f, router, False, weights)
        ffn_out, _ = _linear_batched(block.ffn.fc_out, activate(hidden), router, False, weights)
        x = x + ffn_out
    x = model.final_norm(x)
    logits, _ = _linear_batched(model.lm_head, x, router, False, weights)
    return logits


def _forward_batched(
    model,
    token_ids: np.ndarray,
    router: _BatchFaultRouter,
    reports: list[FaultToleranceReport],
    activations: list,
    weights: dict,
) -> np.ndarray:
    """One stacked forward mirroring ``TransformerModel.forward`` for any
    scheme whose attention kernel supports the batched path.

    Follows the scalar model step for step: pre-norm blocks, QKV projections
    recorded after all three (like ``MultiHeadAttention``), the scheme's own
    ``forward_batched`` attention, the FFN activation (one per block in
    ``activations``, see :func:`_golden_activations`) and its clamp with
    per-trial restriction counts, and an LM head that is verified but --
    like the scalar forward -- never recorded in the report.  ``weights``
    holds the model's rounded linear weights (see :func:`_linear_batched`).
    """
    protect = model.protects_linear
    x = model.embedding(token_ids)
    for block, activate in zip(model.blocks, activations):
        mha = block.attention
        h = _rounded_input(block.ln_attn(x))
        q, vq = _linear_batched(mha.q_proj, h, router, protect, weights)
        k, vk = _linear_batched(mha.k_proj, h, router, protect, weights)
        v, vv = _linear_batched(mha.v_proj, h, router, protect, weights)
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
        out, vo = _linear_batched(mha.out_proj, merge_heads(heads), router, protect, weights)
        _record_verdicts(vo, reports, "out_proj")
        x = x + out
        f = block.ln_ffn(x)
        hidden, vi = _linear_batched(block.ffn.fc_in, f, router, protect, weights)
        _record_verdicts(vi, reports, "ffn_in")
        activated = activate(hidden)
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
        ffn_out, vout = _linear_batched(block.ffn.fc_out, activated, router, protect, weights)
        _record_verdicts(vout, reports, "ffn_out")
        x = x + ffn_out
    x = model.final_norm(x)
    logits, _ = _linear_batched(model.lm_head, x, router, protect, weights)
    return logits


# --------------------------------------------------------------------------- #
# Golden activation trace
# --------------------------------------------------------------------------- #
def _reusing(activation, golden_in: np.ndarray, golden_out: np.ndarray):
    """``activation``, evaluated only where the input leaves the fault-free run.

    ``golden_in`` and ``golden_out`` are one block's activation input and
    output in the fault-free forward at a trial axis of one.  An element
    whose float32 bit pattern equals the fault-free input's takes the
    fault-free output; the rest -- the elements a fault reached -- are
    gathered into one contiguous array and evaluated.  Bit patterns decide,
    not values: ``-0.0 == 0.0`` although GELU(-0.0) is -0.0, and a NaN never
    equals itself.  The activation is elementwise, so every output that is
    not a NaN is bitwise the one evaluating the whole stack gives.  Only a
    NaN's payload may differ (GELU's last multiply has two NaN operands, and
    NumPy's loops pick either one), and no record reads a payload.
    """

    def activate(hidden: np.ndarray) -> np.ndarray:
        hidden = np.asarray(hidden, dtype=np.float32)
        fresh = hidden.view(np.uint32) != golden_in.view(np.uint32)
        out = np.broadcast_to(golden_out, hidden.shape).copy()
        if fresh.any():
            out[fresh] = activation(hidden[fresh])
        return out

    return activate


def _golden_trace(model, ids: np.ndarray, use_flash: bool, weights: dict) -> list:
    """Each block's fault-free activation ``(input, output)`` on one forward path.

    Recorded by one clean pass of the path's batched forward at a trial
    axis of one, so a trial's values equal them wherever no fault reached.
    """
    trace = []  # the forward calls each block's activation once, in order

    def recording(activation):
        def record(hidden: np.ndarray) -> np.ndarray:
            out = activation(hidden)
            trace.append((np.asarray(hidden, dtype=np.float32), out))
            return out

        return record

    activations = [recording(block.ffn.activation) for block in model.blocks]
    router = _BatchFaultRouter([None])
    if use_flash:
        _forward_batched_unprotected(model, ids, router, activations, weights)
    else:
        _forward_batched(model, ids, router, [FaultToleranceReport()], activations, weights)
    return trace


def _golden_activations(fixture, use_flash: bool) -> list:
    """The blocks' activations for a batch of trials on ``fixture``'s model.

    GELU reuses the fault-free run's values (:func:`_reusing`); the golden
    trace is recorded on first use per forward path and kept in the
    fixture, so it is evicted and rebuilt with the model it came from.  ReLU
    (T5) runs as is: it is one cheap pass, which comparing bit patterns
    would not beat.
    """
    from repro.transformer.layers import relu

    activations = [block.ffn.activation for block in fixture.model.blocks]
    if all(activation is relu for activation in activations):
        return activations
    trace = fixture.gelu_traces.get(use_flash)
    if trace is None:
        trace = _golden_trace(fixture.model, fixture.ids, use_flash, fixture.fp16_weights)
        fixture.gelu_traces[use_flash] = trace
    return [_reusing(activation, *golden) for activation, golden in zip(activations, trace)]


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

    fixture = _transformer_fixture(params)
    model, ids, clean_logits, site_counts = fixture[:4]
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
    activations = _golden_activations(fixture, use_flash)
    weights = fixture.fp16_weights
    if use_flash:
        reports = None
        logits = _forward_batched_unprotected(model, token_batch, router, activations, weights)
    else:
        reports = [FaultToleranceReport() for _ in range(n_trials)]
        logits = _forward_batched(model, token_batch, router, reports, activations, weights)

    denom = max(float(np.abs(clean_logits).max()), 1e-12)
    # One stacked |faulty - clean| pass, in place; the per-trial max over its
    # own slice is the same value the scalar kernel's whole-array max produces.
    np.subtract(logits, clean_logits, out=logits)
    deviations = np.abs(logits, out=logits).reshape(n_trials, -1).max(axis=1)
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
