"""Digest the output bytes of the attention kernels and a transformer campaign.

Prints one ``<check> <count> <sha256>`` line per check, so two checkouts can be
compared bit for bit:

* ``kernels`` -- ``forward`` of every protection scheme at every fault site it
  executes (none/efta/efta_unified: the seven fused sites; decoupled: gemm_qk,
  softmax, gemm_pv) under five fault models (seu, stuck_at_1, intermittent,
  multi_bit_burst, row_line), on two ragged shapes (seq 40 / dim 16 /
  block 16 and seq 23 / dim 8 / block 8) with one and two heads, plus a clean
  call per scheme and shape: 976 calls.  Each call's output, its five report
  counters and its injection records are hashed.
* ``kernels-two-site`` -- ``forward`` of the fused schemes (none, efta,
  efta_unified) with two faults in one injector, at two different per-tile
  sites and sharing the injector's generator, so the digest also pins the
  order in which a kernel offers tiles to the sites.  Every pair of the six
  per-tile sites, with neither, the first or both faults pinned to a block,
  under all five fault models, on shapes with at least four full column
  blocks per row panel and a ragged tail (seq 72 / dim 8 / block 16 and
  seq 100 / dim 16 / block 16), with one and two heads: 540 calls.
* ``kernels-paper-shape`` -- ``forward`` of every scheme at perfbench's paper
  shape (seq 512 / dim 64 / block 64, two heads): one clean call per scheme,
  then, for the fused schemes, one ``seu`` and one ``stuck_at_1`` fault at
  each of the seven fused sites, pinned in the first, a middle and the last
  row panel of one of the heads: 130 calls.  The toy shapes above fit every
  equal-height panel of a head into one panel span; here a span holds two
  panels, so span boundaries fall mid-head, around the faulty panel too.
* ``campaign-transformer`` -- one ``run_experiment`` run of the transformer
  fault campaign of perfbench's ``campaign-transformer`` workload (seed 0,
  serial executor, jsonl store), hashed through the store's canonical export.
  The count is the number of trials.
* ``campaign-transformer-faultmodels`` -- the same for the transformer
  campaign in bit-error-rate mode at about one fault per trial, so that
  trials carry zero, one or several faults: a transient (``seu``) and a
  persistent (``stuck_at_1``) fault model, a GELU (GPT2) and a ReLU
  (T5-Small) model, schemes none, efta_unified and decoupled, each on the
  linear site alone (scheme none's fast path) and on a linear/attention
  site list.
* ``campaign-abft-coverage`` -- the same for the ``abft_error_coverage``
  campaign on a ragged 30 x 37 x 12 block (scheme tensor and element x bit
  error rate 1e-7 and 1e-5, 200 trials each), run on the ``process`` executor
  with two workers so that late-index batches derive their seeds in a worker.
* ``fp16-fold`` -- ``fp16_quantize`` and the strided checksum fold on fixed,
  seed-drawn float32 bit patterns from every class FP16 rounding tells apart
  (zeros, float32 and FP16 subnormals, FP16 normals and their ties, values
  rounding to 65504 or to infinity, infinities, NaN payloads), both signs.
  Rounding runs below and above the size where it switches from NumPy's
  cast to integer rounding, on contiguous, transposed, sliced and reversed
  layouts, and hashes the result's bits and strides.  The fold runs through
  ``strided_sums`` (``S`` and ``|S|``), ``strided_checksum_flags`` and
  ``verify_strided_checksums_stacked`` on ragged shapes, one as wide as
  perfbench's LM head; its float64 sums are hashed with NaNs made one
  pattern, because which NaN payload an add of two NaNs returns depends on
  NumPy's loop, not on the order of the sum.  The count is the number of
  arrays hashed.

The script imports only public entry points of ``repro``, so it runs against
older trees too.  To compare a change with its base, run this file once per
checkout with that checkout's sources on the path and diff the output::

    PYTHONPATH=src python scripts/kernel_parity.py > head.txt
    PYTHONPATH=../base/src python scripts/kernel_parity.py > base.txt
    diff base.txt head.txt

The digests depend on NumPy, the BLAS library and the CPU, so only runs on
the same machine and environment are comparable.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.core.config import AttentionConfig
from repro.core.schemes import build_scheme
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSpec

FUSED_SITES = (
    "gemm_qk", "reduce_max", "subtract_exp", "reduce_sum", "rescale", "gemm_pv", "normalize",
)
SCHEME_SITES = {
    "none": FUSED_SITES,
    "efta": FUSED_SITES,
    "efta_unified": FUSED_SITES,
    "decoupled": ("gemm_qk", "softmax", "gemm_pv"),
}
FAULT_MODELS = {
    "seu": {},
    "stuck_at_1": {},
    "intermittent": {"p": 0.5},
    "multi_bit_burst": {"burst_len": 3},
    "row_line": {},
}
#: (seq_len, head_dim, block_size): both ragged (seq not a multiple of block).
SHAPES = ((40, 16, 16), (23, 8, 8))
HEADS = ((), (2,))
#: The fused kernels' per-tile sites, and shapes with at least four full
#: column blocks per row panel plus a ragged tail.
TILE_SITES = FUSED_SITES[:-1]
TWO_SITE_SHAPES = ((72, 8, 16), (100, 16, 16))
REPORT_COUNTERS = ("detections", "corrections", "recomputations", "restorations", "uncorrectable")

#: perfbench's attention shape (seq_len, head_dim, block_size) and head count.
PAPER_SHAPE = (512, 64, 64)
PAPER_HEADS = 2

#: The ``campaign-transformer`` workload's spec at perfbench's default seed.
CAMPAIGN_SPEC = {
    "campaign": "transformer_inference",
    "n_trials": 16,
    "seed": 0,
    "params": {"model": "GPT2", "hidden_dim": 64, "seq_len": 64, "bits": [12, 13]},
    "grid": {
        "scheme": ["none", "efta_unified", "decoupled"],
        "site": ["linear", "gemm_qk", "gemm_pv"],
    },
}

#: The transformer campaign with zero, one or several faults per trial: at
#: hidden size 32, two layers and 16 tokens a forward exposes 5.4e7 bits,
#: so this rate draws 1.02 faults per trial on average, for both models.
MULTI_FAULT_SPEC = {
    "campaign": "transformer_inference",
    "n_trials": 24,
    "seed": 0,
    "params": {"hidden_dim": 32, "seq_len": 16, "bit_error_rate": 1.9e-8},
    "grid": {
        "model": ["GPT2", "T5-Small"],
        "fault_model": ["seu", "stuck_at_1"],
        "scheme": ["none", "efta_unified", "decoupled"],
        "site": ["linear", ["linear", "gemm_qk", "gemm_pv"]],
    },
}

#: The ``abft_error_coverage`` campaign on a block whose 37 columns leave
#: ragged stride classes.
COVERAGE_SPEC = {
    "campaign": "abft_error_coverage",
    "n_trials": 200,
    "seed": 0,
    "params": {"rows": 30, "cols": 37, "depth": 12},
    "grid": {"scheme": ["tensor", "element"], "bit_error_rate": [1e-7, 1e-5]},
}


def _kernel_calls():
    """(shape, heads, scheme, plan) of every call; ``plan`` is None or (site, model, variant)."""
    for shape in SHAPES:
        for heads in HEADS:
            for scheme, sites in SCHEME_SITES.items():
                plans = [None] + [
                    (site, model, variant)
                    for site in sites
                    for model in FAULT_MODELS
                    for variant in (0, 1)
                ]
                for plan in plans:
                    yield shape, heads, scheme, plan


def _hash_call(digest, out, report) -> None:
    """Fold one call's output, report counters and injection records into ``digest``."""
    digest.update(np.ascontiguousarray(out).tobytes())
    summary = {name: sorted(getattr(report, name).items()) for name in REPORT_COUNTERS}
    summary["injected"] = [dataclasses.asdict(record) for record in report.injected]
    digest.update(json.dumps(summary, sort_keys=True, default=str).encode())


def kernel_digest() -> tuple[int, str]:
    """Digest of every scheme's ``forward`` over the site x fault-model matrix."""
    digest = hashlib.sha256()
    calls = 0
    for (seq, dim, block), heads, scheme, plan in _kernel_calls():
        # Inputs depend only on the shape, the head count and the variant, so
        # every scheme and site of a variant sees the same q, k, v.
        rng = np.random.default_rng([seq, len(heads), plan[2] if plan else 9])
        q, k, v = (rng.standard_normal(heads + (seq, dim)).astype(np.float32) for _ in range(3))
        injector = None
        if plan is not None:
            site, model, _ = plan
            spec = FaultSpec(
                site=site,
                bit=int(rng.integers(8, 15)),
                dtype="fp16",
                occurrence=int(rng.integers(3)),
                fault_model=model,
                model_params=FAULT_MODELS[model],
            )
            injector = FaultInjector(specs=[spec], seed=int(rng.integers(2**31)))
        attention = build_scheme(scheme, AttentionConfig(seq, dim, block_size=block))
        out, report = attention.forward(q, k, v, injector)
        _hash_call(digest, out, report)
        calls += 1
    return calls, digest.hexdigest()


def two_site_digest() -> tuple[int, str]:
    """Digest of the fused schemes' ``forward`` with two faults in one injector."""
    digest = hashlib.sha256()
    calls = 0
    models = list(FAULT_MODELS)
    pairs = list(itertools.combinations(TILE_SITES, 2))
    for seq, dim, block in TWO_SITE_SHAPES:
        config = AttentionConfig(seq, dim, block_size=block)
        n_row_blocks = -(-seq // block)
        for heads in HEADS:
            groups = heads[0] if heads else 1
            for scheme in ("none", "efta", "efta_unified"):
                attention = build_scheme(scheme, config)
                for p, sites in enumerate(pairs):
                    for pinned in range(3):  # neither, the first, both
                        rng = np.random.default_rng([seq, groups, p, pinned])
                        q, k, v = (
                            rng.standard_normal(heads + (seq, dim)).astype(np.float32)
                            for _ in range(3)
                        )
                        specs = []
                        for n, site in enumerate(sites):
                            model = models[(2 * p + 3 * pinned + n) % len(models)]
                            block_ij = None
                            if n < pinned:
                                block_ij = tuple(int(x) for x in rng.integers(n_row_blocks, size=2))
                            specs.append(FaultSpec(
                                site=site,
                                block=block_ij,
                                bit=int(rng.integers(8, 15)),
                                dtype="fp16",
                                occurrence=int(rng.integers(groups if block_ij else 3)),
                                fault_model=model,
                                model_params=FAULT_MODELS[model],
                            ))
                        injector = FaultInjector(specs=specs, seed=int(rng.integers(2**31)))
                        out, report = attention.forward(q, k, v, injector)
                        _hash_call(digest, out, report)
                        calls += 1
    return calls, digest.hexdigest()


def paper_shape_digest() -> tuple[int, str]:
    """Digest of every scheme's ``forward`` at the paper shape, faults pinned across a head."""
    seq, dim, block = PAPER_SHAPE
    config = AttentionConfig(seq, dim, block_size=block)
    rng = np.random.default_rng([seq, PAPER_HEADS])
    q, k, v = (rng.standard_normal((PAPER_HEADS, seq, dim)).astype(np.float32) for _ in range(3))
    n = config.n_blocks
    digest = hashlib.sha256()
    calls = 0
    for scheme in SCHEME_SITES:
        attention = build_scheme(scheme, config)
        plans = [None]
        if scheme != "decoupled":
            plans += itertools.product(FUSED_SITES, ("seu", "stuck_at_1"), (0, n // 2, n - 1))
        for plan in plans:
            injector = None
            if plan is not None:
                site, model, row = plan
                draw = np.random.default_rng([FUSED_SITES.index(site), model == "seu", row])
                spec = FaultSpec(
                    site=site,
                    block=(row, -1 if site == "normalize" else int(draw.integers(n))),
                    bit=int(draw.integers(8, 15)),
                    dtype="fp16",
                    occurrence=int(draw.integers(PAPER_HEADS)),
                    fault_model=model,
                    model_params=FAULT_MODELS[model],
                )
                injector = FaultInjector(specs=[spec], seed=int(draw.integers(2**31)))
            out, report = attention.forward(q, k, v, injector)
            _hash_call(digest, out, report)
            calls += 1
    return calls, digest.hexdigest()


#: Float32 bit-pattern ranges ``[low, high)`` of the classes FP16 rounding
#: tells apart; each is drawn from with both signs.
FP16_CLASSES = (
    (0x00000000, 0x00000001),  # zero
    (0x00000001, 0x00800000),  # float32 subnormals
    (0x00800000, 0x33000000),  # below half the smallest FP16 subnormal
    (0x33000000, 0x38800000),  # FP16 subnormals
    (0x38800000, 0x477FE000),  # FP16 normals
    (0x477FE000, 0x477FF000),  # [65504, 65520): rounds to 65504
    (0x477FF000, 0x7F800000),  # rounds to infinity
    (0x7F800000, 0x7F800001),  # infinity
    (0x7F800001, 0x80000000),  # NaN, quiet and signalling
)


def _fp16_patterns(rng: np.random.Generator, per_class: int = 256) -> np.ndarray:
    """``per_class`` random patterns of every class plus FP16 rounding ties, random signs."""
    bits = [rng.integers(low, high, size=per_class, dtype=np.uint64) for low, high in FP16_CLASSES]
    # Ties: FP16 normals whose 13 dropped bits are exactly half a unit.
    bits.append((rng.integers(0x38800000 >> 13, 0x477FF000 >> 13, size=per_class) << 13) | 0x1000)
    bits = np.concatenate(bits).astype(np.uint32)
    return bits | (rng.integers(0, 2, size=bits.size, dtype=np.uint32) << np.uint32(31))


def fp16_fold_digest() -> tuple[int, str]:
    """Digest of FP16 rounding and the strided checksum fold on special bit patterns."""
    from repro.fp.float16 import fp16_quantize
    from repro.gemm.checksum import (
        strided_checksum_flags,
        strided_sums,
        verify_strided_checksums_stacked,
    )

    digest = hashlib.sha256()
    count = 0

    def update(*arrays) -> None:
        nonlocal count
        for array in arrays:
            array = np.asarray(array)
            if array.dtype == np.float64:  # a fold: one NaN pattern
                array = np.where(np.isnan(array), np.nan, array)
            digest.update(str((array.shape, array.strides)).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
            count += 1

    rng = np.random.default_rng(20)
    pool = _fp16_patterns(rng)
    for size in (777, 4095, 4096, 65_536):
        x = rng.choice(pool, size=size).view(np.float32)
        update(fp16_quantize(x))
    stack = rng.choice(pool, size=(16, 64, 64)).view(np.float32)
    for view in (stack, np.swapaxes(stack, -1, -2), stack[:, ::2, 1:], stack[::-1, :, ::-3]):
        update(fp16_quantize(view))

    for shape, stride in (((16, 64, 997), 8), ((3, 7, 13), 5), ((2, 5, 9), 1), ((1, 1, 9), 8)):
        clean = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)
        clean = clean.astype(np.float32)
        s = clean.copy()
        hit = rng.random(shape) < 0.01
        s[hit] = rng.choice(pool, size=int(hit.sum())).view(np.float32)
        update(*strided_sums(s, stride), strided_sums(np.abs(s), stride)[0])
        flags, res1 = strided_checksum_flags(s, np.zeros(shape[:-1] + (stride,)), stride, 1.0, 0.5)
        update(flags, res1)
        check1, check2 = strided_sums(clean, stride)
        verdicts = verify_strided_checksums_stacked(s, check1, check2, stride, 1e-2, 1e-3)
        update(s)
        digest.update(json.dumps([dataclasses.asdict(v) for v in verdicts], default=str).encode())
    return count, digest.hexdigest()


def campaign_digest(spec: dict, executor: str = "serial", n_workers: int = 1) -> tuple[int, str]:
    """Digest of a campaign spec's canonical results in the jsonl store."""
    from repro.exec import run_experiment
    from repro.store import open_store

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results"
        result = run_experiment(
            spec, executor=executor, n_workers=n_workers, results_path=path, store="jsonl"
        )
        store = open_store(path)
        try:
            for index in range(len(result.points)):
                digest.update(store.export_canonical(index))
        finally:
            store.close()
    trials = sum(len(point.records.records) for point in result.points)
    return trials, digest.hexdigest()


def main() -> int:
    # The fp16 casts overflow by design (faults flip exponent bits).
    warnings.simplefilter("ignore", RuntimeWarning)
    checks = (
        ("kernels", kernel_digest),
        ("kernels-two-site", two_site_digest),
        ("kernels-paper-shape", paper_shape_digest),
        ("campaign-transformer", functools.partial(campaign_digest, CAMPAIGN_SPEC)),
        (
            "campaign-transformer-faultmodels",
            functools.partial(campaign_digest, MULTI_FAULT_SPEC),
        ),
        (
            "campaign-abft-coverage",
            functools.partial(campaign_digest, COVERAGE_SPEC, "process", 2),
        ),
        ("fp16-fold", fp16_fold_digest),
    )
    for name, check in checks:
        count, hexdigest = check()
        print(name, count, hexdigest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
