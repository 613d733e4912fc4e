"""Which ``blocksep`` calls the traced run wraps, and the per-layer metrics
computed from the spans they record.

Each function is wrapped where its callers look it up: ``decoding.stft`` is
the name ``decode_session`` resolves, ``estimators.stft`` the one
``OracleMaskEstimator.from_rendered`` resolves, and so on.  Every time
metric is in wall seconds (not host-scaled) per traced pass, where a pass
sets up every meeting of the workload once and runs its operation once on
each (one decode, or one training epoch on the meeting's sample); counts
and megabytes are per pass too.
"""

from collections import Counter, defaultdict

import numpy as np

from blocksep import decoding, estimators, kernels, simulate, training

from bench_kernels import SHAPES, micro_run, step_bytes, step_flops


def _rnn_attrs(args, result):
    seq, w_h = args[0], args[1]
    return {"steps": seq.shape[0], "hidden": w_h.shape[0], "itemsize": seq.itemsize}


def _accepted(args, result):
    return {"accepted": bool(result)}


def install_layer_spans(tracer):
    """Wrap every traced layer boundary; ``tracer.uninstall()`` undoes it."""
    for module in (decoding, estimators, training):
        tracer.install(module, "stft", "dsp.stft")
    for module in (decoding, training):
        tracer.install(module, "ipd", "dsp.ipd")
    tracer.install(decoding, "istft", "dsp.istft")
    tracer.install(decoding, "apply_mask", "dsp.apply_mask")
    tracer.install(decoding, "block_features", "decoding.block_features")
    tracer.install(decoding, "decode_block", "decoding.decode_block")
    tracer.install(decoding, "consistency_check", "decoding.consistency_check",
                   _accepted)
    tracer.install(kernels, "rnn_seq_forward", "kernels.rnn_seq_forward", _rnn_attrs)
    tracer.install(kernels, "rnn_seq_backward", "kernels.rnn_seq_backward", _rnn_attrs)
    for method in ("estimate", "prepare_block", "forward", "backward"):
        tracer.install(estimators.MaskNet, method, f"MaskNet.{method}")
    for method in ("estimate", "from_rendered"):
        tracer.install(estimators.OracleMaskEstimator, method, f"Oracle.{method}")
    for name in ("unroll", "unroll_backward", "build_train_sample"):
        tracer.install(training, name, f"training.{name}")
    tracer.install(training, "total_loss", "losses.total_loss")
    tracer.install(training.Adam, "step", "Adam.step")
    tracer.install(simulate, "render", "simulate.render")


def _block_latencies(tracer, kids):
    """Per decoded block: block features + decode + consistency check, in s.

    A block starts at each ``decoding.block_features`` child of an ``op``
    span; decode_session runs the three steps of one block back to back.
    """
    out = []
    for i, span in enumerate(tracer.spans):
        if span.name != "op":
            continue
        for k in kids[i]:
            child = tracer.spans[k]
            if child.name == "decoding.block_features":
                out.append(0.0)
            if child.name in ("decoding.block_features", "decoding.decode_block",
                              "decoding.consistency_check"):
                out[-1] += child.duration
    return out


def layer_metrics(tracer, passes):
    """Per-layer figures per traced pass, keyed by metric name."""
    spans = tracer.spans
    kids = tracer.children()
    self_times = tracer.self_times()
    incl = defaultdict(float)
    excl = defaultdict(float)
    calls = Counter()
    under = Counter()  # (name, parent name) -> calls
    for span, self_t in zip(spans, self_times):
        incl[span.name] += span.duration
        excl[span.name] += self_t
        calls[span.name] += 1
        parent = spans[span.parent].name if span.parent is not None else None
        under[(span.name, parent)] += 1

    estimates = ("MaskNet.estimate", "Oracle.estimate")
    checks = [s for s in spans if s.name == "decoding.consistency_check"]
    net_estimates = calls["MaskNet.estimate"]
    latencies = _block_latencies(tracer, kids)
    flops = bytes_ = 0
    for span in spans:
        kind = {"kernels.rnn_seq_forward": "forward",
                "kernels.rnn_seq_backward": "backward"}.get(span.name)
        if kind:
            a = span.attrs
            flops += a["steps"] * step_flops(kind, a["hidden"])
            bytes_ += a["steps"] * step_bytes(kind, a["hidden"], a["itemsize"])

    def steps(name):
        return sum(s.attrs["steps"] for s in spans if s.name == name)

    per_pass = {
        "dsp.stft_s": incl["dsp.stft"],
        "dsp.ipd_s": incl["dsp.ipd"],
        "dsp.stft_calls": calls["dsp.stft"],
        "dsp.istft_s": incl["dsp.istft"],
        "dsp.istft_calls": calls["dsp.istft"],
        "dsp.apply_mask_s": incl["dsp.apply_mask"],
        "decoding.block_features_s": incl["decoding.block_features"],
        "decoding.decode_block_s": incl["decoding.decode_block"],
        "decoding.consistency_check_s": incl["decoding.consistency_check"],
        "decoding.consistency_checks": len(checks),
        "decoding.redecode_estimates": sum(
            under[(e, "decoding.consistency_check")] for e in estimates),
        "estimators.prepare_block_s": incl["MaskNet.prepare_block"],
        "estimators.forward_s": excl["MaskNet.forward"],
        "estimators.forward_calls": calls["MaskNet.forward"],
        "estimators.backward_s": excl["MaskNet.backward"],
        "estimators.oracle_estimate_s": incl["Oracle.estimate"],
        "estimators.oracle_estimate_calls": calls["Oracle.estimate"],
        "estimators.from_rendered_s": incl["Oracle.from_rendered"],
        "kernels.rnn_forward_s": incl["kernels.rnn_seq_forward"],
        "kernels.rnn_forward_steps": steps("kernels.rnn_seq_forward"),
        "kernels.rnn_backward_s": incl["kernels.rnn_seq_backward"],
        "kernels.rnn_backward_steps": steps("kernels.rnn_seq_backward"),
        "kernels.rnn_flops": flops,
        "kernels.rnn_bytes": bytes_,
        "losses.total_loss_s": incl["losses.total_loss"],
        "training.unroll_s": excl["training.unroll"],
        "training.unroll_backward_s": excl["training.unroll_backward"],
        "training.adam_step_s": incl["Adam.step"],
        "training.build_train_sample_s": incl["training.build_train_sample"],
        "simulate.render_s": incl["simulate.render"],
        "trace.spans": len(spans),
    }
    out = {name: value / passes for name, value in per_pass.items()}
    blocks = calls["decoding.decode_block"]
    out["decoding.estimates_per_block"] = (
        sum(under[(e, "decoding.decode_block")] for e in estimates) / blocks
        if blocks else 0.0)
    out["decoding.consistency_accept_frac"] = (
        sum(s.attrs["accepted"] for s in checks) / len(checks) if checks else 0.0)
    out["decoding.block_latency_max_ms"] = 1e3 * max(latencies, default=0.0)
    out["estimators.memo_hit_frac"] = (
        1.0 - under[("MaskNet.prepare_block", "MaskNet.estimate")] / net_estimates
        if net_estimates else 0.0)
    return out


def kernel_micro_metrics():
    """Time per step of the recurrence kernels in use, at both shapes."""
    hidden = SHAPES["decode"][1]
    itemsize = np.dtype(np.float32).itemsize
    out = {"kernels.using_numba": float(kernels.USING_NUMBA)}
    for (kind, shape), sec in micro_run(kernels.rnn_seq_forward,
                                        kernels.rnn_seq_backward).items():
        out[f"kernels.micro_{kind}_{shape}_us_per_step"] = sec * 1e6
    for kind in ("forward", "backward"):
        out[f"kernels.micro_{kind}_flops_per_step"] = step_flops(kind, hidden)
        out[f"kernels.micro_{kind}_bytes_per_step"] = step_bytes(kind, hidden, itemsize)
    return out


def nbytes_mb(result):
    """Feature-cache and output-stream megabytes held by a DecodeResult."""
    cache = sum(f.mag.nbytes + f.ipd.cos.nbytes + f.ipd.sin.nbytes + f.spec.nbytes
                for f in result.state.cache)
    streams = sum(s.samples.nbytes for s in result.streams.values())
    return cache / 1e6, streams / 1e6
