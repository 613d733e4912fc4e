"""Fast test of the benchmark harness itself.

Runs every workload once on a tiny meeting through the single command and
checks the printed result against ``BENCHMARK.json``; then traces a tiny
decode and a tiny training epoch in process and checks that spans nest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Per workload, layer counts that must read 0: the layer is bypassed there.
BYPASSED = {
    "decode_net": ("decoding.consistency_checks", "decoding.redecode_estimates"),
    "decode_oracle": ("kernels.rnn_forward_steps",),
    "train": ("dsp.istft_calls",),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_single_command_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if trace:
        for name in BYPASSED[workload]:
            assert result["metrics"][name]["value"] == 0.0, name
    leftovers = [p.name for p in ROOT.glob(".bench_work-*")]
    assert not leftovers


def test_spans_nest_and_wrappers_are_restored(tmp_path):
    originals = {name: getattr(wl.decoding, name) for name in ("stft", "decode_block")}
    forward = wl.estimators.MaskNet.__dict__["forward"]
    from_rendered = wl.estimators.OracleMaskEstimator.__dict__["from_rendered"]
    with Tracer() as tracer:
        layers.install_layer_spans(tracer)
        for name in ("decode_net", "decode_oracle", "train"):
            workload = wl.TINY[name]
            with tracer.span("op"):
                if workload.kind == "train":
                    item = wl.set_up(workload, workload.meeting_seeds[0])
                    wl.train_epoch(item)
                elif workload.estimator == "net":
                    wl.decode(wl.set_up(workload, workload.meeting_seeds[0],
                                        wl.write_checkpoint(workload, tmp_path)))
                else:
                    wl.decode(wl.set_up(workload, workload.meeting_seeds[0]))

    assert {getattr(wl.decoding, n) for n in originals} == set(originals.values())
    assert wl.estimators.MaskNet.__dict__["forward"] is forward
    assert wl.estimators.OracleMaskEstimator.__dict__["from_rendered"] is from_rendered

    spans = tracer.spans
    names = {s.name for s in spans}
    for expected in ("dsp.stft", "dsp.istft", "decoding.decode_block", "MaskNet.forward",
                     "kernels.rnn_seq_forward", "kernels.rnn_seq_backward",
                     "Oracle.estimate", "Oracle.from_rendered", "training.unroll",
                     "Adam.step", "simulate.render"):
        assert expected in names
    self_times = tracer.self_times()
    kids = tracer.children()
    for i, span in enumerate(spans):
        assert span.end >= span.start
        assert self_times[i] >= -1e-9
        assert sum(spans[k].duration for k in kids[i]) <= span.duration + 1e-9
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert self_times[i] <= parent.duration - self_times[span.parent] + 1e-9

    per_pass = layers.layer_metrics(tracer, passes=1)
    assert per_pass["estimators.forward_s"] <= (
        sum(s.duration for s in spans if s.name == "MaskNet.forward"))
    assert per_pass["kernels.rnn_forward_steps"] > 0
