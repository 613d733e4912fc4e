"""The blocksep benchmark: one command, three workloads.

    python3 benchmarks/run.py --workload decode_oracle --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; with ``--trace 1`` it measures the per-layer metrics from
a separate traced pass, plus the tracing overhead and a kernel micro-run.
Every operation's output is checked against ``benchmarks/reference.json``; a
mismatch or an exception counts as a failed operation.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A run that cannot measure a metric because operations
failed prints that line with ``correct: false`` and no metrics, and exits 1.

Workloads are described in ``benchmarks/workloads.py``.  The meeting set of
each workload is fixed; ``--seed`` orders the meetings within the run.

An end-to-end run (``--trace 0``), in order:

1. set-up: scenario, render and estimator (or training sample) per meeting;
   ``setup_s`` is the median over the meetings;
2. one warm-up operation per meeting under tracemalloc (peak and retained
   memory), checked against the references and scored for quality (DER,
   SDR, counting);
3. the timed loop: operations round robin for ``--seconds``; ``rtf`` is the
   sum over meetings of the median operation time, per audio second.

Wall times (``setup_s``, ``rtf``) are in reference-host seconds: each is
divided by the mean time of a calibration loop run just before and just
after it; see ``benchmarks/hostspeed.py``.

An operation is the decode of one meeting or, on ``train``, one epoch on
one meeting's training sample.

Generated load comes from this one process; BLAS is pinned to one thread
before numpy is imported.  ``--record`` rewrites the reference values from
the current program (a deliberate behaviour change) instead of checking.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
MEMORY_UNIT = 1e6  # bytes per MB


def _fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    if not (ROOT / "src" / "blocksep" / "__init__.py").is_file():
        _fail(f"no blocksep sources under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail("BENCHMARK.json not found at the repository root")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


_load_program()

import numpy as np  # noqa: E402

import env  # noqa: E402
import layers  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


class Abort(Exception):
    """Failed operations left a metric without a measurement."""


class Run:
    """Operation counter, reference checks and the run's scratch directory."""

    def __init__(self, workload, size, record, workdir):
        self.record = record
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        refs = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
        self.refs = refs
        self.mine = refs.setdefault(size, {}).setdefault(workload.name, {})
        dtype = "float64" if workload.estimator == "oracle" else "float32"
        self.rtol = wl.tolerance(np.dtype(dtype))

    def check(self, key, summary):
        """Compare an output summary with the reference; True if it matches."""
        if self.record:
            self.mine.setdefault(key, {}).update(summary)
            return True
        expected = self.mine.get(key)
        if expected is None:
            problems = [f"no reference for {key}"]
        else:
            problems = wl.compare(summary, {k: expected.get(k) for k in summary}, self.rtol)
        if problems:
            print(f"check failed for {key}: " + "; ".join(problems), file=sys.stderr)
        return not problems

    def attempt(self, op):
        """Run one operation; returns its result, or None if it raised.

        Counts the operation; an exception counts it as failed.  The caller
        checks the result and counts a mismatch once per operation.
        """
        self.attempted += 1
        try:
            return op()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None

    def save_references(self):
        REFERENCE_PATH.write_text(json.dumps(self.refs, indent=1, sort_keys=True) + "\n")


def ordered_seeds(workload, seed):
    order = np.random.default_rng(seed).permutation(len(workload.meeting_seeds))
    return [workload.meeting_seeds[i] for i in order]


def set_up_all(workload, seeds, checkpoint, speed):
    """Set up every meeting; returns the items and their set-up times in
    reference-host seconds."""
    items, times = [], []
    for s in seeds:
        before = speed.sample()
        t0 = time.perf_counter()
        items.append(wl.set_up(workload, s, checkpoint))
        times.append(speed.reference_s(time.perf_counter() - t0, before))
    return items, times


def operations(workload, items):
    """(item, operation, summary function) per timed unit: the decode of one
    meeting, or one training epoch on one meeting's sample."""
    if workload.kind == "train":
        return [(item, (lambda it=item: wl.train_epoch(it)), wl.train_summary)
                for item in items]
    return [(item, (lambda it=item: wl.decode(it)), wl.decode_summary) for item in items]


def timed_loop(run, ops, seconds, min_rounds, speed):
    """Round-robin operations for ``seconds``; per item key, operation
    times in reference-host seconds."""
    times = {item.key: [] for item, *_ in ops}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for item, op, summarize in ops:
            gc.collect()
            before = speed.sample()
            t0 = time.perf_counter()
            result = run.attempt(op)
            elapsed = speed.reference_s(time.perf_counter() - t0, before)
            if result is not None:
                run.failed += not run.check(item.key, summarize(result))
                times[item.key].append(elapsed)
            del result
        rounds += 1
    return times


def rtf(items, times):
    """Sum over items of the median operation time, per second of audio."""
    if any(not times[item.key] for item in items):
        raise Abort("an operation never completed; no timing to report")
    return (sum(statistics.median(times[item.key]) for item in items)
            / sum(item.audio_s for item in items))


def score(workload, item, result, workdir):
    """Quality of one warm-up result: the decoded meeting, or the meeting
    decoded by the network its training epoch produced."""
    if workload.kind == "train":
        net = wl.estimators.MaskNet(result[0])
        result = wl.decode(item, net, wl.decode_stft(workload))
    return wl.score_meeting(result, item, workdir)


def warm_up(run, workload, ops):
    """One operation per item under tracemalloc, checked and scored.

    Returns peak and retained traced megabytes per audio second (retained:
    while the result is still held) and the pooled quality figures.
    """
    peak = retained = 0
    scores = []
    for item, op, summarize in ops:
        gc.collect()
        tracemalloc.start()
        try:
            result = run.attempt(op)
            peak += tracemalloc.get_traced_memory()[1]
            gc.collect()
            retained += tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        if result is None:
            raise Abort(f"operation on {item.key} raised; nothing to score")
        ok = run.check(item.key, summarize(result))
        try:
            scores.append(score(workload, item, result, run.workdir))
        except Exception:
            traceback.print_exc()
            run.failed += 1
            raise Abort(f"could not score {item.key}") from None
        ok = run.check("quality:" + item.key, scores[-1].as_reference()) and ok
        run.failed += not ok
        del result
    audio = sum(item.audio_s for item, *_ in ops)
    return peak / MEMORY_UNIT / audio, retained / MEMORY_UNIT / audio, wl.quality(scores)


def end_to_end(run, workload, seeds, seconds, checkpoint):
    speed = HostSpeed()
    items, setup_times = set_up_all(workload, seeds, checkpoint, speed)
    ops = operations(workload, items)
    peak, retained, q = warm_up(run, workload, ops)
    times = timed_loop(run, ops, seconds, 1, speed)
    return {
        "setup_s": statistics.median(setup_times),
        "rtf": rtf(items, times),
        "peak_mb_per_audio_s": peak,
        "retained_mb_per_audio_s": retained,
        "der": q["der"],
        "sdr_ratio": 10.0 ** (q["sdr_db"] / 10.0),
        "count_acc": q["count_acc"],
        "speakers_found_frac": q["speakers_found_frac"],
    }, {"sdr_db": q["sdr_db"], "timed_ops": sum(len(t) for t in times.values()),
        "host_loop_median_s": statistics.median(speed.samples)}


def traced(run, workload, seeds, seconds, checkpoint):
    """Per-layer metrics and tracing overhead.

    Alternates, for ``seconds``: one untraced round of operations on items
    set up once, then one traced pass that sets every meeting up again and
    runs its operations.  Both sides get the same number of samples at
    nearby times, so their difference is the tracing overhead.
    """
    speed = HostSpeed()
    items, _ = set_up_all(workload, seeds, checkpoint, speed)
    ops = operations(workload, items)
    untraced = {item.key: [] for item in items}
    traced_times = {item.key: [] for item in items}
    mb = [0.0, 0.0]
    tracer = Tracer()
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for key, times in timed_loop(run, ops, 0, 1, speed).items():
            untraced[key] += times
        with tracer:
            layers.install_layer_spans(tracer)
            with tracer.span("setup"):
                pass_items = [wl.set_up(workload, s, checkpoint) for s in seeds]
            for item, op, summarize in operations(workload, pass_items):
                gc.collect()
                before = speed.sample()
                with tracer.span("op") as span:
                    result = run.attempt(op)
                elapsed = speed.reference_s(span.duration, before)
                if result is None:
                    continue
                traced_times[item.key].append(elapsed)
                run.failed += not run.check(item.key, summarize(result))
                if workload.kind == "decode":
                    cache_mb, streams_mb = layers.nbytes_mb(result)
                    mb[0] += cache_mb
                    mb[1] += streams_mb
                del result
        passes += 1
    out = layers.layer_metrics(tracer, passes)
    untraced_rtf, traced_rtf = rtf(items, untraced), rtf(items, traced_times)
    out.update({
        "decoding.cache_mb": mb[0] / passes,
        "decoding.streams_mb": mb[1] / passes,
        "trace.rtf_untraced": untraced_rtf,
        "trace.rtf_traced": traced_rtf,
        "trace.overhead_rtf": traced_rtf - untraced_rtf,
    })
    out.update(layers.kernel_micro_metrics())
    return out, {"passes": passes, "host_loop_median_s": statistics.median(speed.samples)}


def select(metrics, specs, label):
    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        _fail(f"{label} metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in specs}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one 12 s meeting per workload (the harness's fast test)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's reference values")
    args = parser.parse_args(argv)

    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    size = "tiny" if args.tiny else "full"
    workload = (wl.TINY if args.tiny else wl.FULL)[args.workload]
    print("env " + json.dumps(env.describe(args), sort_keys=True))
    seeds = ordered_seeds(workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        run = Run(workload, size, args.record, workdir)
        checkpoint = (wl.write_checkpoint(workload, workdir)
                      if workload.estimator == "net" else None)
        try:
            if args.trace:
                measured, info = traced(run, workload, seeds, args.seconds, checkpoint)
                specs = bench["per_layer"]
            else:
                measured, info = end_to_end(run, workload, seeds, args.seconds, checkpoint)
                specs = bench["end_to_end"]
        except Abort as abort:
            print(f"run.py: {abort}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": run.attempted,
                              "failed": run.failed, "metrics": {}}))
            sys.exit(1)
    if args.record:
        run.save_references()
    metrics = select(measured, specs, "per-layer" if args.trace else "end-to-end")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    info["failed_frac"] = run.failed / run.attempted
    info["meetings"] = [wl.item_key(workload, s) for s in seeds]
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
