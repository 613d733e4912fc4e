"""Print a sha256 digest of every output of the benchmark meetings.

    OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py > digests.txt

Run it from the root of two checkouts and diff the two files: equal lines
mean those outputs are bit-identical.  Each line is ``name sha256``.  Or
compare with a saved run in one step:

    OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py --check digests.txt

which prints each differing line and exits 1 if there is any.  The
meetings are the 10 of ``benchmarks/workloads.py`` (3 decode_net, 3
decode_oracle, 4 train), set up and run through that module, which this
script only imports.  Per meeting it hashes:

* the scenario's dataclass fields and the rendered audio;
* decode meetings: the oracle's ideal ratio masks (decode_oracle); per
  block, the float64 |X| and IPD planes that ``MaskNet.begin_block`` reads
  and the static-projection handle it returns (decode_net), so the
  features show here before the network casts them to float32;
* train meetings: the ``TrainSample`` arrays, in the flat layout of
  :class:`TrainSample` below, then one epoch's params and losses, and the
  decode by the trained network;
* every decode: the streams, the per-block masks and chunks, the final
  embeddings, the counts, the consistency log and the DER/SDR/counting
  scores.  The masks are the values of the records ``Session.push``
  returns for each block after its verdict, and the chunks are
  ``BlockOutput.chunk(slot)`` of each active slot of each pushed block,
  both from a second decode of the meeting; everything else is read from
  the ``decode_session`` result.

Then it hashes ``sample_scenario`` draws, one line per (profile, pool size,
length) over ``SAMPLER_SEEDS`` seeds, so that a change to the scenario
sampler shows even where no benchmark meeting reaches it.

Run as a script, it pins BLAS to one thread before numpy is imported, so
that matrix products sum in the same order on every run, and writes no
bytecode.  Imported, it leaves the process's settings alone.
"""

import os
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from blocksep import decoding, estimators, simulate  # noqa: E402
from blocksep.dsp import block_samples, blocks  # noqa: E402

SAMPLER_POOLS = (4, 5, 6)
SAMPLER_LENGTHS_S = (10.0, 30.0, 60.0, 120.0)
SAMPLER_SEEDS = range(40)


def _feed(h, obj):
    """Hash ``obj`` by structure: arrays by dtype, shape and bytes."""
    if isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}(".encode())
        for f in dataclasses.fields(obj):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(obj, f.name))
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0])):
            h.update(f"{key!r}:".encode())
            _feed(h, value)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for value in obj:
            _feed(h, value)
        h.update(b"]")
    else:
        h.update(f"{type(obj).__name__} {obj!r};".encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def rendered_outputs(rendered):
    return {
        "mixture": rendered.mixture.samples,
        "noise": rendered.noise.samples,
        "references": {spk: sig.samples for spk, sig in rendered.references.items()},
        "timeline": [dataclasses.astuple(s) for s in rendered.timeline],
    }


@dataclasses.dataclass
class TrainSample:
    """A training sample's arrays laid out per kind, as ``TrainSample`` held
    them before its ground truth became one ``BlockTruth`` record per block,
    so that ``train_sample`` lines compare with digests of those versions."""

    sample_id: str
    mags: list
    ipds: list
    noise_mags: list
    source_mags: list
    irms: list
    noise_irms: list
    activity: list


def flat_train_sample(sample):
    truth = sample.truth
    return TrainSample(sample.sample_id, sample.mags, sample.ipds,
                       [t.noise_mag for t in truth], [t.source_mags for t in truth],
                       [{s: m.values for s, m in t.irms.items()} for t in truth],
                       [t.noise_irm.values for t in truth],
                       [t.active for t in truth])


def oracle_irms(est):
    """Noise and speaker IRMs per block."""
    return [{"noise": blk.noise_irm.values,
             "speakers": {s: blk.irms[s].values for s in est.speakers}}
            for blk in est.blocks]


def net_block_inputs(item, stft_cfg):
    """Per block, the digest of the float64 |X|, the IPD planes and the
    network's handle for them, features made as a decode makes them."""
    mixture = item.rendered.mixture
    block_n = block_samples(workloads.DECODER.block_len_s, mixture.sample_rate)
    out = []
    for b, block in enumerate(blocks(mixture.samples, block_n)):
        feats = decoding.block_features(block, stft_cfg)
        ipd = feats.ipd
        out.append(digest({"mag": feats.mag, "ipd": ipd,
                           "handle": item.estimator.begin_block(b, feats)}))
    return out


def pushed_blocks(item, estimator, stft_cfg):
    """Per block, {slot: mask values} after the verdict, the ``.values`` of
    each ``CheckedMask`` record that ``Session.push`` returns, and {slot:
    chunk} of each active slot, as ``BlockOutput.chunk`` synthesizes it."""
    mixture = item.rendered.mixture
    session = decoding.Session(estimator, workloads.DECODER, stft_cfg, mixture.sample_rate)
    masks, chunks = [], []
    for block in blocks(mixture.samples, session.block_n):
        out = session.push(block)
        masks.append({slot: rec.values for slot, rec in out.masks.items()})
        chunks.append({slot: out.chunk(slot) for slot in out.active})
    return masks, chunks


def decode_outputs(result, pushed, item, workdir):
    state = result.state
    masks, chunks = pushed
    return {
        "streams": {slot: sig.samples for slot, sig in result.streams.items()},
        "masks": masks,
        "chunks": chunks,
        "embeddings": state.embeddings,
        "counts": {"activity": result.activity,
                   "per_block": result.per_block_counts,
                   "iterations": state.iteration_counts,
                   "final": result.final_count},
        "consistency_log": result.consistency_log,
        "scores": workloads.score_meeting(result, item, workdir),
    }


def meeting_outputs(workload, seed, workdir, checkpoint):
    item = workloads.set_up(workload, seed, checkpoint)
    stft_cfg = workloads.decode_stft(workload)
    yield "scenario", item.rendered.scenario
    yield "audio", rendered_outputs(item.rendered)
    if workload.kind == "train":
        yield "train_sample", flat_train_sample(item.sample)
        params, history = workloads.train_epoch(item)
        yield "trained_params", params.arrays
        yield "epoch_losses", [(s.epoch, s.total, s.mmse, s.resmask, s.triplet)
                               for s in history]
        estimator = estimators.MaskNet(params)
    else:
        if workload.estimator == "oracle":
            yield "oracle_irms", oracle_irms(item.estimator)
        else:
            yield "block_inputs", net_block_inputs(item, stft_cfg)
        estimator = item.estimator
    result = workloads.decode(item, estimator, stft_cfg)
    pushed = pushed_blocks(item, estimator, stft_cfg)
    for name, value in decode_outputs(result, pushed, item, workdir).items():
        yield f"decode.{name}", value


def digest_lines():
    """Yield (name, sha256) for every output, in print order."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for workload in workloads.FULL.values():
            checkpoint = (workloads.write_checkpoint(workload, workdir)
                          if workload.estimator == "net" else None)
            for seed in workload.meeting_seeds:
                prefix = f"{workload.name}/{workloads.item_key(workload, seed)}"
                for name, value in meeting_outputs(workload, seed, workdir, checkpoint):
                    yield f"{prefix}/{name}", digest(value)
    for profile in sorted(simulate.PROFILES):
        for n_pool in SAMPLER_POOLS:
            pool = simulate.make_pool(n_pool)
            for length in SAMPLER_LENGTHS_S:
                draws = [simulate.sample_scenario(profile, length, pool, seed)
                         for seed in SAMPLER_SEEDS]
                yield f"sampler/{profile}/pool{n_pool}/{length:g}s", digest(draws)


def check(saved_path) -> int:
    """Compare with a saved run; print each differing line, return the count.
    The summary also counts the new lines, which the saved run lacks."""
    saved = dict(line.split() for line in Path(saved_path).read_text().splitlines()
                 if line.strip())
    n_saved = len(saved)
    differ = new = 0
    for name, value in digest_lines():
        expected = saved.pop(name, None)
        if expected != value:
            differ += 1
            new += expected is None
            print(f"DIFFERS {name} {value} (saved: {expected or 'no such line'})",
                  flush=True)
    for name in saved:
        differ += 1
        print(f"DIFFERS {name}: saved, but no longer produced", flush=True)
    print(f"{differ} differing line(s): {differ - new} of the {n_saved} saved, {new} new")
    return differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the lines of a saved run instead of "
                             "printing them; exit 1 if any differs")
    args = parser.parse_args()
    if args.check:
        sys.exit(1 if check(args.check) else 0)
    for name, value in digest_lines():
        print(f"{name} {value}", flush=True)


if __name__ == "__main__":
    main()
