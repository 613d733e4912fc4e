"""Workload inputs, operations, output checks and quality scoring.

Every workload runs a fixed set of simulated meetings through the public
``blocksep`` API.  The set is fixed so that the quality figures (DER, SDR,
counting) and the output checks have recorded reference values; the run
seed only orders the meetings.  Different meetings differ a lot in speaker
count and consistency checks, and a seed-drawn subset would put that
input-to-input spread into every figure.

* ``decode_net``: profile-A 120 s meetings decoded by a fixed-seed float32
  ``MaskNet`` loaded from a checkpoint.  Most of the time is the network's
  forward pass and its tanh recurrence; an untrained network never raises
  the speaker count after block 0, so no consistency check runs.
* ``decode_oracle``: profile-B 120 s meetings from a 6-speaker pool decoded
  by ``OracleMaskEstimator``.  No kernel calls; iSTFT, STFT/IPD and the
  consistency re-decodes dominate, and the output quality is meaningful.
* ``train``: teacher-forced training with the default ``TrainConfig`` on
  profile-A 60 s samples of 6 blocks: forward, backward and Adam.  The
  timed unit is one epoch on a one-sample dataset, so that each unit lasts
  about as long as one decode.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blocksep import decoding, estimators, metrics, rttm, simulate, training
from blocksep.dsp import StftConfig

# Power-VAD threshold (dBFS, 25 ms frames) that turns a decoded stream into
# speech segments.  The renderer scales every mixture to a 0.9 peak, which
# puts the 10th percentile of active reference-speech frames at -27 to -24
# dBFS and the median noise frame at -40 to -34 dBFS on the decode meetings.
# -35 dBFS sits about 10 dB under quiet speech and above the noise: on the
# oracle streams each meeting's DER moves by at most 0.003 between -45 and
# -35 dBFS, while on the network's streams, which leak noise, false alarms
# fall from 7-23 s to 0.1 s per meeting.
VAD_THRESHOLD_DBFS = -35.0

# Initialisation seed of the float32 network that decode_net loads.
MODEL_SEED = 0

# Decoder settings of every decode: the defaults, as a user would run it.
DECODER = decoding.DecoderConfig()


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "decode" or "train"
    profile: str
    pool_size: int
    length_s: float
    meeting_seeds: tuple  # scenario seeds of the fixed input set
    estimator: str = ""  # "net" or "oracle" for decode workloads


FULL = {
    "decode_net": Workload("decode_net", "decode", "A", 4, 120.0, (0, 1, 2), "net"),
    "decode_oracle": Workload("decode_oracle", "decode", "B", 6, 120.0, (0, 1, 2),
                              "oracle"),
    "train": Workload("train", "train", "A", 4, 60.0, (0, 1, 2, 3)),
}

# One short meeting per workload, for the harness's own fast test.  Seed 1
# gives both profiles speech within 12 s.
TINY = {
    name: Workload(w.name, w.kind, w.profile, w.pool_size, 12.0, (1,), w.estimator)
    for name, w in FULL.items()
}


def decode_stft(workload):
    """STFT used to decode: the decoder default, or the training STFT when
    the training workload decodes its own meetings to score the model."""
    return training.TrainConfig().stft if workload.kind == "train" else StftConfig()


@dataclass
class Item:
    """One set-up meeting: rendered audio plus what the operation needs."""

    key: str
    rendered: simulate.RenderedMeeting
    estimator: object = None  # decode workloads
    sample: training.TrainSample = None  # train workload

    @property
    def audio_s(self):
        return self.rendered.mixture.duration


def item_key(workload, seed):
    return f"{workload.profile}-{workload.length_s:g}s-pool{workload.pool_size}-seed{seed}"


def write_checkpoint(workload, workdir: Path):
    """Write the fixed-seed float32 model a decode_net user would load."""
    stft_cfg = StftConfig()
    params = estimators.init_params(stft_cfg.n_bins, seed=MODEL_SEED,
                                    stft_cfg=stft_cfg, dtype=np.float32)
    path = workdir / f"{workload.name}.bspk"
    estimators.save_params(params, path)
    return path


def set_up(workload, seed, checkpoint=None):
    """Scenario, render and estimator (or training sample) for one meeting.

    Library functions are looked up on their modules at call time so that
    traced runs see these calls.
    """
    pool = simulate.make_pool(workload.pool_size, seed=0)
    scenario = simulate.sample_scenario(workload.profile, workload.length_s, pool, seed)
    rendered = simulate.render(scenario)
    item = Item(item_key(workload, seed), rendered)
    if workload.kind == "train":
        cfg = training.TrainConfig()
        item.sample = training.build_train_sample(rendered, cfg.stft, cfg.block_len_s,
                                                  item.key)
    elif workload.estimator == "net":
        item.estimator = estimators.MaskNet(estimators.load_params(checkpoint))
    else:
        item.estimator = estimators.OracleMaskEstimator.from_rendered(
            rendered, StftConfig(), DECODER.block_len_s)
    return item


def decode(item, estimator=None, stft_cfg=None):
    return decoding.decode_session(item.rendered.mixture, estimator or item.estimator,
                                   DECODER, stft_cfg or StftConfig())


def train_epoch(item):
    """One epoch of ``train`` on one sample, from the default initialisation."""
    return training.train([item.sample], training.TrainConfig(epochs=1))


# -- output summaries and checks ---------------------------------------------


def decode_summary(result):
    """The decode output facts the checks compare with the references."""
    return {
        "per_block_counts": [int(c) for c in result.per_block_counts],
        "iteration_counts": [int(c) for c in result.state.iteration_counts],
        "consistency_log": [[int(b), bool(ok)] for b, ok in result.consistency_log],
        "final_count": int(result.final_count),
        "stream_energy": [float(np.dot(result.streams[s].channel(0),
                                       result.streams[s].channel(0)))
                          for s in sorted(result.streams)],
    }


def train_summary(trained):
    params, history = trained
    stats = history[0]
    return {
        "loss": [float(stats.total), float(stats.mmse), float(stats.resmask),
                 float(stats.triplet)],
        "param_abs_sum": float(sum(np.abs(a).sum(dtype=np.float64)
                                   for a in params.arrays.values())),
    }


EXACT_FIELDS = ("per_block_counts", "iteration_counts", "consistency_log",
                "final_count")


def tolerance(dtype):
    """Relative tolerance for float outputs: the square root of the machine
    epsilon of the dtype the numbers were computed in."""
    return math.sqrt(np.finfo(dtype).eps)


def compare(found, expected, rtol):
    """List every mismatch between an output summary and its reference.

    Counts, iteration counts, the consistency log and the final count must
    match exactly; floats (and lists of floats) within ``rtol``.  A field
    the reference lacks (``None``) is a mismatch.
    """
    problems = []
    for name, want in expected.items():
        got = found.get(name)
        if name in EXACT_FIELDS:
            if got != want:
                problems.append(f"{name}: {got} != {want}")
            continue
        got_list = got if isinstance(got, list) else [got]
        want_list = want if isinstance(want, list) else [want]
        if len(got_list) != len(want_list) or not all(
            None not in (g, w) and math.isclose(g, w, rel_tol=rtol, abs_tol=rtol)
            for g, w in zip(got_list, want_list)
        ):
            problems.append(f"{name}: {got} != {want} (rtol {rtol:.2e})")
    return problems


# -- quality -------------------------------------------------------------------


@dataclass
class MeetingScore:
    errors_s: float  # missed + false alarm + confusion
    total_ref_s: float
    sdrs_db: list
    est_counts: list
    true_counts: list
    final_count: int
    true_speakers: int

    def as_reference(self):
        return {"der": self.errors_s / self.total_ref_s,
                "sdr_db": list(self.sdrs_db)}


def score_meeting(result, item, workdir: Path):
    """Streams -> power VAD -> RTTM file -> DER, mapped SDR and counting."""
    hyp_slot = {f"slot{s}": s for s in result.streams if s > 0}
    hyp = rttm.Timeline(
        seg for name, slot in hyp_slot.items()
        for seg in metrics.power_vad(result.streams[slot], VAD_THRESHOLD_DBFS,
                                     speaker=name)
    )
    path = workdir / f"{item.key}.rttm"
    rttm.write_rttm(path, {item.key: hyp})
    hyp = rttm.read_rttm(path).get(item.key, rttm.Timeline())
    path.unlink()
    ref = item.rendered.timeline
    report = metrics.der(ref, hyp)
    sdrs = [metrics.sdr(result.streams[hyp_slot[h]], item.rendered.references[r])
            for h, r in sorted(report.mapping.items())]
    block_len = DECODER.block_len_s
    truth = metrics.block_speaker_counts(ref, block_len, len(result.per_block_counts))
    return MeetingScore(report.missed_s + report.falarm_s + report.confusion_s,
                        report.total_ref_s, sdrs, list(result.per_block_counts),
                        truth, result.final_count, len(ref.speakers()))


def quality(scores):
    """Pool per-meeting scores into the workload's quality figures."""
    sdrs = [v for s in scores for v in s.sdrs_db]
    sdr_db = float(np.mean(sdrs)) if sdrs else -metrics.SDR_CAP_DB
    counting = metrics.counting_accuracy(
        [c for s in scores for c in s.est_counts],
        [c for s in scores for c in s.true_counts])
    return {
        "der": sum(s.errors_s for s in scores) / sum(s.total_ref_s for s in scores),
        "sdr_db": sdr_db,
        "count_acc": counting.accuracy,
        "speakers_found_frac": (sum(s.final_count for s in scores)
                                / sum(s.true_speakers for s in scores)),
    }
