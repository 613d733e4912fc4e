"""Evaluation: power-based VAD, overlap-aware diarization error rate with
a speaker mapping from a linear assignment, projection SDR, and per-block
counting accuracy.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dsp import AudioSignal
from .rttm import Segment, Timeline

SDR_CAP_DB = 60.0

VAD_FRAME_S = 0.025
VAD_MIN_DUR_S = 0.2
DER_RESOLUTION_S = 0.01


def power_vad(stream: AudioSignal, threshold_dbfs: float,
              speaker: str = "spk") -> Timeline:
    """Frame-power voice activity detection for one stream.

    Non-overlapping frames of ``VAD_FRAME_S`` are compared against an
    absolute dBFS threshold (full scale = amplitude 1.0).  Active runs
    shorter than ``VAD_MIN_DUR_S`` are removed and gaps shorter than
    ``VAD_MIN_DUR_S`` are merged.
    """
    x = stream.channel(0)
    frame = int(round(VAD_FRAME_S * stream.sample_rate))
    n_frames = x.size // frame
    if n_frames == 0:
        return Timeline()
    power = np.mean(
        x[: n_frames * frame].reshape(n_frames, frame) ** 2, axis=1
    )
    level = 10.0 * np.log10(power + 1e-30)
    active = level >= threshold_dbfs

    # close short gaps first, then drop short runs
    runs = _runs(active)
    for lo, hi, val in runs:
        if not val and (hi - lo) * VAD_FRAME_S < VAD_MIN_DUR_S and lo > 0 and hi < n_frames:
            active[lo:hi] = True
    segments = []
    for lo, hi, val in _runs(active):
        if val and (hi - lo) * VAD_FRAME_S >= VAD_MIN_DUR_S:
            segments.append(Segment(speaker, lo * VAD_FRAME_S, hi * VAD_FRAME_S))
    return Timeline(segments)


def _runs(mask):
    out = []
    start = 0
    for i in range(1, mask.size + 1):
        if i == mask.size or mask[i] != mask[start]:
            out.append((start, i, bool(mask[start])))
            start = i
    return out


@dataclass
class DerReport:
    missed_s: float
    falarm_s: float
    confusion_s: float
    total_ref_s: float
    der: float
    mapping: dict  # hypothesis speaker -> reference speaker


def _frame_matrix(timeline: Timeline, speakers, mids):
    # a frame belongs to a segment when its midpoint falls inside
    mat = np.zeros((len(speakers), mids.size), dtype=bool)
    index = {s: i for i, s in enumerate(speakers)}
    for seg in timeline:
        mat[index[seg.speaker]] |= (mids >= seg.start) & (mids < seg.end)
    return mat


def der(reference: Timeline, hypothesis: Timeline) -> DerReport:
    """Diarization error rate including overlapped speech.

    Scoring is frame-discretized at ``DER_RESOLUTION_S`` with no collar.  The
    reference/hypothesis speaker mapping is the one-to-one mapping that
    maximizes correctly attributed time (equivalently, minimizes confusion),
    found by a linear assignment over the speaker-pair overlap matrix; it is
    empty when no hypothesis frame overlaps a reference frame.  Overlap
    regions require one hypothesis speaker per reference speaker.
    """
    ref_spk = reference.speakers()
    hyp_spk = hypothesis.speakers()
    end = max(reference.end_time(), hypothesis.end_time())
    n = int(np.ceil(end / DER_RESOLUTION_S)) if end > 0 else 0
    mids = (np.arange(n) + 0.5) * DER_RESOLUTION_S
    ref = _frame_matrix(reference, ref_spk, mids)
    hyp = _frame_matrix(hypothesis, hyp_spk, mids)

    n_ref = ref.sum(axis=0)
    n_hyp = hyp.sum(axis=0)
    total_ref = float(n_ref.sum()) * DER_RESOLUTION_S
    missed = float(np.maximum(n_ref - n_hyp, 0).sum()) * DER_RESOLUTION_S
    falarm = float(np.maximum(n_hyp - n_ref, 0).sum()) * DER_RESOLUTION_S

    co = (ref[:, None, :] & hyp[None, :, :]).sum(axis=2)  # (R, H) overlap frames
    rows, cols = linear_sum_assignment(co, maximize=True)
    best_correct = int(co[rows, cols].sum())
    best_map = ({hyp_spk[h]: ref_spk[r] for r, h in zip(rows, cols)}
                if best_correct else {})
    confusion = (
        float(np.minimum(n_ref, n_hyp).sum()) - best_correct
    ) * DER_RESOLUTION_S

    if total_ref > 0:
        ratio = (missed + falarm + confusion) / total_ref
    else:
        ratio = 0.0 if falarm == 0 else float("inf")
    return DerReport(missed, falarm, confusion, total_ref, ratio, best_map)


def sdr(estimate: AudioSignal | np.ndarray, reference: AudioSignal | np.ndarray) -> float:
    """Scale-projection signal-to-distortion ratio in dB.

    The estimate is projected onto the reference; everything orthogonal to
    the reference counts as distortion.  Results are capped to +/-60 dB; a
    silent estimate (no target and no distortion) scores -60 dB.
    """
    est = estimate.channel(0) if isinstance(estimate, AudioSignal) else np.asarray(estimate)
    ref = reference.channel(0) if isinstance(reference, AudioSignal) else np.asarray(reference)
    if est.shape != ref.shape:
        raise ValueError("estimate/reference lengths differ")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy <= 0:
        raise ValueError("silent reference: SDR undefined")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    noise = est - target
    num = float(np.dot(target, target))
    den = float(np.dot(noise, noise))
    if num <= den * 10.0 ** (-SDR_CAP_DB / 10.0):
        return -SDR_CAP_DB
    if den <= num * 10.0 ** (-SDR_CAP_DB / 10.0):
        return SDR_CAP_DB
    return 10.0 * np.log10(num / den)


@dataclass
class CountingReport:
    accuracy: float
    confusion: np.ndarray  # confusion[true, est] = number of blocks


def block_speaker_counts(timeline: Timeline, block_len_s: float, n_blocks: int):
    """Ground-truth concurrent-speaker count per block from a timeline."""
    return [
        len(timeline.active_speakers(b * block_len_s, (b + 1) * block_len_s))
        for b in range(n_blocks)
    ]


def counting_accuracy(estimated, truth) -> CountingReport:
    """Exact-match fraction of per-block speaker counts plus the full
    count-confusion matrix.  A negative count raises ``ValueError``."""
    est = list(estimated)
    tru = list(truth)
    if len(est) != len(tru):
        raise ValueError("count sequences have different lengths")
    if min(est + tru, default=0) < 0:
        raise ValueError(f"speaker counts must not be negative, got {min(est + tru)}")
    if not est:
        return CountingReport(1.0, np.zeros((1, 1), dtype=int))
    size = max(max(est), max(tru)) + 1
    conf = np.zeros((size, size), dtype=int)
    for e, t in zip(est, tru):
        conf[t, e] += 1
    acc = float(np.mean([e == t for e, t in zip(est, tru)]))
    return CountingReport(acc, conf)
