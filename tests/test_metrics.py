import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksep.dsp import AudioSignal
from blocksep.metrics import counting_accuracy, der, power_vad, sdr
from blocksep.rttm import Segment, Timeline, read_rttm, write_rttm

FS = 8000


# --------------------------------------------------------------------------
# independent brute-force DER scorer (frame counting + exhaustive mapping)
# --------------------------------------------------------------------------


def brute_force_der(ref_tl, hyp_tl, res=0.01):
    ref_spk = ref_tl.speakers()
    hyp_spk = hyp_tl.speakers()
    end = max(ref_tl.end_time(), hyp_tl.end_time())
    n = int(np.ceil(end / res)) if end > 0 else 0

    def active_set(tl, f):
        mid = (f + 0.5) * res
        out = set()
        for seg in tl.segments:
            if seg.start <= mid < seg.end:
                out.add(seg.speaker)
        return out

    ref_frames = [active_set(ref_tl, f) for f in range(n)]
    hyp_frames = [active_set(hyp_tl, f) for f in range(n)]

    mappings = [{}]
    if ref_spk and hyp_spk:
        mappings = []
        if len(hyp_spk) <= len(ref_spk):
            for perm in itertools.permutations(ref_spk, len(hyp_spk)):
                mappings.append(dict(zip(hyp_spk, perm)))
        else:
            for perm in itertools.permutations(hyp_spk, len(ref_spk)):
                mappings.append({h: r for r, h in zip(ref_spk, perm)})

    best = None
    for mapping in mappings:
        miss = fa = conf = total = 0
        for ra, ha in zip(ref_frames, hyp_frames):
            nr, nh = len(ra), len(ha)
            total += nr
            miss += max(nr - nh, 0)
            fa += max(nh - nr, 0)
            ncor = sum(1 for h in ha if mapping.get(h) in ra)
            conf += min(nr, nh) - ncor
        if best is None or conf < best[2]:
            best = (miss, fa, conf, total)
    miss, fa, conf, total = best
    return (
        float(miss) * res,
        float(fa) * res,
        float(conf) * res,
        float(total) * res,
    )


def random_timeline(rng, max_speakers=4, max_segments=20, horizon=20.0):
    n_spk = int(rng.integers(1, max_speakers + 1))
    speakers = [f"s{i}" for i in range(n_spk)]
    segs = []
    for _ in range(int(rng.integers(1, max_segments + 1))):
        spk = speakers[int(rng.integers(n_spk))]
        start = float(rng.uniform(0, horizon - 0.5))
        dur = float(rng.uniform(0.1, 5.0))
        segs.append(Segment(spk, start, min(start + dur, horizon)))
    return Timeline(segs)


def as_row(rep):
    return (rep.der, rep.missed_s, rep.falarm_s, rep.confusion_s, rep.total_ref_s)


def relabeled(timeline, mapping):
    return Timeline(Segment(mapping.get(s.speaker, s.speaker), s.start, s.end)
                    for s in timeline)


# --------------------------------------------------------------------------
# VAD
# --------------------------------------------------------------------------


def test_vad_silent_stream_empty_timeline():
    sig = AudioSignal(FS, np.zeros(FS * 3))
    assert len(power_vad(sig, threshold_dbfs=-40.0)) == 0


def test_vad_rejects_a_rate_whose_frame_rounds_to_no_samples():
    # 1-20 Hz once raised a bare ZeroDivisionError; 21 Hz is one sample a frame
    for rate in (1, 20):
        with pytest.raises(ValueError, match=f"sample rate {rate} Hz is too low"):
            power_vad(AudioSignal(rate, np.ones(100)), -35.0)
    assert len(power_vad(AudioSignal(21, np.ones(100)), -35.0)) == 1


def test_vad_full_scale_tone_single_segment():
    t = np.arange(FS * 3)
    sig = AudioSignal(FS, np.sin(2 * np.pi * 440 * t / FS))
    tl = power_vad(sig, threshold_dbfs=-30.0)
    assert len(tl) == 1
    seg = tl.segments[0]
    assert seg.start == pytest.approx(0.0, abs=0.026)
    assert seg.end == pytest.approx(3.0, abs=0.026)


def test_vad_tone_burst_boundaries():
    t = np.arange(FS * 6)
    x = np.sin(2 * np.pi * 300 * t / FS)
    x[: 2 * FS] = 0
    x[4 * FS :] = 0
    tl = power_vad(AudioSignal(FS, x), threshold_dbfs=-30.0)
    assert len(tl) == 1
    seg = tl.segments[0]
    assert seg.start == pytest.approx(2.0, abs=0.026)
    assert seg.end == pytest.approx(4.0, abs=0.026)


def test_vad_short_runs_removed_and_gaps_merged():
    x = np.zeros(FS * 4)
    x[int(0.5 * FS) : int(0.55 * FS)] = 1.0  # 50 ms blip: removed
    x[FS : int(1.95 * FS)] = 1.0
    x[2 * FS : 3 * FS] = 1.0  # 50 ms gap: merged
    tl = power_vad(AudioSignal(FS, x), threshold_dbfs=-30.0)
    assert len(tl) == 1
    seg = tl.segments[0]
    assert seg.start == pytest.approx(1.0, abs=0.026)
    assert seg.end == pytest.approx(3.0, abs=0.026)


def test_vad_idempotence_on_gated_signal():
    rng = np.random.default_rng(0)
    x = np.zeros(FS * 5)
    x[FS : 3 * FS] = rng.uniform(-0.5, 0.5, 2 * FS)
    tl = power_vad(AudioSignal(FS, x), threshold_dbfs=-35.0)
    gated = np.zeros_like(x)
    for seg in tl:
        gated[int(seg.start * FS) : int(seg.end * FS)] = x[
            int(seg.start * FS) : int(seg.end * FS)
        ]
    tl2 = power_vad(AudioSignal(FS, gated), threshold_dbfs=-35.0)
    assert len(tl2) == len(tl)
    for a, b in zip(tl.segments, tl2.segments):
        assert a.start == pytest.approx(b.start, abs=0.026)
        assert a.end == pytest.approx(b.end, abs=0.026)


# --------------------------------------------------------------------------
# DER
# --------------------------------------------------------------------------


def test_der_identical_is_zero():
    tl = Timeline([Segment("a", 0, 4), Segment("b", 2, 6)])
    rep = der(tl, tl)
    assert rep.der == 0.0
    assert rep.missed_s == 0.0 and rep.falarm_s == 0.0 and rep.confusion_s == 0.0


def test_der_empty_hypothesis_is_one():
    tl = Timeline([Segment("a", 0, 4), Segment("b", 2, 6)])
    rep = der(tl, Timeline())
    assert rep.der == pytest.approx(1.0)
    assert rep.missed_s == pytest.approx(rep.total_ref_s)


def test_der_constructed_case_matches_brute_force():
    ref = Timeline([Segment("A", 0, 6), Segment("B", 4, 10)])
    hyp = Timeline([Segment("A", 0, 5), Segment("B", 5, 10)])
    rep = der(ref, hyp)
    bf = brute_force_der(ref, hyp)
    assert (rep.missed_s, rep.falarm_s, rep.confusion_s, rep.total_ref_s) == bf
    # sanity: overlap 4..6 has 2 ref speakers but only 1 hyp speaker
    assert rep.missed_s == pytest.approx(2.0)


def test_der_matches_brute_force_randomized():
    rng = np.random.default_rng(123)
    for _ in range(30):
        ref = random_timeline(rng)
        hyp = random_timeline(rng)
        rep = der(ref, hyp)
        bf = brute_force_der(ref, hyp)
        assert (rep.missed_s, rep.falarm_s, rep.confusion_s, rep.total_ref_s) == bf


def test_der_relabeling_invariance():
    rng = np.random.default_rng(5)
    ref = random_timeline(rng)
    hyp = random_timeline(rng)
    rep1 = der(ref, hyp)
    rep2 = der(ref, relabeled(hyp, {s: f"x_{s}" for s in hyp.speakers()}))
    assert as_row(rep1) == as_row(rep2)


def test_der_mapping_optimality_small():
    rng = np.random.default_rng(9)
    for _ in range(10):
        ref = random_timeline(rng, max_speakers=3, max_segments=8)
        hyp = random_timeline(rng, max_speakers=3, max_segments=8)
        rep = der(ref, hyp)
        _, _, conf, _ = brute_force_der(ref, hyp)
        assert rep.confusion_s == conf


def test_der_many_speakers_relabelled():
    segs = [Segment(f"s{i:02d}", i, i + 1.5) for i in range(12)]
    ref = Timeline(segs)
    hyp = relabeled(ref, {f"s{i:02d}": f"h{i:02d}" for i in range(12)})
    rep = der(ref, hyp)
    assert rep.der == 0.0
    assert rep.mapping == {f"h{i:02d}": f"s{i:02d}" for i in range(12)}


def test_der_mapping_empty_without_overlap():
    rep = der(Timeline([Segment("a", 0, 2)]), Timeline([Segment("x", 3, 4)]))
    assert rep.mapping == {}
    assert rep.confusion_s == 0.0


# --------------------------------------------------------------------------
# SDR
# --------------------------------------------------------------------------


def _tone(n=8000):
    return np.sin(2 * np.pi * 200 * np.arange(n) / FS)


def test_sdr_perfect_estimate_capped():
    ref = _tone()
    assert sdr(ref, ref) == 60.0


def test_sdr_scale_invariance():
    ref = _tone()
    assert sdr(0.5 * ref, ref) == 60.0
    noisy = ref + 0.1 * np.cos(2 * np.pi * 350 * np.arange(ref.size) / FS)
    for c in (0.3, 1.0, 7.5):
        assert sdr(c * noisy, ref) == pytest.approx(sdr(noisy, ref), abs=1e-9)


def test_sdr_equal_power_orthogonal_noise_is_zero_db():
    n = FS
    ref = _tone(n)
    noise = np.cos(2 * np.pi * 407 * np.arange(n) / FS)
    noise *= np.linalg.norm(ref) / np.linalg.norm(noise)
    noise -= ref * (ref @ noise) / (ref @ ref)  # exact orthogonality
    noise *= np.linalg.norm(ref) / np.linalg.norm(noise)
    assert sdr(ref + noise, ref) == pytest.approx(0.0, abs=0.1)


def test_sdr_silent_estimate_floored():
    # no target and no distortion: the estimate recovers nothing
    assert sdr(np.zeros(8000), _tone()) == -60.0


def test_sdr_silent_reference_rejected():
    with pytest.raises(ValueError, match="silent reference"):
        sdr(_tone(), np.zeros(8000))


def test_sdr_accepts_audio_signals():
    ref = AudioSignal(FS, _tone())
    assert sdr(ref, ref) == 60.0


# --------------------------------------------------------------------------
# counting accuracy
# --------------------------------------------------------------------------


def test_counting_identical():
    rep = counting_accuracy([1, 2, 2, 0], [1, 2, 2, 0])
    assert rep.accuracy == 1.0


def test_counting_always_wrong():
    rep = counting_accuracy([0] * 10, [2] * 10)
    assert rep.accuracy == 0.0
    assert rep.confusion[2, 0] == 10
    assert rep.confusion.sum() == 10


def test_counting_partial():
    truth = [1] * 10
    est = list(truth)
    est[3] = 2  # perturb 10% of blocks
    rep = counting_accuracy(est, truth)
    assert rep.accuracy == pytest.approx(0.9)
    assert rep.confusion[1, 2] == 1


def test_counting_length_mismatch():
    with pytest.raises(ValueError):
        counting_accuracy([1], [1, 2])


def test_counting_rejects_negative_counts():
    # -1 once indexed the last column and booked a wrong count as correct
    for est, truth in (([-1, 1], [1, 1]), ([1, 1], [1, -2])):
        with pytest.raises(ValueError, match="must not be negative"):
            counting_accuracy(est, truth)


# --------------------------------------------------------------------------
# RTTM round trip
# --------------------------------------------------------------------------


def test_rttm_roundtrip(tmp_path):
    tl = Timeline([Segment("alice", 0.25, 3.5), Segment("bob", 1.0, 2.0)])
    path = tmp_path / "x.rttm"
    write_rttm(path, {"sess1": tl, "sess2": tl})
    back = read_rttm(path)
    assert sorted(back) == ["sess1", "sess2"]
    assert back["sess1"] == tl
    line = path.read_text().splitlines()[0].split()
    assert line[0] == "SPEAKER" and line[2] == "1" and line[5] == "<NA>"


def test_rttm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.rttm"
    path.write_text("NOT-A-LINE foo\n")
    with pytest.raises(ValueError, match="RTTM"):
        read_rttm(path)
    # a bad time once raised float()'s or Segment's error, without the line
    good = "SPEAKER s 1 0.5 1.0 <NA> <NA> a <NA> <NA>\n"
    for tbeg, tdur in [("x", "1.0"), ("0.5", "1,0"), ("-0.5", "1.0"), ("0.5", "0"),
                       ("0.5", "-1.0"), ("nan", "1.0"), ("0.5", "inf")]:
        path.write_text(good + f"SPEAKER s 1 {tbeg} {tdur} <NA> <NA> a <NA> <NA>\n")
        message = f"{path}:2: begin time '{tbeg}' and duration '{tdur}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_rttm(path)
    # a name holding whitespace once wrote a line read back as speaker
    # '<NA>', which then failed on its times
    out = tmp_path / "out.rttm"
    for session, speaker in [("sess 1", "a"), ("", "a"), ("s", "spk a"), ("s", "a\tb"),
                             ("s", "")]:
        with pytest.raises(ValueError, match="non-empty and hold no whitespace"):
            write_rttm(out, {session: Timeline([Segment(speaker, 0.0, 1.0)])})
        assert not out.exists()


def test_rttm_write_rejects_a_segment_too_short_to_read_back(tmp_path):
    # a 0.4 ms segment was once written with duration 0.000, and read_rttm
    # rejected the file write_rttm had just written
    out = tmp_path / "out.rttm"
    short = Timeline([Segment("alice", 1.0, 3.0), Segment("bob", 2.5, 2.5004)])
    with pytest.raises(ValueError, match="speaker 'bob' in session 'sess'"):
        write_rttm(out, {"sess": short})
    assert not out.exists()
    tl = Timeline([Segment("alice", 1.0, 3.0), Segment("bob", 0.0, 0.001)])
    write_rttm(out, {"sess": tl})
    assert read_rttm(out) == {"sess": tl}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_der_relabel_property(seed):
    rng = np.random.default_rng(seed)
    ref = random_timeline(rng, max_speakers=3, max_segments=6)
    hyp = random_timeline(rng, max_speakers=3, max_segments=6)
    rep1 = der(ref, hyp)
    perm = {s: f"h{i}" for i, s in enumerate(reversed(hyp.speakers()))}
    rep2 = der(ref, relabeled(hyp, perm))
    assert as_row(rep1) == as_row(rep2)
