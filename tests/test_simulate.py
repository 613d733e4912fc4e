import dataclasses

import numpy as np
import pytest

from blocksep.dsp import AudioSignal, write_wav
from blocksep.rttm import Segment
from blocksep.simulate import (
    MeetingScenario,
    make_pool,
    render,
    sample_scenario,
    synth_utterance,
)


@pytest.fixture(scope="module")
def pool():
    return make_pool(6, seed=11)


def _occupancy_seconds(scenario, t0, t1, grid=0.01):
    """Seconds spent at each concurrent-speaker count inside [t0, t1)."""
    counts = {}
    edges = np.arange(t0, t1, grid)
    for left in edges:
        mid = left + grid / 2
        k = sum(1 for s in scenario.segments if s.start <= mid < s.end)
        counts[k] = counts.get(k, 0.0) + grid
    return counts


def test_scenario_determinism(pool):
    a = sample_scenario("B", 60.0, pool, seed=42)
    b = sample_scenario("B", 60.0, pool, seed=42)
    assert a == b
    c = sample_scenario("B", 60.0, pool, seed=43)
    assert c != a


def test_profile_a_head_never_empty(pool):
    for seed in range(40):
        sc = sample_scenario("A", 10.0, pool, seed=seed)
        occ = _occupancy_seconds(sc, 0.0, 5.0)
        assert occ.get(0, 0.0) == 0.0
        assert set(occ) <= {1, 2}


def test_profile_b_head_zero_or_one(pool):
    seen = set()
    for seed in range(40):
        sc = sample_scenario("B", 20.0, pool, seed=seed)
        occ = _occupancy_seconds(sc, 0.0, 5.0)
        assert set(occ) <= {0, 1}
        seen |= set(occ)
    assert seen == {0, 1}


def test_profile_b_body_occupancy_statistics(pool):
    # smoke-scale version of the acceptance criterion (the full 1e4-scenario
    # run lives in the acceptance suite)
    totals = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
    for seed in range(300):
        sc = sample_scenario("B", 60.0, pool, seed=seed)
        for k, v in _occupancy_seconds(sc, 5.0, 60.0, grid=0.05).items():
            totals[k] += v
    grand = sum(totals.values())
    freqs = {k: v / grand for k, v in totals.items()}
    for k, p in [(0, 0.05), (1, 0.75), (2, 0.15), (3, 0.05)]:
        assert freqs[k] == pytest.approx(p, abs=0.03)


def test_scenario_validation(pool):
    with pytest.raises(ValueError, match="pool"):
        sample_scenario("B", 60.0, [], seed=0)
    with pytest.raises(ValueError, match="length"):
        sample_scenario("B", 3.0, pool, seed=0)
    with pytest.raises(ValueError, match="pool"):
        sample_scenario("B", 60.0, pool[:2], seed=0)
    with pytest.raises(ValueError, match="profile"):
        sample_scenario("Q", 60.0, pool, seed=0)


def test_scenario_segment_bounds(pool):
    sc = sample_scenario("B", 30.0, pool, seed=5)
    for seg in sc.segments:
        assert 0.0 <= seg.start < seg.end <= 30.0 + 1e-9


def test_synth_utterance_deterministic(pool):
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    a = synth_utterance(pool[0], 1.0, 8000, rng1)
    b = synth_utterance(pool[0], 1.0, 8000, rng2)
    assert np.array_equal(a, b)
    assert np.sqrt(np.mean(a**2)) == pytest.approx(1.0)


def _scenario_fixture(pool, seed=7):
    return sample_scenario("B", 20.0, pool, seed=seed)


def test_render_additivity(pool):
    meeting = render(_scenario_fixture(pool))
    total = meeting.noise.samples.copy()
    for sig in meeting.references.values():
        total += sig.samples
    resid = np.max(np.abs(meeting.mixture.samples - total))
    assert resid < 1e-6


def test_render_snr_matches_request(pool):
    sc = _scenario_fixture(pool)
    meeting = render(sc)
    # recompute the speech-to-noise power ratio over the active samples
    fs = meeting.noise.sample_rate
    active = np.zeros(meeting.noise.n_samples, dtype=bool)
    for seg in meeting.timeline:
        active[int(seg.start * fs) : int(seg.end * fs)] = True
    speech = sum(s.samples for s in meeting.references.values())
    ratio = 10 * np.log10(
        np.mean(speech[:, active] ** 2) / np.mean(meeting.noise.samples[:, active] ** 2)
    )
    assert ratio == pytest.approx(sc.snr_db, abs=0.1)


def test_render_empty_scenario_is_noise_only(pool):
    sc = MeetingScenario(
        profile="B", length_s=8.0, segments=[], snr_db=15.0, rt60_s=0.3,
        mic_delays={}, seed=1, sources=[],
    )
    meeting = render(sc)
    assert np.array_equal(meeting.mixture.samples, meeting.noise.samples)
    assert meeting.references == {}


def test_render_timeline_covering_no_sample_rejected(pool):
    # a segment shorter than one sample at 8 kHz: the timeline is not empty,
    # but it marks no sample active, so no SNR can be set
    spk = pool[0]
    sc = MeetingScenario(
        profile="B", length_s=8.0, segments=[Segment(spk.speaker_id, 1.0, 1.00001)],
        snr_db=15.0, rt60_s=0.3, mic_delays={spk.speaker_id: 0.0}, seed=1,
        sources=[spk],
    )
    with pytest.raises(ValueError, match="timeline has no active speech"):
        render(sc)


def test_render_determinism(pool):
    sc = _scenario_fixture(pool)
    m1 = render(sc)
    m2 = render(sc)
    assert np.array_equal(m1.mixture.samples, m2.mixture.samples)


def test_references_silent_outside_segments(pool):
    sc = _scenario_fixture(pool)
    meeting = render(sc)
    fs = meeting.mixture.sample_rate
    tail = int(sc.rt60_s * fs)
    for spk, sig in meeting.references.items():
        x = sig.channel(0)
        active = np.zeros(x.size, dtype=bool)
        for seg in meeting.timeline.for_speaker(spk):
            lo = int(seg.start * fs)
            hi = min(int(seg.end * fs) + tail, x.size)
            active[lo:hi] = True
        if (~active).sum() < 100:
            continue
        p_out = np.mean(x[~active] ** 2)
        p_in = np.mean(x[active] ** 2)
        assert p_out < p_in * 1e-6


def test_two_channel_output_and_delays(pool):
    sc = _scenario_fixture(pool)
    meeting = render(sc)
    assert meeting.mixture.n_channels == 2
    for sig in meeting.references.values():
        assert sig.n_channels == 2
    assert set(sc.mic_delays) == set(meeting.references)
    delays = sorted(sc.mic_delays.values())
    for a, b in zip(delays, delays[1:]):
        assert b - a >= 0.8 - 1e-9


def test_fixture_knobs_align_debuts(pool):
    sc = sample_scenario(
        "B", 60.0, pool, seed=3,
        new_speaker_align_s=10.0, min_first_run_s=10.0,
    )
    debuts = {}
    for seg in sc.segments:
        if seg.speaker not in debuts or seg.start < debuts[seg.speaker]:
            debuts[seg.speaker] = seg.start
    for spk, t0 in debuts.items():
        assert t0 % 10.0 == pytest.approx(0.0, abs=1e-9)
        run = max(
            seg.end - seg.start for seg in sc.segments
            if seg.speaker == spk and abs(seg.start - t0) < 1e-9
        )
        assert run >= 10.0 - 1e-9 or run >= sc.length_s - t0 - 1e-9


def _clip_pool(pool, clip_dir):
    return [dataclasses.replace(spec, clip_dir=str(clip_dir)) for spec in pool]


def test_clip_pool_renders_from_wav_files(pool, tmp_path):
    fs = 8000
    t = np.arange(fs // 2) / fs
    rng = np.random.default_rng(0)
    write_wav(tmp_path / "a.wav", AudioSignal(fs, 0.5 * np.sin(2 * np.pi * 220.0 * t)))
    write_wav(tmp_path / "b.wav", AudioSignal(fs, 0.2 * rng.normal(size=fs // 3)))
    sc = sample_scenario("A", 8.0, _clip_pool(pool, tmp_path), seed=2)
    assert sc.segments
    m1 = render(sc)
    m2 = render(sc)
    assert np.all(np.isfinite(m1.mixture.samples))
    assert np.array_equal(m1.mixture.samples, m2.mixture.samples)
    assert sorted(m1.references) == sc.timeline.speakers()
    for sig in m1.references.values():
        assert sig.n_channels == 2
        assert np.all(np.isfinite(sig.samples))


def test_clip_pool_without_wav_files_rejected(pool, tmp_path):
    (tmp_path / "notes.txt").write_text("no audio here")
    sc = sample_scenario("A", 8.0, _clip_pool(pool, tmp_path), seed=2)
    with pytest.raises(ValueError, match="holds no WAV files"):
        render(sc)
