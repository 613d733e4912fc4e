import dataclasses
import threading
import warnings

import numpy as np
import pytest
from scipy.signal import fftconvolve

from blocksep import simulate
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
    with pytest.raises(ValueError, match="distinct"):
        sample_scenario("B", 60.0, [pool[0]] * 4, seed=0)
    with pytest.raises(ValueError, match="profile"):
        sample_scenario("Q", 60.0, pool, seed=0)


@pytest.mark.parametrize("length_s", [np.nan, np.inf])
def test_scenario_rejects_a_non_finite_length(pool, length_s):
    # a NaN length once came back as a scenario that failed only in render,
    # and an infinite one never left the body loop
    with pytest.raises(ValueError, match="scenario length must be finite"):
        sample_scenario("B", length_s, pool, seed=0)


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


def test_scenario_rejects_a_segment_speaker_without_source_or_mic_delay(pool):
    a, b = pool[0], pool[1]
    segments = [Segment(a.speaker_id, 0.0, 2.0), Segment(b.speaker_id, 1.0, 3.0)]
    common = dict(profile="B", length_s=8.0, segments=segments, snr_db=15.0, rt60_s=0.3,
                  seed=1)
    with pytest.raises(ValueError, match=f"speaker '{b.speaker_id}' .* missing from sources"):
        MeetingScenario(**common, mic_delays={a.speaker_id: 0.0, b.speaker_id: 1.0},
                        sources=[a])
    with pytest.raises(ValueError,
                       match=f"speaker '{a.speaker_id}' .* missing from mic_delays"):
        MeetingScenario(**common, mic_delays={b.speaker_id: 1.0}, sources=[a, b])


def test_render_determinism(pool):
    sc = _scenario_fixture(pool)
    m1 = render(sc)
    m2 = render(sc)
    assert np.array_equal(m1.mixture.samples, m2.mixture.samples)



def _reference_render(scenario, fs):
    """``render`` written plainly: one speaker after the other, each mic
    channel convolved on its own by ``fftconvolve``, every scaling a copy."""
    n = int(round(scenario.length_s * fs))
    spk_ids = scenario.timeline.speakers()
    streams = np.random.SeedSequence([scenario.seed, 0x52454E44]).spawn(2 * len(spk_ids) + 1)
    references = {}
    for i, spk in enumerate(spk_ids):
        spec = next(s for s in scenario.sources if s.speaker_id == spk)
        voice_rng = np.random.default_rng(streams[2 * i])
        rir_rng = np.random.default_rng(streams[2 * i + 1])
        dry = np.zeros(n)
        for seg in scenario.timeline.for_speaker(spk):
            i0, i1 = int(round(seg.start * fs)), min(int(round(seg.end * fs)), n)
            if i1 > i0:
                dry[i0:i1] = synth_utterance(spec, (i1 - i0) / fs, fs, voice_rng)
        drr = float(rir_rng.uniform(2.0, 6.0))
        h1, h2 = simulate._rir_pair(scenario.rt60_s, scenario.mic_delays[spk], fs,
                                    rir_rng, drr)
        references[spk] = np.stack([fftconvolve(dry, h1)[:n], fftconvolve(dry, h2)[:n]])
    noise_rng = np.random.default_rng(streams[-1])
    noise = np.stack([simulate.shaped_noise(n, fs, noise_rng) for _ in range(2)])
    speech = np.zeros(noise.shape)
    for ref in references.values():
        speech += ref
    active = np.zeros(n, dtype=bool)
    for seg in scenario.timeline:
        active[int(seg.start * fs) : int(seg.end * fs)] = True
    p_speech = np.mean(speech[:, active] ** 2)
    p_noise = np.mean(noise[:, active] ** 2)
    noise = noise * np.sqrt(p_speech / (p_noise * 10.0 ** (scenario.snr_db / 10.0)))
    mixture = speech + noise
    g = 0.9 / np.max(np.abs(mixture))
    return mixture * g, noise * g, {spk: ref * g for spk, ref in references.items()}


def _assert_same_meeting(meeting, mixture, noise, references):
    assert np.array_equal(meeting.mixture.samples, mixture)
    assert np.array_equal(meeting.noise.samples, noise)
    assert list(meeting.references) == list(references)
    for spk, ref in references.items():
        assert np.array_equal(meeting.references[spk].samples, ref)


@pytest.mark.parametrize("seed", [7, 3])
def test_render_equals_the_plain_reference_render(pool, seed):
    sc = _scenario_fixture(pool, seed=seed)
    assert 2 <= len(sc.timeline.speakers()) <= 3
    _assert_same_meeting(render(sc), *_reference_render(sc, 8000))


@pytest.mark.parametrize("cpus", [1, 8])
def test_render_does_not_depend_on_the_pool_size(pool, monkeypatch, cpus):
    sc = _scenario_fixture(pool)
    default = render(sc)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    _assert_same_meeting(render(sc), default.mixture.samples, default.noise.samples,
                         {spk: sig.samples for spk, sig in default.references.items()})


def test_render_leaves_no_thread_running(pool):
    before = threading.active_count()
    render(_scenario_fixture(pool))
    assert threading.active_count() == before


def test_an_error_in_a_speaker_task_reaches_the_caller(pool, monkeypatch):
    sc = _scenario_fixture(pool)
    failing = sc.timeline.speakers()[-1]
    error = RuntimeError("synthesis failed")

    def synth(spec, *args):
        if spec.speaker_id == failing:
            raise error
        return synth_utterance(spec, *args)

    monkeypatch.setattr(simulate, "synth_utterance", synth)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        render(sc)
    assert caught.value is error
    assert threading.active_count() == before


@pytest.mark.parametrize("rate", [0, -8000, 8000.5, np.nan, np.inf, True, "8000"])
def test_render_rejects_a_sample_rate_that_is_not_a_positive_whole_number(pool, rate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sample_rate must be a positive whole number"):
            render(_scenario_fixture(pool), rate)


def test_render_keeps_a_whole_float_sample_rate_as_an_int(pool):
    sc = sample_scenario("A", 6.0, pool, seed=2)
    meeting = render(sc, 16000.0)
    rates = [meeting.mixture.sample_rate, meeting.noise.sample_rate]
    rates += [sig.sample_rate for sig in meeting.references.values()]
    assert all(type(rate) is int and rate == 16000 for rate in rates)
    assert meeting.mixture.n_samples == 6 * 16000

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


def _min_delay_gap(scenario):
    delays = sorted(scenario.mic_delays.values())
    return min(b - a for a, b in zip(delays, delays[1:]))


def test_mic_delays_keep_their_spacing_up_to_six_speakers_but_not_at_eight():
    # the sampler redraws a delay at most 64 times and then keeps it: with
    # up to 6 speakers the 0.8-sample spacing holds in 600 s scenarios, but
    # 8 delays often do not fit by redrawing
    for n in (4, 5, 6):
        speakers = make_pool(n)
        for profile in "AB":
            for seed in range(100):
                sc = sample_scenario(profile, 600.0, speakers, seed=seed)
                assert _min_delay_gap(sc) >= 0.8, (n, profile, seed)
    crowded = sample_scenario("A", 120.0, make_pool(8), seed=5)
    assert len(crowded.mic_delays) == 8
    assert _min_delay_gap(crowded) == pytest.approx(0.006, abs=5e-4)


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


def test_clip_pool_at_other_sample_rate_rejected(pool, tmp_path):
    # a 16 kHz clip in an 8 kHz meeting would play an octave low
    write_wav(tmp_path / "a.wav", AudioSignal(16000, 0.2 * np.ones(16000)))
    sc = sample_scenario("A", 8.0, _clip_pool(pool, tmp_path), seed=2)
    with pytest.raises(ValueError, match="sampled at 16000 Hz, the meeting at 8000 Hz"):
        render(sc)


def test_clip_pool_without_wav_files_rejected(pool, tmp_path):
    (tmp_path / "notes.txt").write_text("no audio here")
    sc = sample_scenario("A", 8.0, _clip_pool(pool, tmp_path), seed=2)
    with pytest.raises(ValueError, match="holds no WAV files"):
        render(sc)
