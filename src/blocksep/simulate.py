"""Synthetic meeting generator.

Produces noisy reverberant two-channel mixtures together with per-speaker
reverberant references, a noise reference, and the ground-truth activity
timeline.  Speaker occupancy follows one of two profiles:

* profile A: the first 5 s contain 1 or 2 speakers (50/50); afterwards the
  instantaneous speaker count is 0/1/2 with probabilities 15/55/30 %.
* profile B: the first 5 s contain 0 or 1 speaker (50/50); afterwards the
  count is 0/1/2/3 with probabilities 5/75/15/5 %.

Occupancy is realized as a renewal process of constant-occupancy intervals
whose durations are independent of the drawn count, so the time-weighted
occupancy distribution matches the profile probabilities exactly in
expectation.

Everything is deterministic given (profile, length, pool, seed); each call
derives its own RNG streams from the seed.
"""

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve, lfilter

from .dsp import DEFAULT_SAMPLE_RATE, AudioSignal, read_wav
from .rttm import Segment, Timeline

HEAD_LEN_S = 5.0
# Occupancy intervals are multiples of this grid, 1 to 3 units long.
DEFAULT_GRID_S = 2.5
DEFAULT_SNR_RANGE = (10.0, 20.0)
DEFAULT_RT60_RANGE = (0.3, 0.7)
# Quiescent noise RMS used when a scenario has no speech to set an SNR against.
SILENT_SCENARIO_NOISE_RMS = 0.05


@dataclass(frozen=True)
class Profile:
    head_counts: tuple
    head_probs: tuple
    body_counts: tuple
    body_probs: tuple

    @property
    def max_concurrent(self):
        return max(self.body_counts + self.head_counts)


PROFILES = {
    "A": Profile((1, 2), (0.5, 0.5), (0, 1, 2), (0.15, 0.55, 0.30)),
    "B": Profile((0, 1), (0.5, 0.5), (0, 1, 2, 3), (0.05, 0.75, 0.15, 0.05)),
}


@dataclass(frozen=True)
class SourceSpec:
    """One speaker: either a parametric voice or a clip pool directory."""

    speaker_id: str
    f0: float
    formants: tuple
    bandwidths: tuple
    seed: int
    clip_dir: str | None = None


def make_pool(n: int, seed: int = 0) -> list:
    """Build ``n`` parametric voices with well-spread pitch and formants."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x706F6F6C]))
    pool = []
    for i in range(n):
        # geometric pitch spread over ~90..260 Hz plus per-speaker jitter
        frac = i / max(n - 1, 1)
        f0 = 90.0 * (260.0 / 90.0) ** frac * rng.uniform(0.97, 1.03)
        formants = (
            rng.uniform(300.0, 850.0),
            rng.uniform(950.0, 2300.0),
            rng.uniform(2400.0, 3400.0),
        )
        bandwidths = tuple(rng.uniform(80.0, 180.0) for _ in range(3))
        pool.append(
            SourceSpec(f"spk{i:02d}", f0, formants, bandwidths, int(rng.integers(2**31)))
        )
    return pool


@dataclass
class MeetingScenario:
    profile: str
    length_s: float
    segments: list
    snr_db: float
    rt60_s: float
    mic_delays: dict
    seed: int
    sources: list = field(default_factory=list)

    def __post_init__(self):
        if self.rt60_s <= 0:
            raise ValueError("rt60 must be positive")

    @property
    def timeline(self) -> Timeline:
        return Timeline(self.segments)


@dataclass
class RenderedMeeting:
    mixture: AudioSignal
    references: dict  # speaker_id -> 2-channel AudioSignal
    noise: AudioSignal
    timeline: Timeline
    scenario: MeetingScenario


def sample_scenario(
    profile: str,
    length_s: float,
    pool,
    seed: int,
    snr_range=DEFAULT_SNR_RANGE,
    rt60_range=DEFAULT_RT60_RANGE,
    grid_s: float = DEFAULT_GRID_S,
    new_speaker_align_s: float | None = None,
    min_first_run_s: float | None = None,
) -> MeetingScenario:
    """Draw a meeting activity plan.

    ``new_speaker_align_s`` restricts first appearances of a speaker to
    multiples of the given time, and ``min_first_run_s`` keeps a speaker
    active for at least that long after their debut.  Both are off by
    default and exist to build decoding fixtures with unambiguous speaker
    entries; they bias the occupancy statistics slightly when set.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    prof = PROFILES[profile]
    pool = list(pool)
    if not pool:
        raise ValueError("speaker pool is empty")
    if len(pool) < prof.max_concurrent:
        raise ValueError(
            f"speaker pool must hold at least {prof.max_concurrent} speakers"
        )
    if length_s < HEAD_LEN_S:
        raise ValueError(f"scenario length must be at least {HEAD_LEN_S} s")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5343454E]))
    pool_ids = [s.speaker_id for s in pool]
    by_id = {s.speaker_id: s for s in pool}

    def pick(candidates):
        return candidates[int(rng.integers(len(candidates)))]

    intervals = []  # (t0, t1, tuple of active ids)
    pin_until = {}
    seen = []

    head_k = int(rng.choice(prof.head_counts, p=prof.head_probs))
    active = sorted(
        rng.choice(pool_ids, size=head_k, replace=False).tolist()
    ) if head_k else []
    for spk in active:
        seen.append(spk)
        if min_first_run_s:
            pin_until[spk] = min_first_run_s
    head_end = min(HEAD_LEN_S, length_s)
    if active:
        intervals.append((0.0, head_end, tuple(active)))

    t = head_end
    while t < length_s - 1e-9:
        dur = grid_s * int(rng.integers(1, 4))
        dur = min(dur, length_s - t)
        k = int(rng.choice(prof.body_counts, p=prof.body_probs))

        pinned = sorted(s for s in active if pin_until.get(s, 0.0) > t + 1e-9)
        k = max(k, len(pinned))
        retained = list(pinned)
        droppable = [s for s in active if s not in pinned]
        n_keep = min(k - len(retained), len(droppable))
        if n_keep > 0:
            retained += sorted(
                rng.choice(droppable, size=n_keep, replace=False).tolist()
            )
        while len(retained) < k:
            reusable = sorted(s for s in seen if s not in retained)
            fresh = [s for s in pool_ids if s not in seen]
            debut_ok = (
                new_speaker_align_s is None
                or abs(t / new_speaker_align_s - round(t / new_speaker_align_s)) < 1e-9
            )
            use_reuse = reusable and (not fresh or rng.random() < 0.5)
            if fresh and not use_reuse and debut_ok:
                spk = pick(fresh)
                seen.append(spk)
                if min_first_run_s:
                    pin_until[spk] = t + min_first_run_s
            elif reusable:
                spk = pick(reusable)
            else:
                break  # nothing eligible right now; occupancy falls short
            retained.append(spk)
        active = sorted(retained)
        if active:
            intervals.append((t, t + dur, tuple(active)))
        t += dur

    # Timeline merges each speaker's touching intervals into one run.
    segments = sorted(
        Timeline(Segment(spk, t0, t1) for t0, t1, ids in intervals for spk in ids),
        key=lambda s: (s.start, s.speaker),
    )

    snr = float(rng.uniform(*snr_range))
    rt60 = float(rng.uniform(*rt60_range))

    used = sorted({s.speaker for s in segments})
    delays = {}
    for spk in used:
        for _ in range(64):
            d = float(rng.uniform(-4.0, 4.0))
            if all(abs(d - other) >= 0.8 for other in delays.values()):
                break
        delays[spk] = d

    return MeetingScenario(
        profile=profile,
        length_s=float(length_s),
        segments=segments,
        snr_db=snr,
        rt60_s=rt60,
        mic_delays=delays,
        seed=seed,
        sources=[by_id[spk] for spk in used],
    )


def _resonator(x, fc, bw, fs):
    r = np.exp(-np.pi * bw / fs)
    theta = 2.0 * np.pi * fc / fs
    a = [1.0, -2.0 * r * np.cos(theta), r * r]
    return lfilter([1.0 - r], a, x)


def _interp_control(values, n):
    if len(values) == 1:
        return np.full(n, values[0])
    xp = np.linspace(0.0, 1.0, len(values))
    return np.interp(np.linspace(0.0, 1.0, n), xp, values)


def synth_utterance(spec: SourceSpec, duration_s: float, fs: int, rng) -> np.ndarray:
    """Synthesize one utterance for a speaker, RMS-normalized to 1."""
    n = max(int(round(duration_s * fs)), 1)
    if spec.clip_dir is not None:
        return _clip_from_pool(spec, n, fs, rng)
    # pitch drift around the speaker's base f0
    drift = _interp_control(rng.normal(0.0, 1.0, max(4, int(duration_s * 2) + 2)), n)
    f0_t = spec.f0 * (1.0 + 0.05 * np.tanh(drift))
    phase = np.cumsum(f0_t) / fs
    pulses = np.diff(np.floor(phase), prepend=0.0)
    excitation = pulses + 0.03 * rng.normal(0.0, 1.0, n)
    voiced = excitation
    for fc, bw in zip(spec.formants, spec.bandwidths):
        voiced = _resonator(voiced, fc, bw, fs)
    # gentle spectral tilt toward low frequencies
    voiced = lfilter([1.0], [1.0, -0.6], voiced)
    # syllabic amplitude modulation
    env = _interp_control(rng.uniform(0.35, 1.0, max(3, int(duration_s * 3) + 2)), n)
    voiced *= env
    fade = min(int(0.01 * fs), n // 2)
    if fade > 0:
        ramp = np.linspace(0.0, 1.0, fade)
        voiced[:fade] *= ramp
        voiced[-fade:] *= ramp[::-1]
    rms = np.sqrt(np.mean(voiced**2))
    return voiced / rms if rms > 0 else voiced


def _clip_from_pool(spec, n, fs, rng):
    files = sorted(
        f for f in os.listdir(spec.clip_dir) if f.lower().endswith(".wav")
    )
    if not files:
        raise ValueError(f"clip pool {spec.clip_dir} holds no WAV files")
    sig = read_wav(os.path.join(spec.clip_dir, files[int(rng.integers(len(files)))]))
    clip = sig.channel(0)
    if clip.size == 0:
        raise ValueError("empty clip in pool")
    reps = int(np.ceil((n + clip.size) / clip.size))
    tiled = np.tile(clip, reps)
    offset = int(rng.integers(clip.size))
    out = tiled[offset : offset + n].copy()
    rms = np.sqrt(np.mean(out**2))
    return out / rms if rms > 0 else out


def _rir_pair(rt60_s, delay_samples, fs, rng, drr_db):
    """Direct path plus exponentially decaying stochastic tail, per channel.

    Channel 2's direct path is a windowed-sinc kernel realizing the
    fractional inter-mic delay; tails are independent between channels.
    """
    half = 40
    tail_len = max(int(rt60_s * fs), 8 * half)
    length = half + tail_len
    t = np.arange(tail_len) / fs
    env = np.exp(-3.0 * np.log(10.0) * t / rt60_s)
    gap = int(0.002 * fs)  # early reflections start ~2 ms after the direct path

    def tail():
        x = rng.normal(0.0, 1.0, tail_len) * env
        x[:gap] = 0.0
        energy = np.sum(x**2)
        gain = 10.0 ** (-drr_db / 20.0)
        return x * (gain / np.sqrt(energy)) if energy > 0 else x

    h1 = np.zeros(length)
    h1[half] = 1.0
    h1[half:] += tail()

    h2 = np.zeros(length)
    k = np.arange(-half, half + 1)
    kernel = np.sinc(k - delay_samples) * np.hanning(2 * half + 1)
    h2[: 2 * half + 1] += kernel  # centered on sample `half`, like h1's direct
    h2[half:] += tail()
    return h1, h2


def shaped_noise(n, fs, rng):
    """Speech-shaped (low-tilted) Gaussian noise, RMS 1."""
    white = rng.normal(0.0, 1.0, n)
    shaped = lfilter([1.0], [1.0, -0.9], white)
    shaped = lfilter([1.0, -0.3], [1.0], shaped)  # mild presence boost
    return shaped / np.sqrt(np.mean(shaped**2))


def render(scenario: MeetingScenario, sample_rate: int = DEFAULT_SAMPLE_RATE) -> RenderedMeeting:
    """Render a scenario to audio.

    The mixture equals the sum of the returned per-speaker references plus the
    noise reference, per channel, exactly (they are built that way).  Noise is
    scaled so the speech/noise power ratio over active samples matches the
    scenario SNR; a non-empty timeline that covers no sample is rejected.
    """
    fs = sample_rate
    n = int(round(scenario.length_s * fs))
    root = np.random.SeedSequence([scenario.seed, 0x52454E44])
    spk_ids = scenario.timeline.speakers()
    streams = root.spawn(len(spk_ids) * 2 + 1)
    noise_rng = np.random.default_rng(streams[-1])

    references = {}
    for i, spk in enumerate(spk_ids):
        spec = next(s for s in scenario.sources if s.speaker_id == spk)
        voice_rng = np.random.default_rng(streams[2 * i])
        rir_rng = np.random.default_rng(streams[2 * i + 1])
        dry = np.zeros(n)
        for seg in scenario.timeline.for_speaker(spk):
            i0 = int(round(seg.start * fs))
            i1 = min(int(round(seg.end * fs)), n)
            if i1 <= i0:
                continue
            dry[i0:i1] = synth_utterance(spec, (i1 - i0) / fs, fs, voice_rng)
        drr = float(rir_rng.uniform(2.0, 6.0))
        h1, h2 = _rir_pair(
            scenario.rt60_s, scenario.mic_delays[spk], fs, rir_rng, drr
        )
        ch1 = fftconvolve(dry, h1)[:n]
        ch2 = fftconvolve(dry, h2)[:n]
        references[spk] = AudioSignal(fs, np.stack([ch1, ch2]))

    noise = np.stack([shaped_noise(n, fs, noise_rng) for _ in range(2)])

    timeline = scenario.timeline
    if len(timeline) > 0:
        speech = np.zeros(noise.shape)
        for sig in references.values():
            speech += sig.samples
        active = np.zeros(n, dtype=bool)
        for seg in timeline:
            active[int(seg.start * fs) : int(seg.end * fs)] = True
        if not active.any():
            raise ValueError("timeline has no active speech")
        p_speech = np.mean(speech[:, active] ** 2)
        p_noise = np.mean(noise[:, active] ** 2)
        noise *= np.sqrt(p_speech / (p_noise * 10.0 ** (scenario.snr_db / 10.0)))
        mixture = speech + noise
    else:
        noise *= SILENT_SCENARIO_NOISE_RMS
        mixture = noise.copy()

    peak = np.max(np.abs(mixture))
    if peak > 0:
        g = 0.9 / peak
        mixture = mixture * g
        noise = noise * g
        references = {
            spk: AudioSignal(fs, sig.samples * g) for spk, sig in references.items()
        }

    return RenderedMeeting(
        mixture=AudioSignal(fs, mixture),
        references=references,
        noise=AudioSignal(fs, noise),
        timeline=timeline,
        scenario=scenario,
    )
