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

``render`` transforms each speaker's dry signal once and convolves that one
spectrum with both of the speaker's room impulse responses.  It renders the
speakers concurrently, on a thread pool that lives only for the call.  Each
speaker and the noise draw from streams of their own, spawned up front, so
the rendered bytes do not depend on the pool size or on task order.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.signal import lfilter

from .dsp import DEFAULT_SAMPLE_RATE, AudioSignal, check_positive_whole, read_wav
from .rttm import Segment, Timeline

HEAD_LEN_S = 5.0
# Occupancy intervals are multiples of this grid, 1 to 3 units long.
GRID_S = 2.5
SNR_RANGE_DB = (10.0, 20.0)
RT60_RANGE_S = (0.3, 0.7)
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
        entries = {"sources": {s.speaker_id for s in self.sources},
                   "mic_delays": self.mic_delays}
        for spk in self.timeline.speakers():
            for name, ids in entries.items():
                if spk not in ids:
                    raise ValueError(f"speaker {spk!r} of the segments is missing "
                                     f"from {name}")

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


def sample_scenario(profile: str, length_s: float, pool, seed: int) -> MeetingScenario:
    """Draw a meeting activity plan, SNR, RT60 and inter-mic delays.

    Each speaker's inter-mic delay is uniform in +-4 samples, redrawn until
    it lies at least 0.8 samples from every delay drawn before it, at most
    64 times; the 64th draw is kept even when it lies closer.  So the
    spacing holds only while the delays fit: in 200 scenarios of 600 s
    (profiles A and B, seeds 0-99) it holds for every pool of 4-6
    speakers, but breaks in 11 with pools of 7 and 93 with pools of 8.
    Profile A, ``make_pool(8)``, 120 s, seed 5 has two delays 0.006 apart.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    prof = PROFILES[profile]
    pool = list(pool)
    if not pool:
        raise ValueError("speaker pool is empty")
    pool_ids = [s.speaker_id for s in pool]
    if len(set(pool_ids)) < prof.max_concurrent:
        raise ValueError(
            f"speaker pool must hold at least {prof.max_concurrent} distinct speakers"
        )
    if not HEAD_LEN_S <= length_s < np.inf:
        raise ValueError(f"scenario length must be finite and at least {HEAD_LEN_S} s")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5343454E]))
    by_id = {s.speaker_id: s for s in pool}

    def pick(candidates):
        return candidates[int(rng.integers(len(candidates)))]

    intervals = []  # (t0, t1, tuple of active ids)

    head_k = int(rng.choice(prof.head_counts, p=prof.head_probs))
    active = sorted(
        rng.choice(pool_ids, size=head_k, replace=False).tolist()
    ) if head_k else []
    seen = list(active)
    head_end = min(HEAD_LEN_S, length_s)
    if active:
        intervals.append((0.0, head_end, tuple(active)))

    t = head_end
    while t < length_s - 1e-9:
        dur = min(GRID_S * int(rng.integers(1, 4)), length_s - t)
        k = int(rng.choice(prof.body_counts, p=prof.body_probs))
        n_keep = min(k, len(active))
        retained = sorted(
            rng.choice(active, size=n_keep, replace=False).tolist()
        ) if n_keep > 0 else []
        while len(retained) < k:
            # the pool holds at least k distinct speakers, so one of the
            # two lists is never empty
            reusable = sorted(s for s in seen if s not in retained)
            fresh = [s for s in pool_ids if s not in seen]
            if fresh and not (reusable and rng.random() < 0.5):
                spk = pick(fresh)
                seen.append(spk)
            else:
                spk = pick(reusable)
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

    snr = float(rng.uniform(*SNR_RANGE_DB))
    rt60 = float(rng.uniform(*RT60_RANGE_S))

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
    path = os.path.join(spec.clip_dir, files[int(rng.integers(len(files)))])
    sig = read_wav(path)
    if sig.sample_rate != fs:
        raise ValueError(f"clip {path} is sampled at {sig.sample_rate} Hz, "
                         f"the meeting at {fs} Hz")
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


def _usable_cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _reverberate(dry, rirs):
    """Each RIR convolved with ``dry``, cut to its length: one row per RIR.

    These are ``fftconvolve``'s own transforms, so each row has its bytes,
    but ``dry`` is transformed once for all RIRs, which share one length.
    Each row is transformed on its own: a batched transform differs in the
    last digit.
    """
    n = dry.size
    nf = next_fast_len(n + len(rirs[0]) - 1, True)
    dry_spec = rfftn(dry, [nf], axes=[0])
    out = np.empty((len(rirs), n))
    for row, h in zip(out, rirs):
        h_spec = rfftn(h, [nf], axes=[0])
        # both operands named: numpy computes `a * temporary` in the
        # temporary as `temporary * a`, and the complex product is not
        # commutative bit for bit
        row[:] = irfftn(dry_spec * h_spec, [nf], axes=[0])[:n]
    return out


def _render_speaker(scenario, spk, n, fs, streams):
    """One speaker's (2, n) reverberant image, from its own two streams."""
    spec = next(s for s in scenario.sources if s.speaker_id == spk)
    voice_rng = np.random.default_rng(streams[0])
    rir_rng = np.random.default_rng(streams[1])
    dry = np.zeros(n)
    for seg in scenario.timeline.for_speaker(spk):
        i0 = int(round(seg.start * fs))
        i1 = min(int(round(seg.end * fs)), n)
        if i1 <= i0:
            continue
        dry[i0:i1] = synth_utterance(spec, (i1 - i0) / fs, fs, voice_rng)
    drr = float(rir_rng.uniform(2.0, 6.0))
    rirs = _rir_pair(scenario.rt60_s, scenario.mic_delays[spk], fs, rir_rng, drr)
    return _reverberate(dry, rirs)


def _render_noise(n, fs, stream):
    """The (2, n) noise, RMS 1 per channel, from its own stream."""
    rng = np.random.default_rng(stream)
    return np.stack([shaped_noise(n, fs, rng) for _ in range(2)])


def render(scenario: MeetingScenario, sample_rate: int = DEFAULT_SAMPLE_RATE) -> RenderedMeeting:
    """Render a scenario to audio.

    The mixture equals the sum of the returned per-speaker references plus the
    noise reference, per channel, exactly (they are built that way).  Noise is
    scaled so the speech/noise power ratio over active samples matches the
    scenario SNR; a non-empty timeline that covers no sample is rejected.

    Each speaker is rendered from one spectrum of its dry signal, shared by
    both mic channels.  The speakers are rendered concurrently, on a thread
    pool as large as the usable CPUs (at most one thread per speaker) that
    ends before this returns.  Every speaker and the noise draw from streams
    of their own, so the bytes do not depend on the pool size or on the order
    in which the tasks run.  ``sample_rate`` must be a positive whole number;
    the signals carry it as an ``int``.
    """
    check_positive_whole("sample_rate", sample_rate)
    fs = int(sample_rate)
    n = int(round(scenario.length_s * fs))
    root = np.random.SeedSequence([scenario.seed, 0x52454E44])
    spk_ids = scenario.timeline.speakers()
    streams = root.spawn(len(spk_ids) * 2 + 1)

    workers = max(1, min(_usable_cpus(), len(spk_ids)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        images = [pool.submit(_render_speaker, scenario, spk, n, fs, streams[2 * i : 2 * i + 2])
                  for i, spk in enumerate(spk_ids)]
        noise_task = pool.submit(_render_noise, n, fs, streams[-1])
        references = {spk: AudioSignal(fs, image.result())
                      for spk, image in zip(spk_ids, images)}
        noise = noise_task.result()

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
        mixture *= g
        noise *= g
        for sig in references.values():
            sig.samples *= g

    return RenderedMeeting(
        mixture=AudioSignal(fs, mixture),
        references=references,
        noise=AudioSignal(fs, noise),
        timeline=timeline,
        scenario=scenario,
    )
