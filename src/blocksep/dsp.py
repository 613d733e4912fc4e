"""Time-frequency analysis/synthesis, the two-channel phase feature, masking,
and 16-bit PCM WAV I/O.

Everything here is a pure function over immutable arrays; there is no shared
state, so all of it is safe to call from parallel workers.
"""

import numbers
import wave
from dataclasses import dataclass

import numpy as np

DEFAULT_SAMPLE_RATE = 8000

# Bins with magnitude below this are treated as phaseless when computing the
# inter-channel phase feature.
_PHASE_EPS = 1e-12
COLA_TOL = 1e-8  # relative spread allowed in the overlap-added squared window


@dataclass
class AudioSignal:
    """Multi-channel waveform. ``samples`` has shape (channels, n)."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        rate = self.sample_rate
        # NaN and inf fail the range test before int() could see them
        if not (isinstance(rate, numbers.Real) and 0 < rate < np.inf and rate == int(rate)):
            raise ValueError(f"sample_rate must be a positive whole number, not {rate!r}")
        if self.samples.ndim != 2:
            raise ValueError("samples must be 1-D (mono) or 2-D (channels, n)")

    @property
    def n_channels(self):
        return self.samples.shape[0]

    @property
    def n_samples(self):
        return self.samples.shape[1]

    @property
    def duration(self):
        return self.n_samples / self.sample_rate

    def channel(self, idx: int) -> np.ndarray:
        return self.samples[idx]


def make_window(name: str, length: int) -> np.ndarray:
    """Return a periodic analysis window by name."""
    n = np.arange(length)
    if name == "sqrt_hann":
        return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / length))
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    if name == "rect":
        return np.ones(length)
    raise ValueError(f"unknown window type: {name!r}")


@dataclass(frozen=True)
class StftConfig:
    window_len: int = 256
    hop: int = 64
    window: str = "sqrt_hann"

    def __post_init__(self):
        if not (0 < self.hop <= self.window_len):
            raise ValueError("hop must satisfy 0 < hop <= window_len")
        make_window(self.window, self.window_len)  # validates the name

    @property
    def n_bins(self):
        return self.window_len // 2 + 1

    def window_array(self) -> np.ndarray:
        return make_window(self.window, self.window_len)

    def cola_ok(self) -> bool:
        """Check that the squared window overlap-adds to a constant at ``hop``.

        Synthesis divides by the overlap-added squared window, so a constant
        interior sum is what guarantees exact reconstruction.  Interior sample
        ``i`` sums ``w2[j]`` over every ``j`` congruent to ``i`` modulo ``hop``:
        the column sums of the zero-padded w² viewed as ``(k, hop)``.
        """
        w2 = self.window_array() ** 2
        k = -(-self.window_len // self.hop)
        padded = np.zeros(k * self.hop)
        padded[: self.window_len] = w2
        sums = padded.reshape(k, self.hop).sum(axis=0)
        return bool(sums.min() > 0 and sums.max() - sums.min() <= COLA_TOL * sums.max())


def split_blocks(samples: np.ndarray, block_n: int) -> np.ndarray:
    """Zero-pad the last axis to whole blocks, at least one.

    Returns a (..., n_blocks, block_n) view of the padded copy.
    """
    if block_n < 1:
        raise ValueError(f"block length must be at least 1 sample, got {block_n}")
    x = np.asarray(samples)
    n_blocks = max(1, -(-x.shape[-1] // block_n))
    padded = np.zeros(x.shape[:-1] + (n_blocks * block_n,))
    padded[..., : x.shape[-1]] = x
    return padded.reshape(x.shape[:-1] + (n_blocks, block_n))


def frame_count(n_samples: int, cfg: StftConfig) -> int:
    return (n_samples - cfg.window_len) // cfg.hop + 1


def stft(samples: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Short-time Fourier transform of one channel.

    Returns a (T, F) complex array with T = floor((n - window)/hop) + 1 and
    F = window_len/2 + 1.  No padding or centering is applied.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("stft expects a single channel")
    if x.size < cfg.window_len:
        raise ValueError("input too short")
    n_frames = frame_count(x.size, cfg)
    stride = x.strides[0]
    frames = np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, cfg.window_len), strides=(stride * cfg.hop, stride)
    )
    return np.fft.rfft(frames * cfg.window_array(), axis=1)


def istft(spec: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Weighted overlap-add inverse of :func:`stft`.

    Output length is (T-1)*hop + window_len.  Requires a config whose squared
    window overlap-adds to a constant, which makes interior reconstruction
    exact up to floating point.
    """
    if not cfg.cola_ok():
        raise ValueError("window/hop violates overlap-add")
    spec = np.asarray(spec, dtype=np.complex128)  # float64 frames below
    if spec.ndim != 2 or spec.shape[1] != cfg.n_bins:
        raise ValueError("spectrogram bins inconsistent with config")
    n_frames = spec.shape[0]
    hop, win = cfg.hop, cfg.window_array()
    frames = np.fft.irfft(spec, n=cfg.window_len, axis=1)
    frames *= win
    w2 = win * win
    # Overlap-add as k = ceil(window_len / hop) strided adds: column slab j
    # of every frame (up to hop samples wide) lands in out[j*hop : j*hop +
    # n_frames*hop] viewed as (n_frames, hop).  Running j downward sums each
    # sample's frames in increasing frame order, as a per-frame loop would.
    k = -(-cfg.window_len // hop)
    out = np.zeros((n_frames + k - 1) * hop)
    wsum = np.zeros_like(out)
    span = n_frames * hop
    for j in range(k - 1, -1, -1):
        cols = slice(j * hop, min((j + 1) * hop, cfg.window_len))
        width = cols.stop - cols.start
        dst = slice(j * hop, j * hop + span)
        out[dst].reshape(n_frames, hop)[:, :width] += frames[:, cols]
        wsum[dst].reshape(n_frames, hop)[:, :width] += w2[cols]
    total = (n_frames - 1) * hop + cfg.window_len
    out, wsum = out[:total], wsum[:total]
    return np.divide(out, wsum, out=np.zeros(total), where=wsum > 1e-10)


@dataclass
class IpdFeature:
    """Cosine/sine planes of the inter-channel phase difference, (T, F) each."""

    cos: np.ndarray
    sin: np.ndarray


def ipd(spec_ch1: np.ndarray, spec_ch2: np.ndarray) -> IpdFeature:
    """Inter-channel phase difference encoded as (cos, sin) planes.

    Bins where either channel has magnitude below 1e-12 are mapped to zero
    phase difference (cos=1, sin=0) so the feature stays finite everywhere.
    """
    a = np.asarray(spec_ch1)
    b = np.asarray(spec_ch2)
    if a.shape != b.shape:
        raise ValueError("spectrogram dimensions do not match")
    cross = a * np.conj(b)
    degenerate = np.abs(a) < _PHASE_EPS
    degenerate |= np.abs(b) < _PHASE_EPS
    # set in place: np.where would allocate another (T, F) array per plane
    safe = np.abs(cross)
    tiny = safe < _PHASE_EPS * _PHASE_EPS
    tiny |= degenerate
    safe[tiny] = 1.0
    cos = np.real(cross) / safe
    cos[degenerate] = 1.0
    sin = np.imag(cross) / safe
    sin[degenerate] = 0.0
    return IpdFeature(cos=cos, sin=sin)


def apply_mask(mask: np.ndarray, mix: np.ndarray) -> np.ndarray:
    """Scale mixture magnitudes by a [0, 1] mask, keeping the mixture phase."""
    mask = np.asarray(mask)
    mix = np.asarray(mix)
    if mask.shape != mix.shape:
        raise ValueError("mask/spectrogram dimensions do not match")
    # written so that a NaN bin, which fails every comparison, is rejected
    if not (mask.min() >= -1e-9 and mask.max() <= 1.0 + 1e-9):
        raise ValueError("mask values must lie in [0, 1]")
    return mask * mix


def read_wav(path) -> AudioSignal:
    """Read a 16-bit PCM WAV file (mono or 2-channel)."""
    with wave.open(str(path), "rb") as fh:
        if fh.getcomptype() != "NONE":
            raise ValueError(f"unsupported WAV encoding in {path}: compressed data")
        if fh.getsampwidth() != 2:
            raise ValueError(
                f"unsupported WAV encoding in {path}: expected 16-bit PCM, "
                f"got sample width {fh.getsampwidth()}"
            )
        n_ch = fh.getnchannels()
        if n_ch not in (1, 2):
            raise ValueError(f"unsupported channel count {n_ch} in {path}")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioSignal(rate, data.reshape(-1, n_ch).T)


def write_wav(path, signal: AudioSignal) -> None:
    """Write a signal as 16-bit PCM little-endian WAV.

    Samples are clipped to [-1, 1]; a NaN or infinite sample is rejected.
    """
    if signal.n_channels not in (1, 2):
        raise ValueError("only mono or 2-channel WAV output is supported")
    if not np.isfinite(signal.samples).all():
        raise ValueError("WAV output holds a NaN or infinite sample")
    clipped = np.clip(signal.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(signal.n_channels)
        fh.setsampwidth(2)
        fh.setframerate(signal.sample_rate)
        fh.writeframes(pcm.T.reshape(-1).tobytes())
