"""Time-frequency analysis/synthesis, the two-channel phase feature, masking
(with the checked mask record every estimator returns), and 16-bit PCM WAV
I/O.

:func:`stft`, :func:`istft` and :func:`ipd` work ``CHUNK_FRAMES`` frames at
a time through buffers of that many rows that each call allocates once, so
none builds a (T, window_len) frame matrix or a (T, F) temporary; each gives
the bytes a single pass over all frames gives.  :func:`istft` masks as it
goes and may write into a destination the caller hands it.

Everything here is a pure function over immutable arrays, but for
:func:`check_mask`, which makes the array it keeps read-only, and
:func:`istft`, which writes only its destination; there is no shared state,
so all of it is safe to call from parallel workers.
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
# Frames that stft, istft and ipd work on at a time: a 10 s block's 1247
# frames at the default STFT would be a 2.55 MB (T, window_len) matrix, and
# its (T, F) planes miss the cache where 128-frame chunks do not.
CHUNK_FRAMES = 128


def check_positive_whole(name: str, value) -> None:
    """Reject a ``value`` that is not a positive whole number, naming it; a
    bool is no number here."""
    # NaN and inf fail the range test before int() could see them
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 < value < np.inf and value == int(value)):
        raise ValueError(f"{name} must be a positive whole number, not {value!r}")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: any ``numbers.Integral`` but a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_real_samples(name: str, samples) -> None:
    """Reject ``samples`` that are not integers or floats, naming their
    dtype: taken as float64, complex ones would keep only the real part,
    booleans would read as 0 and 1, strings would be parsed and datetimes
    read as counts."""
    dtype = np.asarray(samples).dtype
    if dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, not {dtype}")


@dataclass
class AudioSignal:
    """Multi-channel waveform. ``samples`` has shape (channels, n)."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        check_real_samples("samples", self.samples)
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        check_positive_whole("sample_rate", self.sample_rate)
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
        for name in ("window_len", "hop"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, not {value!r}")
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


def block_samples(block_len_s: float, sample_rate: int) -> int:
    """The samples in one block of ``block_len_s`` seconds: the one rule that
    decoding, the oracle's ground truth and training cut blocks by."""
    return int(round(block_len_s * sample_rate))


def blocks(samples: np.ndarray, block_n: int):
    """Yield the last axis of ``samples`` in blocks of ``block_n``, at least one.

    A whole block is a view of ``samples``.  A trailing partial block, or an
    input shorter than one block, is a float64 copy zero-padded to
    ``block_n``: only that one block is ever copied.
    """
    if block_n < 1:
        raise ValueError(f"block length must be at least 1 sample, got {block_n}")
    x = np.asarray(samples)
    for start in range(0, max(x.shape[-1], 1), block_n):
        block = x[..., start:start + block_n]
        if block.shape[-1] < block_n:
            padded = np.zeros(x.shape[:-1] + (block_n,))
            padded[..., : block.shape[-1]] = block
            block = padded
        yield block


def frame_count(n_samples: int, cfg: StftConfig) -> int:
    return (n_samples - cfg.window_len) // cfg.hop + 1


def synthesis_length(n_frames: int, cfg: StftConfig) -> int:
    """The samples :func:`istft` makes of ``n_frames`` frames."""
    return (n_frames - 1) * cfg.hop + cfg.window_len


def stft(samples: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Short-time Fourier transform of one channel.

    Returns a (T, F) complex array with T = floor((n - window)/hop) + 1 and
    F = window_len/2 + 1.  No padding or centering is applied.  Frames are
    windowed ``CHUNK_FRAMES`` at a time into one reused buffer and
    transformed from it straight into their rows of the output, so no
    (T, window_len) matrix is built; each frame's transform is the one a
    single call over all frames gives, byte for byte.
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
    win = cfg.window_array()
    out = np.empty((n_frames, cfg.n_bins), dtype=np.complex128)
    windowed = np.empty((min(n_frames, CHUNK_FRAMES), cfg.window_len))
    for start in range(0, n_frames, CHUNK_FRAMES):
        rows = slice(start, start + CHUNK_FRAMES)
        chunk = np.multiply(frames[rows], win, out=windowed[: len(frames[rows])])
        np.fft.rfft(chunk, axis=1, out=out[rows])
    return out


def istft(spec: np.ndarray, cfg: StftConfig, mask: "CheckedMask | None" = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """Weighted overlap-add inverse of :func:`stft`, of ``spec`` masked by
    ``mask`` when one is given.

    Output length is :func:`synthesis_length`, (T-1)*hop + window_len; a
    spectrogram needs at least one frame.  Requires a config whose squared
    window overlap-adds to a constant, which makes interior reconstruction
    exact up to floating point.  The samples go into ``out`` when given, a
    writeable C-contiguous float64 array of that length whose old contents
    are overwritten, and into a new array otherwise; either is returned.

    Frames are masked, inverted, windowed and overlap-added
    ``CHUNK_FRAMES`` at a time: each chunk's masked spectrum is the
    product ``mask.values * spec`` of :func:`apply_mask`, made into one
    reused (CHUNK_FRAMES, F) buffer, and is inverse-transformed into one
    reused frame buffer.  So no (T, F) masked spectrum and no
    (T, window_len) matrix is built, and the bytes are those of
    ``istft(apply_mask(mask, spec), cfg)``.  Chunks run in frame order, so
    each sample sums its frames in increasing frame order.

    The output is normalized one hop-long period at a time, by the squared
    window summed over the frames that overlap the period, in frame order,
    and zeroed where that sum is at most 1e-10.  Every frame overlaps each
    interior period, so they all share one divisor of ``hop`` values; only
    the k-1 leading and k-1 trailing periods, k = ceil(window_len / hop),
    get divisors of their own.  No full-length window sum is built.
    """
    if not cfg.cola_ok():
        raise ValueError("window/hop violates overlap-add")
    spec = np.asarray(spec, dtype=np.complex128)  # float64 frames below
    if spec.ndim != 2 or spec.shape[1] != cfg.n_bins:
        raise ValueError("spectrogram bins inconsistent with config")
    if mask is not None and mask.values.shape != spec.shape:
        raise ValueError("mask/spectrogram dimensions do not match")
    n_frames = spec.shape[0]
    if n_frames == 0:
        raise ValueError("spectrogram has no frames")
    length = synthesis_length(n_frames, cfg)
    if out is None:
        out = np.zeros(length)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (length,) and out.flags.c_contiguous
              and out.flags.writeable):
        raise ValueError(f"destination must be a writeable contiguous float64 "
                         f"array of shape ({length},)")
    else:
        out.fill(0.0)
    hop, win = cfg.hop, cfg.window_array()
    # Overlap-add as k = ceil(window_len / hop) strided adds per chunk: column
    # slab j of a chunk's frames (up to hop samples wide) lands on the
    # (rows, width) view of out whose row r starts at (first + j + r)*hop.
    # Running j downward sums each sample's frames of the chunk in
    # increasing frame order, as a per-frame loop would.
    k = -(-cfg.window_len // hop)
    chunk_rows = min(n_frames, CHUNK_FRAMES)
    masked = None if mask is None else np.empty((chunk_rows, cfg.n_bins), np.complex128)
    frames = np.empty((chunk_rows, cfg.window_len))
    for first in range(0, n_frames, CHUNK_FRAMES):
        chunk = spec[first:first + CHUNK_FRAMES]
        rows = len(chunk)
        if mask is not None:
            chunk = np.multiply(mask.values[first:first + rows], chunk, out=masked[:rows])
        windowed = np.fft.irfft(chunk, n=cfg.window_len, axis=1, out=frames[:rows])
        windowed *= win
        for j in range(k - 1, -1, -1):
            cols = slice(j * hop, min((j + 1) * hop, cfg.window_len))
            width = cols.stop - cols.start
            _hop_rows(out, (first + j) * hop, rows, width, hop)[...] += windowed[:, cols]
    # w² zero-padded to k slabs of hop: adding a padding +0.0 to a sum of
    # squares leaves it unchanged, so each period's divisor equals the
    # per-frame loop's window sum there, bit for bit
    slabs = np.zeros((k, hop))
    slabs.reshape(-1)[: cfg.window_len] = win * win

    def divisors(ps):
        """(len(ps), hop): w² summed over the frames that overlap each period
        in ``ps``, in frame order."""
        d = np.zeros((len(ps), hop))
        for row, p in zip(d, ps):
            for j in range(min(p, k - 1), max(p - n_frames, -1), -1):
                row += slabs[j]
        return d

    # the periods that start before ``length``; the last may be cut short
    trail = max(n_frames, k - 1)  # the first trailing period
    _normalize(out[: (k - 1) * hop].reshape(-1, hop), divisors(range(k - 1)))
    _normalize(out[(k - 1) * hop : trail * hop].reshape(-1, hop),
               divisors([k - 1])[0])  # interior: one divisor
    tail = out[trail * hop:]
    _normalize(tail, divisors(range(trail, n_frames + k - 1)).reshape(-1)[: tail.size])
    return out


def _hop_rows(x, start, rows, width, hop):
    """The (rows, width) view of contiguous 1-D ``x`` whose row r starts at
    ``x[start + r*hop]``; ``width`` is at most ``hop``, so rows never
    overlap.  Where ``x`` ends less than a hop after the last row's start,
    as under a hop that does not divide the window, the view is strided by
    hand."""
    span = x[start:start + rows * hop]
    if span.size == rows * hop:
        return span.reshape(rows, hop)[:, :width]
    step = x.itemsize
    return np.lib.stride_tricks.as_strided(span, (rows, width), (hop * step, step))


def _normalize(rows, divisor):
    """Divide ``rows`` by ``divisor`` in place where it exceeds 1e-10; zero
    the rest."""
    good = divisor > 1e-10
    rows /= np.where(good, divisor, 1.0)  # faster than np.divide(..., where=good)
    rows[..., ~good] = 0.0


@dataclass
class IpdFeature:
    """Cosine/sine planes of the inter-channel phase difference, (T, F) each."""

    cos: np.ndarray
    sin: np.ndarray


def ipd(spec_ch1: np.ndarray, spec_ch2: np.ndarray) -> IpdFeature:
    """Inter-channel phase difference encoded as (cos, sin) planes.

    Bins where either channel has magnitude below 1e-12 are mapped to zero
    phase difference (cos=1, sin=0) so the feature stays finite everywhere.
    The planes take the real dtype of the channels' common complex dtype.
    The cross spectrum is conj(b)·a, in that operand order.  The planes
    are computed ``CHUNK_FRAMES`` frames at a time, every product and
    quotient into a reused chunk buffer or straight into its rows of the
    planes, so besides the two planes only chunk-sized arrays are held.
    """
    a = np.asarray(spec_ch1)
    b = np.asarray(spec_ch2)
    if a.shape != b.shape:
        raise ValueError("spectrogram dimensions do not match")
    ctype = np.result_type(a, b, np.complex64)
    rtype = np.finfo(ctype).dtype
    cos = np.empty(a.shape, dtype=rtype)
    sin = np.empty(a.shape, dtype=rtype)
    shape = (min(len(a), CHUNK_FRAMES),) + a.shape[1:]
    cross_buf = np.empty(shape, dtype=ctype)
    safe_buf = np.empty(shape, dtype=rtype)
    degenerate_buf = np.empty(shape, dtype=bool)
    tiny_buf = np.empty(shape, dtype=bool)
    for start in range(0, len(a), CHUNK_FRAMES):
        rows = slice(start, start + CHUNK_FRAMES)
        ca, cb = a[rows], b[rows]
        n = len(ca)
        cross, safe = cross_buf[:n], safe_buf[:n]
        degenerate, tiny = degenerate_buf[:n], tiny_buf[:n]
        np.less(np.abs(ca), _PHASE_EPS, out=degenerate)
        degenerate |= np.abs(cb) < _PHASE_EPS
        # the complex product is not commutative bit for bit, so its
        # operands are named in this order, not left to numpy's in-place
        # reuse of temporaries
        np.conjugate(cb, out=cross)
        np.multiply(cross, ca, out=cross)
        np.abs(cross, out=safe)
        np.less(safe, _PHASE_EPS * _PHASE_EPS, out=tiny)
        tiny |= degenerate
        safe[tiny] = 1.0
        cos_rows = np.divide(cross.real, safe, out=cos[rows])
        cos_rows[degenerate] = 1.0
        sin_rows = np.divide(cross.imag, safe, out=sin[rows])
        sin_rows[degenerate] = 0.0
    return IpdFeature(cos=cos, sin=sin)


@dataclass(frozen=True)
class CheckedMask:
    """A mask that :func:`check_mask` passed: read-only float64 ``values`` in
    [0, 1] and their ``mean``, the one mask type of the estimator contract
    (see :mod:`blocksep.estimators`).  The decoder takes ``mean`` as it is,
    and :func:`istft` and :func:`apply_mask` the ``values``, so a record comes from
    :func:`check_mask`; the ones made by hand are all-zero records of
    silent slots, a read-only zero view of mean 0."""

    values: np.ndarray  # read-only
    mean: float


def check_mask(mask) -> CheckedMask:
    """The one check of a mask, made once per mask where it is made.

    The mask is taken as float64; if a bin lies outside [0, 1] it is
    clipped into it, as a new array, and otherwise the record keeps the
    array itself (``mask`` when that is float64).  Either way the array is
    made read-only.  A mask holding a NaN raises ``ValueError``.
    """
    mask = np.asarray(mask, dtype=float)
    if not (mask.min() >= 0.0 and mask.max() <= 1.0):  # a NaN fails both
        mask = np.clip(mask, 0.0, 1.0)
    mean = float(mask.mean())  # NaN iff a bin is: clip maps ±inf into [0, 1]
    if np.isnan(mean):
        raise ValueError("mask holds a NaN")
    mask.flags.writeable = False
    return CheckedMask(mask, mean)


def apply_mask(mask: CheckedMask, mix: np.ndarray) -> np.ndarray:
    """Scale mixture magnitudes by a checked mask, keeping the mixture phase.

    The record is taken as it is: :func:`check_mask` already checked its
    range."""
    mix = np.asarray(mix)
    if mask.values.shape != mix.shape:
        raise ValueError("mask/spectrogram dimensions do not match")
    return mask.values * mix


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

    Samples are scaled by 32768, the inverse of ``read_wav``'s scale, and
    clipped to the 16-bit range, so every k / 32768 with k in [-32768, 32767]
    reads back exactly and 1.0 saturates at 32767 / 32768.  A NaN or infinite
    sample is rejected.
    """
    if signal.n_channels not in (1, 2):
        raise ValueError("only mono or 2-channel WAV output is supported")
    if not np.isfinite(signal.samples).all():
        raise ValueError("WAV output holds a NaN or infinite sample")
    pcm = np.round(np.clip(signal.samples * 32768.0, -32768.0, 32767.0)).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(signal.n_channels)
        fh.setsampwidth(2)
        fh.setframerate(signal.sample_rate)
        fh.writeframes(pcm.T.reshape(-1).tobytes())
