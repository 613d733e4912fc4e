import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksep.dsp import (
    CHUNK_FRAMES,
    COLA_TOL,
    AudioSignal,
    CheckedMask,
    StftConfig,
    apply_mask,
    blocks,
    check_mask,
    check_positive_whole,
    ipd,
    istft,
    make_window,
    read_wav,
    stft,
    write_wav,
)


def naive_dft(frame):
    """O(N^2) reference DFT, first N/2+1 bins."""
    n = frame.size
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    return (frame[None, :] * np.exp(-2j * np.pi * k * t / n)).sum(axis=1)


def test_stft_zero_signal():
    cfg = StftConfig()
    spec = stft(np.zeros(2048), cfg)
    assert spec.shape == ((2048 - 256) // 64 + 1, 129)
    assert np.all(spec == 0)


def test_stft_shape_contract():
    cfg = StftConfig(window_len=128, hop=32)
    n = 1000
    spec = stft(np.random.default_rng(0).normal(size=n), cfg)
    assert spec.shape == ((n - 128) // 32 + 1, 65)


@pytest.mark.parametrize("window_len, hop, name", [
    (256, 64.0, "hop"), (256.0, 64, "window_len"), (True, 1, "window_len"),
    (256, True, "hop")])
def test_stft_config_rejects_a_non_integer_size(window_len, hop, name):
    # a float hop once failed with a numpy TypeError in cola_ok, and a bool
    # window length was accepted
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        StftConfig(window_len, hop)


# frame counts around the chunk size, where a chunk ends or a short one
# follows, and one frame
CHUNKED_FRAME_COUNTS = (1, CHUNK_FRAMES - 1, CHUNK_FRAMES, CHUNK_FRAMES + 1,
                        2 * CHUNK_FRAMES + 3)


@pytest.mark.parametrize("hop", [64, 128])
@pytest.mark.parametrize("n_frames", CHUNKED_FRAME_COUNTS)
def test_stft_equals_one_transform_of_all_frames(hop, n_frames):
    cfg = StftConfig(256, hop)
    x = np.random.default_rng(n_frames).normal(size=(n_frames - 1) * hop + 256)
    frames = np.lib.stride_tricks.sliding_window_view(x, 256)[::hop]
    expected = np.fft.rfft(frames * cfg.window_array(), axis=1)
    got = stft(x, cfg)
    assert got.shape == (n_frames, 129)
    assert got.tobytes() == expected.tobytes()


def test_stft_too_short():
    with pytest.raises(ValueError, match="input too short"):
        stft(np.zeros(100), StftConfig(window_len=256, hop=64))


def test_stft_impulse_matches_window_center():
    # impulse in the middle of frame 0's window: magnitude at every bin equals
    # the window value at the impulse position
    cfg = StftConfig(window_len=64, hop=16, window="sqrt_hann")
    x = np.zeros(256)
    x[32] = 1.0
    spec = stft(x, cfg)
    w = make_window("sqrt_hann", 64)
    assert np.allclose(np.abs(spec[0]), w[32], atol=1e-12)


def test_stft_matches_naive_dft_on_sinusoid():
    cfg = StftConfig(window_len=64, hop=64, window="rect")
    n = 256
    x = np.sin(2 * np.pi * 8 * np.arange(n) / 64)
    spec = stft(x, cfg)
    for frame_idx in range(spec.shape[0]):
        frame = x[frame_idx * 64 : frame_idx * 64 + 64]
        ref = naive_dft(frame)
        assert np.allclose(spec[frame_idx], ref, atol=1e-9)
    # energy concentrated in bin 8
    mags = np.abs(spec[0])
    assert mags[8] > 10 * np.delete(mags, 8).max()


def test_stft_random_matches_naive_dft():
    cfg = StftConfig(window_len=32, hop=8)
    rng = np.random.default_rng(7)
    x = rng.normal(size=200)
    spec = stft(x, cfg)
    w = make_window("sqrt_hann", 32)
    for i in (0, 3, spec.shape[0] - 1):
        ref = naive_dft(x[i * 8 : i * 8 + 32] * w)
        assert np.allclose(spec[i], ref, atol=1e-9)


def test_blocks_exact_multiple():
    x = np.arange(12.0)
    cut = list(blocks(x, 4))
    assert len(cut) == 3
    assert np.array_equal(np.concatenate(cut), x)
    # a whole block is a view, not a copy
    assert all(np.shares_memory(block, x) for block in cut)


def test_blocks_pads_trailing_partial_block():
    x = np.arange(1.0, 6.0)
    cut = list(blocks(x, 4))
    assert np.array_equal(cut, [[1, 2, 3, 4], [5, 0, 0, 0]])
    assert np.shares_memory(cut[0], x) and not np.shares_memory(cut[1], x)
    # even an input shorter than one block, or an empty one, yields one
    # whole block
    assert np.array_equal(list(blocks(np.ones(2), 4)), [[1, 1, 0, 0]])
    assert np.array_equal(list(blocks(np.ones(0), 4)), [[0, 0, 0, 0]])
    # the padded block is float64 whatever the input
    assert next(blocks(np.ones(2, dtype=np.int16), 4)).dtype == np.float64


def test_blocks_two_channels():
    x = np.arange(10.0).reshape(2, 5)
    cut = list(blocks(x, 3))
    assert [block.shape for block in cut] == [(2, 3), (2, 3)]
    assert np.array_equal(cut[1], [[3, 4, 0], [8, 9, 0]])
    assert np.array_equal(cut[0], [[0, 1, 2], [5, 6, 7]])
    assert np.shares_memory(cut[0], x)


@pytest.mark.parametrize("block_n", [0, -4])
def test_blocks_rejects_empty_blocks(block_n):
    with pytest.raises(ValueError, match="at least 1 sample"):
        list(blocks(np.ones(8), block_n))


def test_istft_zero():
    cfg = StftConfig()
    out = istft(np.zeros((10, 129), dtype=complex), cfg)
    assert np.all(out == 0)
    assert out.size == 9 * 64 + 256


def test_istft_rejects_a_spectrogram_with_no_frames():
    # no frames once gave window_len - hop zeros from no input
    with pytest.raises(ValueError, match="no frames"):
        istft(np.zeros((0, 129), dtype=complex), StftConfig())


def test_istft_rejects_non_cola():
    cfg = StftConfig(window_len=256, hop=96, window="sqrt_hann")
    with pytest.raises(ValueError, match="overlap-add"):
        istft(np.zeros((4, 129), dtype=complex), cfg)


def _cola_ok_frame_loop(cfg):
    """Reference COLA check: overlap-add w² frame by frame, test the interior."""
    w2 = cfg.window_array() ** 2
    n_frames = 8 * (cfg.window_len // cfg.hop) + 8
    total = cfg.window_len + (n_frames - 1) * cfg.hop
    acc = np.zeros(total)
    for i in range(n_frames):
        acc[i * cfg.hop : i * cfg.hop + cfg.window_len] += w2
    interior = acc[cfg.window_len : total - cfg.window_len]
    if interior.size == 0 or interior.min() <= 0:
        return False
    return (interior.max() - interior.min()) <= COLA_TOL * interior.max()


def test_cola_ok_matches_frame_loop():
    accepted = 0
    for window in ("sqrt_hann", "hann", "rect"):
        for length in list(range(8, 41)) + [256]:
            for hop in range(1, length + 1):
                cfg = StftConfig(length, hop, window)
                assert cfg.cola_ok() == _cola_ok_frame_loop(cfg), cfg
                accepted += cfg.cola_ok()
    assert accepted > 0


def _istft_per_frame_loop(spec, cfg):
    """Reference overlap-add: one windowed frame at a time."""
    win = cfg.window_array()
    frames = np.fft.irfft(spec, n=cfg.window_len, axis=1) * win
    total = (spec.shape[0] - 1) * cfg.hop + cfg.window_len
    out = np.zeros(total)
    wsum = np.zeros(total)
    for i in range(spec.shape[0]):
        sl = slice(i * cfg.hop, i * cfg.hop + cfg.window_len)
        out[sl] += frames[i]
        wsum[sl] += win * win
    good = wsum > 1e-10
    out[good] /= wsum[good]
    out[~good] = 0.0
    return out


# (256, 3) and (256, 5) are COLA-valid with a hop that does not divide the
# window, so the last overlap-add slab is partly padding.  (256, 256) rect
# has one frame per sample (k = 1) and (256, 128) is the training STFT.
@pytest.mark.parametrize("cfg", [StftConfig(), StftConfig(256, 3, "hann"),
                                 StftConfig(256, 5, "hann"),
                                 StftConfig(256, 256, "rect"), StftConfig(256, 128)])
def test_istft_matches_per_frame_overlap_add(cfg):
    rng = np.random.default_rng(3)
    spec = stft(rng.normal(size=2000), cfg)
    # k frames overlap each interior sample; also frame counts around k, where
    # the periods that every frame overlaps first appear, and below it
    k = -(-cfg.window_len // cfg.hop)
    for n_frames in {spec.shape[0], 2, 1, k - 1, k, k + 1} - {0}:
        got = istft(spec[:n_frames], cfg)
        assert got.tobytes() == _istft_per_frame_loop(spec[:n_frames], cfg).tobytes()


@pytest.mark.parametrize("hop", [64, 128])
@pytest.mark.parametrize("n_frames", CHUNKED_FRAME_COUNTS)
def test_istft_across_chunks_matches_per_frame_overlap_add(hop, n_frames):
    cfg = StftConfig(256, hop)
    rng = np.random.default_rng(n_frames)
    spec = rng.normal(size=(n_frames, 129)) + 1j * rng.normal(size=(n_frames, 129))
    assert istft(spec, cfg).tobytes() == _istft_per_frame_loop(spec, cfg).tobytes()


def _interior_roundtrip_error(x, cfg):
    y = istft(stft(x, cfg), cfg)
    w = cfg.window_len
    a, b = w, min(x.size, y.size) - w
    return np.max(np.abs(y[a:b] - x[a:b])) / (np.max(np.abs(x)) + 1e-30)


def test_roundtrip_white_noise():
    x = np.random.default_rng(1).normal(size=8192)
    assert _interior_roundtrip_error(x, StftConfig()) < 1e-6


def test_roundtrip_speech_shaped():
    rng = np.random.default_rng(2)
    # low-pass filtered noise with a slow envelope, crudely speech-like
    x = np.convolve(rng.normal(size=8192), np.ones(8) / 8, mode="same")
    x *= 0.5 + 0.5 * np.sin(2 * np.pi * np.arange(8192) / 4000)
    assert _interior_roundtrip_error(x, StftConfig()) < 1e-6


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(256, 64, "sqrt_hann"), (256, 128, "sqrt_hann"),
                     (128, 32, "hann"), (64, 64, "rect")]),
    st.integers(0, 2**31 - 1),
)
def test_roundtrip_property(cfg_tuple, seed):
    wl, hop, win = cfg_tuple
    x = np.random.default_rng(seed).normal(size=4096)
    assert _interior_roundtrip_error(x, StftConfig(wl, hop, win)) < 1e-6


def test_ipd_identical_channels():
    spec = stft(np.random.default_rng(3).normal(size=2048), StftConfig())
    feat = ipd(spec, spec)
    assert np.allclose(feat.cos, 1.0)
    assert np.allclose(feat.sin, 0.0)


def test_ipd_delay_gives_phase_ramp():
    # tones at exact bin frequencies so the delay -> phase relation is exact
    cfg = StftConfig(window_len=256, hop=64, window="rect")
    d = 2.5  # fractional delay in samples
    bins = [3, 8, 17, 30]
    t = np.arange(4096)
    x1 = sum(np.sin(2 * np.pi * k * t / 256 + 0.3 * k) for k in bins)
    x2 = sum(np.sin(2 * np.pi * k * (t - d) / 256 + 0.3 * k) for k in bins)
    feat = ipd(stft(x1, cfg), stft(x2, cfg))
    ang = np.arctan2(feat.sin, feat.cos)
    for k in bins:
        expected = 2 * np.pi * k * d / 256
        err = np.angle(np.exp(1j * (ang[:, k] - expected)))
        assert np.max(np.abs(err)) < 1e-9


def test_ipd_degenerate_bin():
    spec = stft(np.random.default_rng(5).normal(size=1024), StftConfig())
    zero = np.zeros_like(spec)
    feat = ipd(spec, zero)
    assert np.allclose(feat.cos, 1.0)
    assert np.allclose(feat.sin, 0.0)


def test_ipd_unit_circle_invariant():
    rng = np.random.default_rng(6)
    s1 = stft(rng.normal(size=2048), StftConfig())
    s2 = stft(rng.normal(size=2048), StftConfig())
    feat = ipd(s1, s2)
    assert np.allclose(feat.cos**2 + feat.sin**2, 1.0, atol=1e-6)


def _ipd_by_where(a, b):
    """Reference ``ipd``: one ``np.where`` temporary per plane."""
    cross = np.multiply(np.conj(b), a)
    mag = np.abs(cross)
    degenerate = (np.abs(a) < 1e-12) | (np.abs(b) < 1e-12)
    safe = np.where(degenerate | (mag < 1e-12 * 1e-12), 1.0, mag)
    cos = np.where(degenerate, 1.0, np.real(cross) / safe)
    sin = np.where(degenerate, 0.0, np.imag(cross) / safe)
    return cos, sin


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_ipd_equals_the_where_formula_bytewise(dtype):
    rng = np.random.default_rng(8)
    shape = (40, 33)

    def spectrum():
        spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # magnitudes from zero across the 1e-12 threshold, up to order one
        scale = 10.0 ** rng.uniform(-14, 0, shape)
        scale[rng.random(shape) < 0.1] = 0.0
        near = rng.random(shape) < 0.1
        scale[near] = 1e-12 * (1 + rng.uniform(-1e-6, 1e-6, near.sum()))
        return (spec / np.abs(spec) * scale).astype(dtype)

    a, b = spectrum(), spectrum()
    assert ((np.abs(a) == 0) & (np.abs(b) > 0)).any()
    assert ((np.abs(b) == 0) & (np.abs(a) > 0)).any()
    feat = ipd(a, b)
    cos, sin = _ipd_by_where(a, b)
    assert feat.cos.dtype == cos.dtype and feat.sin.dtype == sin.dtype
    assert feat.cos.tobytes() == cos.tobytes()
    assert feat.sin.tobytes() == sin.tobytes()


@pytest.mark.parametrize("shape", [(10, 129), (1247, 129)])
def test_ipd_takes_the_cross_spectrum_as_conj_b_times_a(shape):
    # the complex product is not commutative bit for bit: a * conj(b) once
    # gave conj(b) * a above numpy's 256 KB temporary-elision threshold, as
    # at (1247, 129), and a * conj(b) below it, as at (10, 129)
    rng = np.random.default_rng(9)
    a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    cross = np.multiply(np.conj(b), a)
    feat = ipd(a, b)
    assert feat.cos.tobytes() == (cross.real / np.abs(cross)).tobytes()
    assert feat.sin.tobytes() == (cross.imag / np.abs(cross)).tobytes()


def test_ipd_shape_mismatch():
    with pytest.raises(ValueError):
        ipd(np.zeros((3, 5), dtype=complex), np.zeros((4, 5), dtype=complex))


def test_apply_mask_identity_zero_half():
    spec = stft(np.random.default_rng(8).normal(size=1024), StftConfig())
    assert np.allclose(apply_mask(check_mask(np.ones(spec.shape)), spec), spec)
    assert np.all(apply_mask(check_mask(np.zeros(spec.shape)), spec) == 0)
    half = apply_mask(check_mask(np.full(spec.shape, 0.5)), spec)
    assert np.allclose(np.abs(half), 0.5 * np.abs(spec))
    assert np.allclose(np.angle(half[np.abs(spec) > 1e-9]),
                       np.angle(spec[np.abs(spec) > 1e-9]))


def test_apply_mask_takes_a_checked_mask_as_it_is():
    spec = stft(np.random.default_rng(9).normal(size=1024), StftConfig())
    mask = np.random.default_rng(10).uniform(0.0, 1.0, spec.shape)
    assert apply_mask(check_mask(mask), spec).tobytes() == (mask * spec).tobytes()
    # check_mask checked the record's range, so it is not scanned again
    trusted = CheckedMask(np.full((2, 3), 1.5), 1.5)
    assert np.array_equal(apply_mask(trusted, np.ones((2, 3), dtype=complex)),
                          np.full((2, 3), 1.5 + 0j))
    with pytest.raises(ValueError, match="dimensions"):
        apply_mask(check_mask(np.zeros((2, 3))), np.ones((3, 2), dtype=complex))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_istft_of_a_zero_mask_is_positive_zero(n_frames, seed):
    # a decoder skips synthesizing a silent slot because this holds: the
    # masked spectrum is ±0 and overlap-adding it into zeros gives +0.0
    cfg = StftConfig(64, 16)
    rng = np.random.default_rng(seed)
    shape = (n_frames, cfg.n_bins)
    spec = -rng.uniform(0, 1e3, shape) - 1j * rng.uniform(0, 1e3, shape)
    spec[rng.random(shape) < 0.2] *= -1  # some positive parts too
    out = istft(apply_mask(check_mask(np.zeros(shape)), spec), cfg)
    assert np.all(out == 0) and not np.signbit(out).any()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_apply_mask_monotone(seed):
    rng = np.random.default_rng(seed)
    spec = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    m1 = rng.uniform(0, 1, (4, 6))
    m2 = np.clip(m1 + rng.uniform(0, 1, (4, 6)) * (1 - m1), 0, 1)
    low, high = (np.abs(apply_mask(check_mask(m), spec)) for m in (m1, m2))
    assert np.all(high >= low - 1e-12)


def test_wav_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    sig = AudioSignal(8000, rng.uniform(-0.9, 0.9, (2, 4000)))
    path = tmp_path / "x.wav"
    write_wav(path, sig)
    back = read_wav(path)
    assert back.sample_rate == 8000
    assert back.n_channels == 2
    assert np.max(np.abs(back.samples - sig.samples)) < 1.0 / 16384



def test_wav_roundtrip_is_exact_on_the_16_bit_grid(tmp_path):
    # every k / 32768 for k in [-32768, 32767] reads back as written, and
    # samples beyond the 16-bit range saturate at its ends
    grid = np.arange(-32768, 32768) / 32768.0
    path = tmp_path / "x.wav"
    write_wav(path, AudioSignal(8000, np.stack([grid, grid[::-1]])))
    back = read_wav(path)
    assert np.array_equal(back.samples, np.stack([grid, grid[::-1]]))
    write_wav(path, AudioSignal(8000, np.array([1.0, -1.0, 2.0, -2.0])))
    assert np.array_equal(read_wav(path).channel(0),
                          np.array([32767, -32768, 32767, -32768]) / 32768.0)

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wav_write_rejects_non_finite_samples(tmp_path, bad):
    samples = np.zeros((2, 100))
    samples[1, 40] = bad
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match="NaN or infinite"):
        write_wav(path, AudioSignal(8000, samples))
    assert not path.exists()


def test_wav_rejects_wrong_encoding(tmp_path):
    import wave

    path = tmp_path / "bad.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(4)
        fh.setframerate(8000)
        fh.writeframes(b"\x00" * 64)
    with pytest.raises(ValueError, match="16-bit"):
        read_wav(path)


def test_audio_signal_invariants():
    # NaN and inf were once accepted (``duration`` read nan and 0.0) and a
    # decode failed far from the cause; 8000.5 and -1 are no rates either
    for bad in (0, np.nan, np.inf, 8000.5, -1):
        with pytest.raises(ValueError, match="positive whole number"):
            AudioSignal(bad, np.zeros(10))
    sig = AudioSignal(8000, np.zeros(16000))
    assert sig.n_channels == 1
    assert sig.duration == pytest.approx(2.0)
    for rate in (np.int64(8000), np.int32(8000)):
        assert AudioSignal(rate, np.zeros(16000)).duration == pytest.approx(2.0)


@pytest.mark.parametrize("samples", [np.array([[0.5 + 0.5j, 1j]]), np.array([True, False]),
                                     [1 + 0j, 2 + 0j], np.full((2, 10), "0.5")])
def test_audio_signal_rejects_complex_or_boolean_samples(samples):
    # a complex mixture once kept its real part after only a ComplexWarning,
    # a boolean one read as 0 and 1, and strings were parsed into samples
    dtype = np.asarray(samples).dtype
    with pytest.raises(ValueError, match=f"samples must be real numbers, not {dtype}"):
        AudioSignal(8000, samples)


def test_a_bool_is_no_whole_number():
    # AudioSignal(True, x) once kept sample_rate=True
    with pytest.raises(ValueError, match="rate must be a positive whole number"):
        check_positive_whole("rate", True)
    with pytest.raises(ValueError, match="sample_rate must be a positive whole number"):
        AudioSignal(True, np.zeros(10))
