import json
import struct

import numpy as np
import pytest

from blocksep import kernels
from blocksep.dsp import IpdFeature, StftConfig
from blocksep.estimators import (
    MaskNet,
    OracleMaskEstimator,
    block_truth,
    check_mask,
    init_params,
    load_params,
    save_params,
    speaker_embedding,
)
from synthutil import GivenFeatures


def _flat_ipd(t, f):
    return IpdFeature(cos=np.ones((t, f)), sin=np.zeros((t, f)))


def _oracle_fixture():
    t, f = 6, 5
    rng = np.random.default_rng(0)
    s1 = rng.uniform(0.5, 1.0, (t, f))
    s2 = rng.uniform(0.2, 0.6, (t, f))
    noise = rng.uniform(0.05, 0.2, (t, f))
    blocks = [
        block_truth(noise, {"alice": s1, "bob": s2}),
        block_truth(noise.copy(), {"alice": np.zeros((t, f)), "bob": s2}),  # alice silent
    ]
    return OracleMaskEstimator(blocks), s1, s2, noise


def _begin(est, index, t=6, f=5):
    est.begin_block(index, GivenFeatures(np.ones((t, f)), _flat_ipd(t, f)))


def _inp(est, t=6, f=5, z=None):
    """(residual, z_prev) of one oracle iteration."""
    return np.ones((t, f)), z if z is not None else np.zeros(est.embed_dim)


def test_oracle_noise_first_then_ratio_masks():
    est, s1, s2, noise = _oracle_fixture()
    _begin(est, 0)
    noise_mask, z_noise = est.estimate(*_inp(est))
    denom = s1 + s2 + noise + 1e-8
    assert np.allclose(noise_mask.values, noise / denom)
    assert noise_mask.mean == float(noise_mask.values.mean())
    assert np.linalg.norm(z_noise) == pytest.approx(1.0)
    # probe with zero embedding: strongest remaining source (alice)
    m1, z1 = est.estimate(*_inp(est))
    assert np.allclose(m1.values, s1 / denom)
    assert np.allclose(z1, speaker_embedding("alice"))
    m2, z2 = est.estimate(*_inp(est))
    assert np.allclose(m2.values, s2 / denom)
    assert np.allclose(z2, speaker_embedding("bob"))
    for mask in (m1, m2):
        assert mask.mean == float(mask.values.mean())
    # masks sum with the noise mask to <= 1 + eps per bin
    assert np.max(noise_mask.values + m1.values + m2.values) <= 1.0 + 1e-8


def test_oracle_single_source_ratio_mask():
    t, f = 4, 3
    s = np.full((t, f), 0.8)
    n = np.full((t, f), 0.2)
    est = OracleMaskEstimator([block_truth(n, {"solo": s})])
    _begin(est, 0, t, f)
    est.estimate(*_inp(est, t, f))  # noise slot
    mask, _ = est.estimate(*_inp(est, t, f))
    assert np.allclose(mask.values, s / (s + n + 1e-8))
    assert mask.mean == float(mask.values.mean())


def test_oracle_silent_speaker_gives_zero_mask():
    est, *_ = _oracle_fixture()
    _begin(est, 1)
    est.estimate(*_inp(est))  # noise
    mask, z = est.estimate(*_inp(est, z=speaker_embedding("alice")))
    assert mask.values.shape == (6, 5) and np.all(mask.values == 0)
    assert mask.mean == 0.0
    assert np.allclose(z, speaker_embedding("alice"))


def test_oracle_probe_exhaustion_returns_silence():
    est, *_ = _oracle_fixture()
    _begin(est, 0)
    est.estimate(*_inp(est))
    est.estimate(*_inp(est))
    est.estimate(*_inp(est))
    mask, _ = est.estimate(*_inp(est))  # nothing left to extract
    assert mask.values.shape == (6, 5) and np.all(mask.values == 0)
    assert mask.mean == 0.0


def test_oracle_probe_tie_goes_to_the_last_speaker_id():
    t, f = 4, 3
    s = np.full((t, f), 0.4)
    est = OracleMaskEstimator([block_truth(np.full((t, f), 0.2),
                                           {"ann": s, "bob": s.copy()})])
    _begin(est, 0, t, f)
    est.estimate(*_inp(est, t, f))  # noise slot
    _, z = est.estimate(*_inp(est, t, f))
    assert np.allclose(z, speaker_embedding("bob"))


def test_block_truth_reduces_each_source_mask_to_its_mean_once():
    _, s1, s2, noise = _oracle_fixture()
    truth = block_truth(noise, {"alice": s1, "bob": s2, "carl": np.zeros_like(s1)})
    assert sorted(truth.irms) == ["alice", "bob", "carl"]
    for mask in (truth.noise_irm, truth.silent, *truth.irms.values()):
        assert mask.mean == float(mask.values.mean())
        assert mask.values.shape == noise.shape and not mask.values.flags.writeable
    assert truth.silent.mean == 0.0 and not truth.silent.values.any()
    assert truth.active == ["alice", "bob"]


def test_the_oracle_hands_out_its_records_and_allocates_no_mask():
    est, *_ = _oracle_fixture()
    _begin(est, 1)
    truth = est.blocks[1]
    residual, zero = _inp(est)
    out = [est.estimate(residual, zero),  # the noise slot
           est.estimate(residual, speaker_embedding("alice")),  # silent in block 1
           est.estimate(residual, zero),  # probes bob
           est.estimate(residual, zero)]  # nothing left
    expected = (truth.noise_irm, truth.silent, truth.irms["bob"], truth.silent)
    assert all(mask is record for (mask, _), record in zip(out, expected))
    for _, z in out:
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 1.0


@pytest.mark.parametrize("bad, value, name", [
    ("noise", np.inf, "the noise"), ("bob", np.inf, "source 'bob'"),
    # a NaN magnitude spoils every mask of its bin, the noise's, checked
    # first, included; the error names the magnitude
    ("bob", np.nan, "source 'bob'"), ("noise", np.nan, "the noise"),
])
def test_block_truth_rejects_a_mask_that_holds_a_nan(bad, value, name):
    # a non-finite magnitude once gave a NaN mask that the decode rejected
    # mid-session and training met as a non-finite loss
    _, s1, s2, noise = _oracle_fixture()
    mags = {"noise": noise.copy(), "alice": s1, "bob": s2.copy()}
    mags[bad][2, 3] = value
    with (np.errstate(invalid="ignore"),
          pytest.raises(ValueError, match=f"ground-truth mask of {name}: mask holds a NaN")):
        block_truth(mags.pop("noise"), mags)


def _parent_inline_check(mask):
    """The mask check ``decoding._estimate`` made inline before ``check_mask``."""
    mask = np.asarray(mask, dtype=float)
    if not (mask.min() >= 0.0 and mask.max() <= 1.0):
        mask = np.clip(mask, 0.0, 1.0)
    mean = float(mask.mean())
    if np.isnan(mean):
        raise ValueError("mask holds a NaN")
    return mask, mean


def _check_mask_inputs():
    rng = np.random.default_rng(5)
    inside = rng.uniform(0.0, 1.0, (7, 9))
    inside[0, :3] = (0.0, 1.0, -0.0)
    for bins in [(-0.5,), (1.5,), (np.inf,), (-np.inf,), (-0.5, 1.5, np.inf, -np.inf)]:
        mask = inside.copy()
        mask[1, :len(bins)] = bins
        yield "outside", mask
    yield "float32", inside.astype(np.float32)
    yield "inside", inside


@pytest.mark.parametrize("kind, mask", list(_check_mask_inputs()))
def test_check_mask_equals_the_parent_inline_check(kind, mask):
    expected, mean = _parent_inline_check(mask.copy())
    checked = check_mask(mask)
    assert checked.values.tobytes() == expected.tobytes()
    assert checked.values.dtype == np.float64 and checked.values.shape == mask.shape
    assert checked.mean == mean
    assert not checked.values.flags.writeable
    # an in-range float64 mask is kept as the same array; any other is copied
    assert (checked.values is mask) == (kind == "inside")
    if kind != "inside":
        assert mask.flags.writeable and not np.shares_memory(checked.values, mask)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_check_mask_rejects_a_nan(dtype):
    mask = np.full((4, 3), 0.5, dtype=dtype)
    mask[2, 1] = np.nan
    with pytest.raises(ValueError, match="mask holds a NaN"):
        _parent_inline_check(mask)
    with pytest.raises(ValueError, match="mask holds a NaN"):
        check_mask(mask)


def test_oracle_block_index_validation():
    est, *_ = _oracle_fixture()
    with pytest.raises(ValueError, match="block index"):
        _begin(est, 5)


def _tiny_params(seed=0, dtype=np.float64):
    return init_params(bins=5, embed_dim=4, hidden=3, proj=4, seed=seed,
                       dtype=dtype)


def _tiny_input(seed=1, t=2, f=5, d=4, zero_z=False):
    """(mag, ipd, residual, z_prev) of one random network iteration."""
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0.05, 1.0, (t, f))
    theta = rng.uniform(-np.pi, np.pi, (t, f))
    feat = IpdFeature(np.cos(theta), np.sin(theta))
    residual = rng.uniform(0.0, 1.0, (t, f))
    if zero_z:
        z = np.zeros(d)
    else:
        z = rng.normal(size=d)
        z /= np.linalg.norm(z)
    return mag, feat, residual, z


def forward_backward(mag, ipd, residual, z_prev, params, d_mask, d_z_out):
    """Single-iteration forward plus gradient accumulation.

    Given upstream gradients w.r.t. the produced mask and embedding, returns
    (mask, z_out, gradient dict over all parameter tensors).
    """
    net = MaskNet(params)
    mask, z_out, cache = net.forward(net.prepare_block(mag, ipd), residual, z_prev)
    grads = params.zeros_like()
    _, d_static_pre = net.backward(cache, residual, d_mask, d_z_out, grads)
    net.finish_block_backward(mag, ipd, d_static_pre, grads)
    return mask, z_out, grads


def test_masknet_output_contracts():
    params = _tiny_params()
    net = MaskNet(params)
    for seed in range(5):
        mag, feat, residual, z_prev = _tiny_input(seed, zero_z=seed % 2 == 0)
        net.begin_block(0, GivenFeatures(mag, feat))
        mask, z = net.estimate(residual, z_prev)
        assert mask.values.shape == (2, 5)
        assert mask.values.min() >= 0.0 and mask.values.max() <= 1.0
        assert mask.values.dtype == np.float64 and not mask.values.flags.writeable
        assert mask.mean == float(mask.values.mean())
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-6)


def test_masknet_deterministic():
    params = _tiny_params()
    net = MaskNet(params)
    mag, feat, residual, z_prev = _tiny_input(3)
    net.begin_block(0, GivenFeatures(mag, feat))
    m1, z1 = net.estimate(residual, z_prev)
    net.begin_block(0, GivenFeatures(mag, feat))
    m2, z2 = net.estimate(residual, z_prev)
    assert np.array_equal(m1.values, m2.values)
    assert np.array_equal(z1, z2)


def test_masknet_session_uses_each_blocks_features():
    # every estimate runs on the features of the latest begin_block, never on
    # a previous block's
    params = _tiny_params()
    net = MaskNet(params)
    for block, seed in enumerate((5, 6)):
        mag, feat, residual, z_prev = _tiny_input(seed, t=3)
        net.begin_block(block, GivenFeatures(mag, feat))
        mask, z = net.estimate(residual, z_prev)
        ref = MaskNet(params)
        ref_mask, ref_z, _ = ref.forward(ref.prepare_block(mag, feat), residual, z_prev)
        assert np.array_equal(mask.values, ref_mask)
        assert np.array_equal(z, ref_z)


def test_masknet_reenters_a_block_through_its_handle():
    # a consistency re-decode enters a past block by its handle alone and
    # estimates exactly as right after that block's begin_block
    params = _tiny_params()
    net = MaskNet(params)
    mag, feat, residual, z_prev = _tiny_input(7, t=3)
    handle = net.begin_block(0, GivenFeatures(mag, feat))
    net.begin_block(1, GivenFeatures(*_tiny_input(8, t=3)[:2]))
    net.enter_block(handle)
    mask, z = net.estimate(residual, z_prev)
    ref = MaskNet(params)
    ref.begin_block(0, GivenFeatures(mag, feat))
    ref_mask, ref_z = ref.estimate(residual, z_prev)
    assert np.array_equal(mask.values, ref_mask.values)
    assert np.array_equal(z, ref_z)
    # the handle is the (T, P) projection alone, not the (T, 3F) features
    assert type(handle) is np.ndarray and handle.shape == (3, params.proj)


def test_masknet_rejects_nonfinite_params():
    params = _tiny_params()
    params.arrays["w_mask"][0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite model"):
        MaskNet(params)


def test_forward_backward_zero_upstream_gives_zero_grads():
    params = _tiny_params()
    inp = _tiny_input(2)
    _, _, grads = forward_backward(*inp, params, np.zeros((2, 5)), np.zeros(4))
    for g in grads.values():
        assert np.all(g == 0)


def test_forward_backward_deterministic():
    params = _tiny_params()
    inp = _tiny_input(4)
    rng = np.random.default_rng(9)
    dm = rng.normal(size=(2, 5))
    dz = rng.normal(size=4)
    _, _, g1 = forward_backward(*inp, params, dm, dz)
    _, _, g2 = forward_backward(*inp, params, dm, dz)
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_backward_matches_finite_differences(seed):
    # random 2-frame, 5-bin instance; central differences with step 1e-5
    params = _tiny_params(seed=seed)
    inp = _tiny_input(seed + 10, zero_z=seed == 1)
    rng = np.random.default_rng(seed + 100)
    u = rng.normal(size=(2, 5))
    v = rng.normal(size=4)
    _, _, grads = forward_backward(*inp, params, u, v)
    mag, feat, residual, z_prev = inp

    def value(p):
        net = MaskNet(p)
        mask, z, _ = net.forward(net.prepare_block(mag, feat), residual, z_prev)
        return float(np.sum(mask * u) + np.dot(z, v))

    step = 1e-5
    for name, arr in params.arrays.items():
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            plus = value(params)
            flat[idx] = orig - step
            minus = value(params)
            flat[idx] = orig
            fd = (plus - minus) / (2 * step)
            g = grads[name].reshape(-1)[idx]
            assert abs(fd - g) <= 1e-4 * max(abs(fd), abs(g), 1e-3), (
                f"{name}[{idx}]: fd={fd} analytic={g}"
            )


def _two_call_reference(params, inp, d_mask, d_z_out):
    """MaskNet forward and backward with one recurrence call per direction."""
    a = params.arrays
    h = params.hidden
    mag, ipd, residual, z_prev = inp
    net = MaskNet(params)
    p = np.tanh(net.prepare_block(mag, ipd) + residual @ a["w_res"] + z_prev @ a["w_emb_in"])
    xf = p @ a["w_xf"] + a["b_f"]
    xb = p @ a["w_xb"] + a["b_b"]
    hf = kernels.rnn_seq_forward(xf, a["w_hf"], np.zeros(h))
    hb_rev = kernels.rnn_seq_forward(xb[::-1].copy(), a["w_hb"], np.zeros(h))
    hcat = np.concatenate([hf, hb_rev[::-1]], axis=1)
    mask = 1.0 / (1.0 + np.exp(-(hcat @ a["w_mask"] + a["b_mask"])))
    e = hcat.mean(axis=0) @ a["w_embed"] + a["b_embed"]
    inv_norm = 1.0 / np.sqrt(np.dot(e, e) + 1e-12)
    z_out = e * inv_norm

    g = params.zeros_like()
    d_e = (d_z_out - z_out * np.dot(z_out, d_z_out)) * inv_norm
    g["w_embed"] += np.outer(hcat.mean(axis=0), d_e)
    g["b_embed"] += d_e
    d_hcat = np.tile((a["w_embed"] @ d_e) / len(p), (len(p), 1))
    d_mask_pre = d_mask * mask * (1.0 - mask)
    g["w_mask"] += hcat.T @ d_mask_pre
    g["b_mask"] += d_mask_pre.sum(axis=0)
    d_hcat += d_mask_pre @ a["w_mask"].T
    d_xf = kernels.rnn_seq_backward(hf, a["w_hf"], d_hcat[:, :h].copy())
    d_xb_rev = kernels.rnn_seq_backward(hb_rev, a["w_hb"], d_hcat[::-1, h:].copy())
    d_xb = d_xb_rev[::-1]
    g["w_hf"] += np.vstack([np.zeros((1, h)), hf[:-1]]).T @ d_xf
    g["w_hb"] += np.vstack([np.zeros((1, h)), hb_rev[:-1]]).T @ d_xb_rev
    g["w_xf"] += p.T @ d_xf
    g["b_f"] += d_xf.sum(axis=0)
    g["w_xb"] += p.T @ d_xb
    g["b_b"] += d_xb.sum(axis=0)
    d_pre = (d_xf @ a["w_xf"].T + d_xb @ a["w_xb"].T) * (1.0 - p * p)
    g["w_res"] += residual.T @ d_pre
    g["w_emb_in"] += np.outer(z_prev, d_pre.sum(axis=0))
    net.finish_block_backward(mag, ipd, d_pre, g)
    return hf, hb_rev, mask, g


@pytest.mark.parametrize("seed", [0, 1])
def test_joint_recurrence_matches_two_separate_directions(seed):
    params = _tiny_params(seed=seed + 4)
    inp = _tiny_input(seed + 5, t=7, zero_z=seed == 1)
    rng = np.random.default_rng(seed + 6)
    d_mask = rng.normal(size=(7, 5))
    d_z = rng.normal(size=4)
    mag, ipd, residual, z_prev = inp
    net = MaskNet(params)
    mask, _, cache = net.forward(net.prepare_block(mag, ipd), residual, z_prev)
    grads = params.zeros_like()
    _, d_static_pre = net.backward(cache, residual, d_mask, d_z, grads)
    net.finish_block_backward(mag, ipd, d_static_pre, grads)

    hf, hb_rev, ref_mask, ref_grads = _two_call_reference(params, inp, d_mask, d_z)
    h = params.hidden

    def close(x, y):
        return np.allclose(x, y, rtol=1e-12, atol=1e-14)

    assert close(cache.states[:, :h], hf)
    assert close(cache.states[:, h:], hb_rev)
    assert close(mask, ref_mask)
    for name in params.arrays:
        assert close(grads[name], ref_grads[name]), name


def test_checkpoint_roundtrip_bitexact(tmp_path):
    params = init_params(bins=9, embed_dim=4, hidden=3, proj=4, seed=5,
                         stft_cfg=StftConfig(16, 8), dtype=np.float32)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_params(params, p1)
    loaded = load_params(p1)
    save_params(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.stft == {"window_len": 16, "hop": 8, "window": "sqrt_hann"}
    for k in params.arrays:
        assert np.array_equal(loaded.arrays[k], params.arrays[k])


def test_init_params_rejects_the_sizes_load_params_rejects():
    # bins=0 once gave a model of (0, 64) weights, hidden=0 a ZeroDivisionError
    sizes = dict(bins=5, embed_dim=4, hidden=3, proj=4)
    for name, bad in (("bins", 0), ("hidden", 0), ("embed_dim", -2), ("proj", 2.5),
                      ("bins", True)):
        with pytest.raises(ValueError, match="network sizes must be positive integers"):
            init_params(**{**sizes, name: bad})
    params = init_params(**{**sizes, "bins": np.int64(5)})  # as StftConfig.n_bins may be
    assert params.bins == 5


def test_checkpoint_truncated(tmp_path):
    params = _tiny_params()
    path = tmp_path / "c.ckpt"
    save_params(params, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        load_params(path)


def test_checkpoint_version_mismatch(tmp_path):
    params = _tiny_params()
    path = tmp_path / "d.ckpt"
    save_params(params, path)
    data = bytearray(path.read_bytes())
    data[4] = 99  # bump the version field
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        load_params(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "e.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        load_params(path)


def _rewrite_meta(path, edit):
    """Replace a saved checkpoint's metadata by ``edit(meta)``, payload kept."""
    data = path.read_bytes()
    version, meta_len = struct.unpack("<II", data[4:12])
    meta = json.loads(data[12 : 12 + meta_len])
    blob = json.dumps(edit(meta)).encode()
    path.write_bytes(data[:4] + struct.pack("<II", version, len(blob)) + blob
                     + data[12 + meta_len :])


def _without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def _renamed_first_param(meta):
    meta["shapes"][0][0] = "w_other"
    return meta


def _wrong_hidden(meta):
    meta["hidden"] = 7  # the stored recurrent weights stay 3x3
    return meta


def _float_hidden(meta):
    # the shape table agrees, since 3.0 == 3
    meta["hidden"] = 3.0
    meta["shapes"] = [[name, [3.0 if n == 3 else n for n in shape]]
                      for name, shape in meta["shapes"]]
    return meta


def _stft_not_an_object(meta):
    meta["stft"] = "oops"
    return meta


@pytest.mark.parametrize("edit", [
    _without("shapes"),
    _without("bins"),
    lambda meta: [meta],
    _renamed_first_param,
    _wrong_hidden,
    _float_hidden,
    _stft_not_an_object,
], ids=["missing-shapes", "missing-bins", "not-an-object", "unknown-param-name",
        "dimension-disagrees-with-shapes", "non-integer-dimension",
        "stft-not-an-object"])
def test_checkpoint_malformed_metadata(tmp_path, edit):
    path = tmp_path / "f.ckpt"
    save_params(_tiny_params(), path)
    _rewrite_meta(path, edit)
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        load_params(path)
