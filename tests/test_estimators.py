import json
import struct

import numpy as np
import pytest

from blocksep import kernels
from blocksep.dsp import IpdFeature, StftConfig
from blocksep.estimators import (
    MaskNet,
    OracleMaskEstimator,
    init_params,
    load_params,
    save_params,
    speaker_embedding,
)


def _flat_ipd(t, f):
    return IpdFeature(cos=np.ones((t, f)), sin=np.zeros((t, f)))


def _oracle_fixture():
    t, f = 6, 5
    rng = np.random.default_rng(0)
    s1 = rng.uniform(0.5, 1.0, (t, f))
    s2 = rng.uniform(0.2, 0.6, (t, f))
    noise = rng.uniform(0.05, 0.2, (t, f))
    block_mags = [
        {"alice": s1, "bob": s2},
        {"alice": np.zeros((t, f)), "bob": s2},  # alice silent in block 1
    ]
    return OracleMaskEstimator(block_mags, [noise, noise.copy()]), s1, s2, noise


def _begin(est, index, t=6, f=5):
    est.begin_block(index, np.ones((t, f)), _flat_ipd(t, f))


def _inp(est, t=6, f=5, z=None):
    """(residual, z_prev) of one oracle iteration."""
    return np.ones((t, f)), z if z is not None else np.zeros(est.embed_dim)


def test_oracle_noise_first_then_ratio_masks():
    est, s1, s2, noise = _oracle_fixture()
    _begin(est, 0)
    noise_mask, z_noise = est.estimate(*_inp(est))
    denom = s1 + s2 + noise + 1e-8
    assert np.allclose(noise_mask, noise / denom)
    assert np.linalg.norm(z_noise) == pytest.approx(1.0)
    # probe with zero embedding: strongest remaining source (alice)
    m1, z1 = est.estimate(*_inp(est))
    assert np.allclose(m1, s1 / denom)
    assert np.allclose(z1, speaker_embedding("alice"))
    m2, z2 = est.estimate(*_inp(est))
    assert np.allclose(m2, s2 / denom)
    assert np.allclose(z2, speaker_embedding("bob"))
    # masks sum with the noise mask to <= 1 + eps per bin
    assert np.max(noise_mask + m1 + m2) <= 1.0 + 1e-8


def test_oracle_single_source_ratio_mask():
    t, f = 4, 3
    s = np.full((t, f), 0.8)
    n = np.full((t, f), 0.2)
    est = OracleMaskEstimator([{"solo": s}], [n])
    _begin(est, 0, t, f)
    est.estimate(*_inp(est, t, f))  # noise slot
    mask, _ = est.estimate(*_inp(est, t, f))
    assert np.allclose(mask, s / (s + n + 1e-8))


def test_oracle_silent_speaker_gives_zero_mask():
    est, *_ = _oracle_fixture()
    _begin(est, 1)
    est.estimate(*_inp(est))  # noise
    mask, z = est.estimate(*_inp(est, z=speaker_embedding("alice")))
    assert np.all(mask == 0)
    assert np.allclose(z, speaker_embedding("alice"))


def test_oracle_probe_exhaustion_returns_silence():
    est, *_ = _oracle_fixture()
    _begin(est, 0)
    est.estimate(*_inp(est))
    est.estimate(*_inp(est))
    est.estimate(*_inp(est))
    mask, _ = est.estimate(*_inp(est))  # nothing left to extract
    assert np.all(mask == 0)


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
    ctx = net.prepare_block(mag, ipd)
    mask, z_out, cache = net.forward(ctx, residual, z_prev)
    grads = params.zeros_like()
    net.backward(ctx, cache, d_mask, d_z_out, grads)
    net.finish_block_backward(ctx, grads)
    return mask, z_out, grads


def test_masknet_output_contracts():
    params = _tiny_params()
    net = MaskNet(params)
    for seed in range(5):
        mag, feat, residual, z_prev = _tiny_input(seed, zero_z=seed % 2 == 0)
        net.begin_block(0, mag, feat)
        mask, z = net.estimate(residual, z_prev)
        assert mask.shape == (2, 5)
        assert mask.min() >= 0.0 and mask.max() <= 1.0
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-6)


def test_masknet_deterministic():
    params = _tiny_params()
    net = MaskNet(params)
    mag, feat, residual, z_prev = _tiny_input(3)
    net.begin_block(0, mag, feat)
    m1, z1 = net.estimate(residual, z_prev)
    net.begin_block(0, mag, feat)
    m2, z2 = net.estimate(residual, z_prev)
    assert np.array_equal(m1, m2)
    assert np.array_equal(z1, z2)


def test_masknet_session_uses_each_blocks_features():
    # every estimate runs on the features of the latest begin_block, never on
    # a previous block's
    params = _tiny_params()
    net = MaskNet(params)
    for block, seed in enumerate((5, 6)):
        mag, feat, residual, z_prev = _tiny_input(seed, t=3)
        net.begin_block(block, mag, feat)
        mask, z = net.estimate(residual, z_prev)
        ref = MaskNet(params)
        ref_mask, ref_z, _ = ref.forward(ref.prepare_block(mag, feat), residual, z_prev)
        assert np.array_equal(mask, ref_mask)
        assert np.array_equal(z, ref_z)


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
        ctx = net.prepare_block(mag, feat)
        mask, z, _ = net.forward(ctx, residual, z_prev)
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
    ctx = net.prepare_block(mag, ipd)
    p = np.tanh(ctx.static_pre + residual @ a["w_res"] + z_prev @ a["w_emb_in"])
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
    ctx.d_static_pre = d_pre
    g["w_res"] += residual.T @ d_pre
    g["w_emb_in"] += np.outer(z_prev, d_pre.sum(axis=0))
    net.finish_block_backward(ctx, g)
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
    ctx = net.prepare_block(mag, ipd)
    mask, _, cache = net.forward(ctx, residual, z_prev)
    grads = params.zeros_like()
    net.backward(ctx, cache, d_mask, d_z, grads)
    net.finish_block_backward(ctx, grads)

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


@pytest.mark.parametrize("edit", [
    _without("shapes"),
    _without("bins"),
    lambda meta: [meta],
    _renamed_first_param,
    _wrong_hidden,
], ids=["missing-shapes", "missing-bins", "not-an-object", "unknown-param-name",
        "dimension-disagrees-with-shapes"])
def test_checkpoint_malformed_metadata(tmp_path, edit):
    path = tmp_path / "f.ckpt"
    save_params(_tiny_params(), path)
    _rewrite_meta(path, edit)
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        load_params(path)
