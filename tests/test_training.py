import copy
import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from synthutil import (
    fd_max_rel_err,
    instance_is_safe,
    make_synthetic_sample,
    run_unroll,
    slot_residuals,
    tiny_config,
    tiny_params,
    tiny_train_params,
)

from blocksep.decoding import block_features
from blocksep.dsp import IpdFeature, StftConfig, blocks
from blocksep.estimators import (MaskNet, OracleMaskEstimator, block_truth, init_params,
                                 save_params)
from blocksep.losses import total_loss
from blocksep.simulate import make_pool, render, sample_scenario
from blocksep.training import (
    MAX_BLOCKS,
    MAX_SLOTS,
    TrainConfig,
    TrainSample,
    build_train_sample,
    train,
    unroll,
    unroll_backward,
)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(block_len_s=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1)
    # a NaN or infinite rate once trained a non-finite model without an error
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            TrainConfig(block_len_s=bad)
        with pytest.raises(ValueError, match="non-negative and finite"):
            TrainConfig(learning_rate=bad)
    # batch_size=2.5 once stepped Adam once per epoch on 4 samples, not twice;
    # epochs=2.5 failed inside train
    # and True once stood for 1; a seed of -1 or 1.5 failed inside train's
    # SeedSequence, and True trained as seed 1
    for name, bad in (("batch_size", 2.5), ("epochs", 2.5), ("batch_size", np.nan),
                      ("epochs", True), ("batch_size", True), ("seed", -1),
                      ("seed", 1.5), ("seed", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**{name: bad})
    assert TrainConfig(seed=np.int64(3)).seed == 3


def test_build_train_sample_structure():
    pool = make_pool(4, seed=0)
    sc = sample_scenario("A", 10.0, pool, seed=3)
    meeting = render(sc)
    stft_cfg = StftConfig(256, 128)
    sample = build_train_sample(meeting, stft_cfg, block_len_s=5.0,
                                sample_id="m0")
    assert sample.n_blocks == 2
    t = (5 * 8000 - 256) // 128 + 1
    assert sample.mags[0].shape == (t, 129)
    # the network input is what ``Session.push`` hands it for the same
    # zero-padded block
    cut = list(blocks(meeting.mixture.samples, 5 * 8000))
    assert len(cut) == sample.n_blocks
    for b, block in enumerate(cut):
        feats = block_features(block, stft_cfg)
        assert sample.mags[b].tobytes() == feats.mag.tobytes()
        assert sample.ipds[b].cos.tobytes() == feats.ipd.cos.tobytes()
        assert sample.ipds[b].sin.tobytes() == feats.ipd.sin.tobytes()
    speakers = sorted(meeting.references)
    for truth in sample.truth:
        # every record holds every speaker of the meeting
        assert sorted(truth.irms) == sorted(truth.source_mags) == speakers
        for spk in truth.active:
            assert spk in truth.source_mags
        # oracle masks and noise mask sum to at most 1
        total = truth.noise_irm.values + sum(m.values for m in truth.irms.values())
        assert total.max() <= 1.0 + 1e-8


def test_train_sample_and_oracle_read_the_same_truth():
    meeting = render(sample_scenario("A", 10.0, make_pool(4, seed=0), seed=3))
    stft_cfg = StftConfig(256, 128)
    truth = build_train_sample(meeting, stft_cfg, block_len_s=5.0).truth
    blocks = OracleMaskEstimator.from_rendered(meeting, stft_cfg, 5.0).blocks
    assert len(truth) == len(blocks) == 2
    for mine, theirs in zip(truth, blocks):
        assert mine.active == theirs.active
        assert np.array_equal(mine.noise_mag, theirs.noise_mag)
        assert np.array_equal(mine.noise_irm.values, theirs.noise_irm.values)
        assert mine.noise_irm.mean == theirs.noise_irm.mean
        assert all(mine.irms[s].mean == theirs.irms[s].mean for s in mine.irms)
        irms = ({s: m.values for s, m in mine.irms.items()},
                {s: m.values for s, m in theirs.irms.items()})
        for a, b in ((mine.source_mags, theirs.source_mags), irms):
            assert sorted(a) == sorted(b)
            assert all(np.array_equal(a[s], b[s]) for s in a)


def test_unroll_target_assembly_invariant():
    sample = make_synthetic_sample(0, silent=((1, "b"),))
    cfg = tiny_config()
    params = tiny_params()
    result = unroll(sample, MaskNet(params), cfg)
    for b in range(len(result.records)):
        order = [slot for slot, _ in slot_residuals(result, b)]
        tgt = result.targets[b]
        assert order[0] == 0  # noise first, always
        assert [0, *tgt.speakers] == order
    # block 1: both slots known, source "b" silent -> zero target
    assert set(result.targets[1].speakers) == {1, 2}
    silent_slot = next(s for s, src in result.records[1].slot_source.items() if src == "b")
    assert np.all(result.targets[1].speakers[silent_slot] == 0)


def test_unroll_one_source_identity_permutation():
    sample = make_synthetic_sample(1, sources=("solo",))
    cfg = tiny_config()
    result = unroll(sample, MaskNet(tiny_params()), cfg)
    assert result.records[1].slot_source == {1: "solo"}
    # loss matches the masked MSE computed directly from the network's masks
    expected = 0.0
    for b in range(2):
        est_mag = result.masks[b][1] * sample.mags[b]
        expected += float(np.sum((est_mag - sample.truth[b].source_mags["solo"]) ** 2))
    expected /= 2  # two (slot, block) instances
    noise_term = 0.0
    for b in range(2):
        est_mag = result.masks[b][0] * sample.mags[b]
        noise_term += float(np.sum((est_mag - sample.truth[b].noise_mag) ** 2))
    noise_term /= 2
    assert result.loss.mmse == pytest.approx(expected + noise_term, rel=1e-9)


def test_unroll_opens_tied_sources_in_the_oracle_probe_order():
    # "ann" and "bob" have equal magnitudes, so equal mask means: the unroll
    # once opened a slot for "ann" first, while the oracle probes "bob" first
    rng = np.random.default_rng(0)
    s = rng.uniform(0.2, 1.0, (4, 8))
    noise = rng.uniform(0.1, 0.5, (4, 8))
    truth = block_truth(noise, {"ann": s, "bob": s.copy(), "cid": 0.5 * s})
    theta = rng.uniform(-np.pi, np.pi, (4, 8))
    sample = TrainSample("tie", [noise + 2.5 * s], [IpdFeature(np.cos(theta), np.sin(theta))],
                         [truth])
    result = unroll(sample, MaskNet(tiny_params()), tiny_config())
    oracle = OracleMaskEstimator([truth])
    oracle.begin_block(0, None)
    z_zero = np.zeros(oracle.embed_dim)
    oracle.estimate(np.ones((4, 8)), z_zero)  # the noise slot
    probes = [oracle.match_speaker(oracle.estimate(np.ones((4, 8)), z_zero)[1])
              for _ in truth.active]
    assert list(result.records[0].slot_source.values()) == probes == ["bob", "ann", "cid"]


def test_unroll_slot_cap():
    # the noise slot plus MAX_SLOTS speakers is one slot over the cap
    names = tuple(f"s{i}" for i in range(MAX_SLOTS))
    cfg = tiny_config()
    net = MaskNet(tiny_params())
    at_cap = make_synthetic_sample(2, sources=names[:-1])
    assert at_cap.truth[0].active == sorted(names[:-1])
    assert len(slot_residuals(unroll(at_cap, net, cfg), 0)) == MAX_SLOTS
    over = make_synthetic_sample(2, sources=names)
    assert over.truth[0].active == sorted(names)
    with pytest.raises(ValueError, match="slot cap"):
        unroll(over, net, cfg)


def test_teacher_forcing_residuals_independent_of_params():
    # with teacher forcing the residual inputs are oracle-driven: two networks
    # with different parameters must see identical residuals
    sample = make_synthetic_sample(3)
    cfg = tiny_config()
    r1 = unroll(sample, MaskNet(tiny_params(seed=1)), cfg)
    r2 = unroll(sample, MaskNet(tiny_params(seed=2)), cfg)
    for b in range(2):
        for (_, res1), (_, res2) in zip(slot_residuals(r1, b), slot_residuals(r2, b)):
            assert np.array_equal(res1, res2)


def _wide_sample(seed):
    """Three 100 x 129 blocks, so that one (T, F) array outweighs the small
    Python objects of an unroll: "c" opens in block 1, and "b" is silent in
    blocks 1 and 2, a known slot with a zero target."""
    return make_synthetic_sample(seed, t=100, f=129, n_blocks=3, sources=("a", "b", "c"),
                                 silent=((0, "c"), (1, "b"), (2, "b")))


def _array_bytes(arrays):
    """Bytes of the distinct buffers under ``arrays``."""
    bases = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        bases[id(a)] = a.nbytes
    return sum(bases.values())


def test_unroll_holds_each_training_tensor_once():
    # the unroll once also held each block's residual stack in its cache
    # and a float64 zero target per silent known slot, and the backward
    # stacked a copy of the block's mask gradients
    sample, cfg = _wide_sample(5), tiny_config()
    net = MaskNet(tiny_params(f=129, dtype=np.float32))
    unroll_backward(unroll(sample, net, cfg), net)  # warm up numpy's caches
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = unroll(sample, net, cfg)
        left = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        unroll_backward(result, net)
        backward_peak = tracemalloc.get_traced_memory()[1] - left
    finally:
        tracemalloc.stop()
    # what the backward reads: the forward caches and the loss's gradient
    # stacks, one per block in the record's slot order; the block's static
    # features and projection are not held
    needed = _array_bytes(
        [getattr(rec.cache, f) for rec in result.records
         for f in ("z_prev", "p", "states", "mask", "z_out", "inv_norm")])
    one_tf = 100 * 129 * 4  # one float32 (T, F) array
    block_array = 4 * one_tf  # one block's (B, T, F) float32 array, B = 4
    stacks = sum(len(rec.slots) * one_tf for rec in result.records)
    assert 0 <= (left - entry) - needed - stacks < one_tf
    slot_b = {src: slot for slot, src in result.records[0].slot_source.items()}["b"]
    silent = [tgt.speakers[slot_b] for tgt in result.targets[1:]]
    assert [t.strides for t in silent] == [(0, 0), (0, 0)]
    assert all(not t.flags.writeable and not t.any() for t in silent)
    # the backward adds the block's rebuilt residuals and a few temporaries
    assert backward_peak <= 3.5 * block_array
    assert result.loss.block_grads == [None] * 3
    # a consumed result is refused before any backward runs: a second call
    # once ran block 2's backward on a None gradient, then raised KeyError
    with pytest.raises(ValueError, match="already backpropagated"):
        unroll_backward(result, net)


def test_unroll_backward_refuses_a_partly_consumed_result(monkeypatch):
    sample, cfg = make_synthetic_sample(8), tiny_config()
    net = MaskNet(tiny_params())
    result = unroll(sample, net, cfg)
    result.loss.block_grads[0] = None
    calls = []
    monkeypatch.setattr(net, "backward", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="already backpropagated"):
        unroll_backward(result, net)
    assert calls == []


def test_train_holds_one_sample_unroll_at_a_time():
    # the epoch loop once kept a sample's unroll alive through the next
    # sample's unroll
    cfg = tiny_config()
    samples = [_wide_sample(6), _wide_sample(7)]

    def epoch_peak(dataset):
        params = tiny_params(f=129, dtype=np.float32)
        tracemalloc.start()
        try:
            train(dataset, cfg, params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    epoch_peak(samples)  # warm up numpy's caches
    one, two = epoch_peak(samples[:1]), epoch_peak(samples)
    assert two - one < 100 * 129 * 4


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_unroll_gradients_match_finite_differences(seed):
    cfg = tiny_config()
    sample = make_synthetic_sample(seed + 50)
    params = tiny_params(seed=seed)
    result, _ = run_unroll(sample, params, cfg)
    if not instance_is_safe(result):
        pytest.skip("instance too close to a hinge kink")
    assert fd_max_rel_err(sample, params, cfg) < 1e-4


def test_train_zero_learning_rate_keeps_params():
    cfg = tiny_config(learning_rate=0.0, epochs=2)
    samples = [make_synthetic_sample(s) for s in range(3)]
    params, history = train(samples, cfg)
    assert len(history) == 2
    # a fresh model has init_params' default sizes, cfg.seed and cfg.stft;
    # zero lr must leave it unchanged
    ref = init_params(bins=cfg.stft.n_bins, seed=cfg.seed, stft_cfg=cfg.stft)
    assert params.stft == ref.stft
    for k in params.arrays:
        assert np.array_equal(params.arrays[k], ref.arrays[k])


def test_train_reproducible_checkpoints(tmp_path):
    cfg = tiny_config(epochs=2, learning_rate=1e-3, batch_size=2)
    samples = [make_synthetic_sample(s) for s in range(4)]
    p1, h1 = train(samples, cfg, tiny_train_params(cfg))
    p2, h2 = train(samples, cfg, tiny_train_params(cfg))
    f1, f2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_params(p1, f1)
    save_params(p2, f2)
    assert f1.read_bytes() == f2.read_bytes()
    assert [h.total for h in h1] == [h.total for h in h2]


def test_train_loss_decreases_on_tiny_problem():
    cfg = tiny_config(epochs=15, learning_rate=3e-3, batch_size=2)
    samples = [make_synthetic_sample(s) for s in range(4)]
    _, history = train(samples, cfg, tiny_train_params(cfg))
    assert history[-1].total < history[0].total


def test_train_overfits_single_sample():
    # single-sample dataset, 200 optimizer steps: loss collapses
    cfg = tiny_config(epochs=200, learning_rate=3e-3)
    sample = make_synthetic_sample(7, sources=("a",))
    _, history = train([sample], cfg, tiny_train_params(cfg, hidden=8, proj=8))
    assert history[-1].total < 0.1 * history[0].total


def test_train_aborts_on_nonfinite_loss():
    sample = make_synthetic_sample(8)
    sample.mags[0][0, 0] = np.nan
    cfg = tiny_config(epochs=1)
    with pytest.raises(RuntimeError, match="synthetic-8"):
        train([sample], cfg, tiny_train_params(cfg))


def test_train_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        train([], tiny_config())


def test_train_rejects_a_model_with_other_stft():
    # hop 2 and hop 7 both give 8 bins: such a model once trained, and
    # still recorded hop 2 for the decode to accept
    cfg = tiny_config()
    params = init_params(bins=8, embed_dim=4, hidden=5, proj=6,
                         stft_cfg=StftConfig(14, 2))
    before = copy.deepcopy(params.arrays)
    with pytest.raises(ValueError, match="'hop': 2.*training.*'hop': 7"):
        train([make_synthetic_sample(0)], cfg, params)
    assert all(np.array_equal(params.arrays[k], before[k]) for k in before)
    train([make_synthetic_sample(0)], cfg, tiny_params())  # records none


@pytest.mark.parametrize("seed", [0, 1])
def test_train_checks_every_sample_before_the_first_step(seed):
    # with these seeds epoch 0 reaches the bad sample last, and each once
    # raised only after Adam had changed the caller's params in place: the
    # 7-block sample with this ValueError, the short truth list with a bare
    # IndexError, the narrow IPD plane inside the static features' concatenate,
    # the short mask in a broadcast, the sample with no blocks with a bare
    # ZeroDivisionError in the noise loss
    cfg = tiny_config(seed=seed, batch_size=1)
    s = make_synthetic_sample(3)
    narrow = IpdFeature(s.ipds[1].cos[:, :-1], s.ipds[1].sin[:, :-1])
    short_noise = dataclasses.replace(s.truth[1], noise_mag=s.truth[1].noise_mag[:-1])
    a = s.truth[1].irms["a"]
    short_mask = dataclasses.replace(
        s.truth[1], irms={**s.truth[1].irms, "a": dataclasses.replace(a, values=a.values[:-1])})
    bad_samples = [
        (make_synthetic_sample(3, n_blocks=MAX_BLOCKS + 1),
         f"sample 'synthetic-3' has {MAX_BLOCKS + 1} blocks, cap"),
        (TrainSample("short-truth", s.mags, s.ipds, s.truth[:1]),
         "sample 'short-truth' has 2 blocks of magnitudes, 2 of IPD and 1 of truth"),
        (TrainSample("short-ipds", s.mags, s.ipds[:1], s.truth),
         "sample 'short-ipds' has 2 blocks of magnitudes, 1 of IPD and 2 of truth"),
        (TrainSample("narrow-ipd", s.mags, [s.ipds[0], narrow], s.truth),
         r"sample 'narrow-ipd' has IPD cos of shape \(4, 7\) in block 1, "
         r"magnitudes of \(4, 8\)"),
        (TrainSample("narrow-sin", s.mags, [s.ipds[0], IpdFeature(s.ipds[1].cos, narrow.sin)],
                     s.truth),
         r"sample 'narrow-sin' has IPD sin of shape \(4, 7\) in block 1"),
        (TrainSample("short-noise", s.mags, s.ipds, [s.truth[0], short_noise]),
         r"sample 'short-noise' has noise magnitude of shape \(3, 8\) in block 1"),
        (TrainSample("short-mask", s.mags, s.ipds, [s.truth[0], short_mask]),
         r"sample 'short-mask' has mask of source 'a' of shape \(3, 8\) in block 1"),
        (TrainSample("empty", [], [], []), "sample 'empty' has no blocks"),
    ]
    for bad, message in bad_samples:
        samples = [make_synthetic_sample(k) for k in range(3)] + [bad]
        params = tiny_train_params(cfg)
        before = copy.deepcopy(params.arrays)
        with pytest.raises(ValueError, match=message):
            train(samples, cfg, params)
        for k in before:
            assert np.array_equal(params.arrays[k], before[k])


def test_train_names_a_sample_of_another_bin_count():
    # 9 bins against the model's 8 once failed inside a matmul
    cfg = tiny_config()
    samples = [make_synthetic_sample(0), make_synthetic_sample(5, f=9)]
    with pytest.raises(ValueError, match="'synthetic-5' has 9 bins in block 0, the model 8"):
        train(samples, cfg, tiny_train_params(cfg))


def _per_slot_reference(sample, net, lockstep, weights):
    """Teacher-forced unroll and backward one slot at a time, each slot its
    own single-iteration ``forward``/``backward``, its residual stepped as
    clip(R - M, 0, 1) in a fresh array: the loop the lockstep path replaced.
    Reads only the slot order and targets of ``lockstep``.  Also returns, per
    block, the float64 residual each slot read."""
    masks, embeddings, caches = [], [], []
    slot_source, prev_z, orders, residuals = {}, {}, [], []
    for b in range(sample.n_blocks):
        truth = sample.truth[b]
        order = lockstep.records[b].slots
        fresh = [s for s in truth.active if s not in slot_source.values()]
        # strongest first, of equal means the larger id first
        fresh.sort(key=lambda s: (float(truth.irms[s].values.mean()), s), reverse=True)
        slot_source.update(zip([s for s in order if s and s not in slot_source], fresh))
        static_pre = net.prepare_block(sample.mags[b], sample.ipds[b])
        residual = np.ones_like(sample.mags[b])
        residuals.append([])
        for per_block in (masks, embeddings, caches):
            per_block.append({})
        for slot in order:
            residuals[-1].append(residual)
            masks[b][slot], embeddings[b][slot], caches[b][slot] = net.forward(
                static_pre, residual, prev_z.get(slot, np.zeros(net.embed_dim)))
            if slot == 0:
                residual = np.clip(residual - truth.noise_irm.values, 0.0, 1.0)
            elif slot_source[slot] in truth.active:
                residual = np.clip(residual - truth.irms[slot_source[slot]].values,
                                   0.0, 1.0)
        prev_z = embeddings[b]
        orders.append(order)
    # few enough triplets that the generator draws nothing
    loss = total_loss(masks, sample.mags, lockstep.targets, embeddings, weights,
                      rng=np.random.default_rng(0))
    grads = net.params.zeros_like()
    z_next = {}
    for b in reversed(range(sample.n_blocks)):
        d_static_pre = 0.0
        z_here = {}
        mask_grads = dict(zip(orders[b], loss.block_grads[b]))
        for slot, residual in reversed(list(zip(orders[b], residuals[b]))):
            d_z = loss.emb_grads[b].get(slot, np.zeros(net.embed_dim)) + z_next.get(slot, 0.0)
            z_here[slot], d_pre = net.backward(caches[b][slot], residual, mask_grads[slot],
                                               d_z, grads)
            d_static_pre += d_pre
        net.finish_block_backward(sample.mags[b], sample.ipds[b], d_static_pre, grads)
        z_next = z_here
    return masks, embeddings, loss, grads, residuals


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_lockstep_unroll_equals_a_per_slot_reference(dtype, tol):
    # three blocks: "c" is new in block 1 (a slot opens mid-sample) and "b"
    # is silent there (a known slot with a zero target)
    sample = make_synthetic_sample(21, n_blocks=3, sources=("a", "b", "c"),
                                   silent=((0, "c"), (1, "b")))
    cfg = tiny_config()
    net = MaskNet(tiny_params(seed=3, dtype=dtype))
    result = unroll(sample, net, cfg)
    grads = unroll_backward(result, net)
    # one record, and one forward call, per block
    assert [len(rec.slots) for rec in result.records] == [3, 4, 4]
    masks, embeddings, loss, ref_grads, residuals = _per_slot_reference(
        sample, net, result, cfg.weights)
    # the in-place residual step reads as the clip, byte for byte
    for b, block_residuals in enumerate(residuals):
        got = slot_residuals(result, b)
        assert len(got) == len(block_residuals)
        for (slot, res), ref in zip(got, block_residuals):
            assert res.dtype == dtype
            assert res.tobytes() == ref.astype(dtype).tobytes(), (b, slot)

    def rel(x, ref):
        return np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300)

    assert [list(block) for block in result.masks] == [list(block) for block in masks]
    assert [list(block) for block in result.embeddings] == [list(block) for block in masks]
    for b, block in enumerate(masks):
        for slot in block:
            assert result.masks[b][slot].dtype == dtype
            assert rel(result.masks[b][slot], masks[b][slot]) <= tol, (b, slot)
            assert rel(result.embeddings[b][slot], embeddings[b][slot]) <= tol, (b, slot)
    for term in ("total", "mmse", "resmask", "triplet"):
        assert getattr(result.loss, term) == pytest.approx(getattr(loss, term),
                                                           rel=tol, abs=0.0), term
    for name in ref_grads:
        assert grads[name].dtype == dtype
        assert np.any(ref_grads[name] != 0), name
        assert rel(grads[name], ref_grads[name]) <= tol, name


def test_epoch_seconds_ignore_a_wall_clock_step(monkeypatch):
    # the wall clock steps back an hour at every read (an NTP correction,
    # say); each epoch's seconds come from a monotonic clock
    clock = itertools.count(1e9, -3600.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    cfg = tiny_config(epochs=2)
    _, history = train([make_synthetic_sample(0)], cfg, tiny_train_params(cfg))
    assert [h.epoch for h in history] == [0, 1]
    assert all(0.0 <= h.seconds < 60.0 for h in history)
