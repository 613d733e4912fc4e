import copy
import itertools
import time

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
from blocksep.dsp import StftConfig, split_blocks
from blocksep.estimators import MaskNet, OracleMaskEstimator, init_params, save_params
from blocksep.losses import total_loss
from blocksep.simulate import make_pool, render, sample_scenario
from blocksep.training import (
    MAX_BLOCKS,
    MAX_SLOTS,
    TrainConfig,
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
    for name, bad in (("batch_size", 2.5), ("epochs", 2.5), ("batch_size", np.nan)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**{name: bad})


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
    blocks = split_blocks(meeting.mixture.samples, 5 * 8000)
    for b in range(sample.n_blocks):
        feats = block_features(blocks[:, b], stft_cfg)
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
        total = truth.noise_irm + sum(truth.irms.values())
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
        assert np.array_equal(mine.noise_irm, theirs.noise_irm)
        for a, b in ((mine.source_mags, theirs.source_mags), (mine.irms, theirs.irms)):
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
        n_targets = 1 + len(tgt.known) + len(tgt.new_sources)
        assert n_targets == len(order)
    # block 1: both slots known, source "b" silent -> zero target
    assert set(result.targets[1].known) == {1, 2}
    silent_slot = next(s for s, src in result.loss.assignment.items() if src == "b")
    assert np.all(result.targets[1].known[silent_slot] == 0)


def test_unroll_one_source_identity_permutation():
    sample = make_synthetic_sample(1, sources=("solo",))
    cfg = tiny_config()
    result = unroll(sample, MaskNet(tiny_params()), cfg)
    assert result.loss.assignment == {1: "solo"}
    # loss matches the masked MSE computed directly from the network's masks
    expected = 0.0
    for b in range(2):
        est_mag = result.masks[(b, 1)] * sample.mags[b]
        expected += float(np.sum((est_mag - sample.truth[b].source_mags["solo"]) ** 2))
    expected /= 2  # two (slot, block) instances
    noise_term = 0.0
    for b in range(2):
        est_mag = result.masks[(b, 0)] * sample.mags[b]
        noise_term += float(np.sum((est_mag - sample.truth[b].noise_mag) ** 2))
    noise_term /= 2
    assert result.loss.mmse == pytest.approx(expected + noise_term, rel=1e-9)


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
    cfg = tiny_config(teacher_forcing=True)
    r1 = unroll(sample, MaskNet(tiny_params(seed=1)), cfg)
    r2 = unroll(sample, MaskNet(tiny_params(seed=2)), cfg)
    for b in range(2):
        for (_, res1), (_, res2) in zip(slot_residuals(r1, b), slot_residuals(r2, b)):
            assert np.array_equal(res1, res2)


def test_teacher_forcing_on_off_structural_difference():
    sample = make_synthetic_sample(4)
    params = tiny_params(seed=5)
    cfg_on = tiny_config(teacher_forcing=True)
    cfg_off = tiny_config(teacher_forcing=False)
    r_on = unroll(sample, MaskNet(params), cfg_on)
    r_off = unroll(sample, MaskNet(params), cfg_off)
    # identical iteration structure
    assert ([[slot for slot, _ in slot_residuals(r_on, b)] for b in range(2)]
            == [[slot for slot, _ in slot_residuals(r_off, b)] for b in range(2)])
    # identical first-iteration inputs, diverging residuals afterwards
    first_on = slot_residuals(r_on, 0)[0][1]
    first_off = slot_residuals(r_off, 0)[0][1]
    assert np.array_equal(first_on, first_off)
    later_on = slot_residuals(r_on, 0)[1][1]
    later_off = slot_residuals(r_off, 0)[1][1]
    assert not np.array_equal(later_on, later_off)


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_unroll_gradients_match_finite_differences(seed):
    cfg = tiny_config()
    sample = make_synthetic_sample(seed + 50)
    params = tiny_params(seed=seed)
    result, _ = run_unroll(sample, params, cfg)
    if not instance_is_safe(result):
        pytest.skip("instance too close to a hinge kink or permutation tie")
    assert fd_max_rel_err(sample, params, cfg) < 1e-4


def test_unroll_gradients_without_teacher_forcing():
    cfg = tiny_config(teacher_forcing=False)
    for seed in range(8):
        sample = make_synthetic_sample(seed + 80)
        params = tiny_params(seed=seed)
        result, _ = run_unroll(sample, params, cfg)
        if not instance_is_safe(result):
            continue
        # clip kinks in the residual recursion invalidate FD near 0/1
        safe = True
        for b in range(2):
            for slot, residual in slot_residuals(result, b):
                pre = residual - result.masks[(b, slot)]
                if np.any(np.abs(pre) < 1e-3) or np.any(np.abs(pre - 1) < 1e-3):
                    safe = False
        if not safe:
            continue
        assert fd_max_rel_err(sample, params, cfg) < 1e-4
        return
    pytest.skip("no kink-free instance found")


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
    # with these seeds epoch 0 reaches the 7-block sample last, and once
    # raised only after Adam had changed the caller's params in place
    cfg = tiny_config(seed=seed, batch_size=1)
    samples = [make_synthetic_sample(s) for s in range(3)]
    samples.append(make_synthetic_sample(3, n_blocks=MAX_BLOCKS + 1))
    params = tiny_train_params(cfg)
    before = copy.deepcopy(params.arrays)
    with pytest.raises(ValueError, match=f"has {MAX_BLOCKS + 1} blocks") as err:
        train(samples, cfg, params)
    for k in before:
        assert np.array_equal(params.arrays[k], before[k])
    assert "sample 'synthetic-3'" in str(err.value)


def test_train_names_a_sample_of_another_bin_count():
    # 9 bins against the model's 8 once failed inside a matmul
    cfg = tiny_config()
    samples = [make_synthetic_sample(0), make_synthetic_sample(5, f=9)]
    with pytest.raises(ValueError, match="'synthetic-5' has 9 bins in block 0, the model 8"):
        train(samples, cfg, tiny_train_params(cfg))


def _per_slot_reference(sample, net, lockstep, weights):
    """Teacher-forced unroll and backward one slot at a time, each slot its
    own single-iteration ``forward``/``backward``: the loop the lockstep
    path replaced.  Reads only the slot order and targets of ``lockstep``."""
    masks, embeddings, caches, contexts = {}, {}, {}, []
    slot_source, prev_z, orders = {}, {}, []
    for b in range(sample.n_blocks):
        truth = sample.truth[b]
        order = [slot for rec in lockstep.records[b] for slot in rec.slots]
        fresh = [s for s in truth.active if s not in slot_source.values()]
        fresh.sort(key=lambda s: (-float(truth.irms[s].mean()), s))
        slot_source.update(zip([s for s in order if s and s not in slot_source], fresh))
        ctx = net.prepare_block(sample.mags[b], sample.ipds[b])
        residual = np.ones_like(sample.mags[b])
        for slot in order:
            key = (b, slot)
            masks[key], embeddings[key], caches[key] = net.forward(
                ctx, residual, prev_z.get(slot, np.zeros(net.embed_dim)))
            if slot == 0:
                residual = np.clip(residual - truth.noise_irm, 0.0, 1.0)
            elif slot_source[slot] in truth.active:
                residual = np.clip(residual - truth.irms[slot_source[slot]], 0.0, 1.0)
        prev_z = {slot: embeddings[(b, slot)] for slot in order}
        contexts.append(ctx)
        orders.append(order)
    # few enough triplets that the generator draws nothing
    loss = total_loss(masks, sample.mags, lockstep.targets, embeddings, weights,
                      rng=np.random.default_rng(0))
    grads = net.params.zeros_like()
    z_next = {}
    for b in reversed(range(sample.n_blocks)):
        d_static_pre = np.zeros_like(contexts[b].static_pre)
        z_here = {}
        for slot in reversed(orders[b]):
            key = (b, slot)
            d_z = loss.emb_grads.get(key, np.zeros(net.embed_dim)) + z_next.get(slot, 0.0)
            _, z_here[slot], d_pre = net.backward(caches[key], loss.mask_grads[key],
                                                  d_z, grads)
            d_static_pre += d_pre
        net.finish_block_backward(contexts[b], d_static_pre, grads)
        z_next = z_here
    return masks, embeddings, loss, grads


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
    assert [len(recs) for recs in result.records] == [1, 1, 1]
    assert [len(recs[0].slots) for recs in result.records] == [3, 4, 4]
    masks, embeddings, loss, ref_grads = _per_slot_reference(sample, net, result,
                                                             cfg.weights)

    def rel(x, ref):
        return np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300)

    assert sorted(result.masks) == sorted(masks)
    for key in masks:
        assert result.masks[key].dtype == dtype
        assert rel(result.masks[key], masks[key]) <= tol, key
        assert rel(result.embeddings[key], embeddings[key]) <= tol, key
    assert result.loss.assignment == loss.assignment
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
