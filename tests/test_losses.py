import dataclasses
import tracemalloc

import numpy as np
import pytest

from blocksep.losses import (
    TRIPLET_CAP,
    BlockTargets,
    LossWeights,
    _cosine_with_grads,
    resmask_loss,
    total_loss,
    triplet_loss,
)

T, F = 3, 4


def _rng():
    return np.random.default_rng(0)


def _mk(val):
    return np.full((T, F), float(val))


_NO_HINGE_NO_TRIPLET = LossWeights(alpha=0.0, beta=0.0)


def _grads_by_slot(masks, res):
    """Per block, {slot: its row of the block's gradient stack}: the rows
    follow the order the block's masks were given."""
    return [dict(zip(block, stack)) for block, stack in zip(masks, res.block_grads)]


def _speaker_term(spk_masks, mixes, targets):
    """``total_loss`` reduced to its speaker term: each block's noise mask
    is all ones and its noise target the mixture, so the noise error is 0,
    and the hinge and triplet weights are 0.  ``spk_masks`` holds a
    ``{slot: mask}`` dict per block.  Returns (loss, per block the
    speaker-mask gradients by slot)."""
    masks = [{**block, 0: np.ones_like(mix)} for block, mix in zip(spk_masks, mixes)]
    targets = [dataclasses.replace(t, noise=mix.copy()) for t, mix in zip(targets, mixes)]
    res = total_loss(masks, mixes, targets, [{} for _ in mixes], _NO_HINGE_NO_TRIPLET,
                     _rng())
    return res.mmse, [{s: g for s, g in grads.items() if s >= 1}
                      for grads in _grads_by_slot(masks, res)]


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(alpha=-1)
    with pytest.raises(ValueError):
        LossWeights(delta=0)
    for bad in (np.nan, np.inf):
        for name in ("alpha", "beta", "delta"):
            with pytest.raises(ValueError, match="and finite"):
                LossWeights(**{name: bad})


def test_mmse_zero_when_masks_reproduce_targets():
    rng = np.random.default_rng(0)
    mix = rng.uniform(0.1, 1.0, (T, F))
    mask = rng.uniform(0, 1, (T, F))
    targets = [BlockTargets(noise=_mk(0), speakers={1: mask * mix})]
    loss, grads = _speaker_term([{1: mask}], [mix], targets)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grads[0][1], 0.0)


def test_new_slots_take_their_teacher_forced_sources_not_a_better_fitting_swap():
    # block 0 opens slots 1 and 2 for sources the unroll ordered "a", "b",
    # and block 1 keeps them.  The masks fit the swapped pairing exactly, so
    # a permutation-invariant loss would pair slot 1 with "b" at zero error;
    # the loss keeps the slot order, and a slot is its own triplet label
    rng = np.random.default_rng(1)
    mixes = [rng.uniform(0.5, 1.0, (T, F)) for _ in range(2)]
    m1, m2 = rng.uniform(0, 1, (T, F)), rng.uniform(0, 1, (T, F))
    refs = [{"a": m2 * mix, "b": m1 * mix} for mix in mixes]
    targets = [BlockTargets(noise=_mk(0), speakers={1: ref["a"], 2: ref["b"]})
               for ref in refs]
    spk_masks = [{1: m1, 2: m2}] * 2
    loss, _ = _speaker_term(spk_masks, mixes, targets)
    teacher = sum(np.sum((m1 * mix - ref["a"]) ** 2) + np.sum((m2 * mix - ref["b"]) ** 2)
                  for mix, ref in zip(mixes, refs))
    assert loss == pytest.approx(teacher / 4) and loss > 0
    embs = [{s: rng.normal(size=4) for s in (1, 2)} for _ in range(2)]
    res = total_loss([{**block, 0: _mk(1.0)} for block in spk_masks], mixes, targets, embs,
                     LossWeights(alpha=0.0, beta=1.0, delta=0.9), _rng())
    keys = [(b, s) for b in range(2) for s in (1, 2)]
    expected, _ = triplet_loss({k: embs[k[0]][k[1]] for k in keys}, {k: k[1] for k in keys},
                               0.9, _rng())
    assert res.triplet == expected > 0


def test_mmse_silent_known_slot_contributes_zero():
    mix = _mk(0.8)
    targets = [BlockTargets(noise=_mk(0), speakers={1: np.zeros((T, F))})]
    loss, grads = _speaker_term([{1: np.zeros((T, F))}], [mix], targets)
    assert loss == 0.0
    assert np.allclose(grads[0][1], 0.0)


def test_mmse_too_many_new_sources():
    # targets for a slot no mask covers
    mix = _mk(1.0)
    targets = [BlockTargets(noise=_mk(0), speakers={1: mix, 2: mix})]
    with pytest.raises(ValueError, match=r"block 0 has speaker masks for slots \[1\] "
                                         r"but targets for slots \[1, 2\]"):
        _speaker_term([{1: _mk(0.5)}], [mix], targets)


def test_mmse_too_few_new_sources():
    # a mask for a slot no target covers
    mix = _mk(1.0)
    targets = [BlockTargets(noise=_mk(0), speakers={1: mix})]
    with pytest.raises(ValueError, match=r"block 0 has speaker masks for slots \[1, 2\] "
                                         r"but targets for slots \[1\]"):
        _speaker_term([{1: _mk(0.5), 2: _mk(0.3)}], [mix], targets)


def test_mmse_slot_persistence_across_blocks():
    rng = np.random.default_rng(2)
    mix = rng.uniform(0.5, 1.0, (T, F))
    ref_a, ref_b = 0.7 * mix, 0.2 * mix
    masks = [{1: _mk(0.7), 2: _mk(0.2)}, {1: _mk(0.2), 2: _mk(0.7)}]
    # block 1: slot 1 still targets "a" even though its mask now matches
    # "b" better
    targets = [BlockTargets(noise=_mk(0), speakers={1: ref_a, 2: ref_b})] * 2
    loss, _ = _speaker_term(masks, [mix, mix], targets)
    block1 = np.sum((0.2 * mix - ref_a) ** 2) + np.sum((0.7 * mix - ref_b) ** 2)
    assert block1 > 0
    assert loss == pytest.approx(block1 / 4)


def _noise_term(mask, mix, noise):
    """``total_loss`` of one block holding only its noise mask, hinge and
    triplet weights 0: (loss, gradient)."""
    res = total_loss([{0: mask}], [mix], [BlockTargets(noise=noise)], [{}],
                     _NO_HINGE_NO_TRIPLET, _rng())
    return res.mmse, res.block_grads[0][0]


def test_noise_mmse_cases():
    v = 0.6
    mix = _mk(v)
    # perfect mask: all-ones mask on Y == target
    loss, grad = _noise_term(np.ones((T, F)), mix, mix.copy())
    assert loss == pytest.approx(0.0)
    assert np.allclose(grad, 0.0)
    # all-zero mask, uniform target v: loss = v^2 * T * F
    loss, _ = _noise_term(np.zeros((T, F)), mix, mix.copy())
    assert loss == pytest.approx(v * v * T * F)


def test_noise_mmse_missing_target():
    with pytest.raises(ValueError, match="missing noise target for block 0"):
        _noise_term(_mk(1.0), _mk(1.0), None)


def test_total_loss_reaches_every_term_error():
    mix = _mk(1.0)
    weights = LossWeights()
    two_targets = [BlockTargets(noise=mix), BlockTargets(noise=mix)]
    with pytest.raises(ValueError, match="missing noise mask for block 1"):
        total_loss([{0: _mk(0.5)}, {1: _mk(0.5)}], [mix, mix],
                   [BlockTargets(noise=mix), BlockTargets(noise=mix, speakers={1: mix})],
                   [{}, {}], weights, _rng())
    with pytest.raises(ValueError, match="block 1 has no masks"):
        total_loss([{0: _mk(0.5)}, {}], [mix, mix], two_targets, [{}, {}], weights, _rng())
    with pytest.raises(ValueError, match="1 block targets for 2 blocks"):
        # the second block's masks once got no MSE gradient
        total_loss([{0: _mk(0.5)}, {0: _mk(0.5)}], [mix, mix],
                   [BlockTargets(noise=mix)], [{}, {}], weights, _rng())
    # a third block of masks once raised "mask (2, 0) lies outside the 2 blocks"
    with pytest.raises(ValueError, match="3 mask blocks for 2 blocks"):
        total_loss([{0: _mk(0.5)}] * 3, [mix, mix], two_targets, [{}, {}], weights, _rng())
    with pytest.raises(ValueError, match="1 embedding blocks for 2 blocks"):
        total_loss([{0: _mk(0.5)}] * 2, [mix, mix], two_targets, [{}], weights, _rng())


def test_resmask_cases():
    # masks summing to exactly 1 -> 0
    loss, _ = resmask_loss([_mk(0.4), _mk(0.6)])
    assert loss == pytest.approx(0.0)
    # masks summing above 1 -> 0 (hinge)
    loss, grad = resmask_loss([_mk(0.8), _mk(0.7)])
    assert loss == pytest.approx(0.0)
    assert np.array_equal(grad, np.zeros((T, F)))
    # uniform sum 0.7 -> 0.3 per bin
    loss, grad = resmask_loss([_mk(0.3), _mk(0.4)])
    assert loss == pytest.approx(0.3 * T * F)
    assert grad.dtype == np.float64 and np.array_equal(grad, np.full((T, F), -1.0))
    assert loss >= 0


def _masks_and_targets(rng, dtype):
    """Two blocks of three slots, each slot with a target in both.  The
    first frame of each mixture is 0, so its errors are scaled to signed
    zeros."""
    masks = [{s: rng.uniform(0, 0.6, (T, F)).astype(dtype) for s in range(3)}
             for _ in range(2)]
    mixes = [rng.uniform(0.5, 1, (T, F)) for _ in range(2)]
    for mix in mixes:
        mix[0] = 0.0
    targets = [BlockTargets(noise=rng.uniform(0, 1, (T, F)),
                            speakers={1: rng.uniform(0, 1, (T, F)),
                                      2: rng.uniform(0, 1, (T, F))})
               for _ in range(2)]
    return masks, mixes, targets


def _float64_mask_grads(masks, mixes, targets, alpha):
    """alpha * g_res + (2/n)|X| * err per mask in float64, then cast to the
    mask's dtype: g_res is -1 where the block's mask sum (in the masks'
    dtype) is below 1, n is the block count for the noise slot and the
    speaker-mask count for a speaker slot, err = mask * |X| - target.  The
    mask sum runs in sorted slot order.  Returns a {slot: gradient} dict per
    block."""
    n_spk = sum(slot >= 1 for block in masks for slot in block)
    grads = []
    for block, mix, tgt in zip(masks, mixes, targets):
        slots = sorted(block)
        mask_sum = np.zeros_like(block[slots[0]])
        for slot in slots:
            mask_sum = mask_sum + block[slot]
        g_res = np.where(1.0 - mask_sum > 0, -1.0, 0.0)
        grads.append({})
        for slot in slots:
            if slot == 0:
                target, n = tgt.noise, len(mixes)
            else:
                target, n = tgt.speakers[slot], n_spk
            err = block[slot] * mix - target
            grads[-1][slot] = (alpha * g_res + (2.0 / n) * mix * err).astype(block[slot].dtype)
    return grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.1, 0.0])
def test_total_loss_mask_grads_are_the_float64_formula_in_the_mask_dtype(dtype, alpha):
    # each gradient is built once, in place, in its mask's dtype; its bytes
    # are those of the formula summed in float64, then cast
    masks, mixes, targets = _masks_and_targets(np.random.default_rng(4), dtype)
    embs = [{s: np.random.default_rng((b, s)).normal(size=4) for s in block}
            for b, block in enumerate(masks)]
    res = total_loss(masks, mixes, targets, embs, LossWeights(alpha=alpha), _rng())
    ref = _float64_mask_grads(masks, mixes, targets, alpha)
    got = _grads_by_slot(masks, res)
    assert [stack.dtype for stack in res.block_grads] == [dtype, dtype]
    assert [list(g) for g in got] == [list(g) for g in ref] == [[0, 1, 2]] * 2
    for b, block in enumerate(ref):
        for slot, g in block.items():
            assert got[b][slot].tobytes() == g.tobytes(), (b, slot)
    # the signed zeros the first frames hold are the formula's
    assert np.signbit(got[1][1][0]).any() == np.signbit(ref[1][1][0]).any()


def test_total_loss_stack_rows_follow_the_given_slot_order():
    # a block given as slots 0, 2, 1: row i of its stack is the gradient of
    # the i-th slot given, while the hinge sums the masks in slot order 0,
    # 1, 2, which rounds otherwise in float32 at some bins near a sum of 1
    rng = np.random.default_rng(9)
    m0, m2 = (rng.uniform(0.2, 0.4, (T, F)).astype(np.float32) for _ in range(2))
    m1 = (1.0 - m0 - m2 + rng.uniform(-1e-7, 1e-7, (T, F))).astype(np.float32)
    assert np.any(((m0 + m1) + m2 < 1) != ((m0 + m2) + m1 < 1))
    masks = [{0: m0, 2: m2, 1: m1}]
    mixes = [rng.uniform(0.5, 1, (T, F))]
    targets = [BlockTargets(noise=rng.uniform(0, 1, (T, F)),
                            speakers={1: rng.uniform(0, 1, (T, F)),
                                      2: rng.uniform(0, 1, (T, F))})]
    res = total_loss(masks, mixes, targets, [{}], LossWeights(alpha=0.3, beta=0.0), _rng())
    ref = _float64_mask_grads(masks, mixes, targets, 0.3)[0]
    assert res.block_grads[0].shape == (3, T, F)
    for row, slot in zip(res.block_grads[0], (0, 2, 1)):
        assert row.tobytes() == ref[slot].tobytes(), slot
    assert res.resmask == resmask_loss([m0, m1, m2])[0]


def _slots_sample(n_slots, t=200, f=129, dtype=np.float32):
    """Two blocks of ``n_slots`` slots, each speaker slot with the same
    target in both; embeddings are non-zero."""
    rng = np.random.default_rng(n_slots)
    spk = range(1, n_slots)
    masks = [{s: rng.uniform(0, 0.3, (t, f)).astype(dtype) for s in range(n_slots)}
             for _ in range(2)]
    mixes = [rng.uniform(0.1, 1, (t, f)) for _ in range(2)]
    sources = {s: rng.uniform(0, 1, (t, f)) for s in spk}
    targets = [BlockTargets(noise=rng.uniform(0, 1, (t, f)), speakers=sources)
               for _ in range(2)]
    embs = [{s: rng.normal(size=8) for s in block} for block in masks]
    return masks, mixes, targets, embs


def _loss_transient_bytes(sample):
    """Traced peak of one ``total_loss`` call above its entry, less the
    bytes of the mask-gradient stacks it returns."""
    total_loss(*sample, LossWeights(), _rng())  # warm up numpy's caches
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        res = total_loss(*sample, LossWeights(), _rng())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - entry - sum(stack.nbytes for stack in res.block_grads)


def test_total_loss_transient_memory_does_not_grow_with_slots():
    # the loss once kept float64 errors and per-term gradients of every
    # mask beside the summed gradients it returned: 9.0 one-mask float64
    # arrays above those at 3 slots, 15.1 at 6; one pass per block needs
    # about 3.5 at either
    one_mask = 200 * 129 * 8  # bytes of one float64 (T, F) array
    three, six = (_loss_transient_bytes(_slots_sample(n)) for n in (3, 6))
    assert three <= 5 * one_mask
    assert six <= 5 * one_mask
    assert abs(six - three) < one_mask


def test_triplet_arithmetic():
    # orthonormal construction giving exact cosine values
    delta = 0.1

    def emb(theta):
        return np.array([np.cos(theta), np.sin(theta), 0.0])

    # s_an = 0.2, s_ap = 0.9: contributes max(0.2 - 0.9 + 0.1, 0) = 0
    a = emb(0.0)
    p = emb(np.arccos(0.9))
    n = emb(np.arccos(0.2))
    embs = {(0, 1): a, (1, 1): p, (0, 2): n}
    labels = {(0, 1): "x", (1, 1): "x", (0, 2): "y"}
    loss, grads = triplet_loss(embs, labels, delta, _rng())
    # mining yields (a,p,n) and (p,a,n): s_pa = 0.9, s_pn = cos(acos(0.9)-acos(0.2))
    s_pn = np.cos(np.arccos(0.9) - np.arccos(0.2))
    expected = max(0.2 - 0.9 + delta, 0) + max(s_pn - 0.9 + delta, 0)
    assert loss == pytest.approx(expected)

    # s_an = 0.8, s_ap = 0.5 -> 0.4 (one triplet's arithmetic)
    assert max(0.8 - 0.5 + delta, 0) == pytest.approx(0.4)


def test_triplet_identical_same_speaker_orthogonal_others():
    rng = np.random.default_rng(4)
    v = rng.normal(size=8)
    v /= np.linalg.norm(v)
    w = rng.normal(size=8)
    w -= v * (v @ w)
    w /= np.linalg.norm(w)
    embs = {(0, 1): v, (1, 1): v.copy(), (0, 2): w, (1, 2): w.copy()}
    labels = {(0, 1): "a", (1, 1): "a", (0, 2): "b", (1, 2): "b"}
    loss, _ = triplet_loss(embs, labels, delta=0.1, rng=_rng())
    assert loss == pytest.approx(0.0)


def test_triplet_zero_norm_rejected():
    embs = {(0, 1): np.zeros(4), (0, 2): np.ones(4)}
    labels = {(0, 1): "a", (0, 2): "b"}
    with pytest.raises(ValueError, match="zero-norm"):
        triplet_loss(embs, labels, 0.1, _rng())


def test_triplet_no_valid_triplets_is_zero():
    embs = {(0, 1): np.ones(4), (0, 2): np.ones(4)}
    labels = {(0, 1): "a", (0, 2): "b"}  # no speaker has 2 embeddings
    loss, grads = triplet_loss(embs, labels, 0.1, _rng())
    assert loss == 0.0
    assert all(np.all(g == 0) for g in grads.values())


def test_triplet_cap_is_deterministic():
    rng = np.random.default_rng(5)
    embs, labels = {}, {}
    for b in range(6):
        for s in (1, 2, 3):
            v = rng.normal(size=6)
            embs[(b, s)] = v / np.linalg.norm(v)
            labels[(b, s)] = f"spk{s}"
    # 18 anchors x 5 positives x 12 negatives: more triplets than the cap
    assert 18 * 5 * 12 > TRIPLET_CAP
    l1, _ = triplet_loss(embs, labels, 0.2, np.random.default_rng(7))
    l2, _ = triplet_loss(embs, labels, 0.2, np.random.default_rng(7))
    assert l1 == l2
    # the generator picks the sample: another seed sums other triplets
    l3, _ = triplet_loss(embs, labels, 0.2, np.random.default_rng(8))
    assert l3 != l1


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    mixes = [rng.uniform(0.3, 1.0, (T, F)) for _ in range(2)]
    masks = [{}, {}]
    embs = [{}, {}]
    for b in range(2):
        for s in range(3):  # slot 0 noise, slots 1..2 speakers
            masks[b][s] = rng.uniform(0.05, 0.95, (T, F))
            if s >= 1:
                v = rng.normal(size=5)
                embs[b][s] = v / np.linalg.norm(v) * rng.uniform(0.8, 1.2)
    targets = [
        BlockTargets(
            noise=rng.uniform(0, 0.5, (T, F)),
            speakers={1: rng.uniform(0, 1, (T, F)), 2: rng.uniform(0, 1, (T, F))},
        ),
        BlockTargets(
            noise=rng.uniform(0, 0.5, (T, F)),
            speakers={1: rng.uniform(0, 1, (T, F)), 2: np.zeros((T, F))},
        ),
    ]
    return masks, mixes, targets, embs


def test_total_loss_weight_zero_reduces_to_mmse():
    masks, mixes, targets, embs = _random_instance(10)
    w0 = LossWeights(alpha=0.0, beta=0.0)
    res = total_loss(masks, mixes, targets, embs, w0, _rng())
    assert res.total == pytest.approx(res.mmse)
    # speaker errors against the slots' targets, averaged over the 4
    # speaker masks; noise errors averaged over the 2 blocks
    l_spk = sum(np.sum((masks[b][s] * mixes[b] - t) ** 2)
                for b in range(2) for s, t in targets[b].speakers.items()) / 4
    l_noise = sum(np.sum((masks[b][0] * mixes[b] - targets[b].noise) ** 2)
                  for b in range(2)) / 2
    assert res.mmse == pytest.approx(l_spk + l_noise)
    # the weights leave the terms alone
    res_w = total_loss(masks, mixes, targets, embs, LossWeights(0.37, 0.53), _rng())
    assert (res_w.mmse, res_w.resmask) == (res.mmse, res.resmask)


def test_total_loss_all_zero_components():
    mix = _mk(0.5)
    masks = [{0: np.ones((T, F)), 1: np.ones((T, F))}]
    v = np.ones(4) / 2.0
    embs = [{1: v}]
    targets = [BlockTargets(noise=mix.copy(), speakers={1: mix.copy()})]
    res = total_loss(masks, mixes=[mix], targets=targets, embeddings=embs,
                     weights=LossWeights(), rng=_rng())
    assert res.total == pytest.approx(0.0)


def _fd_check(seed):
    """Central finite differences through the combined loss w.r.t. masks and
    embeddings, away from hinge kinks."""
    masks, mixes, targets, embs = _random_instance(seed)
    weights = LossWeights(alpha=0.37, beta=0.53, delta=0.2)

    def value(m, e):
        return total_loss(m, mixes, targets, e, weights, _rng()).total

    def copy(per_block):
        return [{s: v.copy() for s, v in block.items()} for block in per_block]

    res = total_loss(masks, mixes, targets, embs, weights, _rng())
    mask_grads = _grads_by_slot(masks, res)
    eps = 1e-6
    for b, block in enumerate(masks):
        for slot in block:
            g = mask_grads[b][slot]
            for idx in [(0, 0), (1, 2), (2, 3)]:
                mp, mm = copy(masks), copy(masks)
                mp[b][slot][idx] += eps
                mm[b][slot][idx] -= eps
                fd = (value(mp, embs) - value(mm, embs)) / (2 * eps)
                assert fd == pytest.approx(g[idx], rel=1e-4, abs=1e-7)
    assert [sorted(g) for g in res.emb_grads] == [sorted(block) for block in embs]
    for b, block in enumerate(embs):
        for slot in block:
            g = res.emb_grads[b][slot]
            for idx in (0, 3):
                ep, em = copy(embs), copy(embs)
                ep[b][slot][idx] += eps
                em[b][slot][idx] -= eps
                fd = (value(masks, ep) - value(masks, em)) / (2 * eps)
                assert fd == pytest.approx(g[idx], rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_total_loss_gradients_match_finite_differences(seed):
    _fd_check(seed)


def _triplet_loss_per_triplet(embeddings, labels, delta, rng):
    """``triplet_loss`` with both cosines, and the norms they divide by,
    recomputed for every triplet."""
    keys = sorted(embeddings)
    triplets = [(a, p, n) for a in keys for p in keys
                if p != a and labels[p] == labels[a]
                for n in keys if labels[n] != labels[a]]
    if len(triplets) > TRIPLET_CAP:
        idx = rng.choice(len(triplets), size=TRIPLET_CAP, replace=False)
        triplets = [triplets[i] for i in sorted(idx)]
    loss = 0.0
    grads = {k: np.zeros_like(embeddings[k]) for k in keys}
    def cosine(x, y):
        ex, ey = embeddings[x], embeddings[y]
        return _cosine_with_grads(ex, ey, np.linalg.norm(ex), np.linalg.norm(ey))

    for a, p, n in triplets:
        s_an, d_an_a, d_an_n = cosine(a, n)
        s_ap, d_ap_a, d_ap_p = cosine(a, p)
        margin = s_an - s_ap + delta
        if margin > 0:
            loss += margin
            grads[a] += d_an_a - d_ap_a
            grads[n] += d_an_n
            grads[p] -= d_ap_p
    return loss, grads


@pytest.mark.parametrize("n_blocks, dtype", [(2, np.float64), (6, np.float32),
                                             (6, np.float64)])
def test_triplet_cosines_once_per_pair_are_bit_identical(n_blocks, dtype):
    # each (anchor, other) cosine is computed once per call and reused; the
    # triplets and the gradient sums keep their order, so nothing moves.
    # 6 blocks of 3 speakers exceed the cap (the sampled path), 2 do not.
    rng = np.random.default_rng(11)
    embs, labels = {}, {}
    for b in range(n_blocks):
        for s in (1, 2, 3):
            v = rng.normal(size=8)
            embs[(b, s)] = (v / np.linalg.norm(v)).astype(dtype)
            labels[(b, s)] = f"spk{s}"
    loss, grads = triplet_loss(embs, labels, 0.6, np.random.default_rng(4))
    ref_loss, ref_grads = _triplet_loss_per_triplet(embs, labels, 0.6,
                                                    np.random.default_rng(4))
    assert loss == ref_loss and loss > 0
    assert sorted(grads) == sorted(ref_grads)
    for k in grads:
        assert grads[k].dtype == dtype
        assert np.array_equal(grads[k], ref_grads[k]), k
