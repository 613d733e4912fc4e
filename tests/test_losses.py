import itertools

import numpy as np
import pytest

from blocksep import losses
from blocksep.losses import (
    TRIPLET_CAP,
    BlockTargets,
    LossWeights,
    _cosine_with_grads,
    mmse_partial_pit,
    noise_mmse,
    resmask_loss,
    total_loss,
    triplet_loss,
)

T, F = 3, 4


def _rng():
    return np.random.default_rng(0)


def _mk(val):
    return np.full((T, F), float(val))


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
    targets = [BlockTargets(noise=_mk(0), known={}, new_sources=[("a", mask * mix)])]
    loss, assign, grads = mmse_partial_pit({(0, 1): mask}, [mix], targets)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert assign == {1: "a"}
    assert np.allclose(grads[(0, 1)], 0.0)


def test_mmse_picks_swapped_permutation():
    rng = np.random.default_rng(1)
    mix = rng.uniform(0.5, 1.0, (T, F))
    m1 = rng.uniform(0, 1, (T, F))
    m2 = rng.uniform(0, 1, (T, F))
    # targets swapped relative to slot order: best assignment is the swap
    targets = [BlockTargets(
        noise=_mk(0), known={},
        new_sources=[("a", m2 * mix), ("b", m1 * mix)],
    )]
    masks = {(0, 1): m1, (0, 2): m2}
    loss, assign, _ = mmse_partial_pit(masks, [mix], targets)
    assert assign == {1: "b", 2: "a"}
    # loss equals the swapped-assignment MSE, brute-forced independently
    costs = []
    for perm in itertools.permutations([0, 1]):
        c = np.sum((m1 * mix - targets[0].new_sources[perm[0]][1]) ** 2)
        c += np.sum((m2 * mix - targets[0].new_sources[perm[1]][1]) ** 2)
        costs.append(c)
    assert loss == pytest.approx(min(costs) / 2)


def test_mmse_silent_known_slot_contributes_zero():
    mix = _mk(0.8)
    targets = [BlockTargets(noise=_mk(0), known={1: np.zeros((T, F))})]
    loss, _, grads = mmse_partial_pit({(0, 1): np.zeros((T, F))}, [mix], targets)
    assert loss == 0.0
    assert np.allclose(grads[(0, 1)], 0.0)


def test_mmse_too_many_new_sources():
    mix = _mk(1.0)
    targets = [BlockTargets(noise=_mk(0), known={},
                            new_sources=[("a", mix), ("b", mix)])]
    with pytest.raises(ValueError, match="more new sources"):
        mmse_partial_pit({(0, 1): _mk(0.5)}, [mix], targets)


def test_mmse_too_few_new_sources():
    mix = _mk(1.0)
    targets = [BlockTargets(noise=_mk(0), known={}, new_sources=[("a", mix)])]
    with pytest.raises(ValueError, match="more new slots"):
        mmse_partial_pit({(0, 1): _mk(0.5), (0, 2): _mk(0.3)}, [mix], targets)


def test_mmse_slot_persistence_across_blocks():
    rng = np.random.default_rng(2)
    mix = rng.uniform(0.5, 1.0, (T, F))
    ref_a, ref_b = 0.7 * mix, 0.2 * mix
    masks = {(0, 1): _mk(0.7), (0, 2): _mk(0.2),
             (1, 1): _mk(0.2), (1, 2): _mk(0.7)}
    targets = [
        BlockTargets(noise=_mk(0), known={},
                     new_sources=[("a", ref_a), ("b", ref_b)]),
        # block 1 slots are known: slot 1 still targets "a" even though its
        # mask now matches "b" better
        BlockTargets(noise=_mk(0), known={1: ref_a, 2: ref_b}),
    ]
    _, assign, _ = mmse_partial_pit(masks, [mix, mix], targets)
    assert assign == {1: "a", 2: "b"}


def test_permutation_optimality_exhaustive():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        mix = rng.uniform(0.3, 1.0, (T, F))
        masks = {(0, i + 1): rng.uniform(0, 1, (T, F)) for i in range(n)}
        refs = [(f"s{i}", rng.uniform(0, 1, (T, F)) * mix) for i in range(n)]
        targets = [BlockTargets(noise=_mk(0), known={}, new_sources=refs)]
        loss, assign, _ = mmse_partial_pit(masks, [mix], targets)
        ref_by_id = dict(refs)
        best = min(
            sum(
                float(np.sum((masks[(0, i + 1)] * mix
                              - ref_by_id[f"s{p[i]}"]) ** 2))
                for i in range(n)
            )
            for p in itertools.permutations(range(n))
        )
        assert loss * n == pytest.approx(best)
        chosen = sum(
            float(np.sum((masks[(0, s)] * mix - ref_by_id[assign[s]]) ** 2))
            for s in assign
        )
        assert chosen == pytest.approx(best)


def test_noise_mmse_cases():
    v = 0.6
    mix = _mk(v)
    # perfect mask: all-ones mask on Y == target
    loss, grads = noise_mmse({(0, 0): np.ones((T, F))}, [mix],
                             [BlockTargets(noise=mix.copy())])
    assert loss == pytest.approx(0.0)
    assert np.allclose(grads[(0, 0)], 0.0)
    # all-zero mask, uniform target v: loss = v^2 * T * F
    loss, _ = noise_mmse({(0, 0): np.zeros((T, F))}, [mix],
                         [BlockTargets(noise=mix.copy())])
    assert loss == pytest.approx(v * v * T * F)


def test_noise_mmse_missing_target():
    with pytest.raises(ValueError, match="noise target"):
        noise_mmse({(0, 0): _mk(1.0)}, [_mk(1.0)], [BlockTargets(noise=None)])


def test_resmask_cases():
    # masks summing to exactly 1 -> 0
    loss, _ = resmask_loss({(0, 0): _mk(0.4), (0, 1): _mk(0.6)}, 1)
    assert loss == pytest.approx(0.0)
    # masks summing above 1 -> 0 (hinge)
    loss, _ = resmask_loss({(0, 0): _mk(0.8), (0, 1): _mk(0.7)}, 1)
    assert loss == pytest.approx(0.0)
    # uniform sum 0.7 -> 0.3 per bin
    loss, grads = resmask_loss({(0, 0): _mk(0.3), (0, 1): _mk(0.4)}, 1)
    assert loss == pytest.approx(0.3 * T * F)
    assert np.allclose(grads[(0, 0)], -1.0)
    assert loss >= 0


def test_resmask_block_shares_one_read_only_gradient():
    _, grads = resmask_loss({(0, 0): _mk(0.3), (0, 1): _mk(0.4), (1, 0): _mk(0.5)}, 2)
    assert grads[(0, 0)] is grads[(0, 1)]
    assert grads[(1, 0)] is not grads[(0, 0)]
    with pytest.raises(ValueError, match="read-only"):
        grads[(0, 1)][0, 0] = 0.0


def test_total_loss_mask_grads_equal_per_mask_copies(monkeypatch):
    # the shared hinge gradient gives the bytes a copy per mask gave
    rng = np.random.default_rng(4)
    masks = {(b, s): rng.uniform(0, 1, (T, F)) for b in range(2) for s in range(3)}
    mixes = [rng.uniform(0.5, 1, (T, F)) for _ in range(2)]
    targets = [BlockTargets(noise=rng.uniform(0, 1, (T, F)),
                            known={1: rng.uniform(0, 1, (T, F))},
                            new_sources=[("x", rng.uniform(0, 1, (T, F)))]),
               BlockTargets(noise=rng.uniform(0, 1, (T, F)),
                            known={1: rng.uniform(0, 1, (T, F)),
                                   2: rng.uniform(0, 1, (T, F))})]
    embs = {k: rng.normal(size=4) for k in masks}
    shared = total_loss(masks, mixes, targets, embs, LossWeights(), _rng())

    def copied(masks, n_blocks):
        loss, grads = resmask_loss(masks, n_blocks)
        return loss, {k: g.copy() for k, g in grads.items()}

    monkeypatch.setattr(losses, "resmask_loss", copied)
    ref = total_loss(masks, mixes, targets, embs, LossWeights(), _rng())
    assert sorted(shared.mask_grads) == sorted(ref.mask_grads) == sorted(masks)
    for k, g in ref.mask_grads.items():
        assert shared.mask_grads[k].tobytes() == g.tobytes()


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
    masks = {}
    embs = {}
    for b in range(2):
        for s in range(3):  # slot 0 noise, slots 1..2 speakers
            masks[(b, s)] = rng.uniform(0.05, 0.95, (T, F))
            if s >= 1:
                v = rng.normal(size=5)
                embs[(b, s)] = v / np.linalg.norm(v) * rng.uniform(0.8, 1.2)
    targets = [
        BlockTargets(
            noise=rng.uniform(0, 0.5, (T, F)),
            known={},
            new_sources=[("a", rng.uniform(0, 1, (T, F))),
                         ("b", rng.uniform(0, 1, (T, F)))],
        ),
        BlockTargets(
            noise=rng.uniform(0, 0.5, (T, F)),
            known={1: rng.uniform(0, 1, (T, F)), 2: np.zeros((T, F))},
        ),
    ]
    return masks, mixes, targets, embs


def test_total_loss_weight_zero_reduces_to_mmse():
    masks, mixes, targets, embs = _random_instance(10)
    w0 = LossWeights(alpha=0.0, beta=0.0)
    res = total_loss(masks, mixes, targets, embs, w0, _rng())
    assert res.total == pytest.approx(res.mmse)
    spk = {k: v for k, v in masks.items() if k[1] >= 1}
    l_spk, _, _ = mmse_partial_pit(spk, mixes, targets)
    l_noise, _ = noise_mmse(masks, mixes, targets)
    assert res.mmse == pytest.approx(l_spk + l_noise)


def test_total_loss_all_zero_components():
    mix = _mk(0.5)
    masks = {(0, 0): np.ones((T, F)), (0, 1): np.ones((T, F))}
    v = np.ones(4) / 2.0
    embs = {(0, 1): v}
    targets = [BlockTargets(noise=mix.copy(), known={},
                            new_sources=[("a", mix.copy())])]
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

    res = total_loss(masks, mixes, targets, embs, weights, _rng())
    eps = 1e-6
    for key in masks:
        g = res.mask_grads[key]
        for idx in [(0, 0), (1, 2), (2, 3)]:
            mp = {k: v.copy() for k, v in masks.items()}
            mm = {k: v.copy() for k, v in masks.items()}
            mp[key][idx] += eps
            mm[key][idx] -= eps
            fd = (value(mp, embs) - value(mm, embs)) / (2 * eps)
            assert fd == pytest.approx(g[idx], rel=1e-4, abs=1e-7)
    for key in embs:
        g = res.emb_grads[key]
        for idx in (0, 3):
            ep = {k: v.copy() for k, v in embs.items()}
            em = {k: v.copy() for k, v in embs.items()}
            ep[key][idx] += eps
            em[key][idx] -= eps
            fd = (value(masks, ep) - value(masks, em)) / (2 * eps)
            assert fd == pytest.approx(g[idx], rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_total_loss_gradients_match_finite_differences(seed):
    _fd_check(seed)


def _triplet_loss_per_triplet(embeddings, labels, delta, rng):
    """``triplet_loss`` with both cosines recomputed for every triplet."""
    keys = sorted(embeddings)
    triplets = [(a, p, n) for a in keys for p in keys
                if p != a and labels[p] == labels[a]
                for n in keys if labels[n] != labels[a]]
    if len(triplets) > TRIPLET_CAP:
        idx = rng.choice(len(triplets), size=TRIPLET_CAP, replace=False)
        triplets = [triplets[i] for i in sorted(idx)]
    loss = 0.0
    grads = {k: np.zeros_like(embeddings[k]) for k in keys}
    for a, p, n in triplets:
        s_an, d_an_a, d_an_n = _cosine_with_grads(embeddings[a], embeddings[n])
        s_ap, d_ap_a, d_ap_p = _cosine_with_grads(embeddings[a], embeddings[p])
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
