"""Training losses: masked-magnitude MSE with partial permutation invariance,
the permutation-variant noise term, the residual hinge that drives source
counting, and the cosine triplet loss over speaker embeddings.

All functions return the loss together with analytic gradients with respect
to their direct inputs (masks, embeddings).  Gradients are keyed by
``(block, slot)`` where slot 0 is the noise slot and slots >= 1 are speaker
slots.  The hinge subgradient at the kink is 0 (one-sided).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

# Most triplets ``triplet_loss`` sums; beyond it a uniform sample is drawn.
TRIPLET_CAP = 512


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.1  # residual-hinge weight
    beta: float = 0.1  # triplet weight
    delta: float = 0.2  # triplet margin

    def __post_init__(self):
        if not (0 <= self.alpha < np.inf and 0 <= self.beta < np.inf):
            raise ValueError("loss weights must be non-negative and finite")
        if not 0 < self.delta < np.inf:
            raise ValueError("triplet margin must be positive and finite")


@dataclass
class BlockTargets:
    """Targets for one block: noise magnitude, per-known-slot magnitudes
    (zeros for a silent slot), and reference magnitudes for sources that
    appear for the first time in this block."""

    noise: np.ndarray
    known: dict = field(default_factory=dict)  # slot -> (T, F) target
    new_sources: list = field(default_factory=list)  # (source_id, (T, F) target)


def _sq(err):
    return float(np.sum(err * err))


def mmse_partial_pit(masks, mixes, targets):
    """Utterance-level masked MSE over speaker slots, permutation-invariant
    only for newly appearing sources.

    Args:
        masks: {(block, slot): (T, F)} with slot >= 1 (the noise slot is
            handled by :func:`noise_mmse`).
        mixes: per-block mixture magnitudes.
        targets: per-block :class:`BlockTargets`.  Known slots keep their
            targets and are never re-permuted, matching the slot-persistence
            rule; each block's new slots and new sources must match in number.
    Returns:
        (loss, assignment, grads) where grads maps (block, slot) to the
        gradient w.r.t. that mask.  The new-source assignment minimizes the
        summed squared error by a linear assignment.
    """
    assignment = {}
    errors = {}
    for b, (mix, tgt) in enumerate(zip(mixes, targets)):
        block_slots = sorted(slot for (bb, slot) in masks if bb == b and slot >= 1)
        new_slots = [s for s in block_slots if s not in tgt.known]
        if len(tgt.new_sources) > len(new_slots):
            raise ValueError("more new sources than free slots")
        if len(tgt.new_sources) < len(new_slots):
            raise ValueError("more new slots than new sources")
        for slot in block_slots:
            if slot in tgt.known:
                errors[(b, slot)] = masks[(b, slot)] * mix - tgt.known[slot]
        if new_slots:
            est = [masks[(b, s)] * mix for s in new_slots]
            cost = np.array([[_sq(e - ref) for _, ref in tgt.new_sources]
                             for e in est])
            # A non-finite cost would stop the solver; the loss stays non-finite.
            rows, cols = linear_sum_assignment(np.where(np.isfinite(cost), cost, 0.0))
            for i, j in zip(rows, cols):
                src_id, ref = tgt.new_sources[j]
                assignment[new_slots[i]] = src_id
                errors[(b, new_slots[i])] = est[i] - ref
    if not errors:
        return 0.0, assignment, {}
    total = 0.0  # not sum(): it compensates from Python 3.12 on
    for err in errors.values():
        total += _sq(err)
    n_inst = len(errors)
    loss = total / n_inst
    grads = {(b, slot): (2.0 / n_inst) * mixes[b] * err
             for (b, slot), err in errors.items()}
    return loss, assignment, grads


def noise_mmse(masks, mixes, targets):
    """Permutation-variant masked MSE for the noise slot (slot 0, every block)."""
    n_blocks = len(mixes)
    total = 0.0
    grads = {}
    for b, (mix, tgt) in enumerate(zip(mixes, targets)):
        if (b, 0) not in masks:
            raise ValueError(f"missing noise mask for block {b}")
        if tgt.noise is None:
            raise ValueError(f"missing noise target for block {b}")
        err = masks[(b, 0)] * mix - tgt.noise
        total += _sq(err)
        grads[(b, 0)] = (2.0 / n_blocks) * mix * err
    return total / n_blocks, grads


def resmask_loss(masks, n_blocks):
    """Hinge pushing per-bin mask sums to cover the whole block:
    sum over blocks and bins of max(1 - sum_i mask_i, 0).

    The masks of a block share one read-only gradient array."""
    total = 0.0
    grads = {}
    for b in range(n_blocks):
        block_keys = sorted(k for k in masks if k[0] == b)
        if not block_keys:
            raise ValueError(f"block {b} has no masks")
        s = np.zeros_like(masks[block_keys[0]])
        for k in block_keys:
            s = s + masks[k]
        deficit = 1.0 - s
        active = deficit > 0
        total += float(deficit[active].sum())
        g = np.where(active, -1.0, 0.0)
        g.flags.writeable = False  # one gradient shared by the block's masks
        for k in block_keys:
            grads[k] = g
    return total, grads


def _cosine_with_grads(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    s = float(np.dot(a, b) / (na * nb))
    da = b / (na * nb) - s * a / (na * na)
    db = a / (na * nb) - s * b / (nb * nb)
    return s, da, db


def triplet_loss(embeddings, labels, delta, rng):
    """Cosine triplet loss over all labeled embeddings of a minibatch.

    Args:
        embeddings: {(block, slot): (D,) vector}; all must be non-zero.
        labels: {(block, slot): speaker label}.
        delta: margin.
        rng: numpy Generator that samples ``TRIPLET_CAP`` triplets when
            there are more.
    Returns:
        (loss, grads keyed like ``embeddings``).
    """
    keys = sorted(embeddings)
    for k in keys:
        if np.linalg.norm(embeddings[k]) < 1e-8:
            raise ValueError(f"zero-norm embedding at {k}")
    triplets = []
    for a in keys:
        for p in keys:
            if p == a or labels[p] != labels[a]:
                continue
            for n in keys:
                if labels[n] != labels[a]:
                    triplets.append((a, p, n))
    if len(triplets) > TRIPLET_CAP:
        idx = rng.choice(len(triplets), size=TRIPLET_CAP, replace=False)
        triplets = [triplets[i] for i in sorted(idx)]
    loss = 0.0
    grads = {k: np.zeros_like(embeddings[k]) for k in keys}
    cosines = {}  # (anchor, other) -> _cosine_with_grads; triplets share pairs

    def cosine(a, b):
        if (a, b) not in cosines:
            cosines[(a, b)] = _cosine_with_grads(embeddings[a], embeddings[b])
        return cosines[(a, b)]

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


@dataclass
class TotalLoss:
    total: float
    mmse: float  # speaker term + noise term combined
    resmask: float
    triplet: float
    assignment: dict
    mask_grads: dict
    emb_grads: dict


def total_loss(masks, mixes, targets, embeddings, weights: LossWeights, rng):
    """Weighted multi-task objective over one unrolled sample.

    Speaker slots take their triplet labels from the permutation-invariant
    assignment.  Noise-slot embeddings are excluded from the triplet term;
    ``rng`` samples its triplets beyond ``TRIPLET_CAP``.  Every mask gets a
    gradient.
    """
    spk_masks = {k: v for k, v in masks.items() if k[1] >= 1}
    l_spk, assignment, g_spk = mmse_partial_pit(spk_masks, mixes, targets)
    l_noise, g_noise = noise_mmse(masks, mixes, targets)
    l_res, g_res = resmask_loss(masks, len(mixes))

    emb_labeled = {k: v for k, v in embeddings.items()
                   if k[1] >= 1 and k[1] in assignment}
    key_labels = {k: assignment[k[1]] for k in emb_labeled}
    l_trip, g_trip = triplet_loss(emb_labeled, key_labels, weights.delta, rng)

    total = l_spk + l_noise + weights.alpha * l_res + weights.beta * l_trip
    mask_grads = {}
    for k in masks:
        g = weights.alpha * g_res[k]
        if k in g_spk:
            g = g + g_spk[k]
        if k in g_noise:
            g = g + g_noise[k]
        mask_grads[k] = g
    emb_grads = {k: weights.beta * g for k, g in g_trip.items()}
    return TotalLoss(total, l_spk + l_noise, l_res, l_trip, assignment,
                     mask_grads, emb_grads)
