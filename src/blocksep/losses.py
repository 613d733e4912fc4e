"""Training losses: the masked-magnitude MSE of each slot against its
target, the residual hinge that drives source counting, and the cosine
triplet loss over speaker embeddings.

No term searches over permutations.  Training is teacher-forced, so the
unroll has already decided which source each slot takes: a new source takes
the strongest-first order (:meth:`~blocksep.estimators.BlockTruth.strongest_first`)
that the teacher-forced residual of each new slot assumes, and a slot keeps
its source for the whole sample.  The targets come keyed by slot, and a
slot is its own speaker label in the triplet term.

:func:`total_loss` returns the weighted loss together with analytic
gradients with respect to its direct inputs, the masks and embeddings.
Inputs and gradients share one per-block layout: per block a ``{slot:
array}`` dict, slot 0 the noise slot and slots >= 1 speaker slots.  It runs
one block at a time, taking the speaker, noise and hinge
(:func:`resmask_loss`) terms together.  Each block's mask gradients are
written into one (B, T, F) stack in the masks' dtype, one row per mask in
the order the block's masks were given, each row once; no other per-mask
array outlives its block.  The hinge subgradient at the kink is 0 (one-sided).
"""

from dataclasses import dataclass, field

import numpy as np

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
    """Targets for one block: the noise magnitude and one magnitude per
    speaker slot (for a silent slot a read-only zero view, which holds no
    memory)."""

    noise: np.ndarray
    speakers: dict = field(default_factory=dict)  # slot -> (T, F) target


def _sq(err):
    return float(np.sum(err * err))


def resmask_loss(masks):
    """Hinge pushing one block's per-bin mask sum to cover the block:
    the sum over bins of max(1 - sum_i mask_i, 0), for ``masks`` the block's
    masks in slot order.

    Returns the loss and its gradient, the same for every mask of the block:
    a float64 array of -1 where the hinge is active, else 0."""
    s = np.zeros_like(masks[0])
    for m in masks:
        np.add(s, m, out=s)
    deficit = np.subtract(1.0, s, out=s)
    active = deficit > 0
    return float(deficit[active].sum()), np.where(active, -1.0, 0.0)


def _mask_grad(mask, mix, target, scale, hinge, out):
    """A masked MSE term's squared error, writing the mask's whole gradient
    into ``out``: ``hinge`` + ``scale`` * err for err = mask * |X| - target,
    ``scale`` holding (2/n)|X|, built in a float64 error and cast into
    ``out``, the rounding of ``astype``."""
    err = mask * mix - target
    sq = _sq(err)
    err *= scale
    err += hinge
    out[...] = err
    return sq


def _cosine_with_grads(a, b, na, nb):
    """Cosine of ``a`` and ``b``, whose norms are ``na`` and ``nb``, and its
    gradients with respect to both."""
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
    norms = {k: np.linalg.norm(embeddings[k]) for k in keys}
    for k in keys:
        if norms[k] < 1e-8:
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
            cosines[(a, b)] = _cosine_with_grads(embeddings[a], embeddings[b],
                                                 norms[a], norms[b])
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
    """The weighted loss, its terms and its gradients, per block.

    A block's mask gradients are one (B, T, F) stack in its masks' dtype
    (float32 for the default network), its rows in the order the block's
    masks were given; its embedding gradients are a ``{slot: gradient}``
    dict over the slots the triplet term labels."""

    total: float
    mmse: float  # speaker term + noise term combined
    resmask: float
    triplet: float
    emb_grads: list  # per block: {slot: (D,) gradient}
    block_grads: list  # per block: (B, T, F) stack; None once unroll_backward took it


def total_loss(masks, mixes, targets, embeddings, weights: LossWeights, rng):
    """Weighted multi-task objective over one unrolled sample.

    ``masks`` and ``embeddings`` hold one ``{slot: array}`` dict per block,
    as ``mixes`` (float64) and ``targets`` hold one entry per block; a
    block-count mismatch raises ``ValueError``, as does a block whose speaker
    masks and targets name different slots.  Runs block by block: each
    block's speaker terms (each speaker slot against its target, in slot
    order), noise term (slot 0 against the block's noise magnitude) and
    hinge (:func:`resmask_loss`, in sorted slot order) are taken together,
    and each of its masks gets its whole gradient at once, alpha * hinge +
    (2/n)|X| * err, computed in float64 and written into its row of the
    block's gradient stack (see :class:`TotalLoss`).  n is the block count
    for the noise slot and the speaker-mask count for a speaker slot.  Each
    speaker slot's embeddings carry the slot as their triplet label;
    noise-slot embeddings are excluded from the triplet term.  ``rng``
    samples its triplets beyond ``TRIPLET_CAP``.  Every mask gets a gradient.
    """
    n_blocks = len(mixes)
    for name, per_block in (("block targets", targets), ("mask blocks", masks),
                            ("embedding blocks", embeddings)):
        if len(per_block) != n_blocks:
            raise ValueError(f"{len(per_block)} {name} for {n_blocks} blocks")
    n_spk = sum(slot >= 1 for block in masks for slot in block)
    # running float sums, not sum(): it compensates from Python 3.12 on
    sq_spk = sq_noise = l_res = 0.0
    block_grads = []
    for b, (block, mix, tgt) in enumerate(zip(masks, mixes, targets)):
        if not block:
            raise ValueError(f"block {b} has no masks")
        spk_slots = sorted(slot for slot in block if slot >= 1)
        if spk_slots != sorted(tgt.speakers):
            raise ValueError(f"block {b} has speaker masks for slots {spk_slots} "
                             f"but targets for slots {sorted(tgt.speakers)}")
        if 0 not in block:
            raise ValueError(f"missing noise mask for block {b}")
        if tgt.noise is None:
            raise ValueError(f"missing noise target for block {b}")
        loss, hinge = resmask_loss([block[slot] for slot in sorted(block)])
        l_res += loss
        hinge *= weights.alpha
        stack = np.empty((len(block),) + mix.shape,
                         dtype=np.result_type(*block.values()))
        block_grads.append(stack)
        rows = dict(zip(block, stack))  # slot -> its row, in the order given
        scale = (2.0 / n_blocks) * mix
        sq_noise += _mask_grad(block[0], mix, tgt.noise, scale, hinge, rows[0])
        if spk_slots:  # the speaker scale takes the noise scale's buffer
            np.multiply(2.0 / n_spk, mix, out=scale)
        for slot in spk_slots:
            sq_spk += _mask_grad(block[slot], mix, tgt.speakers[slot], scale, hinge,
                                 rows[slot])
    l_spk = sq_spk / n_spk if n_spk else 0.0
    l_noise = sq_noise / n_blocks

    # triplet_loss pairs embeddings across blocks, so it takes (block, slot)
    # keys; a slot is one source for the whole sample, so it is the label
    emb_labeled = {(b, slot): z for b, block in enumerate(embeddings)
                   for slot, z in block.items() if slot >= 1}
    l_trip, g_trip = triplet_loss(emb_labeled, {k: k[1] for k in emb_labeled},
                                  weights.delta, rng)

    total = l_spk + l_noise + weights.alpha * l_res + weights.beta * l_trip
    emb_grads = [{} for _ in embeddings]
    for (b, slot), g in g_trip.items():
        emb_grads[b][slot] = weights.beta * g
    return TotalLoss(total, l_spk + l_noise, l_res, l_trip, emb_grads, block_grads)
