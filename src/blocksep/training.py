"""Teacher-forced training of the mask network on simulated meetings.

The network is unrolled over a meeting's blocks and extraction iterations:
iteration 0 of every block targets the noise magnitude, known speaker slots
keep their sources (a zero target while the speaker is silent), and newly
appearing sources open new slots in strongest-first order
(:meth:`~blocksep.estimators.BlockTruth.strongest_first`), the order the
oracle's probes find them in.  The residual recursion is teacher-forced: it
takes the decoder's residual step, but with the ideal ratio masks of the
references, not the network's own estimates, so each new slot's residual
no longer holds the sources ordered before it.  That order is the one
decision of which source a slot takes: the loss reads its targets by slot
and searches no permutation.  Embeddings chain across blocks.

No slot of a block then depends on another, so a block's slots run in
lockstep: one batched forward and one batched backward per block.  Slots
never close and every known slot runs in every block, so block b's slots
are 0 .. B_b - 1 and every per-block value is positional: row s of the
block's mask, embedding and gradient stacks and entry s of its targets is
slot s.  One list, the sample's ``sources``, names the source of each
speaker slot; a block reads its prefix.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .decoding import _subtract_mask, block_features
from .dsp import StftConfig, block_samples, blocks, is_integer
# Only for the benchmark, which wraps these names; features run through ``decoding``.
from .dsp import ipd, stft  # noqa: F401
from .estimators import (MaskNet, ModelParams, check_model_stft, init_params,
                         reference_blocks)
from .losses import LossWeights, TotalLoss, total_loss

# Most blocks ``unroll`` accepts in one sample (60 s at the default block length).
MAX_BLOCKS = 6
# Most slots (the noise slot plus speaker slots) ``unroll`` runs in one block.
MAX_SLOTS = 8


@dataclass
class TrainConfig:
    block_len_s: float = 10.0
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 8  # excerpts accumulated per optimizer step
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    stft: StftConfig = field(default_factory=lambda: StftConfig(256, 128))

    def __post_init__(self):
        if not 0 < self.block_len_s < np.inf:
            raise ValueError("block length must be positive and finite")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning rate must be non-negative and finite")
        for name, least in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ValueError(f"bad training configuration: {name} must be "
                                 f"an integer of at least {least}, not {value!r}")


@dataclass
class TrainSample:
    """One meeting's network inputs and ground truth, per block.

    ``truth`` holds the :class:`~blocksep.estimators.BlockTruth` records the
    oracle estimator reads: the targets (noise and source magnitudes), the
    ideal ratio masks that teacher forcing feeds the residual, and the
    active sources.
    """

    sample_id: str
    mags: list  # (T, F) mixture reference-channel magnitude per block
    ipds: list
    truth: list  # per block: BlockTruth

    @property
    def n_blocks(self):
        return len(self.mags)


def build_train_sample(rendered, stft_cfg: StftConfig, block_len_s: float,
                       sample_id: str = "") -> TrainSample:
    """Cut the mixture on the decoder's block grid, one block at a time, and
    take each block's network input from
    :func:`~blocksep.decoding.block_features`, as a decode does; only its
    magnitudes and IPD are kept.  A whole block is a view of the mixture and
    only a trailing partial block is copied, zero-padded, so the build never
    copies the whole mixture.  The ground truth comes from
    :func:`~blocksep.estimators.reference_blocks`, on the same grid."""
    block_n = block_samples(block_len_s, rendered.mixture.sample_rate)
    truth = reference_blocks(rendered, stft_cfg, block_len_s)
    mags, ipds = [], []
    for block in blocks(rendered.mixture.samples, block_n):
        feats = block_features(block, stft_cfg)
        mags.append(feats.mag)
        ipds.append(feats.ipd)
    return TrainSample(sample_id, mags, ipds, truth)


def check_sample(sample: TrainSample, bins: int):
    """Reject a sample that :func:`unroll` cannot run on a model of ``bins``
    bins, naming it, and the block where one is at fault: magnitudes, IPDs
    and truth records of different block counts, no blocks, more than
    ``MAX_BLOCKS`` blocks, more than ``MAX_SLOTS`` slots (the noise slot plus
    every source active in some block, since slots never close), an IPD
    plane or a ground-truth magnitude or mask of another shape than its
    block's magnitudes, or blocks of another bin count."""
    name = f"sample {sample.sample_id!r}"
    counts = (len(sample.mags), len(sample.ipds), len(sample.truth))
    if len(set(counts)) > 1:
        raise ValueError(f"{name} has {counts[0]} blocks of magnitudes, {counts[1]} "
                         f"of IPD and {counts[2]} of truth")
    if sample.n_blocks == 0:
        raise ValueError(f"{name} has no blocks")
    if sample.n_blocks > MAX_BLOCKS:
        raise ValueError(f"{name} has {sample.n_blocks} blocks, cap is {MAX_BLOCKS}")
    n_slots = 1 + len(set().union(*(truth.active for truth in sample.truth)))
    if n_slots > MAX_SLOTS:
        raise ValueError(f"{name} needs {n_slots} slots, slot cap is {MAX_SLOTS}")
    for b, (mag, feat, truth) in enumerate(zip(sample.mags, sample.ipds, sample.truth)):
        parts = [("IPD cos", feat.cos), ("IPD sin", feat.sin),
                 ("noise magnitude", truth.noise_mag), ("noise mask", truth.noise_irm.values)]
        parts += [(f"magnitude of source {s!r}", m) for s, m in truth.source_mags.items()]
        parts += [(f"mask of source {s!r}", m.values) for s, m in truth.irms.items()]
        for part, array in parts:
            if array.shape != mag.shape:
                raise ValueError(f"{name} has {part} of shape {array.shape} in block {b}, "
                                 f"magnitudes of {mag.shape}")
        if mag.shape[-1] != bins:
            raise ValueError(f"{name} has {mag.shape[-1]} bins in block {b}, "
                             f"the model {bins}")


@dataclass
class UnrollResult:
    sample: TrainSample  # a reference, no memory: unroll_backward reads its blocks
    loss: TotalLoss
    sources: list  # speaker slot s's source id at index s - 1, for every slot opened
    caches: list  # per block: the MaskNet.IterationCache of its one forward


def _teacher_forced_residuals(truth, sources, dtype):
    """The residual each slot of a block reads under teacher forcing, as
    (1 + len(sources), T, F) in ``dtype``, ``sources`` the source ids of
    the block's speaker slots in slot order: ones, minus the ideal masks of
    the noise and of each active source extracted before it, one float64
    (T, F) buffer stepped in place by the decoder's R <- clip(R - M, 0, 1).
    Ideal masks lie in [0, 1] and are never -0.0, which that step's
    floor-only form needs.  Built by :func:`unroll` for a block's forward
    and again by :func:`unroll_backward` for its backward, about 0.5 ms per
    10 s block."""
    shape = truth.noise_mag.shape
    out = np.empty((1 + len(sources),) + shape, dtype=dtype)
    residual = np.ones(shape)
    out[0] = residual
    _subtract_mask(residual, truth.noise_irm.values)
    for row, src in zip(out[1:], sources):
        row[...] = residual
        if src in truth.active:  # a silent source leaves the residual
            _subtract_mask(residual, truth.irms[src].values)
    return out


def unroll(sample: TrainSample, net: MaskNet, cfg: TrainConfig) -> UnrollResult:
    """Run the network over all blocks/iterations of one sample.

    Each block's features are prepared once.  Iteration counts come from the
    ground truth: one noise iteration plus one per active-or-known source.
    A slot's residual comes from the ground truth and its ``z_prev`` from
    the previous block, so no slot of a block waits for another: the block's
    residuals are built first and all its slots run in one batched
    ``net.forward``, whose cache is all the result keeps of the block.

    What the result holds until it is dropped, for :func:`unroll_backward`:
    per block its forward cache and its (B, T, F) stack of mask gradients
    in the loss.  The block's (T, P) static projection, the residuals and
    the targets live only for the block's forward or the loss; a silent
    known slot's target is a read-only zero view.  A sample that
    :func:`check_sample` rejects raises ``ValueError``.
    """
    check_sample(sample, net.params.bins)
    dt = net.params.dtype
    sources, caches, targets = [], [], []
    for b in range(sample.n_blocks):
        mag, feat, truth = sample.mags[b], sample.ipds[b], sample.truth[b]
        sources += truth.strongest_first([s for s in truth.active if s not in sources])
        targets.append([truth.noise_mag, *(truth.source_mags[src] if src in truth.active
                                           else truth.silent.values for src in sources)])
        # a slot new in this block reads a zero z_prev
        z_prevs = np.zeros((1 + len(sources), net.embed_dim), dtype=dt)
        if caches:
            z_prevs[:len(caches[-1].z_out)] = caches[-1].z_out
        residuals = _teacher_forced_residuals(truth, sources, dt)
        _, _, cache = net.forward(net.prepare_block(mag, feat), residuals, z_prevs)
        del residuals
        caches.append(cache)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x54524950]))
    loss = total_loss([c.mask for c in caches], sample.mags, targets,
                      [c.z_out for c in caches], cfg.weights, rng=rng)
    return UnrollResult(sample, loss, sources, caches)


def unroll_backward(result: UnrollResult, net: MaskNet) -> dict:
    """Backpropagate the unrolled loss into parameter gradients.

    Walks the blocks in reverse, one ``net.backward`` per block.  A block's
    mask gradients are the loss's (B, T, F) stack for the block, in slot
    order and the network dtype; ``backward`` takes it as it is.  From
    ``result.sample`` and ``result.sources``, the block's residuals are
    rebuilt for that call and its static features for
    ``finish_block_backward``; each lives only as long as its call.
    Embedding gradients chain across blocks by row: every slot known before
    a block runs in it, so a slot's ``z_prev`` in block b is its embedding
    from block b - 1, and the first B rows of block b + 1's ``z_prev``
    gradient add to block b's embedding gradient (zeros after the last
    block).  The residuals come from the ground truth, so no gradient flows
    into them.

    The result's mask gradients are consumed: once a block's ``backward``
    has run, its stack is dropped.  So a result is backpropagated once; a
    second call raises ``ValueError`` before any ``backward`` runs.
    """
    if any(g is None for g in result.loss.block_grads):
        raise ValueError("unroll result already backpropagated: its mask gradients "
                         "are consumed")
    dt = net.params.dtype
    grads = net.params.zeros_like()
    sample = result.sample
    z_next = np.zeros_like(result.loss.emb_grads[-1])
    for b in range(len(result.caches) - 1, -1, -1):
        cache = result.caches[b]
        n_slots = len(cache.mask)
        d_z = result.loss.emb_grads[b] + z_next[:n_slots]
        residuals = _teacher_forced_residuals(sample.truth[b], result.sources[:n_slots - 1],
                                              dt)
        z_next, d_static_pre = net.backward(cache, residuals, result.loss.block_grads[b],
                                            d_z, grads)
        del residuals
        result.loss.block_grads[b] = None
        net.finish_block_backward(sample.mags[b], sample.ipds[b], d_static_pre, grads)
    return grads


class Adam:
    """Adaptive moment estimation with bias correction."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: ModelParams, lr):
        self.lr = lr
        self.t = 0
        self.m = params.zeros_like()
        self.v = params.zeros_like()

    def step(self, params: ModelParams, grads: dict):
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for k, arr in params.arrays.items():
            g = grads[k].astype(arr.dtype)
            self.m[k] = self.BETA1 * self.m[k] + (1.0 - self.BETA1) * g
            self.v[k] = self.BETA2 * self.v[k] + (1.0 - self.BETA2) * g * g
            update = (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.EPS)
            arr -= (arr.dtype.type(self.lr) * update).astype(arr.dtype)


@dataclass
class EpochStats:
    epoch: int
    total: float
    mmse: float
    resmask: float
    triplet: float
    seconds: float


def train(dataset, cfg: TrainConfig, params: ModelParams | None = None):
    """Optimize the network on a dataset of :class:`TrainSample` objects.

    Without ``params`` the network starts from ``init_params`` with its
    default sizes and the config's seed, and records ``cfg.stft`` so that a
    decode can check it.  Each epoch shuffles the samples with a seed
    derived from (``cfg.seed``, epoch) and steps Adam every ``batch_size``
    samples; Adam's moments start from zero on every call.  Deterministic
    given (dataset order, config) at one BLAS thread count.  Before the
    first step it rejects, with ``ValueError``, a model whose recorded STFT
    settings differ from ``cfg.stft`` (a model that records none is not
    checked) and every sample :func:`check_sample` rejects.  Aborts on a
    non-finite loss, naming the offending sample.  One sample's unroll is
    held at a time: it is dropped before the next sample's.  Returns the
    trained parameters and one :class:`EpochStats` per epoch.
    """
    items = list(dataset)
    if not items:
        raise ValueError("empty training dataset")
    if params is None:
        params = init_params(cfg.stft.n_bins, seed=cfg.seed, stft_cfg=cfg.stft)
    check_model_stft(params, cfg.stft, "training")
    for sample in items:
        check_sample(sample, params.bins)
    net = MaskNet(params)
    opt = Adam(params, cfg.learning_rate)
    history = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch]))
        order = rng.permutation(len(items))
        sums = np.zeros(4)
        accum = None
        n_accum = 0
        for pos, idx in enumerate(order):
            sample = items[idx]
            result = unroll(sample, net, cfg)
            if not np.isfinite(result.loss.total):
                raise RuntimeError(
                    f"non-finite loss on sample {sample.sample_id!r} "
                    f"(epoch {epoch})"
                )
            grads = unroll_backward(result, net)
            if accum is None:
                accum = grads
            else:
                for k in accum:
                    accum[k] += grads[k]
            n_accum += 1
            sums += (result.loss.total, result.loss.mmse,
                     result.loss.resmask, result.loss.triplet)
            del result  # else its caches live through the next sample's unroll
            if n_accum == cfg.batch_size or pos == len(order) - 1:
                for k in accum:
                    accum[k] /= n_accum
                opt.step(params, accum)
                accum, n_accum = None, 0
        history.append(EpochStats(epoch, *(sums / len(items)), time.perf_counter() - t0))
    return params, history
