"""Teacher-forced training of the mask network on simulated meetings.

The network is unrolled over a meeting's blocks and extraction iterations:
iteration 0 of every block targets the noise magnitude, known speaker slots
keep their fixed targets (zeros while the speaker is silent), and newly
appearing sources are matched to the remaining iterations by the
permutation-invariant loss.  With teacher forcing (the default) the residual
recursion consumes ideal-ratio masks computed from the references instead of
the network's own estimates; embeddings always chain across blocks.

Under teacher forcing no slot of a block depends on another, so a block's
slots run in lockstep: one batched forward and one batched backward per
block, kept as one record.  Without it each slot needs the previous slot's
mask, so each slot is its own forward, backward and record.
"""

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .decoding import block_features
from .dsp import StftConfig, split_blocks
# Only for the benchmark, which wraps these names; features run through ``decoding``.
from .dsp import ipd, stft  # noqa: F401
from .estimators import (MaskNet, ModelParams, check_model_stft, init_params,
                         reference_blocks)
from .losses import BlockTargets, LossWeights, TotalLoss, total_loss

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
    teacher_forcing: bool = True
    seed: int = 0
    stft: StftConfig = field(default_factory=lambda: StftConfig(256, 128))

    def __post_init__(self):
        if not 0 < self.block_len_s < np.inf:
            raise ValueError("block length must be positive and finite")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning rate must be non-negative and finite")
        for name, least in (("epochs", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"bad epoch/batch configuration: {name} must be "
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
    """Cut the mixture into zero-padded blocks and take each block's network
    input from :func:`~blocksep.decoding.block_features`, as a decode does;
    only its magnitudes and IPD are kept."""
    block_n = int(round(block_len_s * rendered.mixture.sample_rate))
    mix = split_blocks(rendered.mixture.samples, block_n)  # (2, n_blocks, block_n)
    truth = reference_blocks(rendered, stft_cfg, block_len_s)
    mags, ipds = [], []
    for b in range(len(truth)):
        feats = block_features(mix[:, b], stft_cfg)
        mags.append(feats.mag)
        ipds.append(feats.ipd)
    return TrainSample(sample_id, mags, ipds, truth)


def check_sample(sample: TrainSample, bins: int):
    """Reject a sample that :func:`unroll` cannot run on a model of ``bins``
    bins, naming it: more than ``MAX_BLOCKS`` blocks, more than
    ``MAX_SLOTS`` slots (the noise slot plus every source active in some
    block, since slots never close), or blocks of another bin count."""
    name = f"sample {sample.sample_id!r}"
    if sample.n_blocks > MAX_BLOCKS:
        raise ValueError(f"{name} has {sample.n_blocks} blocks, cap is {MAX_BLOCKS}")
    n_slots = 1 + len(set().union(*(truth.active for truth in sample.truth)))
    if n_slots > MAX_SLOTS:
        raise ValueError(f"{name} needs {n_slots} slots, slot cap is {MAX_SLOTS}")
    for b, mag in enumerate(sample.mags):
        if mag.shape[-1] != bins:
            raise ValueError(f"{name} has {mag.shape[-1]} bins in block {b}, "
                             f"the model {bins}")


@dataclass
class _IterationRecord:
    """One ``net.forward`` call of a block: its slots, in order, are the rows
    of the call's slot axis."""

    slots: list
    cache: object  # MaskNet.IterationCache
    gate: np.ndarray | None  # clip pass-through region; None under teacher forcing


@dataclass
class UnrollResult:
    loss: TotalLoss
    masks: dict  # (block, slot) -> mask
    embeddings: dict  # (block, slot) -> embedding
    targets: list
    records: list = field(default_factory=list)  # per block: [_IterationRecord], in order
    contexts: list = field(default_factory=list)  # per block: BlockContext


def _new_source_order(truth, new_sources):
    means = {s: float(truth.irms[s].mean()) for s in new_sources}
    return sorted(new_sources, key=lambda s: (-means[s], s))


def _teacher_forced_residuals(truth, order, slot_source, shape, dtype):
    """The residual each slot of ``order`` reads under teacher forcing, as
    (len(order), T, F): ones, minus the ideal masks of the noise and of each
    active source extracted before it, clipped to [0, 1] after each step."""
    out = np.empty((len(order),) + shape, dtype=dtype)
    residual = np.ones(shape)
    for i, slot in enumerate(order):
        out[i] = residual
        if slot == 0:
            residual = np.clip(residual - truth.noise_irm, 0.0, 1.0)
        elif slot_source[slot] in truth.active:
            # a silent source leaves the residual
            residual = np.clip(residual - truth.irms[slot_source[slot]], 0.0, 1.0)
    return out


def unroll(sample: TrainSample, net: MaskNet, cfg: TrainConfig) -> UnrollResult:
    """Run the network over all blocks/iterations of one sample.

    Each block's features are prepared once.  Iteration counts come from the
    ground truth: one noise iteration plus one per active-or-known source.
    With teacher forcing, a slot's residual comes from the ground truth and
    its ``z_prev`` from the previous block, so no slot of a block waits for
    another: the block's residuals are built first and all its slots run in
    one batched ``net.forward``, kept as one record.  Without it, each slot
    reads the residual the previous slot's mask left, so the slots run one
    by one, one record each with its clip gate.  The block contexts and
    records are kept for :func:`unroll_backward`.  A sample that
    :func:`check_sample` rejects raises ``ValueError``.
    """
    check_sample(sample, net.params.bins)
    dt = net.params.dtype
    masks, embeddings = {}, {}
    records, contexts, targets = [], [], []
    slot_source = {}  # speaker slot -> source id (grows block by block)
    prev_z = {}  # slot -> embedding emitted in the previous block
    zero_z = np.zeros(net.embed_dim)  # z_prev of a slot new in this block
    next_slot = 1

    for b in range(sample.n_blocks):
        mag, feat, truth = sample.mags[b], sample.ipds[b], sample.truth[b]
        known_slots = sorted(slot_source)
        new_sources = _new_source_order(
            truth, [s for s in truth.active if s not in slot_source.values()])
        new_slots = list(range(next_slot, next_slot + len(new_sources)))
        next_slot += len(new_sources)
        order = [0] + known_slots + new_slots

        known_targets = {}
        for slot in known_slots:
            src = slot_source[slot]
            if src in truth.active:
                known_targets[slot] = truth.source_mags[src]
            else:
                known_targets[slot] = np.zeros_like(mag)
        targets.append(BlockTargets(
            noise=truth.noise_mag,
            known=known_targets,
            new_sources=[(s, truth.source_mags[s]) for s in new_sources],
        ))
        for slot, src in zip(new_slots, new_sources):
            slot_source[slot] = src

        ctx = net.prepare_block(mag, feat)
        contexts.append(ctx)
        z_prevs = np.array([prev_z.get(slot, zero_z) for slot in order], dtype=dt)
        if cfg.teacher_forcing:
            residuals = _teacher_forced_residuals(truth, order, slot_source,
                                                  mag.shape, dt)
            _, _, cache = net.forward(ctx, residuals, z_prevs)
            block_records = [_IterationRecord(order, cache, None)]
        else:
            block_records = []
            residual = np.ones_like(mag)
            for i, slot in enumerate(order):
                mask, _, cache = net.forward(ctx, residual[None], z_prevs[i:i + 1])
                pre_clip = residual - mask[0]
                gate = ((pre_clip > 0.0) & (pre_clip < 1.0)).astype(mask.dtype)
                residual = np.clip(pre_clip, 0.0, 1.0)
                block_records.append(_IterationRecord([slot], cache, gate))
        for rec in block_records:
            for i, slot in enumerate(rec.slots):
                masks[(b, slot)] = rec.cache.mask[i]
                embeddings[(b, slot)] = rec.cache.z_out[i]
        records.append(block_records)
        prev_z = {slot: embeddings[(b, slot)] for slot in order}

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x54524950]))
    loss = total_loss(masks, sample.mags, targets, embeddings, cfg.weights, rng=rng)
    return UnrollResult(loss, masks, embeddings, targets, records, contexts)


def unroll_backward(result: UnrollResult, net: MaskNet) -> dict:
    """Backpropagate the unrolled loss into parameter gradients.

    Walks blocks and records in reverse, one ``net.backward`` per record:
    one per block under teacher forcing, one per slot without it.  A
    record's mask and embedding gradients are stacked along its slot axis
    in the network dtype.  Embedding gradients chain across blocks by slot:
    every slot known before a block runs in it, so a slot's ``z_prev`` in
    block b is its embedding from block b - 1.  Where a record holds a clip
    gate (teacher forcing off), residual gradients chain through the clip
    recursion within the block.
    """
    dt = net.params.dtype
    grads = net.params.zeros_like()
    z_next = {}  # slot -> gradient w.r.t. its embedding, from the next block
    for b in range(len(result.records) - 1, -1, -1):
        ctx = result.contexts[b]
        d_static_pre = np.zeros_like(ctx.static_pre)
        z_here = {}
        carry = None  # gradient w.r.t. the residual produced by the record
        for rec in reversed(result.records[b]):
            d_mask = np.array([result.loss.mask_grads[(b, slot)] for slot in rec.slots],
                              dtype=dt)
            d_z = np.zeros((len(rec.slots), net.embed_dim), dtype=dt)
            for row, slot in zip(d_z, rec.slots):
                row[...] = result.loss.emb_grads.get((b, slot), 0.0) + z_next.get(slot, 0.0)
            if carry is not None:
                d_mask -= carry * rec.gate
            d_residual, d_z_prev, d_pre = net.backward(rec.cache, d_mask, d_z, grads)
            d_static_pre += d_pre
            z_here.update(zip(rec.slots, d_z_prev))
            if rec.gate is not None:
                carry = d_residual if carry is None else d_residual + carry * rec.gate
        net.finish_block_backward(ctx, d_static_pre, grads)
        z_next = z_here
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
    given (dataset order, config).  Before the first step it rejects, with
    ``ValueError``, a model whose recorded STFT settings differ from
    ``cfg.stft`` (a model that records none is not checked) and every sample
    :func:`check_sample` rejects.  Aborts on a non-finite loss, naming the
    offending sample.  Returns the trained parameters and one
    :class:`EpochStats` per epoch.
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
            if n_accum == cfg.batch_size or pos == len(order) - 1:
                for k in accum:
                    accum[k] /= n_accum
                opt.step(params, accum)
                accum, n_accum = None, 0
        history.append(EpochStats(epoch, *(sums / len(items)), time.perf_counter() - t0))
    return params, history
