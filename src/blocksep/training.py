"""Teacher-forced training of the mask network on simulated meetings.

The network is unrolled over a meeting's blocks and extraction iterations:
iteration 0 of every block targets the noise magnitude, known speaker slots
keep their fixed targets (zeros while the speaker is silent), and newly
appearing sources are matched to the remaining iterations by the
permutation-invariant loss.  With teacher forcing (the default) the residual
recursion consumes ideal-ratio masks computed from the references instead of
the network's own estimates; embeddings always chain across blocks.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .dsp import StftConfig, ipd, split_blocks, stft
from .estimators import (
    DEFAULT_EMBED_DIM,
    DEFAULT_HIDDEN,
    DEFAULT_PROJ,
    SILENT_MASK_MEAN,
    MaskNet,
    ModelParams,
    init_params,
    ratio_masks,
    reference_block_mags,
)
from .losses import BlockTargets, LossWeights, TotalLoss, total_loss

# Most blocks ``unroll`` accepts in one sample (60 s at the default block length).
MAX_BLOCKS = 6


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
    hidden: int = DEFAULT_HIDDEN
    proj: int = DEFAULT_PROJ
    embed_dim: int = DEFAULT_EMBED_DIM
    max_slots: int = 8  # noise slot + speaker slots per unrolled sample

    def __post_init__(self):
        if self.block_len_s <= 0:
            raise ValueError("block length must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be non-negative")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad epoch/batch configuration")


@dataclass
class TrainSample:
    """Per-block features, targets, and oracle masks for one meeting."""

    sample_id: str
    mags: list  # (T, F) mixture reference-channel magnitude per block
    ipds: list
    noise_mags: list
    source_mags: list  # per block: {source_id: (T, F)}
    irms: list  # per block: {source_id: (T, F)} ideal ratio masks
    noise_irms: list
    activity: list  # per block: source ids with mean IRM >= threshold

    @property
    def n_blocks(self):
        return len(self.mags)


def build_train_sample(rendered, stft_cfg: StftConfig, block_len_s: float,
                       sample_id: str = "") -> TrainSample:
    block_n = int(round(block_len_s * rendered.mixture.sample_rate))
    mix = split_blocks(rendered.mixture.samples, block_n)  # (2, n_blocks, block_n)
    source_mags, noise_mags = reference_block_mags(rendered, stft_cfg, block_len_s)
    mags, ipds, irms, noise_irms, activity = [], [], [], [], []
    for b, (nmag, smags) in enumerate(zip(noise_mags, source_mags)):
        s1 = stft(mix[0, b], stft_cfg)
        s2 = stft(mix[1, b], stft_cfg)
        mags.append(np.abs(s1))
        ipds.append(ipd(s1, s2))
        noise_irm, irm = ratio_masks(nmag, smags)
        irms.append(irm)
        noise_irms.append(noise_irm)
        activity.append(sorted(
            spk for spk, m in irm.items() if float(m.mean()) >= SILENT_MASK_MEAN
        ))
    return TrainSample(sample_id, mags, ipds, noise_mags, source_mags, irms,
                       noise_irms, activity)


@dataclass
class _IterationRecord:
    slot: int
    cache: object  # MaskNet.IterationCache
    gate: np.ndarray | None  # clip pass-through region (teacher forcing off)
    z_src: tuple | None  # (block, slot) that produced this iteration's z_prev


@dataclass
class UnrollResult:
    loss: TotalLoss
    masks: dict  # (block, slot) -> mask
    embeddings: dict  # (block, slot) -> embedding
    targets: list
    teacher_forcing: bool
    records: list = field(default_factory=list)  # per block: [_IterationRecord], in order
    contexts: list = field(default_factory=list)  # per block: BlockContext


def _new_source_order(sample, block, new_sources):
    means = {s: float(sample.irms[block][s].mean()) for s in new_sources}
    return sorted(new_sources, key=lambda s: (-means[s], s))


def unroll(sample: TrainSample, net: MaskNet, cfg: TrainConfig) -> UnrollResult:
    """Run the network over all blocks/iterations of one sample.

    Each block's features are prepared once, then every iteration runs
    ``net.forward``; the block contexts and iteration caches are kept for
    :func:`unroll_backward`.  Iteration counts come from the ground truth:
    one noise iteration plus one per active-or-known source, consistent with
    teacher forcing.  A sample of more than ``MAX_BLOCKS`` blocks is
    rejected.
    """
    if sample.n_blocks > MAX_BLOCKS:
        raise ValueError(f"sample has {sample.n_blocks} blocks, cap is {MAX_BLOCKS}")
    masks, embeddings = {}, {}
    records, contexts, targets = [], [], []
    slot_source = {}  # speaker slot -> source id (grows block by block)
    prev_z = {}  # slot -> embedding emitted in the previous block
    zero_z = np.zeros(net.embed_dim)  # z_prev of a slot new in this block
    next_slot = 1

    for b in range(sample.n_blocks):
        mag, feat = sample.mags[b], sample.ipds[b]
        known_slots = sorted(slot_source)
        new_sources = _new_source_order(
            sample, b, [s for s in sample.activity[b]
                        if s not in slot_source.values()],
        )
        if 1 + len(known_slots) + len(new_sources) > cfg.max_slots:
            raise ValueError("more concurrent sources than slot cap")
        new_slots = list(range(next_slot, next_slot + len(new_sources)))
        next_slot += len(new_sources)
        order = [0] + known_slots + new_slots

        known_targets = {}
        for slot in known_slots:
            src = slot_source[slot]
            if src in sample.activity[b]:
                known_targets[slot] = sample.source_mags[b][src]
            else:
                known_targets[slot] = np.zeros_like(mag)
        targets.append(BlockTargets(
            noise=sample.noise_mags[b],
            known=known_targets,
            new_sources=[(s, sample.source_mags[b][s]) for s in new_sources],
        ))
        for slot, src in zip(new_slots, new_sources):
            slot_source[slot] = src

        ctx = net.prepare_block(mag, feat)
        contexts.append(ctx)
        block_records = []
        residual = np.ones_like(mag)
        for idx, slot in enumerate(order):
            z_src = (b - 1, slot) if slot in prev_z else None
            z_prev = prev_z.get(slot, zero_z)
            mask, z_out, cache = net.forward(ctx, residual, z_prev)
            masks[(b, slot)] = mask
            embeddings[(b, slot)] = z_out
            gate = None
            if cfg.teacher_forcing:
                if slot == 0:
                    oracle_mask = sample.noise_irms[b]
                else:
                    src = slot_source[slot]
                    oracle_mask = sample.irms[b].get(src)
                    if oracle_mask is None or src not in sample.activity[b]:
                        oracle_mask = None  # silent source leaves the residual
                if oracle_mask is not None:
                    residual = np.clip(residual - oracle_mask, 0.0, 1.0)
            else:
                pre_clip = residual - mask
                gate = ((pre_clip > 0.0) & (pre_clip < 1.0)).astype(mask.dtype)
                residual = np.clip(pre_clip, 0.0, 1.0)
            block_records.append(_IterationRecord(slot, cache, gate, z_src))
        records.append(block_records)
        prev_z = {slot: embeddings[(b, slot)] for slot in order}

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x54524950]))
    loss = total_loss(masks, sample.mags, targets, embeddings, cfg.weights, rng=rng)
    return UnrollResult(loss, masks, embeddings, targets, cfg.teacher_forcing,
                        records, contexts)


def unroll_backward(result: UnrollResult, net: MaskNet) -> dict:
    """Backpropagate the unrolled loss into parameter gradients.

    Walks blocks and iterations in reverse, chaining embedding gradients
    across blocks and, when teacher forcing was off, residual gradients
    through the clip recursion within each block.
    """
    grads = net.params.zeros_like()
    z_chain = {}  # (block, slot) -> accumulated downstream gradient
    n_blocks = len(result.records)
    for b in range(n_blocks - 1, -1, -1):
        ctx = result.contexts[b]
        carry = None  # gradient w.r.t. the residual produced by iteration i
        for rec in reversed(result.records[b]):
            key = (b, rec.slot)
            d_mask = result.loss.mask_grads.get(key)
            if d_mask is None:
                d_mask = np.zeros_like(result.masks[key])
            else:
                d_mask = d_mask.copy()
            d_z = result.loss.emb_grads.get(key)
            if d_z is None:
                d_z = np.zeros_like(result.embeddings[key])
            else:
                d_z = d_z.copy()
            if key in z_chain:
                d_z += z_chain.pop(key)
            if not result.teacher_forcing and carry is not None:
                d_mask -= carry * rec.gate
            d_residual, d_z_prev = net.backward(ctx, rec.cache, d_mask, d_z, grads)
            if result.teacher_forcing:
                carry = None
            else:
                if carry is None:
                    carry = d_residual
                else:
                    carry = d_residual + carry * rec.gate
            if rec.z_src is not None:
                prev = z_chain.get(rec.z_src)
                z_chain[rec.z_src] = d_z_prev if prev is None else prev + d_z_prev
        net.finish_block_backward(ctx, grads)
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


def train(dataset, cfg: TrainConfig, params: ModelParams | None = None,
          start_epoch: int = 0):
    """Optimize the network on a dataset of :class:`TrainSample` objects.

    Without ``params`` the network starts from ``init_params`` with the
    config's seed and sizes, and records ``cfg.stft`` so that a decode can
    check it.  Epochs run from ``start_epoch``; each shuffles the samples
    with a seed derived from (``cfg.seed``, epoch) and steps Adam every
    ``batch_size`` samples; Adam's moments start from zero on every call.
    Deterministic given (dataset order, config, start epoch).  Aborts on a
    non-finite loss, naming the offending sample.  Returns the trained
    parameters and one :class:`EpochStats` per epoch.
    """
    items = list(dataset)
    if not items:
        raise ValueError("empty training dataset")
    if params is None:
        params = init_params(
            bins=cfg.stft.n_bins, embed_dim=cfg.embed_dim, hidden=cfg.hidden,
            proj=cfg.proj, seed=cfg.seed, stft_cfg=cfg.stft,
        )
    net = MaskNet(params)
    opt = Adam(params, cfg.learning_rate)
    history = []
    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        t0 = time.time()
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
        history.append(EpochStats(epoch, *(sums / len(items)), time.time() - t0))
    return params, history
