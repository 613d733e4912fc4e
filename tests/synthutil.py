"""Shared helpers: synthetic unroll instances and finite-difference checks."""

from dataclasses import dataclass

import numpy as np

from blocksep.dsp import IpdFeature, StftConfig
from blocksep.estimators import MaskNet, block_truth, init_params
from blocksep.losses import LossWeights
from blocksep.training import (TrainConfig, TrainSample, _teacher_forced_residuals, unroll,
                               unroll_backward)

T, F = 4, 8


@dataclass
class GivenFeatures:
    """A block's magnitudes, IPD and spectrogram as given, read by an
    estimator's ``begin_block`` and by ``decode_block`` as they read
    ``decoding.BlockFeatures``.  The spectrogram defaults to the magnitudes
    at zero phase."""

    mag: np.ndarray  # (T, F)
    ipd: IpdFeature
    spec: np.ndarray | None = None  # (T, F) complex

    def __post_init__(self):
        if self.spec is None:
            self.spec = self.mag.astype(complex)


def make_synthetic_sample(seed, t=T, f=F, n_blocks=2, sources=("a", "b"),
                          silent=()):
    """Random tiny TrainSample: additive magnitudes so the oracle quantities
    are self-consistent.  ``silent`` lists (block, source) pairs rendered
    inactive."""
    rng = np.random.default_rng(seed)
    mags, ipds, truth = [], [], []
    for b in range(n_blocks):
        smags = {}
        for s in sources:
            if (b, s) in silent:
                smags[s] = np.zeros((t, f))
            else:
                smags[s] = rng.uniform(0.2, 1.0, (t, f))
        noise = rng.uniform(0.1, 0.5, (t, f))
        mix = noise + sum(smags.values())
        theta = rng.uniform(-np.pi, np.pi, (t, f))
        mags.append(mix)
        ipds.append(IpdFeature(np.cos(theta), np.sin(theta)))
        truth.append(block_truth(noise, smags))
    return TrainSample(f"synthetic-{seed}", mags, ipds, truth)


def tiny_config(**kw):
    defaults = dict(
        block_len_s=1.0,
        learning_rate=1e-3,
        epochs=1,
        batch_size=1,
        weights=LossWeights(alpha=0.3, beta=0.4, delta=0.2),
        seed=0,
        stft=StftConfig(14, 7),  # 8 bins, matching the synthetic samples
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_params(seed=0, f=F, dtype=np.float64, hidden=5, proj=6, embed_dim=4):
    return init_params(bins=f, embed_dim=embed_dim, hidden=hidden, proj=proj,
                       seed=seed, dtype=dtype)


def tiny_train_params(cfg, hidden=5, proj=6):
    """Tiny float32 parameters initialised as ``train`` initialises a fresh
    model: the config's seed, bins and STFT settings."""
    return init_params(bins=cfg.stft.n_bins, embed_dim=4, hidden=hidden, proj=proj,
                       seed=cfg.seed, stft_cfg=cfg.stft)


def instance_is_safe(result, margin=1e-3):
    """Reject instances whose loss sits within ``margin`` of a hinge kink,
    where finite differences are undefined."""
    for cache in result.caches:
        if np.any(np.abs(1.0 - cache.mask.sum(axis=0)) < margin):
            return False
    # triplet hinge margins
    for m in result.triplet_margins:
        if abs(m) < margin:
            return False
    return True


def slot_residuals(result, b):
    """The (B, T, F) stack of the residuals the slots of block ``b`` of an
    unroll read, row s slot s's, in the network dtype: the residuals that
    ``unroll_backward`` rebuilds from the sample's truth and the block's
    prefix of ``result.sources``, by the helper ``unroll`` builds them with."""
    mask = result.caches[b].mask
    return _teacher_forced_residuals(result.sample.truth[b], result.sources[:len(mask) - 1],
                                     mask.dtype)


def run_unroll(sample, params, cfg):
    """Unroll + backward, annotating the result with kink diagnostics."""
    net = MaskNet(params)
    result = unroll(sample, net, cfg)
    grads = unroll_backward(result, net)
    result.triplet_margins = _triplet_margins(result, cfg)
    return result, grads


def _triplet_margins(result, cfg):
    # a speaker slot is its own triplet label
    embeddings = [cache.z_out for cache in result.caches]
    keys = [(b, s) for b, block in enumerate(embeddings) for s in range(1, len(block))]
    margins = []
    for a in keys:
        for p in keys:
            if p == a or p[1] != a[1]:
                continue
            for n in keys:
                if n[1] == a[1]:
                    continue
                ea, ep, en = (embeddings[b][s] for b, s in (a, p, n))

                def cos(x, y):
                    return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))

                margins.append(cos(ea, en) - cos(ea, ep) + cfg.weights.delta)
    return margins


def fd_max_rel_err(sample, params, cfg, step=1e-5, floor=1e-6):
    """Max relative disagreement between analytic and central-difference
    gradients over every parameter coordinate."""
    net = MaskNet(params)
    result = unroll(sample, net, cfg)
    grads = unroll_backward(result, net)

    def value():
        return unroll(sample, MaskNet(params), cfg).loss.total

    worst = 0.0
    for name, arr in params.arrays.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = value()
            flat[i] = orig - step
            minus = value()
            flat[i] = orig
            fd = (plus - minus) / (2.0 * step)
            denom = max(abs(fd), abs(gflat[i]), floor)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst
