"""Shared helpers: synthetic unroll instances and finite-difference checks."""

import itertools

import numpy as np

from blocksep.dsp import IpdFeature, StftConfig
from blocksep.estimators import MaskNet, init_params, ratio_masks
from blocksep.losses import LossWeights
from blocksep.training import TrainConfig, TrainSample, unroll, unroll_backward

T, F = 4, 8


def make_synthetic_sample(seed, t=T, f=F, n_blocks=2, sources=("a", "b"),
                          silent=()):
    """Random tiny TrainSample: additive magnitudes so the oracle quantities
    are self-consistent.  ``silent`` lists (block, source) pairs rendered
    inactive."""
    rng = np.random.default_rng(seed)
    mags, ipds, noise_mags, source_mags, irms, noise_irms, activity = (
        [], [], [], [], [], [], []
    )
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
        noise_irm, irm = ratio_masks(noise, smags)
        mags.append(mix)
        ipds.append(IpdFeature(np.cos(theta), np.sin(theta)))
        noise_mags.append(noise)
        source_mags.append(smags)
        irms.append(irm)
        noise_irms.append(noise_irm)
        activity.append(sorted(s for s, m in irm.items()
                               if float(m.mean()) >= 0.05))
    return TrainSample(f"synthetic-{seed}", mags, ipds, noise_mags,
                       source_mags, irms, noise_irms, activity)


def tiny_config(**kw):
    defaults = dict(
        block_len_s=1.0,
        learning_rate=1e-3,
        epochs=1,
        batch_size=1,
        weights=LossWeights(alpha=0.3, beta=0.4, delta=0.2),
        teacher_forcing=True,
        seed=0,
        stft=StftConfig(14, 7),  # 8 bins, matching the synthetic samples
        hidden=5,
        proj=6,
        embed_dim=4,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_params(seed=0, f=F, cfg=None, dtype=np.float64):
    cfg = cfg or tiny_config()
    return init_params(bins=f, embed_dim=cfg.embed_dim, hidden=cfg.hidden,
                       proj=cfg.proj, seed=seed, dtype=dtype)


def instance_is_safe(result, margin=1e-3):
    """Reject instances whose loss sits within ``margin`` of a hinge kink or
    a permutation tie, where finite differences are undefined."""
    n_blocks = len(result.targets)
    for b in range(n_blocks):
        total = sum(m for (bb, _), m in result.masks.items() if bb == b)
        if np.any(np.abs(1.0 - total) < margin):
            return False
    # permutation tie: best vs runner-up assignment cost for new sources
    for b, tgt in enumerate(result.targets):
        if len(tgt.new_sources) < 2:
            continue
        slots = sorted(s for (bb, s) in result.masks
                       if bb == b and s >= 1 and s not in tgt.known)
        costs = []
        for perm in itertools.permutations(range(len(tgt.new_sources))):
            c = 0.0
            for slot, idx in zip(slots, perm):
                est = result.masks[(b, slot)] * result.loss_mix[b]
                c += float(np.sum((est - tgt.new_sources[idx][1]) ** 2))
            costs.append(c)
        costs.sort()
        if len(costs) > 1 and costs[1] - costs[0] < margin:
            return False
    # triplet hinge margins
    for m in result.triplet_margins:
        if abs(m) < margin:
            return False
    return True


def run_unroll(sample, params, cfg):
    """Unroll + backward, annotating the result with kink diagnostics."""
    net = MaskNet(params)
    result = unroll(sample, net, cfg)
    grads = unroll_backward(result, net)
    result.loss_mix = sample.mags
    result.triplet_margins = _triplet_margins(result, cfg)
    return result, grads


def _triplet_margins(result, cfg):
    labels = dict(result.loss.assignment)
    keys = sorted(k for k in result.embeddings if k[1] >= 1 and k[1] in labels)
    margins = []
    for a in keys:
        for p in keys:
            if p == a or labels[p[1]] != labels[a[1]]:
                continue
            for n in keys:
                if labels[n[1]] == labels[a[1]]:
                    continue
                ea, ep, en = (result.embeddings[k] for k in (a, p, n))

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
