"""Block-online decoding: recursive source extraction with stopping-based
speaker counting, embedding-based tracking across blocks, the silent-speaker
rule, and consistency-check decoding for count increases.

A session is strictly sequential over blocks (state-carrying); separate
sessions can decode concurrently with shared read-only estimator parameters.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .dsp import (AudioSignal, IpdFeature, StftConfig, apply_mask, ipd, istft,
                  split_blocks, stft)
from .estimators import SILENT_MASK_MEAN


@dataclass
class DecoderConfig:
    t_resmask: float = 0.2  # stop probing when the mean residual drops below
    t_silent: float = SILENT_MASK_MEAN  # below this mean mask a slot is silent
    block_len_s: float = 10.0
    max_iterations: int = 6  # noise + up to 5 speakers
    consistency_check: bool = True

    def __post_init__(self):
        if not 0.0 < self.t_silent < self.t_resmask < 1.0:
            raise ValueError("thresholds must satisfy 0 < t_silent < t_resmask < 1")
        if self.block_len_s <= 0:
            raise ValueError("block length must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration per block")


@dataclass
class BlockFeatures:
    mag: np.ndarray  # (T, F) reference-channel magnitudes
    ipd: IpdFeature
    spec: np.ndarray  # (T, F) complex reference-channel spectrogram


@dataclass
class SessionState:
    """Decoder state carried across blocks.

    Slot 0 is reserved for noise.  Slot order never permutes; the slot count
    only decreases when a consistency check rejects an increase.  The feature
    cache covers the whole session so past blocks can be re-decoded; memory
    is O(session length) by design.
    """

    embeddings: list
    iteration_counts: list = field(default_factory=list)
    cache: list = field(default_factory=list)
    block_masks: list = field(default_factory=list)

    @property
    def n_blocks(self):
        return len(self.cache)

    @property
    def speaker_count(self):
        return len(self.embeddings) - 1


def new_session_state(embed_dim: int) -> SessionState:
    return SessionState(embeddings=[np.zeros(embed_dim)])


@dataclass
class BlockResult:
    masks: dict  # slot -> (T, F) mask
    new_slots: list


def _call_estimator(block, step, method, *args):
    """Call an estimator method; a failure names the block and the step."""
    try:
        return method(*args)
    except Exception as exc:
        raise RuntimeError(f"estimator failed in block {block}, {step}: {exc}") from exc


def _estimate(estimator, residual, z_prev, block, iteration):
    mask, z = _call_estimator(block, f"iteration {iteration}", estimator.estimate,
                              residual, z_prev)
    return np.clip(np.asarray(mask, dtype=float), 0.0, 1.0), np.asarray(z, dtype=float)


def decode_block(features: BlockFeatures, state: SessionState, estimator,
                 cfg: DecoderConfig) -> BlockResult:
    """Decode one block, updating ``state`` in place.

    The features go to ``begin_block`` once; each iteration calls ``estimate``.
    Iteration order: the noise slot, then known speaker slots in fixed order
    (conditioned on their stored embeddings), then zero-embedding probes for
    new speakers.  After each non-silent mask the residual is updated as
    R <- clip(R - M, 0, 1); a mask whose mean falls below ``t_silent`` is
    zeroed and leaves the residual untouched.  Probing continues while the
    mean residual is at least ``t_resmask`` and the iteration cap allows; a
    probe that comes back silent ends the block without creating a slot.
    """
    b = state.n_blocks
    _call_estimator(b, "begin_block", estimator.begin_block,
                    b, features.mag, features.ipd)
    residual = np.ones_like(features.mag)
    masks = {}
    new_slots = []
    iterations = 0
    zero_z = np.zeros_like(state.embeddings[0])

    for slot in range(len(state.embeddings)):
        mask, z = _estimate(estimator, residual, state.embeddings[slot], b,
                            iterations + 1)
        iterations += 1
        if float(mask.mean()) < cfg.t_silent:
            mask = np.zeros_like(mask)  # silent slot: residual stays unmodified
        else:
            residual = np.clip(residual - mask, 0.0, 1.0)
        state.embeddings[slot] = z
        masks[slot] = mask

    while (float(residual.mean()) >= cfg.t_resmask
           and iterations < cfg.max_iterations):
        mask, z = _estimate(estimator, residual, zero_z, b, iterations + 1)
        iterations += 1
        if float(mask.mean()) < cfg.t_silent:
            break  # nothing extractable remains; do not open a slot
        slot = len(state.embeddings)
        state.embeddings.append(z)
        masks[slot] = mask
        new_slots.append(slot)
        residual = np.clip(residual - mask, 0.0, 1.0)

    state.iteration_counts.append(iterations)
    state.cache.append(features)
    state.block_masks.append(masks)
    return BlockResult(masks, new_slots)


def consistency_check(state: SessionState, new_slots, pre_block_embeddings,
                      estimator, cfg: DecoderConfig) -> bool:
    """Re-decode all past blocks with the enlarged embedding set.

    Accept the count increase iff every new slot's mask stays below
    ``t_resmask`` (per-block mean) in every past block, i.e. the new speaker
    is not retroactively present.  The first block of a session has no past,
    so an increase there is vacuously accepted.
    """
    embeddings = pre_block_embeddings + [state.embeddings[s] for s in new_slots]
    n_known = len(pre_block_embeddings)
    for b in range(state.n_blocks - 1):
        features = state.cache[b]
        _call_estimator(b, "begin_block", estimator.begin_block,
                        b, features.mag, features.ipd)
        residual = np.ones_like(features.mag)
        for i, emb in enumerate(embeddings):
            mask, _ = _estimate(estimator, residual, emb, b, i + 1)
            if i >= n_known and float(mask.mean()) >= cfg.t_resmask:
                return False
            if float(mask.mean()) >= cfg.t_silent:
                residual = np.clip(residual - mask, 0.0, 1.0)
    return True


@dataclass
class DecodeResult:
    streams: dict  # slot -> mono AudioSignal; slot 0 is the noise stream
    activity: list  # per block: sorted list of active slots
    per_block_counts: list  # active speaker slots per block (noise excluded)
    final_count: int
    consistency_log: list  # (block, accepted) for every checked increase
    state: SessionState


def block_features(block_samples: np.ndarray, stft_cfg: StftConfig) -> BlockFeatures:
    s1 = stft(block_samples[0], stft_cfg)
    s2 = stft(block_samples[1], stft_cfg)
    return BlockFeatures(np.abs(s1), ipd(s1, s2), s1)


def decode_session(mixture: AudioSignal, estimator, cfg: DecoderConfig,
                   stft_cfg: StftConfig) -> DecodeResult:
    """Decode a whole two-channel session block by block.

    Streams are rebuilt per slot by masking the reference channel and
    inverting the STFT per block; blocks are disjoint in time and their
    reconstructions concatenate to the session length.  The trailing partial
    block, if any, is zero-padded before decoding and trimmed afterwards.

    A rejected count increase drops the block's new slots and restores every
    embedding, known slots included, to its value before the block; the
    block's iteration count keeps the rejected probes.

    A model (an estimator with ``params``) whose recorded STFT settings
    differ from ``stft_cfg`` is rejected with ``ValueError`` before the first
    block; a model that records none is not checked.  A block shorter than
    the STFT window is rejected the same way.
    """
    if mixture.n_channels != 2:
        raise ValueError("decoding expects a 2-channel mixture")
    model_stft = getattr(getattr(estimator, "params", None), "stft", None)
    if model_stft and model_stft != asdict(stft_cfg):
        raise ValueError(f"model STFT settings {model_stft} differ from the "
                         f"decode STFT settings {asdict(stft_cfg)}")
    fs = mixture.sample_rate
    block_n = int(round(cfg.block_len_s * fs))
    if block_n < stft_cfg.window_len:
        raise ValueError(f"block of {block_n} samples is shorter than the "
                         f"{stft_cfg.window_len}-sample STFT window")
    n = mixture.n_samples
    if n < stft_cfg.window_len:
        raise ValueError("input too short")
    blocks = split_blocks(mixture.samples, block_n)  # (2, n_blocks, block_n)
    n_blocks = blocks.shape[1]

    state = new_session_state(estimator.embed_dim)
    consistency_log = []
    for b in range(n_blocks):
        feats = block_features(blocks[:, b], stft_cfg)
        pre = [e.copy() for e in state.embeddings]
        result = decode_block(feats, state, estimator, cfg)
        if result.new_slots and cfg.consistency_check and b > 0:
            ok = consistency_check(state, result.new_slots, pre, estimator, cfg)
            consistency_log.append((b, ok))
            if not ok:
                for slot in result.new_slots:
                    state.block_masks[b].pop(slot)
                state.embeddings = pre

    streams = {}
    for slot in range(len(state.embeddings)):
        parts = []
        for b in range(n_blocks):
            mask = state.block_masks[b].get(slot)  # None: the slot was absent
            rec = (np.zeros(0) if mask is None
                   else istft(apply_mask(mask, state.cache[b].spec), stft_cfg))
            parts.append(split_blocks(rec, block_n)[0])
        streams[slot] = AudioSignal(fs, np.concatenate(parts)[:n])

    activity = [
        sorted(slot for slot, m in masks.items() if float(m.mean()) >= cfg.t_silent)
        for masks in state.block_masks
    ]
    per_block_counts = [sum(slot > 0 for slot in active) for active in activity]

    return DecodeResult(streams, activity, per_block_counts,
                        state.speaker_count, consistency_log, state)
