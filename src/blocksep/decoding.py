"""Block-online decoding: recursive source extraction with stopping-based
speaker counting, embedding-based tracking across blocks, the silent-speaker
rule, and consistency-check decoding for count increases.

A session is strictly sequential over blocks (state-carrying); separate
sessions can decode concurrently with shared read-only estimator parameters.
Each block is decoded and checked without changing the session, then joins
it and has its streams synthesized; past blocks stay only as re-decode handles.
"""

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dsp import (AudioSignal, IpdFeature, StftConfig, apply_mask, ipd, istft,
                  split_blocks, stft)
from .estimators import SILENT_MASK_MEAN, check_model_stft


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
        if not 0 < self.block_len_s < np.inf:
            raise ValueError("block length must be positive and finite")
        cap = self.max_iterations
        if not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError(f"max_iterations must be an integer of at least 1, not {cap!r}")


@dataclass
class BlockFeatures:
    """One block's features, as an estimator's ``begin_block`` reads them.

    ``mag`` and ``spec`` come from the reference channel.  ``ipd`` is computed
    on its first read, from ``spec`` and the STFT of the second channel's
    samples, and kept: an estimator that never reads it costs no second STFT.
    """

    mag: np.ndarray  # (T, F) reference-channel magnitudes
    spec: np.ndarray  # (T, F) complex reference-channel spectrogram
    second: np.ndarray  # the block's second-channel samples
    stft_cfg: StftConfig

    @cached_property
    def ipd(self) -> IpdFeature:
        # the module-level ``ipd`` function, not this property
        return ipd(self.spec, stft(self.second, self.stft_cfg))


@dataclass
class SessionState:
    """Decoder state carried across blocks.

    Slot 0 is reserved for noise.  Slot order never permutes, and slots
    never close.  ``cache`` holds one estimator handle per decoded block, so
    that a consistency check can re-decode past blocks; the blocks'
    features, spectra and masks are not kept.  A finished session empties
    it.  :meth:`commit` is the one place a block joins the state.
    """

    embeddings: list
    iteration_counts: list = field(default_factory=list)
    cache: list = field(default_factory=list)

    @property
    def n_blocks(self):
        return len(self.iteration_counts)

    @property
    def speaker_count(self):
        return len(self.embeddings) - 1

    def commit(self, result, accept_new_slots: bool):
        """Add a decoded block; a rejected increase keeps every embedding."""
        if accept_new_slots:
            self.embeddings = result.embeddings
        self.iteration_counts.append(result.iterations)
        self.cache.append(result.handle)


def new_session_state(embed_dim: int) -> SessionState:
    return SessionState(embeddings=[np.zeros(embed_dim)])


@dataclass
class BlockResult:
    """One decoded block that has not joined the session yet."""

    handle: object  # the estimator's re-decode handle for the block
    masks: dict  # slot -> (T, F) mask
    embeddings: list  # every slot's embedding after the block, new slots last
    new_slots: list
    iterations: int  # estimate calls, a final silent probe included


def _call_estimator(block, step, method, *args):
    """Call an estimator method; a failure names the block and the step."""
    try:
        return method(*args)
    except Exception as exc:
        raise RuntimeError(f"estimator failed in block {block}, {step}: {exc}") from exc


def _estimate(estimator, residual, z_prev, block, iteration):
    """One ``estimate`` call: the mask clipped to [0, 1], the embedding and the
    mask's mean.  A mask of another shape than ``residual``, or one holding a
    NaN, raises the ``RuntimeError`` of a failed call."""
    def checked():
        mask, z = estimator.estimate(residual, z_prev)
        mask = np.clip(np.asarray(mask, dtype=float), 0.0, 1.0)
        if mask.shape != residual.shape:
            raise ValueError(f"mask of shape {mask.shape}, not {residual.shape}")
        mean = float(mask.mean())  # NaN iff a bin is: clip maps ±inf into [0, 1]
        if np.isnan(mean):
            raise ValueError("mask holds a NaN")
        return mask, np.asarray(z, dtype=float), mean

    return _call_estimator(block, f"iteration {iteration}", checked)


def decode_block(features: BlockFeatures, state: SessionState, estimator,
                 cfg: DecoderConfig) -> BlockResult:
    """Decode the session's next block without changing ``state``.

    ``begin_block(index, features)`` sees the block once and returns the
    handle the result keeps; it reads only the features it needs, so the IPD
    is computed only for an estimator that reads ``features.ipd``.  Each
    iteration calls ``estimate``.
    Iteration order: the noise slot, then known speaker slots in fixed order
    (conditioned on their stored embeddings), then zero-embedding probes for
    new speakers.  After each non-silent mask the residual is updated as
    R <- clip(R - M, 0, 1); a mask whose mean falls below ``t_silent`` is
    zeroed and leaves the residual untouched; :class:`Session` synthesizes no
    chunk for such an all-zero mask.  Probing continues while the
    mean residual is at least ``t_resmask`` and the iteration cap allows; a
    probe that comes back silent ends the block without creating a slot.
    """
    b = state.n_blocks
    handle = _call_estimator(b, "begin_block", estimator.begin_block, b, features)
    residual = np.ones_like(features.mag)
    masks = {}
    embeddings = []
    zero_z = np.zeros_like(state.embeddings[0])

    for slot, z_prev in enumerate(state.embeddings):
        mask, z, mean = _estimate(estimator, residual, z_prev, b, slot + 1)
        if mean < cfg.t_silent:
            mask = np.zeros_like(mask)  # silent slot: residual stays unmodified
        else:
            residual = np.clip(residual - mask, 0.0, 1.0)
        embeddings.append(z)
        masks[slot] = mask

    iterations = len(embeddings)
    while (float(residual.mean()) >= cfg.t_resmask
           and iterations < cfg.max_iterations):
        mask, z, mean = _estimate(estimator, residual, zero_z, b, iterations + 1)
        iterations += 1
        if mean < cfg.t_silent:
            break  # nothing extractable remains; do not open a slot
        slot = len(embeddings)
        embeddings.append(z)
        masks[slot] = mask
        residual = np.clip(residual - mask, 0.0, 1.0)

    new_slots = list(range(len(state.embeddings), len(embeddings)))
    return BlockResult(handle, masks, embeddings, new_slots, iterations)


def consistency_check(state: SessionState, result: BlockResult, estimator,
                      cfg: DecoderConfig) -> bool:
    """Re-decode all past blocks with the new slots of ``result`` added.

    Accept the count increase iff every new slot's mask stays below
    ``t_resmask`` (per-block mean) in every past block, i.e. the new speaker
    is not retroactively present.  The first block of a session has no past,
    so an increase there is vacuously accepted.  Each past block is re-entered
    through its handle in ``state.cache``, at the (T, F) of ``result``.
    """
    n_known = len(state.embeddings)
    embeddings = state.embeddings + [result.embeddings[s] for s in result.new_slots]
    for b in range(state.n_blocks):
        _call_estimator(b, "enter_block", estimator.enter_block, state.cache[b])
        residual = np.ones(result.masks[0].shape)
        for i, emb in enumerate(embeddings):
            mask, _, mean = _estimate(estimator, residual, emb, b, i + 1)
            if i >= n_known and mean >= cfg.t_resmask:
                return False
            if mean >= cfg.t_silent:
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


@dataclass
class BlockOutput:
    masks: dict  # slot -> (T, F) mask, after the consistency verdict
    # slot -> the block's samples of that slot's stream (a view); a silent
    # slot's chunk holds the zeros its stream was allocated with
    chunks: dict
    accepted: bool | None  # consistency verdict; None when no check ran


def block_features(block_samples: np.ndarray, stft_cfg: StftConfig) -> BlockFeatures:
    spec = stft(block_samples[0], stft_cfg)
    return BlockFeatures(np.abs(spec), spec, block_samples[1], stft_cfg)


class Session:
    """A two-channel session of ``n_samples`` decoded block by block.

    Each :meth:`push` decodes one block and synthesizes its stream chunks at
    once: a block's masks are final after its consistency verdict, and later
    blocks change only the embeddings.  The session then keeps only the
    estimator's handle for the block, so apart from the output streams its
    memory does not grow with the session length.  Each slot's stream is
    allocated at full session length, as zeros, when the slot opens.

    Only a block's active slots (mask mean at least ``t_silent``, the rule
    of ``activity``) are synthesized.  A silent slot's mask is all zero (see
    :func:`decode_block`), so synthesizing it would write only +0.0: the
    masked spectrum is ±0, overlap-adding ±0 into zeros gives +0 + ±0 = +0,
    and +0 divided by the positive window sum stays +0.  Its chunk keeps the
    zeros it was allocated with, the same bytes.

    A push that raises leaves the session unchanged and may be retried.  A
    rejected count increase drops the block's new slots, keeps every embedding
    as before the block and counts the rejected probes in its iterations.

    A model (an estimator with ``params``) whose recorded STFT settings
    differ from ``stft_cfg`` is rejected with ``ValueError``; a model that
    records none is not checked.  So is an STFT whose window and hop violate
    overlap-add, a block shorter than the STFT window, or a session shorter
    than one window.  :meth:`push` checks each block before the estimator
    sees it.
    """

    def __init__(self, estimator, cfg: DecoderConfig, stft_cfg: StftConfig,
                 sample_rate: int, n_samples: int):
        check_model_stft(getattr(estimator, "params", None), stft_cfg, "decode")
        if not stft_cfg.cola_ok():
            raise ValueError("window/hop violates overlap-add")
        self.block_n = int(round(cfg.block_len_s * sample_rate))
        if self.block_n < stft_cfg.window_len:
            raise ValueError(f"block of {self.block_n} samples is shorter than the "
                             f"{stft_cfg.window_len}-sample STFT window")
        if n_samples < stft_cfg.window_len:
            raise ValueError("input too short")
        self.estimator = estimator
        self.cfg = cfg
        self.stft_cfg = stft_cfg
        self.sample_rate = sample_rate
        self.n_samples = n_samples
        self.state = new_session_state(estimator.embed_dim)
        self.streams = {}  # slot -> (n_samples,) samples
        self.activity = []
        self.consistency_log = []

    def push(self, block_samples: np.ndarray) -> BlockOutput:
        """Decode the next (2, block_n) block; the last one is zero-padded.

        Raises ``ValueError`` after :meth:`finish`, past the session's end,
        and for a block of another shape or with a NaN or infinite sample.
        """
        state, cfg = self.state, self.cfg
        b = state.n_blocks
        start = b * self.block_n
        stop = min(start + self.block_n, self.n_samples)
        if len(state.cache) != b:
            raise ValueError(f"block {b} pushed after the session finished")
        if start >= self.n_samples:
            raise ValueError(f"block {b} starts after the session's end")
        if np.shape(block_samples) != (2, self.block_n):
            raise ValueError(f"block {b} has shape {np.shape(block_samples)}, "
                             f"not (2, {self.block_n})")
        if not np.isfinite(block_samples).all():
            raise ValueError(f"block {b} holds a NaN or infinite sample")
        feats = block_features(block_samples, self.stft_cfg)
        result = decode_block(feats, state, self.estimator, cfg)
        accepted = None
        if result.new_slots and cfg.consistency_check and b > 0:
            accepted = consistency_check(state, result, self.estimator, cfg)
            self.consistency_log.append((b, accepted))
            if not accepted:
                for slot in result.new_slots:
                    result.masks.pop(slot)
        state.commit(result, accepted is not False)  # nothing below raises

        active = sorted(slot for slot, m in result.masks.items()
                        if float(m.mean()) >= cfg.t_silent)
        chunks = {}
        for slot, mask in result.masks.items():
            if slot not in self.streams:
                self.streams[slot] = np.zeros(self.n_samples)
            chunk = chunks[slot] = self.streams[slot][start:stop]
            if slot in active:  # a silent slot's chunk keeps its exact zeros
                rec = istft(apply_mask(mask, feats.spec), self.stft_cfg)[: stop - start]
                chunk[: rec.size] = rec
        self.activity.append(active)
        return BlockOutput(result.masks, chunks, accepted)

    def finish(self) -> DecodeResult:
        """End the session: nothing re-decodes its blocks any more, so their
        handles go."""
        self.state.cache.clear()
        streams = {slot: AudioSignal(self.sample_rate, samples)
                   for slot, samples in self.streams.items()}
        per_block_counts = [sum(slot > 0 for slot in active) for active in self.activity]
        return DecodeResult(streams, self.activity, per_block_counts,
                            self.state.speaker_count, self.consistency_log, self.state)


def decode_session(mixture: AudioSignal, estimator, cfg: DecoderConfig,
                   stft_cfg: StftConfig) -> DecodeResult:
    """Decode a whole two-channel session block by block with a
    :class:`Session`.

    Blocks are disjoint in time and cut one at a time, as they are pushed:
    a whole block is a view of the mixture, and only the trailing partial
    block, if any, is copied, zero-padded; its chunks are trimmed to the
    session length.  So the decode never copies the whole mixture.  Every
    block goes through :meth:`Session.push`, so a mixture that is not
    two-channel, or holds a NaN or infinite sample, raises ``ValueError`` at
    the first such block, as do the settings :class:`Session` rejects.
    """
    session = Session(estimator, cfg, stft_cfg, mixture.sample_rate, mixture.n_samples)
    block_n = session.block_n
    for start in range(0, mixture.n_samples, block_n):
        block = mixture.samples[:, start:start + block_n]
        if block.shape[1] < block_n:
            block = split_blocks(block, block_n)[:, 0]
        session.push(block)
    return session.finish()
