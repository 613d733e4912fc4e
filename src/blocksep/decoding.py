"""Block-online decoding: recursive source extraction with stopping-based
speaker counting, embedding-based tracking across blocks, the silent-speaker
rule, and consistency-check decoding for count increases.

A session is strictly sequential over blocks (state-carrying); separate
sessions can decode concurrently with shared read-only estimator parameters.
Each block is decoded and checked without changing the session, then joins
it; past blocks stay only as re-decode handles.  A session keeps no audio:
the caller synthesizes each pushed block's chunks and keeps what it needs.
"""

from dataclasses import dataclass, field

import numpy as np

from .dsp import (AudioSignal, IpdFeature, StftConfig, block_samples, blocks,
                  check_positive_whole, check_real_samples, ipd, is_integer, istft,
                  stft, synthesis_length)
# Only for the benchmark, which wraps this name; ``istft`` masks as it goes.
from .dsp import apply_mask  # noqa: F401
from .estimators import SILENT_MASK_MEAN, CheckedMask, check_model_stft


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
        if not is_integer(cap) or cap < 1:
            raise ValueError(f"max_iterations must be an integer of at least 1, not {cap!r}")
        if not isinstance(self.consistency_check, bool):
            raise ValueError(f"consistency_check must be a bool, not {self.consistency_check!r}")


@dataclass
class BlockFeatures:
    """One block's features, as an estimator's ``begin_block`` reads them.

    ``spec`` is the reference channel's spectrogram.  ``mag`` (its
    magnitudes) and ``ipd`` are computed on each read and not kept: the
    reader holds them as long as it needs them, and a push holds them no
    longer than ``begin_block`` does.  ``ipd`` comes from ``spec`` and the
    STFT of the second channel's samples.  So an estimator that reads
    neither costs no |X|, no second STFT and no IPD.
    """

    spec: np.ndarray  # (T, F) complex reference-channel spectrogram
    second: np.ndarray  # the block's second-channel samples
    stft_cfg: StftConfig

    @property
    def mag(self) -> np.ndarray:
        """(T, F) reference-channel magnitudes, new on each read."""
        return np.abs(self.spec)

    @property
    def ipd(self) -> IpdFeature:
        """The IPD planes, new on each read."""
        # the module-level ``ipd`` function, not this property
        return ipd(self.spec, stft(self.second, self.stft_cfg))


@dataclass
class SessionState:
    """Decoder state carried across blocks.

    Slot 0 is reserved for noise.  Slot order never permutes, and slots
    never close.  ``cache`` holds one estimator handle per decoded block, so
    that a consistency check can re-decode past blocks; the blocks'
    features, spectra and masks are not kept.  :func:`decode_session`
    empties it when the decode ends.  :meth:`commit` is the one place a
    block joins the state.
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
    masks: dict  # slot -> CheckedMask of (T, F) values
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
    """One ``estimate`` call, held to the estimator contract (see
    :mod:`blocksep.estimators`): the mask record and the float64 embedding.
    A mask that is not a read-only ``CheckedMask`` of ``residual``'s shape,
    or an embedding that is not a finite vector of ``z_prev``'s shape,
    raises the ``RuntimeError`` of a failed call."""
    def checked():
        mask, z = estimator.estimate(residual, z_prev)
        if not isinstance(mask, CheckedMask):
            raise ValueError(f"mask of type {type(mask).__name__}, not CheckedMask")
        if mask.values.shape != residual.shape:
            raise ValueError(f"mask of shape {mask.values.shape}, not {residual.shape}")
        if mask.values.flags.writeable:
            raise ValueError("checked mask with a writeable array")
        z = np.asarray(z, dtype=float)
        if z.shape != z_prev.shape or not np.isfinite(z).all():
            raise ValueError(f"embedding of shape {z.shape} is not a finite "
                             f"{z_prev.shape} vector")
        return mask, z

    return _call_estimator(block, f"iteration {iteration}", checked)


def _subtract_mask(residual, mask):
    """The residual step R <- clip(R - M, 0, 1), in place.

    Only the floor is applied: a residual never exceeds 1 and a kept mask is
    at least 0, so R - M <= 1.  The floor gives +0.0 for -0.0 where the clip
    keeps -0.0, but R - M is -0.0 only for R = -0.0, and R starts at 1 and
    stays at least +0.0.
    """
    np.subtract(residual, mask, out=residual)
    np.maximum(residual, 0.0, out=residual)


def _extract(estimator, residual, embeddings, block, cfg):
    """The extraction loop over known slots: one estimate per embedding in
    ``embeddings``, conditioned on it.  Yields each ``(mask, z)``; resumed,
    it steps ``residual`` past a mask whose mean is at least ``t_silent``."""
    for i, z_prev in enumerate(embeddings):
        mask, z = _estimate(estimator, residual, z_prev, block, i + 1)
        yield mask, z
        if mask.mean >= cfg.t_silent:
            _subtract_mask(residual, mask.values)


def decode_block(features: BlockFeatures, state: SessionState, estimator,
                 cfg: DecoderConfig) -> BlockResult:
    """Decode the session's next block without changing ``state``.

    ``begin_block(index, features)`` sees the block once and returns the
    handle the result keeps.  The residual takes its shape from
    ``features.spec``.  Iteration order: the noise slot, then known speaker
    slots in fixed order (conditioned on their stored embeddings), both by
    :func:`_extract`, then zero-embedding probes for new speakers.  After
    each non-silent mask the residual is updated in place as
    R <- clip(R - M, 0, 1); a mask whose mean falls below ``t_silent`` is
    replaced by the block's one read-only zero record and leaves the
    residual untouched; :func:`decode_session` synthesizes no chunk for it.
    Probing continues while the mean residual is at least ``t_resmask`` and
    the iteration cap allows; a probe that comes back silent ends the block
    without creating a slot.  Each ``estimate`` call is held to the
    estimator contract (see :mod:`blocksep.estimators`).
    """
    b = state.n_blocks
    handle = _call_estimator(b, "begin_block", estimator.begin_block, b, features)
    residual = np.ones(features.spec.shape)
    silent = CheckedMask(np.broadcast_to(0.0, residual.shape), 0.0)
    masks = {}
    embeddings = []
    zero_z = np.zeros_like(state.embeddings[0])

    for slot, (mask, z) in enumerate(_extract(estimator, residual, state.embeddings,
                                              b, cfg)):
        masks[slot] = mask if mask.mean >= cfg.t_silent else silent
        embeddings.append(z)

    iterations = len(embeddings)
    while (float(residual.mean()) >= cfg.t_resmask
           and iterations < cfg.max_iterations):
        mask, z = _estimate(estimator, residual, zero_z, b, iterations + 1)
        iterations += 1
        if mask.mean < cfg.t_silent:
            break  # nothing extractable remains; do not open a slot
        masks[len(embeddings)] = mask
        embeddings.append(z)
        _subtract_mask(residual, mask.values)

    new_slots = list(range(len(state.embeddings), len(embeddings)))
    return BlockResult(handle, masks, embeddings, new_slots, iterations)


def consistency_check(state: SessionState, result: BlockResult, estimator,
                      cfg: DecoderConfig) -> bool:
    """Re-decode all past blocks with the new slots of ``result`` added.

    Accept the count increase iff every new slot's mask stays below
    ``t_resmask`` (per-block mean) in every past block, i.e. the new speaker
    is not retroactively present.  The first block of a session has no past,
    so an increase there is vacuously accepted.  Each past block is re-entered
    through its handle in ``state.cache``, at the (T, F) of ``result``, and
    re-decoded by :func:`_extract`, as :func:`decode_block` runs known slots,
    except that :func:`_extract` is not resumed after the last slot: the
    residual step it would take there feeds no further ``estimate``, and
    the check reads only masks.
    """
    n_known = len(state.embeddings)
    embeddings = state.embeddings + [result.embeddings[s] for s in result.new_slots]
    last = len(embeddings) - 1
    residual = np.empty(result.masks[0].values.shape)  # refilled for each past block
    for b in range(state.n_blocks):
        _call_estimator(b, "enter_block", estimator.enter_block, state.cache[b])
        residual.fill(1.0)
        for i, (mask, _) in enumerate(_extract(estimator, residual, embeddings, b, cfg)):
            if i >= n_known and mask.mean >= cfg.t_resmask:
                return False
            if i == last:
                break
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
    """One pushed block: its masks after the consistency verdict, and the
    block's reference spectrogram, from which :meth:`chunk` synthesizes."""

    masks: dict  # slot -> CheckedMask of (T, F) values
    active: list  # sorted slots whose mask mean is at least t_silent
    accepted: bool | None  # consistency verdict; None when no check ran
    spec: np.ndarray  # (T, F) reference-channel spectrogram
    stft_cfg: StftConfig
    block_n: int

    def chunk(self, slot) -> np.ndarray:
        """The block's ``(block_n,)`` samples of ``slot``'s stream, in a new
        array that the caller owns: :func:`~blocksep.dsp.istft` of the
        spectrogram under the slot's mask, written into the array's head,
        and zeros where its frames do not reach the block's end."""
        samples = np.zeros(self.block_n)
        n = synthesis_length(len(self.spec), self.stft_cfg)
        istft(self.spec, self.stft_cfg, self.masks[slot], samples[:n])
        return samples


def block_features(block_samples: np.ndarray, stft_cfg: StftConfig) -> BlockFeatures:
    """A (2, n) block's features: the reference channel's STFT now, its
    magnitudes and the IPD when read."""
    return BlockFeatures(stft(block_samples[0], stft_cfg), block_samples[1], stft_cfg)


class Session:
    """A two-channel session decoded block by block.

    Each :meth:`push` decodes one block: a block's masks are final after its
    consistency verdict, and later blocks change only the embeddings.  The
    session then keeps only the estimator's handle for the block, so its
    memory grows by one handle per block and by nothing else: it keeps no
    audio.  A push returns the block's masks and reference spectrogram, and
    the caller synthesizes the chunks it wants (see :meth:`BlockOutput.chunk`).
    Within a push, |X|, the second channel's spectrum and the IPD live only
    inside the estimator's ``begin_block`` (see :class:`BlockFeatures`).

    The estimator is held to the estimator contract (see
    :mod:`blocksep.estimators`).  A push that raises leaves the session
    unchanged and may be retried.  A
    rejected count increase drops the block's new slots, keeps every embedding
    as before the block and counts the rejected probes in its iterations.

    A model (an estimator with ``params``) whose recorded STFT settings
    differ from ``stft_cfg`` is rejected with ``ValueError``; a model that
    records none is not checked.  So is an STFT whose window and hop violate
    overlap-add, a ``sample_rate`` that is not a positive whole number, or a
    block shorter than the STFT window.  :meth:`push` checks each block
    before the estimator sees it.
    """

    def __init__(self, estimator, cfg: DecoderConfig, stft_cfg: StftConfig,
                 sample_rate: int):
        check_model_stft(getattr(estimator, "params", None), stft_cfg, "decode")
        if not stft_cfg.cola_ok():
            raise ValueError("window/hop violates overlap-add")
        check_positive_whole("sample_rate", sample_rate)
        self.block_n = block_samples(cfg.block_len_s, sample_rate)
        if self.block_n < stft_cfg.window_len:
            raise ValueError(f"block of {self.block_n} samples is shorter than the "
                             f"{stft_cfg.window_len}-sample STFT window")
        self.estimator = estimator
        self.cfg = cfg
        self.stft_cfg = stft_cfg
        self.state = new_session_state(estimator.embed_dim)
        self.activity = []
        self.consistency_log = []

    def push(self, block_samples: np.ndarray) -> BlockOutput:
        """Decode the next (2, block_n) block.

        Raises ``ValueError`` for a block of another shape, of samples that
        are not integers or floats, or with a NaN or infinite sample.
        """
        state, cfg = self.state, self.cfg
        b = state.n_blocks
        if np.shape(block_samples) != (2, self.block_n):
            raise ValueError(f"block {b} has shape {np.shape(block_samples)}, "
                             f"not (2, {self.block_n})")
        check_real_samples(f"block {b}", block_samples)
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

        active = sorted(slot for slot, rec in result.masks.items()
                        if rec.mean >= cfg.t_silent)
        self.activity.append(active)
        return BlockOutput(result.masks, active, accepted, feats.spec, self.stft_cfg,
                           self.block_n)


def decode_session(mixture: AudioSignal, estimator, cfg: DecoderConfig,
                   stft_cfg: StftConfig) -> DecodeResult:
    """Decode a whole two-channel session block by block with a
    :class:`Session`, and assemble each slot's stream from the chunks.

    Blocks are disjoint in time and cut by :func:`~blocksep.dsp.blocks` one
    at a time, as they are pushed: a whole block is a view of the mixture,
    and only the trailing partial block, if any, is copied, zero-padded; its
    chunks are trimmed to the mixture's length.  So the decode never copies
    the whole mixture.  Every block goes through :meth:`Session.push`, so a
    mixture that is not two-channel, or holds a NaN or infinite sample,
    raises ``ValueError`` at the first such block, as do the settings
    :class:`Session` rejects and a mixture shorter than one STFT window.

    A slot's stream is allocated as zeros when the slot first appears in a
    block's masks, and only a block's active slots are synthesized into it.
    A whole block is synthesized by :func:`~blocksep.dsp.istft` straight
    into its slice of the stream, as :meth:`BlockOutput.chunk` would make
    it; the trailing partial block goes through ``chunk``, trimmed.  A
    silent slot's mask is all zero (see :func:`decode_block`), so
    synthesizing it would write only +0.0: ``istft``'s masked spectrum is
    ±0, overlap-adding ±0 into zeros gives +0 + ±0 = +0, and +0 divided by
    the positive window sum stays +0.  Its part of the stream keeps the
    zeros it was allocated with, the same bytes.  An active slot's record
    goes to ``istft`` as it is, which does not scan its range again.  The
    block handles go when the decode ends: nothing re-decodes its blocks
    any more.
    """
    session = Session(estimator, cfg, stft_cfg, mixture.sample_rate)
    n, block_n = mixture.n_samples, session.block_n
    if n < stft_cfg.window_len:
        raise ValueError("input too short")
    streams = {}  # slot -> (n,) samples
    for b, block in enumerate(blocks(mixture.samples, block_n)):
        start = b * block_n
        stop = min(start + block_n, n)
        out = session.push(block)
        for slot in out.masks:
            if slot not in streams:
                streams[slot] = np.zeros(n)
        synthesized = synthesis_length(len(out.spec), stft_cfg)
        for slot in out.active:
            if stop - start == block_n:
                istft(out.spec, stft_cfg, out.masks[slot],
                      streams[slot][start:start + synthesized])
            else:
                streams[slot][start:stop] = out.chunk(slot)[: stop - start]
        del out  # its spectrogram goes before the next block's
    session.state.cache.clear()
    per_block_counts = [sum(slot > 0 for slot in active) for active in session.activity]
    return DecodeResult({slot: AudioSignal(mixture.sample_rate, samples)
                         for slot, samples in streams.items()},
                        session.activity, per_block_counts, session.state.speaker_count,
                        session.consistency_log, session.state)
