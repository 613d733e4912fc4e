import copy
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blocksep import decoding, estimators
from blocksep.decoding import (
    BlockResult,
    DecoderConfig,
    Session,
    SessionState,
    block_features,
    consistency_check,
    decode_block,
    decode_session,
    new_session_state,
)
from blocksep.dsp import (AudioSignal, IpdFeature, StftConfig, apply_mask, block_samples,
                          blocks, frame_count, ipd, istft, stft)
from blocksep.estimators import (
    CheckedMask,
    MaskNet,
    OracleMaskEstimator,
    block_truth,
    check_mask,
    init_params,
    is_zero_embedding,
    speaker_embedding,
)
from blocksep.metrics import block_speaker_counts
from blocksep.rttm import Segment
from blocksep.simulate import MeetingScenario, make_pool, render
from blocksep.training import build_train_sample
from synthutil import GivenFeatures

T, F = 20, 10
CFG = DecoderConfig()
SRC = Path(__file__).resolve().parent.parent / "src"


def _flat_features():
    return GivenFeatures(mag=np.ones((T, F)),
                         ipd=IpdFeature(np.ones((T, F)), np.zeros((T, F))))


def _flat_oracle(levels_per_block, noise_level=0.3):
    """Oracle over blocks of spatially flat sources (uniform magnitudes)."""
    return OracleMaskEstimator([
        block_truth(np.full((T, F), noise_level),
                    {spk: np.full((T, F), v) for spk, v in levels.items() if v > 0})
        for levels in levels_per_block])


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(t_silent=0.3, t_resmask=0.2)
    with pytest.raises(ValueError):
        DecoderConfig(max_iterations=0)
    # a NaN cap once let decode_block return after the noise slot, never
    # probing; a fractional one was accepted too
    # and True once stood for a cap of 1
    for bad in (np.nan, 2.5, True):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            DecoderConfig(max_iterations=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            DecoderConfig(block_len_s=bad)
    # "no" was accepted, and the check ran
    for bad in ("no", 0, None):
        with pytest.raises(ValueError, match="consistency_check must be a bool"):
            DecoderConfig(consistency_check=bad)


@pytest.mark.parametrize("n_sources", [0, 1, 2, 3])
def test_stopping_iterations_equal_sources_plus_one(n_sources):
    levels = {f"s{i}": 0.8 - 0.1 * i for i in range(n_sources)}
    est = _flat_oracle([levels])
    state = new_session_state(est.embed_dim)
    result = decode_block(_flat_features(), state, est, CFG)
    state.commit(result, True)
    assert state.iteration_counts == [n_sources + 1]
    assert state.speaker_count == n_sources
    assert len(result.new_slots) == n_sources


def test_noise_only_block_residual_below_threshold():
    est = _flat_oracle([{}])
    state = new_session_state(est.embed_dim)
    result = decode_block(_flat_features(), state, est, CFG)
    noise_mask = result.masks[0].values
    residual = np.clip(1.0 - noise_mask, 0, 1)
    assert residual.mean() < CFG.t_resmask
    assert state.speaker_count == 0


def test_residual_mean_monotone_within_block():
    est = _flat_oracle([{"a": 0.8, "b": 0.6, "c": 0.5}])
    feats = _flat_features()
    est.begin_block(0, feats)
    residual = np.ones((T, F))
    means = [residual.mean()]
    for _ in range(4):
        mask, _ = est.estimate(residual, np.zeros(est.embed_dim))
        assert mask.mean == float(mask.values.mean())
        if mask.mean >= CFG.t_silent:
            residual = np.clip(residual - mask.values, 0, 1)
        means.append(residual.mean())
    assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))


def test_known_speaker_silent_block():
    est = _flat_oracle([{"alice": 0.8}, {"alice": 0.0}])
    state = new_session_state(est.embed_dim)
    state.commit(decode_block(_flat_features(), state, est, CFG), True)
    assert state.speaker_count == 1
    result = decode_block(_flat_features(), state, est, CFG)
    state.commit(result, True)
    # slot survives, mask is all-zero, no new slots
    assert np.all(result.masks[1].values == 0)
    assert state.speaker_count == 1
    assert state.iteration_counts == [2, 2]
    # embeddings keep tracking the same speaker
    assert np.allclose(state.embeddings[1], speaker_embedding("alice"))


def test_max_iterations_cap():
    levels = {f"s{i}": 0.9 for i in range(6)}
    est = _flat_oracle([levels])
    cfg = DecoderConfig(max_iterations=4)
    state = new_session_state(est.embed_dim)
    state.commit(decode_block(_flat_features(), state, est, cfg), True)
    assert state.iteration_counts == [4]
    assert state.speaker_count == 3


@pytest.mark.parametrize("cap, found", [(6, 5), (7, 6)])
def test_the_iteration_cap_counts_known_slots_so_a_sixth_speaker_is_never_probed(cap, found):
    # cause 1 of the oracle undercount: ``max_iterations`` counts the known
    # slots' iterations too, so once 5 speakers are known the default cap
    # of 6 leaves no probe, however loud a 6th speaker is
    five = {s: 0.9 for s in "abcde"}
    est = _flat_oracle([{**five, "f": 0.5}, {**five, "f": 2.0}])
    cfg = DecoderConfig(max_iterations=cap)
    state = new_session_state(est.embed_dim)
    first = decode_block(_flat_features(), state, est, cfg)
    state.commit(first, True)
    assert (first.iterations, state.speaker_count) == (6, 5)  # f, the weakest, unprobed
    second = decode_block(_flat_features(), state, est, cfg)
    state.commit(second, True)
    assert second.iterations == found + 1
    assert state.speaker_count == found
    # f holds 2.0 / 6.8 of every bin of block 1, well above ``t_resmask``
    assert est.blocks[1].irms["f"].mean > 0.29 > CFG.t_resmask
    if cap == CFG.max_iterations:
        assert second.new_slots == [] and len(second.masks) == 6


def test_the_probe_loop_stops_on_the_residual_before_a_quiet_active_speaker():
    # cause 2 of the oracle undercount: after a dominant speaker the
    # residual mean is below ``t_resmask``, so a quiet speaker who is active
    # (mask mean at least ``t_silent``) is never probed
    est = _flat_oracle([{"a": 5.0, "b": 0.4}])
    truth = est.blocks[0]
    assert truth.active == ["a", "b"]
    assert CFG.t_silent <= truth.irms["b"].mean == pytest.approx(0.070, abs=1e-3)
    left = 1.0 - truth.noise_irm.mean - truth.irms["a"].mean
    assert left == pytest.approx(0.070, abs=1e-3) and left < CFG.t_resmask
    state = new_session_state(est.embed_dim)
    result = decode_block(_flat_features(), state, est, CFG)
    state.commit(result, True)
    assert (result.iterations, state.speaker_count) == (2, 1)


class ScriptedEstimator:
    """Returns canned masks: known embeddings get silence, the probed slot's
    embedding gets a per-block scripted mask."""

    embed_dim = 8

    def __init__(self, new_z, masks_by_block):
        self.new_z = new_z
        self.masks_by_block = masks_by_block
        self._block = 0

    def begin_block(self, index, features):
        self.enter_block(index)
        return index

    def enter_block(self, handle):
        self._block = handle

    def estimate(self, residual, z_prev):
        if np.allclose(z_prev, self.new_z):
            return check_mask(self.masks_by_block[self._block].copy()), self.new_z.copy()
        return check_mask(np.zeros_like(residual)), np.ones(self.embed_dim) / np.sqrt(8)


def _scripted_block(embeddings, new_z, index):
    """The decoded, uncommitted block ``index`` that opened a slot for
    ``new_z``; a scripted handle is the block index."""
    masks = {slot: check_mask(np.zeros((T, F))) for slot in range(len(embeddings) + 1)}
    return BlockResult(index, masks, embeddings + [new_z], [len(embeddings)],
                       len(embeddings) + 1)


def _scripted_state(new_z, n_past=2):
    """Past blocks whose handles are their indices, as ScriptedEstimator's,
    and the next block, which opened the new slot 2."""
    state = SessionState(embeddings=[np.zeros(8), np.ones(8) / np.sqrt(8)],
                         iteration_counts=[2] * n_past, cache=list(range(n_past)))
    return state, _scripted_block(state.embeddings, new_z, n_past)


def test_consistency_accepts_zero_history():
    new_z = speaker_embedding("newbie", 8)
    masks = {0: np.zeros((T, F)), 1: np.zeros((T, F)), 2: np.full((T, F), 0.5)}
    est = ScriptedEstimator(new_z, masks)
    state, result = _scripted_state(new_z)
    assert consistency_check(state, result, est, CFG)


def test_consistency_rejects_retroactive_presence():
    new_z = speaker_embedding("ghost", 8)
    masks = {0: np.zeros((T, F)), 1: np.full((T, F), 0.5), 2: np.full((T, F), 0.5)}
    est = ScriptedEstimator(new_z, masks)
    state, result = _scripted_state(new_z)
    assert not consistency_check(state, result, est, CFG)


def test_consistency_vacuous_on_first_block():
    new_z = speaker_embedding("first", 8)
    est = ScriptedEstimator(new_z, {0: np.full((T, F), 0.9)})
    state = SessionState(embeddings=[np.zeros(8)])
    result = _scripted_block(state.embeddings, new_z, 0)
    assert consistency_check(state, result, est, CFG)


# --------------------------------------------------------------------------
# full sessions against the simulator
# --------------------------------------------------------------------------

STFT = StftConfig(256, 128)


def _fixture_meeting(seed, length=60.0):
    """Three speakers who debut on block boundaries 10 s apart, each talking
    for at least one block from the debut; cut to ``length``."""
    pool = make_pool(3, seed=2)
    a, b, c = (spec.speaker_id for spec in pool)
    plan = [(a, 0.0, 20.0), (b, 10.0, 25.0), (c, 20.0, 35.0),
            (a, 35.0, 50.0), (b, 45.0, 60.0)]
    segs = [Segment(spk, t0, min(t1, length)) for spk, t0, t1 in plan if t0 < length]
    sc = MeetingScenario(
        profile="B", length_s=length, segments=segs, snr_db=15.0, rt60_s=0.4,
        mic_delays={a: -2.5, b: 0.5, c: 3.0}, seed=seed, sources=list(pool),
    )
    return render(sc)


def test_oracle_session_three_speakers():
    meeting = _fixture_meeting(seed=0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    result = decode_session(meeting.mixture, est, CFG, STFT)
    assert result.final_count == 3
    n_blocks = len(result.per_block_counts)
    truth = block_speaker_counts(meeting.timeline, CFG.block_len_s, n_blocks)
    assert result.per_block_counts == truth
    # streams: slot 0 noise plus three speakers, session-length mono
    assert sorted(result.streams) == [0, 1, 2, 3]
    assert result.streams[0].n_samples == meeting.mixture.n_samples


def test_late_speaker_gets_new_slot_late():
    meeting = _fixture_meeting(seed=0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    result = decode_session(meeting.mixture, est, CFG, STFT)
    debut_block = {}
    for seg in meeting.timeline:
        blk = int(seg.start // CFG.block_len_s)
        spk = seg.speaker
        debut_block[spk] = min(debut_block.get(spk, 99), blk)
    late = max(debut_block.values())
    if late == 0:
        pytest.skip("fixture has no late speaker")
    late_slots = [s for b, acts in enumerate(result.activity) for s in acts
                  if b < late and s > 0]
    n_early = len({s for s in late_slots})
    assert n_early < result.final_count
    # the late slot is inactive before its debut block
    last_slot = result.final_count  # slots are 1..final_count
    for b in range(late):
        assert last_slot not in result.activity[b]


def test_session_determinism():
    meeting = _fixture_meeting(seed=5)
    est1 = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    r1 = decode_session(meeting.mixture, est1, CFG, STFT)
    est2 = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    r2 = decode_session(meeting.mixture, est2, CFG, STFT)
    assert r1.final_count == r2.final_count
    for slot in r1.streams:
        assert np.array_equal(r1.streams[slot].samples, r2.streams[slot].samples)


def test_partial_tail_block_is_padded_and_trimmed():
    meeting = _fixture_meeting(seed=7, length=25.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    result = decode_session(meeting.mixture, est, CFG, STFT)
    assert len(result.per_block_counts) == 3
    assert result.streams[0].n_samples == meeting.mixture.n_samples


def test_exact_blocks_no_extra_block():
    meeting = _fixture_meeting(seed=9, length=30.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    result = decode_session(meeting.mixture, est, CFG, STFT)
    assert len(result.per_block_counts) == 3


class FaultInjectionEstimator:
    """Oracle wrapper that splits one speaker into two from a given block.

    At ``split_block`` the victim speaker's mask is returned only partially,
    leaving enough residual for the decoder to probe; the probe then receives
    the remainder under a fresh embedding, creating a spurious speaker.  When
    decoding revisits earlier blocks (indices below ``split_block``), the
    spurious embedding maps to the victim's full mask there, so a consistency
    check sees the "new" speaker as retroactively present and rejects it.
    """

    def __init__(self, inner: OracleMaskEstimator, split_block: int,
                 victim: str | None = None, first_fraction: float = 0.45):
        self.inner = inner
        self.split_block = split_block
        self.first_fraction = first_fraction
        if victim is None:
            irms = inner.blocks[split_block].irms
            means = {s: m.mean for s, m in irms.items()}
            victim = max(sorted(means), key=lambda s: means[s])
        self.victim = victim
        self.spurious_embedding = speaker_embedding(f"__split_{victim}__",
                                                    inner.embed_dim)
        self._block = 0
        self._spur_emitted = set()

    @property
    def embed_dim(self):
        return self.inner.embed_dim

    def begin_block(self, index: int, features):
        self._block = index
        return self.inner.begin_block(index, features)

    def enter_block(self, handle):
        self._block = handle
        self.inner.enter_block(handle)

    def _is_spurious(self, z):
        return (not is_zero_embedding(z)
                and float(np.dot(z, self.spurious_embedding)) > 0.7)

    def _is_victim(self, z):
        return (not is_zero_embedding(z)
                and float(np.dot(z, self.inner.embeddings[self.victim])) > 0.7)

    def estimate(self, residual, z_prev):
        b = self._block
        victim = self.inner.blocks[b].irms.get(self.victim)
        victim_irm = None if victim is None else victim.values
        if self._is_spurious(z_prev):
            self.inner._calls += 1
            if b < self.split_block:
                # consistency re-decode path: the spurious speaker "was there"
                return check_mask(victim_irm.copy()), self.spurious_embedding.copy()
            return (check_mask((1.0 - self.first_fraction) * victim_irm),
                    self.spurious_embedding.copy())
        if b >= self.split_block and victim_irm is not None:
            if self._is_victim(z_prev):
                self.inner._calls += 1
                self.inner._emitted.add(self.victim)
                return (check_mask(self.first_fraction * victim_irm),
                        self.inner.embeddings[self.victim].copy())
            if (is_zero_embedding(z_prev) and self.inner._calls > 0
                    and self.victim in self.inner._emitted
                    and b not in self._spur_emitted):
                self.inner._calls += 1
                self._spur_emitted.add(b)
                return (check_mask((1.0 - self.first_fraction) * victim_irm),
                        self.spurious_embedding.copy())
        return self.inner.estimate(residual, z_prev)


def _two_speaker_constructed(seed, length=40.0):
    # high SNR keeps both speakers' residual shares well above t_resmask, so
    # the decode finds them in block 0 and only the injected split is at play
    pool = make_pool(2, seed=4)
    segs = [Segment(pool[0].speaker_id, 0.0, length),
            Segment(pool[1].speaker_id, 0.0, length)]
    sc = MeetingScenario(
        profile="B", length_s=length, segments=segs, snr_db=30.0, rt60_s=0.3,
        mic_delays={pool[0].speaker_id: -2.0, pool[1].speaker_id: 1.5},
        seed=seed, sources=list(pool),
    )
    return render(sc)


@pytest.mark.parametrize("split_block", [1, 2])
def test_fault_injection_consistency_check(split_block):
    meeting = _two_speaker_constructed(seed=split_block)
    oracle = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    faulty = FaultInjectionEstimator(oracle, split_block=split_block)
    cfg_off = DecoderConfig(consistency_check=False)
    r_off = decode_session(meeting.mixture, faulty, cfg_off, STFT)
    assert r_off.final_count == 3  # spurious speaker accepted

    oracle2 = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    faulty2 = FaultInjectionEstimator(oracle2, split_block=split_block)
    cfg_on = DecoderConfig(consistency_check=True)
    r_on = decode_session(meeting.mixture, faulty2, cfg_on, STFT)
    assert r_on.final_count == 2  # rejected and restored
    assert (split_block, False) in r_on.consistency_log


def test_estimator_failure_carries_block_context():
    class Exploding:
        embed_dim = 8

        def begin_block(self, index, features):
            pass

        def enter_block(self, handle):
            raise RuntimeError("boom")

        def estimate(self, residual, z_prev):
            raise RuntimeError("boom")

    state = new_session_state(8)
    with pytest.raises(RuntimeError, match="block 0"):
        decode_block(_flat_features(), state, Exploding(), CFG)

    # block preparation fails in begin_block: a network for 5 bins given
    # features of F = 10 bins
    wrong_bins = MaskNet(init_params(bins=5, embed_dim=8, hidden=3, proj=4))
    with pytest.raises(RuntimeError, match="block 0, begin_block"):
        decode_block(_flat_features(), new_session_state(8), wrong_bins, CFG)
    # a consistency re-decode fails in enter_block, or in an estimate: the
    # 5-bin network re-enters blocks a 10-bin network decoded
    state, result = _scripted_state(speaker_embedding("newbie", 8))
    with pytest.raises(RuntimeError, match="block 0, enter_block"):
        consistency_check(state, result, Exploding(), CFG)
    state = new_session_state(8)
    net = MaskNet(init_params(bins=F, embed_dim=8, hidden=3, proj=4))
    state.commit(decode_block(_flat_features(), state, net, CFG), True)
    result = decode_block(_flat_features(), state, net, CFG)
    with pytest.raises(RuntimeError, match="block 0, iteration 1: matmul"):
        consistency_check(state, result, wrong_bins, CFG)


def _same_state(state, other):
    return (state.iteration_counts == other.iteration_counts
            and len(state.cache) == len(other.cache)
            and all(np.array_equal(h, g) for h, g in zip(state.cache, other.cache))
            and len(state.embeddings) == len(other.embeddings)
            and all(np.array_equal(z, w) for z, w in zip(state.embeddings,
                                                         other.embeddings)))


def test_decode_block_and_consistency_check_only_read_the_state():
    # speaker b debuts in block 1, so its check re-decodes block 0
    meeting = _fixture_meeting(seed=0, length=30.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    session = Session(est, CFG, STFT, meeting.mixture.sample_rate)
    cut = blocks(meeting.mixture.samples, session.block_n)
    session.push(next(cut))
    state = session.state
    before = copy.deepcopy(state)
    result = decode_block(block_features(next(cut), STFT), state, est, CFG)
    assert result.new_slots and _same_state(state, before)
    consistency_check(state, result, est, CFG)
    assert _same_state(state, before)


class _FailsOnce:
    """Passes every call on to ``inner``, but the ``nth`` call of ``method``
    raises instead."""

    def __init__(self, inner, method, nth):
        self.inner, self.method, self.calls_left = inner, method, nth

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name != self.method:
            return attr

        def call(*args):
            self.calls_left -= 1
            if self.calls_left == 0:
                raise RuntimeError("injected failure")
            return attr(*args)

        return call


def _pushed_retrying(mixture, estimator, cfg, stft_cfg):
    """Like :func:`_pushed`, but a push that raises is made once more:
    (the errors, each block's output, the session)."""
    session = Session(estimator, cfg, stft_cfg, mixture.sample_rate)
    errors, outputs = [], []
    for block in blocks(mixture.samples, session.block_n):
        try:
            outputs.append(session.push(block))
        except RuntimeError as exc:
            errors.append(str(exc))
            outputs.append(session.push(block))
    return errors, outputs, session


def _assert_same_pushes(outputs, session, clean_outputs, clean):
    """The same masks, chunks, state, activity and consistency log."""
    for out, ref in zip(outputs, clean_outputs, strict=True):
        assert sorted(out.masks) == sorted(ref.masks)
        for slot, mask in ref.masks.items():
            assert np.array_equal(out.masks[slot].values, mask.values)
        assert out.active == ref.active
        for slot in ref.active:
            assert out.chunk(slot).tobytes() == ref.chunk(slot).tobytes()
    assert _same_state(session.state, clean.state)
    assert session.activity == clean.activity
    assert session.consistency_log == clean.consistency_log


def test_push_retried_after_a_failed_estimate_equals_a_clean_push():
    # block 1 estimates the noise slot, then fails on slot 1: the retry must
    # not start from the noise embedding the failed attempt computed
    mixture = _noise_mixture(seconds=2.0)
    cfg = DecoderConfig(block_len_s=1.0)
    clean_outputs, clean = _pushed(mixture, _tiny_net(STFT), cfg, STFT)
    errors, outputs, session = _pushed_retrying(
        mixture, _FailsOnce(_tiny_net(STFT), "estimate", 4), cfg, STFT)
    assert errors == ["estimator failed in block 1, iteration 2: injected failure"]
    assert sorted(outputs[1].masks) == sorted(clean_outputs[1].masks) == [0, 1]
    _assert_same_pushes(outputs, session, clean_outputs, clean)


def test_push_retried_after_a_failed_consistency_check_equals_a_clean_push():
    # the check of speaker b's debut in block 1 fails re-entering block 0
    meeting = _fixture_meeting(seed=0, length=30.0)

    def oracle():
        return OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)

    clean_outputs, clean = _pushed(meeting.mixture, oracle(), CFG, STFT)
    errors, outputs, session = _pushed_retrying(
        meeting.mixture, _FailsOnce(oracle(), "enter_block", 1), CFG, STFT)
    assert errors == ["estimator failed in block 0, enter_block: injected failure"]
    assert (1, True) in clean.consistency_log
    _assert_same_pushes(outputs, session, clean_outputs, clean)


def _noise_mixture(seconds=1.0, fs=8000):
    rng = np.random.default_rng(0)
    return AudioSignal(fs, 0.1 * rng.normal(size=(2, int(seconds * fs))))


def _tiny_net(stft_cfg=None):
    return MaskNet(init_params(bins=129, embed_dim=4, hidden=3, proj=4,
                               stft_cfg=stft_cfg))


def test_decode_rejects_model_with_other_stft():
    # STFT (hop 128, the training default) and the decoder default (hop 64)
    # both give 129 bins: only the model's recorded settings tell them apart
    with pytest.raises(ValueError, match="'hop': 128.*'hop': 64"):
        decode_session(_noise_mixture(), _tiny_net(STFT), CFG, StftConfig())


def test_decode_accepts_matching_or_unrecorded_model_stft():
    mixture = _noise_mixture()
    matching = decode_session(mixture, _tiny_net(STFT), CFG, STFT)
    unrecorded = decode_session(mixture, _tiny_net(), CFG, STFT)
    assert matching.final_count == unrecorded.final_count
    assert sorted(matching.streams) == sorted(unrecorded.streams)
    for slot, sig in matching.streams.items():
        assert np.array_equal(sig.samples, unrecorded.streams[slot].samples)


def _count_calls(monkeypatch, name):
    """Count the calls of ``decoding.<name>``, a name the decoder resolves at
    call time."""
    calls = []
    inner = getattr(decoding, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoding, name, counted)
    return calls


@pytest.mark.parametrize("kind, stfts, ipds", [("oracle", 1, 0), ("net", 2, 1)])
def test_decode_computes_the_ipd_only_for_an_estimator_that_reads_it(
        monkeypatch, kind, stfts, ipds):
    # the oracle reads no features, so no block runs the second channel's
    # STFT, the IPD or |X|; a network reads each once per block, re-decodes
    # none, and the features keep neither past its begin_block
    meeting = _fixture_meeting(seed=0, length=30.0)
    est = (OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
           if kind == "oracle" else _tiny_net(STFT))
    stft_calls, ipd_calls = (_count_calls(monkeypatch, name) for name in ("stft", "ipd"))
    computed = []
    inner = decoding.decode_block

    def recorded(features, *args):
        result = inner(features, *args)
        computed.append(sorted({"mag", "ipd"} & set(features.__dict__)))
        return result

    monkeypatch.setattr(decoding, "decode_block", recorded)
    result = decode_session(meeting.mixture, est, CFG, STFT)
    n_blocks = len(result.activity)
    assert n_blocks == 3
    assert (len(stft_calls), len(ipd_calls)) == (stfts * n_blocks, ipds * n_blocks)
    assert computed == [[]] * n_blocks


def test_block_features_mag_is_computed_on_each_read_and_not_kept():
    block = np.random.default_rng(4).normal(size=(2, 4000))
    feats = block_features(block, STFT)
    first = feats.mag
    second = feats.mag
    assert second is not first and "mag" not in feats.__dict__
    assert first.tobytes() == second.tobytes() == np.abs(stft(block[0], STFT)).tobytes()


def test_block_features_ipd_is_computed_on_each_read_and_not_kept(monkeypatch):
    block = np.random.default_rng(3).normal(size=(2, 4000))
    ipd_calls = _count_calls(monkeypatch, "ipd")
    feats = block_features(block, STFT)
    assert ipd_calls == []
    first = feats.ipd
    second = feats.ipd
    assert second is not first and len(ipd_calls) == 2
    assert "ipd" not in feats.__dict__
    spec = stft(block[0], STFT)
    expected = ipd(spec, stft(block[1], STFT))
    for got in (first, second):
        assert got.cos.tobytes() == expected.cos.tobytes()
        assert got.sin.tobytes() == expected.sin.tobytes()
    assert np.array_equal(feats.spec, spec)


class _CountingEstimator:
    embed_dim = 4

    def __init__(self):
        self.blocks = []

    def begin_block(self, index, features):
        self.blocks.append(index)


@pytest.mark.parametrize("block_len_s, block_n", [(0.02, 160), (1e-5, 0)])
def test_decode_rejects_block_shorter_than_stft_window(block_len_s, block_n):
    # the error names both lengths before any block reaches the estimator
    est = _CountingEstimator()
    with pytest.raises(ValueError, match=f"block of {block_n} samples .* 256-sample"):
        decode_session(_noise_mixture(), est, DecoderConfig(block_len_s=block_len_s),
                       StftConfig())
    assert est.blocks == []


@pytest.mark.parametrize("name, value", [("sample_rate", 8000.5), ("sample_rate", 0),
                                         ("sample_rate", np.nan), ("sample_rate", True)])
def test_session_rejects_a_rate_or_length_that_is_no_whole_number(name, value):
    # a rate of 8000.5 once decoded every block and failed at the end
    est = _CountingEstimator()
    with pytest.raises(ValueError, match=f"{name} must be a positive whole number"):
        Session(est, DecoderConfig(block_len_s=1.0), STFT, **{name: value})
    assert est.blocks == []


def test_session_takes_a_whole_float_rate():
    session = Session(_HalfMasks(), DecoderConfig(block_len_s=1.0), STFT, 8000.0)
    assert session.block_n == 8000 and isinstance(session.block_n, int)
    out = session.push(np.zeros((2, 8000)))
    assert out.chunk(1).shape == (8000,)


def test_a_chunk_is_zero_padded_where_the_frames_stop_short_of_the_block_end():
    # 8000-sample blocks under a 128-sample hop: 61 frames reach sample 7936
    session = Session(_HalfMasks(), DecoderConfig(block_len_s=1.0), STFT, 8000)
    block = _noise_mixture(seconds=1.0).samples
    out = session.push(block)
    synthesized = istft(apply_mask(out.masks[1], stft(block[0], STFT)), STFT)
    chunk = out.chunk(1)
    assert synthesized.size == 7936 and chunk.shape == (8000,)
    assert chunk[:7936].tobytes() == synthesized.tobytes()
    assert not chunk[7936:].any()


def test_decode_rejects_a_mixture_shorter_than_one_stft_window():
    est = _CountingEstimator()
    with pytest.raises(ValueError, match="input too short"):
        decode_session(AudioSignal(8000, np.zeros((2, 255))), est,
                       DecoderConfig(block_len_s=1.0), STFT)
    assert est.blocks == []


def test_session_rejects_stft_violating_overlap_add():
    # a hop of 96 under a 256-sample sqrt-Hann window: the iSTFT of the
    # first block's chunks would fail after the block was decoded
    est = _CountingEstimator()
    with pytest.raises(ValueError, match="violates overlap-add"):
        decode_session(_noise_mixture(), est, DecoderConfig(block_len_s=1.0),
                       StftConfig(256, 96))
    assert est.blocks == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_mixture(bad):
    mixture = _noise_mixture(seconds=2.0)
    mixture.samples[1, 12345] = bad
    est = _CountingEstimator()
    with pytest.raises(ValueError, match="NaN or infinite"):
        decode_session(mixture, est, CFG, STFT)
    assert est.blocks == []


class BlockScriptedEstimator:
    """Speakers revealed by zero-embedding probes in a scripted order per
    block, at flat mask levels; a known speaker's embedding drifts from
    block to block, as a network's does."""

    embed_dim = 8

    def __init__(self, levels, probes):
        self.levels = levels  # per block: {speaker: flat mask level}
        self.probes = probes  # per block: speakers in zero-probe order
        self.base = {s: speaker_embedding(s, 8) for b in levels for s in b}

    def embedding(self, speaker, block):
        z = self.base[speaker] + 0.1 * block * np.eye(8)[0]
        return z / np.linalg.norm(z)

    def begin_block(self, index, features):
        self.enter_block(index)
        return index

    def enter_block(self, handle):
        self._block, self._calls, self._left = handle, 0, list(self.probes[handle])

    def estimate(self, residual, z_prev):
        b = self._block
        self._calls += 1
        if self._calls == 1:
            return check_mask(np.full_like(residual, 0.3)), speaker_embedding("noise", 8)
        if is_zero_embedding(z_prev):
            spk = self._left.pop(0)
        else:
            spk = max(self.base, key=lambda s: float(np.dot(z_prev, self.base[s])))
        return (check_mask(np.full_like(residual, self.levels[b].get(spk, 0.0))),
                self.embedding(spk, b))


def test_rejected_increase_restores_pre_block_embeddings():
    # block 0 finds "a"; block 1 probes "b", but "b" is present in block 0,
    # so the consistency check rejects the increase at block 1
    est = BlockScriptedEstimator(levels=[{"a": 0.6, "b": 0.3}, {"a": 0.4, "b": 0.3}],
                                 probes=[["a"], ["b"]])
    cfg = DecoderConfig(block_len_s=1.0)
    fs = 8000
    mixture = AudioSignal(fs, np.random.default_rng(0).normal(size=(2, 2 * fs)))
    outputs, session = _pushed(mixture, est, cfg, STFT)
    state = session.state
    assert session.consistency_log == [(1, False)]
    assert [out.accepted for out in outputs] == [None, False]
    assert state.speaker_count == 1
    # the known slot keeps its embedding from before block 1, not block 1's
    assert not np.allclose(est.embedding("a", 1), est.embedding("a", 0))
    assert np.array_equal(state.embeddings[1], est.embedding("a", 0))
    assert sorted(outputs[1].masks) == [0, 1]  # no new slot
    assert outputs[1].active == [0, 1]
    with pytest.raises(KeyError):
        outputs[1].chunk(2)
    assert state.iteration_counts == [2, 3]  # block 1 counts the rejected probe


def test_a_speaker_rejected_once_is_locked_out_of_every_later_block():
    # "b" talks in all 3 blocks but block 0's probe loop misses it; its
    # re-decoded mask in block 0 (0.3) reaches t_resmask, so block 1 rejects
    # it, and block 2 re-decodes both block 0 and block 1, where it is
    # present too, and rejects it again: it never gets a slot
    levels = [{"a": 0.6, "b": 0.3}, {"a": 0.4, "b": 0.3}, {"a": 0.4, "b": 0.3}]
    est = BlockScriptedEstimator(levels=levels, probes=[["a"], ["b"], ["b"]])
    cfg = DecoderConfig(block_len_s=1.0)
    assert levels[0]["b"] >= cfg.t_resmask
    fs = 8000
    mixture = AudioSignal(fs, np.random.default_rng(0).normal(size=(2, 3 * fs)))
    outputs, session = _pushed(mixture, est, cfg, STFT)
    assert session.consistency_log == [(1, False), (2, False)]
    assert [out.accepted for out in outputs] == [None, False, False]
    assert [sorted(out.masks) for out in outputs] == [[0, 1]] * 3
    assert session.activity == [[0, 1]] * 3


def _pushed(mixture, estimator, cfg, stft_cfg):
    """Push a mixture block by block: (each push's output, the session)."""
    session = Session(estimator, cfg, stft_cfg, mixture.sample_rate)
    outputs = [session.push(block) for block in blocks(mixture.samples, session.block_n)]
    return outputs, session


def test_pushed_chunks_concatenate_to_the_session_streams():
    # 25 s: the last block is partial; slots open in blocks 0, 1 and 2
    meeting = _fixture_meeting(seed=7, length=25.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    outputs, session = _pushed(meeting.mixture, est, CFG, STFT)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    result = decode_session(meeting.mixture, est, CFG, STFT)
    n, block_n = meeting.mixture.n_samples, session.block_n
    assert sorted(result.streams) == [0, 1, 2, 3]
    for slot, sig in result.streams.items():
        # a slot has no chunk before it opens: its stream is silent there
        parts = [out.chunk(slot) if slot in out.masks else np.zeros(block_n)
                 for out in outputs]
        assert all(part.shape == (block_n,) for part in parts)
        assert np.array_equal(np.concatenate(parts)[:n], sig.channel(0))
    assert result.activity == session.activity
    assert result.activity == [sorted(slot for slot, m in out.masks.items()
                                      if m.values.mean() >= CFG.t_silent) for out in outputs]
    assert [out.active for out in outputs] == result.activity


def test_session_synthesizes_only_active_slots(monkeypatch):
    # 40 s: speaker slot 1 is silent in block 2, slot 2 in block 3
    meeting = _fixture_meeting(seed=0, length=40.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    outputs, _ = _pushed(meeting.mixture, est, CFG, STFT)
    istft_calls = _count_calls(monkeypatch, "istft")
    result = decode_session(meeting.mixture, est, CFG, STFT)
    assert len(istft_calls) == sum(len(active) for active in result.activity) == 11
    silent = [(b, slot) for b, out in enumerate(outputs) for slot in out.masks
              if slot not in result.activity[b]]
    assert silent == [(2, 1), (3, 2)]
    for b, slot in silent:
        assert not outputs[b].masks[slot].values.any()
    # the reference synthesizes every slot of every block
    mixture = meeting.mixture
    n, block_n = mixture.n_samples, block_samples(CFG.block_len_s, mixture.sample_rate)
    streams = {}
    for b, (out, block) in enumerate(zip(outputs, blocks(mixture.samples, block_n),
                                         strict=True)):
        start, stop = b * block_n, min((b + 1) * block_n, n)
        spec = stft(block[0], STFT)
        for slot, mask in out.masks.items():
            stream = streams.setdefault(slot, np.zeros(n))
            rec = istft(apply_mask(mask, spec), STFT)[: stop - start]
            stream[start:start + rec.size] = rec
            assert out.chunk(slot)[: stop - start].tobytes() == stream[start:stop].tobytes()
    assert sorted(streams) == sorted(result.streams)
    for slot, samples in streams.items():
        assert result.streams[slot].channel(0).tobytes() == samples.tobytes()


def _half_mask_pushes(n_blocks):
    """A session of ``n_blocks`` pushes of one block of noise, each decoded
    into the noise slot and one speaker slot, and the last push's output."""
    session = Session(_HalfMasks(), DecoderConfig(block_len_s=1.0), STFT, 8000)
    block = _noise_mixture(seconds=1.0).samples
    for _ in range(n_blocks):
        out = session.push(block)
    return session, out


def test_a_written_chunk_changes_neither_a_second_call_nor_the_streams(monkeypatch):
    # chunks were once views into the streams a session kept: writing 7.0
    # into one turned the first samples of its slot's stream into 7.0
    _, out = _half_mask_pushes(1)
    first = out.chunk(1)
    expected = first.tobytes()
    first[:] = 7.0
    assert out.chunk(1).tobytes() == expected

    mixture = _noise_mixture(seconds=2.5)
    clean = decode_session(mixture, _HalfMasks(), DecoderConfig(block_len_s=1.0), STFT)
    handed_out = []
    chunk = decoding.BlockOutput.chunk

    def recorded(self, slot):
        handed_out.append(chunk(self, slot))
        return handed_out[-1]

    monkeypatch.setattr(decoding.BlockOutput, "chunk", recorded)
    result = decode_session(mixture, _HalfMasks(), DecoderConfig(block_len_s=1.0), STFT)
    assert len(handed_out) == 6
    for samples in handed_out:
        samples[:] = 7.0
    assert sorted(result.streams) == sorted(clean.streams) == [0, 1]
    for slot, sig in clean.streams.items():
        assert result.streams[slot].samples.tobytes() == sig.samples.tobytes()


def _retained_bytes_besides_handles(n_blocks):
    """Traced memory that a session of ``n_blocks`` pushes retains, less its
    handles' arrays."""
    tracemalloc.start()
    try:
        session, out = _half_mask_pushes(n_blocks)
        del out
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert session.state.n_blocks == len(session.activity) == n_blocks
    return retained - sum(np.asarray(h).nbytes for h in session.state.cache)


def test_session_memory_besides_handles_does_not_grow_with_pushes():
    # a session once kept a full-length float64 stream per slot: 60 s of
    # two slots held 7.7 MB, 600 s 77 MB
    _half_mask_pushes(2)  # warm up numpy's caches
    short, long = (_retained_bytes_besides_handles(seconds) for seconds in (60, 600))
    assert abs(long - short) < 1e6  # a few hundred bytes of bookkeeping per block


def test_finished_session_keeps_no_block_handles():
    meeting = _fixture_meeting(seed=0, length=30.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    result = decode_session(meeting.mixture, est, CFG, STFT)
    assert result.state.cache == []
    assert result.state.n_blocks == 3


@pytest.mark.parametrize("shape", [(2, 4000), (2, 12000), (3, 8000), (1, 8000), (8000,)])
def test_push_rejects_block_of_another_shape(shape):
    # a short block once set the session's block shape, a long one lost its
    # tail, a mono one died with an IndexError
    est = _CountingEstimator()
    session = Session(est, DecoderConfig(block_len_s=1.0), STFT, 8000)
    with pytest.raises(ValueError, match=r"block 0 has shape .*, not \(2, 8000\)"):
        session.push(np.zeros(shape))
    assert est.blocks == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_push_rejects_non_finite_block(bad):
    est = _CountingEstimator()
    session = Session(est, DecoderConfig(block_len_s=1.0), STFT, 8000)
    block = np.zeros((2, 8000))
    block[0, 77] = bad
    with pytest.raises(ValueError, match="block 0 holds a NaN or infinite sample"):
        session.push(block)
    assert est.blocks == []


@pytest.mark.parametrize("dtype", [np.complex128, np.bool_, "U3", object, "datetime64[s]"])
def test_push_rejects_a_complex_or_boolean_block(dtype):
    # a complex block once decoded its real part after a ComplexWarning, a
    # boolean one as 0 and 1, and a datetime64[s] one as seconds; strings
    # and objects raised numpy's TypeError from the finiteness check
    est = _CountingEstimator()
    session = Session(est, DecoderConfig(block_len_s=1.0), STFT, 8000)
    with pytest.raises(ValueError, match=re.escape(f"block 0 must be real numbers, "
                                                   f"not {np.dtype(dtype)}")):
        session.push(np.ones((2, 8000), dtype=dtype))
    assert est.blocks == []


class _BadProbeEstimator:
    """A noise mask, then ``bad(residual)`` as the first probe's mask and
    ``z`` as every embedding."""

    embed_dim = 4

    def __init__(self, bad=lambda residual: check_mask(np.full_like(residual, 0.5)),
                 z=np.full(4, 0.5)):
        self.bad, self.z = bad, z

    def begin_block(self, index, features):
        self.calls = 0
        return index

    def estimate(self, residual, z_prev):
        self.calls += 1
        if self.calls == 1:
            return check_mask(np.full_like(residual, 0.3)), self.z
        return self.bad(residual), self.z


def _with_nan_bin(residual):
    mask = np.full_like(residual, 0.5)
    mask[3, 7] = np.nan
    return check_mask(mask)


def _push_fails_before_the_block_joins(estimator, problem, iteration):
    session = Session(estimator, DecoderConfig(block_len_s=1.0), STFT, 8000)
    with pytest.raises(RuntimeError, match=f"block 0, iteration {iteration}: {problem}"):
        session.push(np.ones((2, 8000)))
    assert session.state.n_blocks == 0
    assert session.activity == []


@pytest.mark.parametrize("bad, problem", [
    (lambda residual: np.full(residual.shape[1], 0.5), "mask of type ndarray, not CheckedMask"),
    (_with_nan_bin, "mask holds a NaN"),
    (lambda residual: check_mask(np.full(residual.shape[1], 0.5)),
     r"mask of shape \(129,\)"),
    (lambda residual: CheckedMask(np.full_like(residual, 0.5), 0.5),
     "checked mask with a writeable array"),
], ids=["one-frame-mask", "nan-bin", "one-frame-record", "writeable-record"])
def test_push_rejects_a_bad_mask_before_the_block_joins(bad, problem):
    # a (F,) mask once broadcast through the residual and failed in
    # apply_mask after the state was written; a NaN bin gave a NaN stream.
    # Only a record is a mask, and its mean is taken unchecked, so its array
    # must stay as checked
    _push_fails_before_the_block_joins(_BadProbeEstimator(bad), problem, 2)


@pytest.mark.parametrize("z", [np.array([0.5, np.nan, 0.5, 0.5]), np.full(4, np.inf),
                               np.full(5, 0.5), np.full((1, 4), 0.5)],
                         ids=["nan", "inf", "five", "row"])
def test_push_rejects_a_bad_embedding_before_the_block_joins(z):
    # a NaN embedding once joined the session silently; a (5,) one returned
    # by block 0 failed only in block 1, and the error named block 1
    problem = re.escape(f"embedding of shape {z.shape} is not a finite (4,) vector")
    _push_fails_before_the_block_joins(_BadProbeEstimator(z=z), problem, 1)


class _BareMasks:
    """Oracle wrapper that hands out each record's bare array."""

    def __init__(self, inner):
        self.inner = inner
        self.embed_dim = inner.embed_dim

    def begin_block(self, index, features):
        return self.inner.begin_block(index, features)

    def estimate(self, residual, z_prev):
        mask, z = self.inner.estimate(residual, z_prev)
        return mask.values, z


def test_an_oracle_decode_checks_no_mask_and_a_bare_mask_is_rejected(monkeypatch):
    # the oracle's records were checked at set-up, so a decode, re-decodes
    # included, checks no mask; a bare array is no record, whatever it holds
    meeting = _fixture_meeting(seed=0, length=30.0)
    records = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    bare = _BareMasks(OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s))
    checks = []
    check = estimators.check_mask
    monkeypatch.setattr(estimators, "check_mask",
                        lambda mask: checks.append(mask) or check(mask))
    result = decode_session(meeting.mixture, records, CFG, STFT)
    assert result.consistency_log == [(1, True), (2, True)]
    assert checks == []
    with pytest.raises(RuntimeError, match="block 0, iteration 1: mask of type ndarray"):
        decode_session(meeting.mixture, bare, CFG, STFT)


class _ResidualRecorder:
    """Oracle wrapper whose masks are the oracle's times 1.3, capped at 1, so
    that the residual step clips at 0; it records, per block pass, a copy of
    every residual it is passed and the mask it returned for it."""

    def __init__(self, inner):
        self.inner = inner
        self.embed_dim = inner.embed_dim
        self.passes = []  # (kind, [(residual, mask), ...]); kind: decode or redecode

    def begin_block(self, index, features):
        self.passes.append(("decode", []))
        return self.inner.begin_block(index, features)

    def enter_block(self, handle):
        self.passes.append(("redecode", []))
        self.inner.enter_block(handle)

    def estimate(self, residual, z_prev):
        mask, z = self.inner.estimate(residual, z_prev)
        mask = np.minimum(1.3 * mask.values, 1.0)
        self.passes[-1][1].append((residual.copy(), mask))
        return check_mask(mask), z


def test_every_loop_updates_the_residual_as_clip_of_residual_minus_mask():
    # a and b talk from the start and c from 10 s: block 0 opens a and b in
    # the probe loop; block 1 runs a and b in the known-slot loop, probes c
    # and re-decodes block 0 in its consistency check
    pool = make_pool(3, seed=2)
    a, b, c = (spec.speaker_id for spec in pool)
    sc = MeetingScenario(
        profile="B", length_s=20.0, segments=[Segment(a, 0.0, 20.0), Segment(b, 0.0, 20.0),
                                              Segment(c, 10.0, 20.0)],
        snr_db=30.0, rt60_s=0.3, mic_delays={a: -2.5, b: 0.5, c: 3.0}, seed=0,
        sources=list(pool))
    meeting = render(sc)
    est = _ResidualRecorder(OracleMaskEstimator.from_rendered(meeting, STFT,
                                                              CFG.block_len_s))
    session = Session(est, CFG, STFT, meeting.mixture.sample_rate)
    clipped = {"known": 0, "probe": 0, "redecode": 0}  # steps that clipped at 0
    for block in blocks(meeting.mixture.samples, session.block_n):
        n_known, first_pass = len(session.state.embeddings), len(est.passes)
        session.push(block)
        for kind, calls in est.passes[first_pass:]:
            assert calls[0][0].tobytes() == np.ones(calls[0][0].shape).tobytes()
            for i, ((residual, mask), (passed, _)) in enumerate(zip(calls, calls[1:])):
                if mask.mean() < CFG.t_silent:
                    assert passed.tobytes() == residual.tobytes()
                    continue
                assert passed.tobytes() == np.clip(residual - mask, 0.0, 1.0).tobytes()
                loop = kind if kind == "redecode" else "probe" if i >= n_known else "known"
                clipped[loop] += bool((residual - mask < 0).any())
    assert session.consistency_log == [(1, True)]
    assert all(clipped.values()), clipped


@pytest.mark.parametrize("seed", range(4))
def test_subtract_mask_equals_the_clip_bytewise(seed):
    # the step applies only the floor; with R in [+0, 1] and M in [0, 1],
    # -0.0 bins included, that is np.clip(R - M, 0, 1) byte for byte
    rng = np.random.default_rng(seed)
    shape = (40, 17)
    residual = rng.uniform(0.0, 1.0, shape)
    residual[rng.random(shape) < 0.2] = 0.0
    residual[rng.random(shape) < 0.2] = 1.0
    for _ in range(5):
        mask = rng.uniform(0.0, 1.0, shape)
        for value in (0.0, 1.0, -0.0):
            mask[rng.random(shape) < 0.15] = value
        mask[residual == 0.0] = -0.0  # +0 - (-0) is +0
        expected = np.clip(residual - mask, 0.0, 1.0)
        decoding._subtract_mask(residual, mask)
        assert residual.tobytes() == expected.tobytes()
        assert (residual == 0.0).any() and not np.signbit(residual).any()


@pytest.mark.parametrize("bins", [(-0.5, 1.5, np.inf), (-0.5,), (1.5,), (np.inf,)])
def test_a_mask_outside_0_1_is_clipped_and_the_residual_stays_in_it(bins):
    class OutOfRange:
        embed_dim = 4

        def begin_block(self, index, features):
            self.residuals = []
            return index

        def estimate(self, residual, z_prev):
            self.residuals.append(residual.copy())
            if len(self.residuals) == 1:
                return check_mask(np.full_like(residual, 0.3)), np.full(4, 0.5)
            if len(self.residuals) == 3:  # silent: ends the block
                return check_mask(np.zeros_like(residual)), np.full(4, 0.5)
            mask = np.full_like(residual, 0.3)
            mask[0, :len(bins)] = bins
            return check_mask(mask), np.full(4, 0.5)

    est = OutOfRange()
    session = Session(est, DecoderConfig(block_len_s=1.0), STFT, 8000)
    out = session.push(np.ones((2, 8000)))
    probe = out.masks[1].values
    assert probe[0, :len(bins)].tolist() == [min(max(v, 0.0), 1.0) for v in bins]
    assert probe.min() >= 0.0 and probe.max() <= 1.0
    residual = est.residuals[2]
    assert residual.min() >= 0.0 and residual.max() <= 1.0
    assert residual.tobytes() == np.clip(0.7 - probe, 0.0, 1.0).tobytes()


def test_an_oracle_decode_cannot_write_ground_truth():
    meeting = _fixture_meeting(seed=0, length=40.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    first = decode_session(meeting.mixture, est, CFG, STFT)
    outputs, _ = _pushed(meeting.mixture, est, CFG, STFT)
    # a push hands out the oracle's own arrays, silent slots included
    assert any(not mask.values.any() for out in outputs for mask in out.masks.values())
    for out in outputs:
        for mask in out.masks.values():
            with pytest.raises(ValueError, match="read-only"):
                mask.values[0, 0] = 0.5
    second = decode_session(meeting.mixture, est, CFG, STFT)
    assert sorted(second.streams) == sorted(first.streams)
    for slot, sig in first.streams.items():
        assert second.streams[slot].samples.tobytes() == sig.samples.tobytes()


def _retained_bytes_besides_streams(mixture, net):
    tracemalloc.start()
    try:
        result = decode_session(mixture, net, CFG, STFT)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained - sum(sig.samples.nbytes for sig in result.streams.values())


def test_session_memory_besides_streams_does_not_grow_with_length():
    # the streams are the output; everything else a decode keeps (a
    # handle per past block while it runs, nothing once it ends) must not
    # grow with the session: a 120 s session once kept 77 MB of features
    net = _tiny_net(STFT)
    mixtures = [_noise_mixture(seconds) for seconds in (30.0, 120.0)]
    decode_session(_noise_mixture(), net, CFG, STFT)  # warm up numpy's caches
    short, long = (_retained_bytes_besides_streams(m, net) for m in mixtures)
    assert abs(long - short) < 1e6


def test_a_network_push_holds_its_block_working_set_once():
    # what a default-size float32 network decode holds above its result is
    # one push's working set: 8.4 one-block (T, F) float64 arrays.  It was
    # 12.5 while the block's |X| and IPD stayed alive to the end of the push
    # and the STFT, iSTFT and forward held more temporaries; the bound
    # leaves 1.6 arrays (2.1 MB) of margin
    stft_cfg = StftConfig()
    net = MaskNet(init_params(stft_cfg.n_bins, stft_cfg=stft_cfg))
    meeting = _fixture_meeting(seed=0, length=30.0)
    decode_session(meeting.mixture, net, CFG, stft_cfg)  # warm up numpy's caches
    tracemalloc.start()
    try:
        result = decode_session(meeting.mixture, net, CFG, stft_cfg)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.activity) == 3
    block_n = block_samples(CFG.block_len_s, meeting.mixture.sample_rate)
    block = np.zeros((frame_count(block_n, stft_cfg), stft_cfg.n_bins))
    assert block.shape == (1247, 129)
    assert peak - retained <= 10 * block.nbytes


class _HalfMasks:
    """Every mask is 0.5: each block runs the noise slot and one speaker slot."""

    embed_dim = 4

    def begin_block(self, index, features):
        return index

    def enter_block(self, handle):
        pass

    def estimate(self, residual, z_prev):
        return check_mask(np.full_like(residual, 0.5)), np.ones(self.embed_dim)


def _transient_bytes(mixture, estimator):
    """Traced peak minus retained memory of one decode, its result alive."""
    tracemalloc.start()
    try:
        result = decode_session(mixture, estimator, CFG, STFT)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(result.streams) == [0, 1]
    return peak - retained


def test_decode_session_transient_memory_does_not_grow_with_length():
    # a decode once cut the mixture into a zero-padded copy of the whole
    # session and kept it to the end: 16 MB above what it retains at 60 s,
    # 47 MB at 300 s
    est = _HalfMasks()
    decode_session(_noise_mixture(), est, CFG, STFT)  # warm up numpy's caches
    short, long = (_transient_bytes(_noise_mixture(seconds), est)
                   for seconds in (60.0, 300.0))
    assert abs(long - short) < 1e6


def _noise_and_one_speaker(seconds, fs=4000):
    """What ``build_train_sample`` reads of a rendered meeting: a two-channel
    mixture, and the noise and one random "speaker" (only their first
    channel is read)."""
    rng = np.random.default_rng(0)
    noise, speaker = 0.01 * rng.normal(size=(2, int(seconds * fs)))
    mixture = AudioSignal(fs, noise + 0.1 * rng.normal(size=(2, noise.size)))
    return SimpleNamespace(mixture=mixture, noise=AudioSignal(fs, noise),
                           references={"a": AudioSignal(fs, speaker)})


# few frames: the sample a build retains grows with its features, not with
# the signal copies the test is after
_FEW_FRAMES = StftConfig(256, 256, "rect")


def _train_sample_transient_bytes(rendered):
    """Traced peak minus retained memory of one build, its sample alive."""
    tracemalloc.start()
    try:
        sample = build_train_sample(rendered, _FEW_FRAMES, CFG.block_len_s)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sample.n_blocks == len(sample.truth)
    return peak - retained


def test_build_train_sample_transient_memory_does_not_grow_with_length():
    # a build once cut the mixture, the noise and each reference into
    # zero-padded copies of the whole signal, the mixture's kept to the end:
    # 5.0 MB above what it retains at 60 s, 20.4 MB at 300 s
    build_train_sample(_noise_and_one_speaker(20.0), _FEW_FRAMES, CFG.block_len_s)  # warm up
    meetings = [_noise_and_one_speaker(seconds) for seconds in (60.0, 300.0)]
    short, long = (_train_sample_transient_bytes(m) for m in meetings)
    assert abs(long - short) < 1e6


# Decodes a 20 s profile-A meeting with a fixed-seed float32 network of the
# default sizes, so that its products have the shapes of a real decode's,
# and prints a digest of each stream, in slot order.
_DECODE_DIGEST_SCRIPT = """
import hashlib
from blocksep.decoding import DecoderConfig, decode_session
from blocksep.dsp import StftConfig
from blocksep.estimators import MaskNet, init_params
from blocksep.simulate import make_pool, render, sample_scenario

stft_cfg = StftConfig(256, 128)
meeting = render(sample_scenario("A", 20.0, make_pool(4, seed=0), seed=1))
net = MaskNet(init_params(stft_cfg.n_bins, seed=7, stft_cfg=stft_cfg))
result = decode_session(meeting.mixture, net, DecoderConfig(), stft_cfg)
for slot, sig in sorted(result.streams.items()):
    print(slot, hashlib.sha256(sig.samples.tobytes()).hexdigest())
"""


def _decode_digests(blas_threads):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    proc = subprocess.run([sys.executable, "-c", _DECODE_DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_decode_streams_do_not_depend_on_the_blas_thread_count():
    # BLAS may split a product's rows across threads; a decode's streams
    # stay byte-equal at 1 and 2 threads (training's gradients do not)
    one, two = _decode_digests(1), _decode_digests(2)
    assert len(one) >= 2
    assert one == two
