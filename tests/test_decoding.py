import copy
import tracemalloc

import numpy as np
import pytest

from blocksep import decoding
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
from blocksep.dsp import (AudioSignal, IpdFeature, StftConfig, apply_mask, ipd, istft,
                          split_blocks, stft)
from blocksep.estimators import (
    MaskNet,
    OracleMaskEstimator,
    block_truth,
    init_params,
    is_zero_embedding,
    speaker_embedding,
)
from blocksep.metrics import block_speaker_counts
from blocksep.rttm import Segment
from blocksep.simulate import MeetingScenario, make_pool, render
from synthutil import GivenFeatures

T, F = 20, 10
CFG = DecoderConfig()


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
    for bad in (np.nan, 2.5):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            DecoderConfig(max_iterations=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            DecoderConfig(block_len_s=bad)


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
    noise_mask = result.masks[0]
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
        if mask.mean() >= CFG.t_silent:
            residual = np.clip(residual - mask, 0, 1)
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
    assert np.all(result.masks[1] == 0)
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
            return self.masks_by_block[self._block].copy(), self.new_z.copy()
        return np.zeros_like(residual), np.ones(self.embed_dim) / np.sqrt(8)


def _scripted_block(embeddings, new_z, index):
    """The decoded, uncommitted block ``index`` that opened a slot for
    ``new_z``; a scripted handle is the block index."""
    masks = {slot: np.zeros((T, F)) for slot in range(len(embeddings) + 1)}
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
            means = {s: float(m.mean()) for s, m in irms.items()}
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
        victim_irm = self.inner.blocks[b].irms.get(self.victim)
        if self._is_spurious(z_prev):
            self.inner._calls += 1
            if b < self.split_block:
                # consistency re-decode path: the spurious speaker "was there"
                return victim_irm.copy(), self.spurious_embedding.copy()
            return ((1.0 - self.first_fraction) * victim_irm,
                    self.spurious_embedding.copy())
        if b >= self.split_block and victim_irm is not None:
            if self._is_victim(z_prev):
                self.inner._calls += 1
                self.inner._emitted.add(self.victim)
                return (self.first_fraction * victim_irm,
                        self.inner.embeddings[self.victim].copy())
            if (is_zero_embedding(z_prev) and self.inner._calls > 0
                    and self.victim in self.inner._emitted
                    and b not in self._spur_emitted):
                self.inner._calls += 1
                self._spur_emitted.add(b)
                return ((1.0 - self.first_fraction) * victim_irm,
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
            and state.cache == other.cache
            and len(state.embeddings) == len(other.embeddings)
            and all(np.array_equal(z, w) for z, w in zip(state.embeddings,
                                                         other.embeddings)))


def test_decode_block_and_consistency_check_only_read_the_state():
    # speaker b debuts in block 1, so its check re-decodes block 0
    meeting = _fixture_meeting(seed=0, length=30.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    session = Session(est, CFG, STFT, meeting.mixture.sample_rate,
                      meeting.mixture.n_samples)
    blocks = split_blocks(meeting.mixture.samples, session.block_n)
    session.push(blocks[:, 0])
    state = session.state
    before = copy.deepcopy(state)
    result = decode_block(block_features(blocks[:, 1], STFT), state, est, CFG)
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
    (the errors, each block's output, the result)."""
    session = Session(estimator, cfg, stft_cfg, mixture.sample_rate, mixture.n_samples)
    blocks = split_blocks(mixture.samples, session.block_n)
    errors, outputs = [], []
    for b in range(blocks.shape[1]):
        try:
            outputs.append(session.push(blocks[:, b]))
        except RuntimeError as exc:
            errors.append(str(exc))
            outputs.append(session.push(blocks[:, b]))
    return errors, outputs, session.finish()


def _assert_same_decode(result, clean):
    assert sorted(result.streams) == sorted(clean.streams)
    for slot, sig in clean.streams.items():
        assert np.array_equal(result.streams[slot].samples, sig.samples)
    assert _same_state(result.state, clean.state)
    assert result.activity == clean.activity
    assert result.consistency_log == clean.consistency_log


def test_push_retried_after_a_failed_estimate_equals_a_clean_push():
    # block 1 estimates the noise slot, then fails on slot 1: the retry must
    # not start from the noise embedding the failed attempt computed
    mixture = _noise_mixture(seconds=2.0)
    cfg = DecoderConfig(block_len_s=1.0)
    clean_outputs, clean = _pushed(mixture, _tiny_net(STFT), cfg, STFT)
    errors, outputs, result = _pushed_retrying(
        mixture, _FailsOnce(_tiny_net(STFT), "estimate", 4), cfg, STFT)
    assert errors == ["estimator failed in block 1, iteration 2: injected failure"]
    assert sorted(outputs[1].masks) == sorted(clean_outputs[1].masks) == [0, 1]
    for slot, mask in clean_outputs[1].masks.items():
        assert np.array_equal(outputs[1].masks[slot], mask)
    _assert_same_decode(result, clean)


def test_push_retried_after_a_failed_consistency_check_equals_a_clean_push():
    # the check of speaker b's debut in block 1 fails re-entering block 0
    meeting = _fixture_meeting(seed=0, length=30.0)

    def oracle():
        return OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)

    _, clean = _pushed(meeting.mixture, oracle(), CFG, STFT)
    errors, _, result = _pushed_retrying(
        meeting.mixture, _FailsOnce(oracle(), "enter_block", 1), CFG, STFT)
    assert errors == ["estimator failed in block 0, enter_block: injected failure"]
    assert (1, True) in clean.consistency_log
    _assert_same_decode(result, clean)


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
    # STFT or the IPD; a network reads both once per block, re-decodes none
    meeting = _fixture_meeting(seed=0, length=30.0)
    est = (OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
           if kind == "oracle" else _tiny_net(STFT))
    stft_calls, ipd_calls = (_count_calls(monkeypatch, name) for name in ("stft", "ipd"))
    result = decode_session(meeting.mixture, est, CFG, STFT)
    n_blocks = len(result.activity)
    assert n_blocks == 3
    assert (len(stft_calls), len(ipd_calls)) == (stfts * n_blocks, ipds * n_blocks)


def test_block_features_ipd_is_computed_once_on_first_read(monkeypatch):
    block = np.random.default_rng(3).normal(size=(2, 4000))
    ipd_calls = _count_calls(monkeypatch, "ipd")
    feats = block_features(block, STFT)
    assert ipd_calls == []
    first = feats.ipd
    assert feats.ipd is first and len(ipd_calls) == 1
    spec = stft(block[0], STFT)
    expected = ipd(spec, stft(block[1], STFT))
    assert np.array_equal(first.cos, expected.cos)
    assert np.array_equal(first.sin, expected.sin)
    assert np.array_equal(feats.spec, spec)
    assert np.array_equal(feats.mag, np.abs(spec))


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
            return np.full_like(residual, 0.3), speaker_embedding("noise", 8)
        if is_zero_embedding(z_prev):
            spk = self._left.pop(0)
        else:
            spk = max(self.base, key=lambda s: float(np.dot(z_prev, self.base[s])))
        return (np.full_like(residual, self.levels[b].get(spk, 0.0)),
                self.embedding(spk, b))


def test_rejected_increase_restores_pre_block_embeddings():
    # block 0 finds "a"; block 1 probes "b", but "b" is present in block 0,
    # so the consistency check rejects the increase at block 1
    est = BlockScriptedEstimator(levels=[{"a": 0.6, "b": 0.3}, {"a": 0.4, "b": 0.3}],
                                 probes=[["a"], ["b"]])
    cfg = DecoderConfig(block_len_s=1.0)
    fs = 8000
    mixture = AudioSignal(fs, np.random.default_rng(0).normal(size=(2, 2 * fs)))
    outputs, result = _pushed(mixture, est, cfg, STFT)
    state = result.state
    assert result.consistency_log == [(1, False)]
    assert [out.accepted for out in outputs] == [None, False]
    assert result.final_count == 1
    # the known slot keeps its embedding from before block 1, not block 1's
    assert not np.allclose(est.embedding("a", 1), est.embedding("a", 0))
    assert np.array_equal(state.embeddings[1], est.embedding("a", 0))
    assert sorted(outputs[1].masks) == [0, 1]  # no new slot
    assert sorted(outputs[1].chunks) == [0, 1]
    assert state.iteration_counts == [2, 3]  # block 1 counts the rejected probe


def _pushed(mixture, estimator, cfg, stft_cfg):
    """Push a mixture block by block: (each push's output, the result)."""
    session = Session(estimator, cfg, stft_cfg, mixture.sample_rate, mixture.n_samples)
    blocks = split_blocks(mixture.samples, session.block_n)
    outputs = [session.push(blocks[:, b]) for b in range(blocks.shape[1])]
    return outputs, session.finish()


def test_pushed_chunks_concatenate_to_the_session_streams():
    # 25 s: the last block is partial; slots open in blocks 0, 1 and 2
    meeting = _fixture_meeting(seed=7, length=25.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    outputs, pushed = _pushed(meeting.mixture, est, CFG, STFT)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    result = decode_session(meeting.mixture, est, CFG, STFT)
    assert sorted(result.streams) == sorted(pushed.streams) == [0, 1, 2, 3]
    for slot, sig in result.streams.items():
        # a slot has no chunk before it opens: its stream is silent there
        parts = [out.chunks.get(slot, np.zeros(out.chunks[0].size)) for out in outputs]
        assert np.array_equal(np.concatenate(parts), sig.channel(0))
        assert np.array_equal(pushed.streams[slot].samples, sig.samples)
    assert result.activity == pushed.activity
    assert result.activity == [sorted(slot for slot, m in out.masks.items()
                                      if m.mean() >= CFG.t_silent) for out in outputs]


def test_session_synthesizes_only_active_slots(monkeypatch):
    # 40 s: speaker slot 1 is silent in block 2, slot 2 in block 3
    meeting = _fixture_meeting(seed=0, length=40.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    istft_calls = _count_calls(monkeypatch, "istft")
    outputs, result = _pushed(meeting.mixture, est, CFG, STFT)
    assert len(istft_calls) == sum(len(active) for active in result.activity) == 11
    silent = [(b, slot) for b, out in enumerate(outputs) for slot in out.masks
              if slot not in result.activity[b]]
    assert silent == [(2, 1), (3, 2)]
    for b, slot in silent:
        assert not outputs[b].masks[slot].any()
    # the reference synthesizes every slot of every block
    mixture = meeting.mixture
    n, block_n = mixture.n_samples, int(round(CFG.block_len_s * mixture.sample_rate))
    blocks = split_blocks(mixture.samples, block_n)
    streams = {}
    for b, out in enumerate(outputs):
        start, stop = b * block_n, min((b + 1) * block_n, n)
        spec = stft(blocks[0, b], STFT)
        for slot, mask in out.masks.items():
            stream = streams.setdefault(slot, np.zeros(n))
            rec = istft(apply_mask(mask, spec), STFT)[: stop - start]
            stream[start:start + rec.size] = rec
            assert out.chunks[slot].tobytes() == stream[start:stop].tobytes()
    assert sorted(streams) == sorted(result.streams)
    for slot, samples in streams.items():
        assert result.streams[slot].channel(0).tobytes() == samples.tobytes()


def test_finished_session_keeps_no_block_handles():
    meeting = _fixture_meeting(seed=0, length=30.0)
    est = OracleMaskEstimator.from_rendered(meeting, STFT, CFG.block_len_s)
    result = decode_session(meeting.mixture, est, CFG, STFT)
    assert result.state.cache == []
    assert result.state.n_blocks == 3


def test_push_past_the_session_end_rejected():
    mixture = _noise_mixture(seconds=1.0)  # one 10 s block, zero-padded
    session = Session(_tiny_net(STFT), CFG, STFT, mixture.sample_rate, mixture.n_samples)
    block = split_blocks(mixture.samples, session.block_n)[:, 0]
    session.push(block)
    with pytest.raises(ValueError, match="block 1 starts after the session's end"):
        session.push(block)


def test_push_after_finish_rejected():
    # finish() drops the block handles, so a later consistency check would
    # re-enter block 1's handle as block 0's
    mixture = _noise_mixture(seconds=2.0)
    cfg = DecoderConfig(block_len_s=1.0)
    session = Session(_tiny_net(STFT), cfg, STFT, mixture.sample_rate, mixture.n_samples)
    blocks = split_blocks(mixture.samples, session.block_n)
    session.push(blocks[:, 0])
    session.finish()
    with pytest.raises(ValueError, match="block 1 pushed after the session finished"):
        session.push(blocks[:, 1])


@pytest.mark.parametrize("shape", [(2, 4000), (2, 12000), (3, 8000), (1, 8000), (8000,)])
def test_push_rejects_block_of_another_shape(shape):
    # a short block once set the session's block shape, a long one lost its
    # tail, a mono one died with an IndexError
    est = _CountingEstimator()
    session = Session(est, DecoderConfig(block_len_s=1.0), STFT, 8000, 16000)
    with pytest.raises(ValueError, match=r"block 0 has shape .*, not \(2, 8000\)"):
        session.push(np.zeros(shape))
    assert est.blocks == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_push_rejects_non_finite_block(bad):
    est = _CountingEstimator()
    session = Session(est, DecoderConfig(block_len_s=1.0), STFT, 8000, 16000)
    block = np.zeros((2, 8000))
    block[0, 77] = bad
    with pytest.raises(ValueError, match="block 0 holds a NaN or infinite sample"):
        session.push(block)
    assert est.blocks == []


class _BadProbeEstimator:
    """A noise mask, then ``bad(residual)`` as the first probe's mask."""

    embed_dim = 4

    def __init__(self, bad):
        self.bad = bad

    def begin_block(self, index, features):
        self.calls = 0
        return index

    def estimate(self, residual, z_prev):
        self.calls += 1
        mask = np.full_like(residual, 0.3) if self.calls == 1 else self.bad(residual)
        return mask, np.full(4, 0.5)


def _with_nan_bin(residual):
    mask = np.full_like(residual, 0.5)
    mask[3, 7] = np.nan
    return mask


@pytest.mark.parametrize("bad, problem", [
    (lambda residual: np.full(residual.shape[1], 0.5), r"mask of shape \(129,\)"),
    (_with_nan_bin, "mask holds a NaN"),
], ids=["one-frame-mask", "nan-bin"])
def test_push_rejects_a_bad_mask_before_the_block_joins(bad, problem):
    # a (F,) mask once broadcast through the residual and failed in
    # apply_mask after the state was written; a NaN bin gave a NaN stream
    session = Session(_BadProbeEstimator(bad), DecoderConfig(block_len_s=1.0),
                      STFT, 8000, 16000)
    with pytest.raises(RuntimeError, match=f"block 0, iteration 2: {problem}"):
        session.push(np.ones((2, 8000)))
    assert session.state.n_blocks == 0
    assert session.activity == [] and session.streams == {}


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


class _HalfMasks:
    """Every mask is 0.5: each block runs the noise slot and one speaker slot."""

    embed_dim = 4

    def begin_block(self, index, features):
        return index

    def enter_block(self, handle):
        pass

    def estimate(self, residual, z_prev):
        return np.full_like(residual, 0.5), np.ones(self.embed_dim)


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
