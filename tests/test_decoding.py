import numpy as np
import pytest

from blocksep.decoding import (
    BlockFeatures,
    DecoderConfig,
    SessionState,
    consistency_check,
    decode_block,
    decode_session,
    new_session_state,
)
from blocksep.dsp import AudioSignal, IpdFeature, StftConfig
from blocksep.estimators import (
    MaskNet,
    OracleMaskEstimator,
    init_params,
    is_zero_embedding,
    speaker_embedding,
)
from blocksep.metrics import block_speaker_counts
from blocksep.rttm import Segment
from blocksep.simulate import MeetingScenario, make_pool, render, sample_scenario

T, F = 20, 10
CFG = DecoderConfig()


def _flat_features():
    return BlockFeatures(
        mag=np.ones((T, F)),
        ipd=IpdFeature(np.ones((T, F)), np.zeros((T, F))),
        spec=np.ones((T, F), dtype=complex),
    )


def _flat_oracle(levels_per_block, noise_level=0.3):
    """Oracle over blocks of spatially flat sources (uniform magnitudes)."""
    blocks = []
    noises = []
    for levels in levels_per_block:
        blocks.append({spk: np.full((T, F), v) for spk, v in levels.items() if v > 0})
        noises.append(np.full((T, F), noise_level))
    return OracleMaskEstimator(blocks, noises)


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(t_silent=0.3, t_resmask=0.2)
    with pytest.raises(ValueError):
        DecoderConfig(max_iterations=0)


@pytest.mark.parametrize("n_sources", [0, 1, 2, 3])
def test_stopping_iterations_equal_sources_plus_one(n_sources):
    levels = {f"s{i}": 0.8 - 0.1 * i for i in range(n_sources)}
    est = _flat_oracle([levels])
    state = new_session_state(est.embed_dim)
    result = decode_block(_flat_features(), state, est, CFG)
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
    est.begin_block(0, feats.mag, feats.ipd)
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
    decode_block(_flat_features(), state, est, CFG)
    assert state.speaker_count == 1
    result = decode_block(_flat_features(), state, est, CFG)
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
    decode_block(_flat_features(), state, est, cfg)
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

    def begin_block(self, index, mag, ipd):
        self._block = index

    def estimate(self, residual, z_prev):
        if np.allclose(z_prev, self.new_z):
            return self.masks_by_block[self._block].copy(), self.new_z.copy()
        return np.zeros_like(residual), np.ones(self.embed_dim) / np.sqrt(8)


def _scripted_state(new_z, n_past=2):
    state = SessionState(embeddings=[np.zeros(8), np.ones(8) / np.sqrt(8)])
    for _ in range(n_past):
        state.cache.append(_flat_features())
        state.iteration_counts.append(2)
        state.block_masks.append({0: np.zeros((T, F))})
    # current block created the new slot 2
    state.embeddings.append(new_z)
    state.cache.append(_flat_features())
    state.iteration_counts.append(3)
    state.block_masks.append({0: np.zeros((T, F)), 2: np.full((T, F), 0.5)})
    return state


def test_consistency_accepts_zero_history():
    new_z = speaker_embedding("newbie", 8)
    masks = {0: np.zeros((T, F)), 1: np.zeros((T, F)), 2: np.full((T, F), 0.5)}
    est = ScriptedEstimator(new_z, masks)
    state = _scripted_state(new_z)
    pre = [state.embeddings[0], state.embeddings[1]]
    assert consistency_check(state, [2], pre, est, CFG)


def test_consistency_rejects_retroactive_presence():
    new_z = speaker_embedding("ghost", 8)
    masks = {0: np.zeros((T, F)), 1: np.full((T, F), 0.5), 2: np.full((T, F), 0.5)}
    est = ScriptedEstimator(new_z, masks)
    state = _scripted_state(new_z)
    pre = [state.embeddings[0], state.embeddings[1]]
    assert not consistency_check(state, [2], pre, est, CFG)


def test_consistency_vacuous_on_first_block():
    new_z = speaker_embedding("first", 8)
    est = ScriptedEstimator(new_z, {0: np.full((T, F), 0.9)})
    state = SessionState(embeddings=[np.zeros(8)])
    state.embeddings.append(new_z)
    state.cache.append(_flat_features())
    state.iteration_counts.append(2)
    state.block_masks.append({0: np.zeros((T, F)), 1: np.full((T, F), 0.9)})
    assert consistency_check(state, [1], [state.embeddings[0]], est, CFG)


# --------------------------------------------------------------------------
# full sessions against the simulator
# --------------------------------------------------------------------------

STFT = StftConfig(256, 128)


def _fixture_meeting(seed, n_speakers=None, length=60.0):
    pool = make_pool(5, seed=2)
    for s in range(seed, seed + 200):
        sc = sample_scenario(
            "B", length, pool, seed=s,
            new_speaker_align_s=10.0, min_first_run_s=10.0,
        )
        if n_speakers is None or len(sc.timeline.speakers()) == n_speakers:
            return render(sc)
    raise RuntimeError("no scenario found")


def test_oracle_session_three_speakers():
    meeting = _fixture_meeting(seed=0, n_speakers=3)
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
    meeting = _fixture_meeting(seed=0, n_speakers=3)
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
            means = {
                s: float(inner.block_irm(split_block, s).mean())
                for s in inner.speakers
                if s in inner._irm[split_block]
            }
            victim = max(sorted(means), key=lambda s: means[s])
        self.victim = victim
        self.spurious_embedding = speaker_embedding(f"__split_{victim}__",
                                                    inner.embed_dim)
        self._block = 0
        self._spur_emitted = set()

    @property
    def n_blocks(self):
        return self.inner.n_blocks

    @property
    def embed_dim(self):
        return self.inner.embed_dim

    def begin_block(self, index: int, mag, ipd):
        self._block = index
        self.inner.begin_block(index, mag, ipd)

    def _is_spurious(self, z):
        return (not is_zero_embedding(z)
                and float(np.dot(z, self.spurious_embedding)) > 0.7)

    def _is_victim(self, z):
        return (not is_zero_embedding(z)
                and float(np.dot(z, self.inner.embeddings[self.victim])) > 0.7)

    def estimate(self, residual, z_prev):
        b = self._block
        victim_irm = self.inner._irm[b].get(self.victim)
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

        def begin_block(self, index, mag, ipd):
            pass

        def estimate(self, residual, z_prev):
            raise RuntimeError("boom")

    state = new_session_state(8)
    with pytest.raises(RuntimeError, match="block 0"):
        decode_block(_flat_features(), state, Exploding(), CFG)

    # block preparation fails in begin_block: a network for 5 bins given
    # features of F = 10 bins, in a decode and in a consistency re-decode
    wrong_bins = MaskNet(init_params(bins=5, embed_dim=8, hidden=3, proj=4))
    with pytest.raises(RuntimeError, match="block 0, begin_block"):
        decode_block(_flat_features(), new_session_state(8), wrong_bins, CFG)
    state = _scripted_state(speaker_embedding("newbie", 8))
    pre = state.embeddings[:2]
    with pytest.raises(RuntimeError, match="block 0, begin_block"):
        consistency_check(state, [2], pre, wrong_bins, CFG)


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


class _CountingEstimator:
    embed_dim = 4

    def __init__(self):
        self.blocks = []

    def begin_block(self, index, mag, ipd):
        self.blocks.append(index)


@pytest.mark.parametrize("block_len_s, block_n", [(0.02, 160), (1e-5, 0)])
def test_decode_rejects_block_shorter_than_stft_window(block_len_s, block_n):
    # the error names both lengths before any block reaches the estimator
    est = _CountingEstimator()
    with pytest.raises(ValueError, match=f"block of {block_n} samples .* 256-sample"):
        decode_session(_noise_mixture(), est, DecoderConfig(block_len_s=block_len_s),
                       StftConfig())
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

    def begin_block(self, index, mag, ipd):
        self._block, self._calls, self._left = index, 0, list(self.probes[index])

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
    result = decode_session(mixture, est, cfg, STFT)
    state = result.state
    assert result.consistency_log == [(1, False)]
    assert result.final_count == 1
    # the known slot keeps its embedding from before block 1, not block 1's
    assert not np.allclose(est.embedding("a", 1), est.embedding("a", 0))
    assert np.array_equal(state.embeddings[1], est.embedding("a", 0))
    assert sorted(state.block_masks[1]) == [0, 1]  # no new slot
    assert state.iteration_counts == [2, 3]  # block 1 counts the rejected probe
