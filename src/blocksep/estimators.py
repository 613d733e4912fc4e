"""Mask/embedding estimators.

Two interchangeable implementations of the per-iteration estimator that maps
(block magnitudes, phase feature, residual mask, previous speaker embedding)
to (source mask, speaker embedding):

* :class:`OracleMaskEstimator` reads ideal ratio masks from per-block
  simulator ground truth (:class:`BlockTruth`, the record training reads
  too) and identifies speakers by fixed per-speaker embeddings.  It makes
  the decoding pipeline deterministic and testable end to end.
* :class:`MaskNet` is a small trainable network: a shared input projection,
  one bidirectional tanh recurrent layer over the block's frames, a sigmoid
  mask head, and a mean-pooled, L2-normalized embedding head.

The estimator contract, which the decoder (:mod:`blocksep.decoding`) checks
at each call:

* ``begin_block(index, features)`` hands over a block's
  :class:`~blocksep.decoding.BlockFeatures` once and returns a small handle,
  all the decoder keeps of the block (:class:`MaskNet`'s is its (T, P)
  static projection); ``enter_block(handle)`` re-enters it for a
  consistency re-decode, resetting the per-block call state as
  ``begin_block`` does.  An estimator reads only the features it needs
  (:class:`MaskNet` ``features.ipd``, then ``features.mag``; the oracle
  none).  |X| and the IPD are computed when read, not kept past
  ``begin_block``.  The current handle is per-instance state, so an
  estimator serves one session at a time; sessions that decode
  concurrently each take their own (two ``MaskNet`` may share one
  :class:`ModelParams`, which they only read).
* Each extraction iteration calls ``estimate(residual, z_prev)``; a zero
  ``z_prev`` probes for a new speaker.  It returns ``(mask, embedding)``:
  a :class:`CheckedMask` of the residual's shape, made by
  :func:`check_mask` (:class:`MaskNet` checks each fresh mask, the oracle
  returns records checked at set-up), and a finite ``(embed_dim,)`` vector.
* The decoder overwrites the residual once the call returns and may keep
  every mask it is given: an estimator keeps no residual and writes no
  mask it has returned.
"""

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from . import kernels
# ``CheckedMask`` and ``check_mask`` live with the masking in ``dsp``; the
# estimator contract names them from here.
from .dsp import (CheckedMask, IpdFeature, StftConfig, block_samples, blocks, check_mask,
                  is_integer, stft)

CHECKPOINT_MAGIC = b"BSPK"
CHECKPOINT_VERSION = 1

DEFAULT_EMBED_DIM = 32
DEFAULT_HIDDEN = 64
DEFAULT_PROJ = 64

# Mean mask under which a source counts as silent in a block: the
# ground-truth activity test of :func:`block_truth` and the decoder's default
# ``t_silent``.
SILENT_MASK_MEAN = 0.05
# Added to the ratio-mask denominator so all-zero bins stay finite.
MASK_EPS = 1e-8
_LOG_FLOOR = 1e-5


def speaker_embedding(speaker_id: str, dim: int = DEFAULT_EMBED_DIM) -> np.ndarray:
    """Deterministic unit-norm embedding derived from the speaker id."""
    digest = hashlib.sha256(speaker_id.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.normal(0.0, 1.0, dim)
    return v / np.linalg.norm(v)


def is_zero_embedding(z: np.ndarray) -> bool:
    return float(np.linalg.norm(z)) < 1e-6


# ---------------------------------------------------------------------------
# Oracle estimator
# ---------------------------------------------------------------------------


@dataclass
class BlockTruth:
    """Ground truth of one block, read by the oracle and by training.

    Channel-0 reference magnitudes, their ideal ratio masks
    |X| / (|N| + eps + sum of source magnitudes) as :class:`CheckedMask`
    records (read-only values and mean), one read-only all-zero record for
    a silent slot, and the sources active in the block: those whose mean
    mask is at least ``SILENT_MASK_MEAN``.
    """

    noise_mag: np.ndarray  # (T, F)
    source_mags: dict  # source id -> (T, F)
    noise_irm: CheckedMask  # (T, F) values
    irms: dict  # source id -> CheckedMask of (T, F) values
    silent: CheckedMask  # (T, F) zeros, a view that holds no memory
    active: list  # sorted source ids

    def strongest_first(self, sources) -> list:
        """``sources`` by descending ideal-mask mean, of equal means the
        larger id first: the order in which the oracle's probes find them
        and in which training opens slots for them."""
        return sorted(sources, key=lambda s: (self.irms[s].mean, s), reverse=True)


def block_truth(noise_mag, source_mags) -> BlockTruth:
    """The ground-truth record of one block; the mask denominator adds the
    sources in sorted id order.  Each mask goes through :func:`check_mask`
    once, here, so the oracle hands out the records as they are and the
    activity test reads their means.  A mask holding a NaN raises
    ``ValueError`` naming the first non-finite magnitude, the noise's and
    then the sources' in id order (a NaN magnitude spoils every mask of its
    bin), or else the mask."""
    denom = noise_mag + MASK_EPS
    for s in sorted(source_mags):
        denom = denom + source_mags[s]
    mags = {"the noise": noise_mag} | {f"source {s!r}": source_mags[s]
                                       for s in sorted(source_mags)}

    def truth_mask(name):
        try:
            return check_mask(mags[name] / denom)
        except ValueError as exc:
            name = next((n for n, m in mags.items() if not np.isfinite(m).all()), name)
            raise ValueError(f"ground-truth mask of {name}: {exc}") from exc

    noise_irm = truth_mask("the noise")
    irms = {s: truth_mask(f"source {s!r}") for s in source_mags}
    silent = CheckedMask(np.broadcast_to(0.0, denom.shape), 0.0)
    active = sorted(s for s, mask in irms.items() if mask.mean >= SILENT_MASK_MEAN)
    return BlockTruth(noise_mag, source_mags, noise_irm, irms, silent, active)


def reference_blocks(rendered, stft_cfg: StftConfig, block_len_s: float) -> list:
    """One :class:`BlockTruth` per block of a rendered meeting.

    Each reference and the noise are cut on the decoder's block grid by
    :func:`~blocksep.dsp.blocks`, one block at a time, so only a trailing
    partial block is copied, zero-padded; every record holds every speaker
    of the meeting.
    """
    block_n = block_samples(block_len_s, rendered.mixture.sample_rate)

    def block_mags(sig):
        return [np.abs(stft(x, stft_cfg)) for x in blocks(sig.channel(0), block_n)]

    per_spk = {spk: block_mags(sig) for spk, sig in sorted(rendered.references.items())}
    return [block_truth(noise, {spk: mags[b] for spk, mags in per_spk.items()})
            for b, noise in enumerate(block_mags(rendered.noise))]


class OracleMaskEstimator:
    """Ideal-ratio-mask estimator backed by simulator ground truth.

    ``blocks`` holds one :class:`BlockTruth` per block.  The first estimate
    call in every block returns the noise mask, matching the decoder's
    noise-first slot convention.  A unit-norm ``z_prev`` selects the speaker
    with the closest fixed embedding; a zero ``z_prev`` probes the strongest
    active source not yet extracted in the block.  The masks returned are
    the blocks' :class:`CheckedMask` records, checked once at set-up, not
    copies, and the embeddings are read-only and not copied either, so a
    call allocates nothing; a speaker not active in the block yields the
    block's all-zero record.
    ``begin_block`` reads none of the block's features, so an oracle decode
    never computes |X|, the second channel's STFT or the IPD; a block's
    handle is its index.  A probe takes the first source of
    :meth:`BlockTruth.strongest_first`.
    """

    embed_dim = DEFAULT_EMBED_DIM

    def __init__(self, blocks):
        # The records keep their magnitudes (about 110 MB per 120 s meeting)
        # although only training reads them; see ROADMAP item 16.
        self.blocks = blocks
        self.speakers = sorted({s for blk in blocks for s in blk.source_mags})
        self.embeddings = {s: speaker_embedding(s) for s in self.speakers}
        self.noise_embedding = speaker_embedding("__noise__")
        self._fallback = speaker_embedding("__none__")
        for z in (self.noise_embedding, self._fallback, *self.embeddings.values()):
            z.flags.writeable = False
        self._block = 0
        self._calls = 0
        self._emitted = set()

    @classmethod
    def from_rendered(cls, rendered, stft_cfg: StftConfig, block_len_s: float):
        return cls(reference_blocks(rendered, stft_cfg, block_len_s))

    def begin_block(self, index: int, features) -> int:
        if not 0 <= index < len(self.blocks):
            raise ValueError(f"block index {index} out of range")
        self.enter_block(index)
        return index

    def enter_block(self, handle: int):
        self._block = handle
        self._calls = 0
        self._emitted = set()

    def match_speaker(self, z: np.ndarray):
        best, best_cos = None, -2.0
        for spk in self.speakers:
            c = float(np.dot(z, self.embeddings[spk]))
            if c > best_cos:
                best, best_cos = spk, c
        return best if best_cos > 0.5 else None

    def estimate(self, residual, z_prev):
        blk = self.blocks[self._block]
        self._calls += 1
        if self._calls == 1:
            return blk.noise_irm, self.noise_embedding
        if not is_zero_embedding(z_prev):
            spk = self.match_speaker(z_prev)
            if spk is None or spk not in blk.active:
                return blk.silent, self._fallback if spk is None else self.embeddings[spk]
            self._emitted.add(spk)
            return blk.irms[spk], self.embeddings[spk]
        # zero embedding: probe for the strongest active source not yet extracted
        left = [s for s in blk.active if s not in self._emitted]
        if not left:
            return blk.silent, self._fallback
        best = blk.strongest_first(left)[0]
        self._emitted.add(best)
        return blk.irms[best], self.embeddings[best]


# ---------------------------------------------------------------------------
# Trainable network
# ---------------------------------------------------------------------------

def param_shapes(bins: int, embed_dim: int, hidden: int, proj: int) -> dict:
    """Name -> shape of every parameter tensor, in checkpoint order.  Every
    size must be a positive integer (see :func:`~blocksep.dsp.is_integer`)."""
    f, d, h, p = sizes = bins, embed_dim, hidden, proj
    if not all(is_integer(n) and n > 0 for n in sizes):
        raise ValueError(f"network sizes must be positive integers, not {sizes}")
    return {
        "w_static": (3 * f, p), "b_static": (p,), "w_res": (f, p),
        "w_emb_in": (d, p),
        "w_xf": (p, h), "b_f": (h,), "w_hf": (h, h),
        "w_xb": (p, h), "b_b": (h,), "w_hb": (h, h),
        "w_mask": (2 * h, f), "b_mask": (f,),
        "w_embed": (2 * h, d), "b_embed": (d,),
    }


@dataclass
class ModelParams:
    """Named parameter tensors plus the metadata needed to reuse them.

    The network sizes are read from the weight shapes, so they cannot
    disagree with the arrays.
    """

    arrays: dict
    stft: dict = field(default_factory=dict)

    @property
    def bins(self):
        return self.arrays["w_mask"].shape[1]

    @property
    def embed_dim(self):
        return self.arrays["w_embed"].shape[1]

    @property
    def hidden(self):
        return self.arrays["w_hf"].shape[0]

    @property
    def proj(self):
        return self.arrays["w_static"].shape[1]

    def validate_finite(self):
        for name, arr in self.arrays.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite model (parameter {name})")

    @property
    def dtype(self):
        return self.arrays["w_static"].dtype

    def zeros_like(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.arrays.items()}


def check_model_stft(params, stft_cfg: StftConfig, use: str):
    """Reject ``params`` whose recorded STFT settings differ from ``stft_cfg``,
    the settings of the ``use`` (a decode or training); a model that records
    none, or no model, is not checked."""
    recorded = getattr(params, "stft", None)
    if recorded and recorded != asdict(stft_cfg):
        raise ValueError(f"model STFT settings {recorded} differ from the {use} "
                         f"STFT settings {asdict(stft_cfg)}")


def init_params(bins: int, embed_dim=DEFAULT_EMBED_DIM, hidden=DEFAULT_HIDDEN,
                proj=DEFAULT_PROJ, seed: int = 0, stft_cfg: StftConfig | None = None,
                dtype=np.float32) -> ModelParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4D41534B]))

    def glorot(n_in, n_out):
        bound = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-bound, bound, (n_in, n_out)).astype(dtype)

    arrays = {}
    for name, shape in param_shapes(bins, embed_dim, hidden, proj).items():
        if len(shape) == 1:
            arrays[name] = np.zeros(shape, dtype=dtype)
        elif name in ("w_hf", "w_hb"):
            arrays[name] = (0.9 * glorot(*shape)).astype(dtype)
        else:
            arrays[name] = glorot(*shape)
    stft_meta = asdict(stft_cfg) if stft_cfg is not None else {}
    return ModelParams(arrays, stft_meta)


def _joint_recurrence_weight(arrays) -> np.ndarray:
    """(2H, 2H) block-diagonal weight that steps both directions in one call.

    Rebuilt on every call: the optimizer updates ``w_hf`` and ``w_hb`` in
    place.  Not ``scipy.linalg.block_diag``: its array-API dispatch leaves
    cached objects behind that show up as retained memory.
    """
    h = arrays["w_hf"].shape[0]
    w = np.zeros((2 * h, 2 * h), dtype=arrays["w_hf"].dtype)
    w[:h, :h] = arrays["w_hf"]
    w[h:, h:] = arrays["w_hb"]
    return w


@dataclass
class IterationCache:
    """What ``MaskNet.backward`` reads of one ``forward`` call, ([B,]) being
    the call's optional slot axis, held from the call until its caller
    drops it (training: with the sample's unroll, after its backward).  Nothing of
    the call's size ([B,] T, F) is kept but the mask: the residual the call
    read is the caller's, handed to ``backward`` again, and the heads'
    ([B,] T, 2H) input, a permuted copy of ``states``, is rebuilt byte-equal
    by ``backward`` with :func:`_hidden_concat`."""

    z_prev: np.ndarray  # ([B,] D) previous embedding the call read
    p: np.ndarray  # ([B,] T, P) tanh of the input projection
    states: np.ndarray  # (T, [B,] 2H): forward states | time-reversed backward states
    mask: np.ndarray  # ([B,] T, F)
    z_out: np.ndarray  # ([B,] D) unit-norm embedding
    inv_norm: np.ndarray  # ([B,]) reciprocal norm of each embedding


def _row_dots(x, y):
    """float64 ``np.dot`` of each last-axis row pair of ``x`` and ``y``."""
    rows = zip(x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1]))
    return np.array([float(np.dot(a, b)) for a, b in rows]).reshape(x.shape[:-1])


def _rows(a):
    """``a`` with its leading axes merged: (N, last)."""
    return a.reshape(-1, a.shape[-1])


def _time_major(a):
    """View of a ([B,] T, last) array as (T, [B,] last)."""
    return np.moveaxis(a, -2, 0)


def _join(a, b):
    """``a`` and ``b`` side by side along the last axis, in a new C-ordered
    array: ``np.concatenate`` would keep a transposed view's memory order."""
    out = np.empty(a.shape[:-1] + (a.shape[-1] + b.shape[-1],), dtype=a.dtype)
    out[..., :a.shape[-1]] = a
    out[..., a.shape[-1]:] = b
    return out


def _hidden_concat(states, h):
    """The heads' input from the kernel's (T, [B,] 2H) ``states``: each
    frame's forward state beside its backward state, as a new C-ordered
    ([B,] T, 2H) array."""
    s = np.moveaxis(states, 0, -2)
    return _join(s[..., :h], np.flip(s[..., h:], -2))


class MaskNet:
    """Trainable recurrent mask estimator (see module docstring)."""

    def __init__(self, params: ModelParams):
        params.validate_finite()
        self.params = params
        self._static_pre = None  # (T, P) projection of the current block

    @property
    def embed_dim(self):
        return self.params.embed_dim

    # -- session protocol ---------------------------------------------------

    def begin_block(self, index: int, features) -> np.ndarray:
        # the IPD first: its temporaries then peak without |X| beside them
        ipd = features.ipd
        self._static_pre = self.prepare_block(features.mag, ipd)
        return self._static_pre

    def enter_block(self, handle: np.ndarray):
        self._static_pre = handle

    def estimate(self, residual: np.ndarray, z_prev: np.ndarray):
        mask, z_out, _ = self.forward(self._static_pre, residual, z_prev)
        return check_mask(mask), z_out

    # -- network core -------------------------------------------------------

    def _static_features(self, mag: np.ndarray, ipd: IpdFeature) -> np.ndarray:
        """(T, 3F) input of the static projection: block-normalized log |X|, IPD.
        The log-magnitudes are taken and normalized in one float64 array."""
        logmag = np.asarray(mag, dtype=np.float64) + _LOG_FLOOR
        np.log(logmag, out=logmag)
        mu, sigma = logmag.mean(), logmag.std() + 1e-5
        logmag -= mu
        logmag /= sigma
        return np.concatenate([logmag, ipd.cos, ipd.sin], axis=1, dtype=self.params.dtype)

    def prepare_block(self, mag: np.ndarray, ipd: IpdFeature) -> np.ndarray:
        """The (T, P) static projection, all ``forward`` reads of the block:
        its handle.  The (T, 3F) features are dropped on return."""
        a = self.params.arrays
        return self._static_features(mag, ipd) @ a["w_static"] + a["b_static"]

    def forward(self, static_pre: np.ndarray, residual: np.ndarray, z_prev: np.ndarray):
        """One extraction iteration, or B independent ones in lockstep.

        ``residual`` is (T, F) and ``z_prev`` (D,), or both carry a leading
        slot axis: (B, T, F) and (B, D).  Returns (mask, z_out, cache) with
        the same leading axis.  The one-iteration call is what a decode
        runs; its kernel call stays single-sequence.
        """
        a = self.params.arrays
        dt = self.params.dtype
        r = np.asarray(residual, dtype=dt)
        z = np.asarray(z_prev, dtype=dt)
        pre = static_pre + r @ a["w_res"] + (z @ a["w_emb_in"])[..., None, :]
        del r
        p = np.tanh(pre, out=pre)
        xf = p @ a["w_xf"] + a["b_f"]
        xb = p @ a["w_xb"] + a["b_b"]
        # Both directions run as one 2H-wide recurrence; the block-diagonal
        # weight keeps them independent.  The kernel steps over its first
        # axis, so its input is time-major: (T, [B,] 2H).
        h = self.params.hidden
        x = _join(_time_major(xf), _time_major(xb)[::-1])
        del xf, xb
        states = kernels.rnn_seq_forward(x, _joint_recurrence_weight(a),
                                         np.zeros(x.shape[1:], dtype=dt))
        del x
        hcat = _hidden_concat(states, h)
        mask = hcat @ a["w_mask"]
        mask += a["b_mask"]
        expit(mask, out=mask)
        pooled = hcat.mean(axis=-2)
        e = pooled @ a["w_embed"] + a["b_embed"]
        # norms in float64, then one cast, so float32 tensors stay float32
        inv_norm = (1.0 / np.sqrt(_row_dots(e, e) + 1e-12)).astype(dt)
        z_out = e * inv_norm[..., None]
        cache = IterationCache(z, p, states, mask, z_out, inv_norm)
        return mask, z_out, cache

    def backward(self, cache: IterationCache, residual: np.ndarray, d_mask: np.ndarray,
                 d_z_out: np.ndarray, grads: dict):
        """Accumulate parameter gradients for one ``forward`` call.

        ``residual`` is the residual the call read, which the cache does not
        keep; only the ``w_res`` gradient reads it.  ``d_mask`` and
        ``d_z_out`` are shaped like the call's mask and embedding: (T, F)
        and (D,), or (B, T, F) and (B, D) with one row per slot.  Arrays
        already in the network dtype are read as they are, not copied.
        Returns (d_z_prev, d_static_pre) to chain gradients across blocks
        and into the block's projection: d_z_prev keeps the slot axis,
        d_static_pre (T, P) is summed over it.  No gradient flows into the
        residual; its every reader takes it from the ground truth.  Each
        intermediate is dropped once its last reader has run, and nothing
        the call allocates outlives it but what it returns.
        """
        a = self.params.arrays
        dt = self.params.dtype
        h = self.params.hidden
        t_len = cache.states.shape[0]
        d_mask = np.asarray(d_mask, dtype=dt)
        d_z_out = np.asarray(d_z_out, dtype=dt)
        # the mask head's sigmoid slope first, so that its temporary is
        # gone before the heads' input is rebuilt
        d_mask_pre = d_mask * cache.mask
        d_mask_pre *= 1.0 - cache.mask
        hcat = _hidden_concat(cache.states, h)

        # embedding head (through the L2 normalization)
        along = _row_dots(cache.z_out, d_z_out).astype(dt)
        d_e = (d_z_out - cache.z_out * along[..., None]) * cache.inv_norm[..., None]
        pooled = hcat.mean(axis=-2)
        grads["w_embed"] += _rows(pooled).T @ _rows(d_e)
        grads["b_embed"] += _rows(d_e).sum(axis=0)

        # mask head; the pooled embedding's gradient reaches every frame
        grads["w_mask"] += _rows(hcat).T @ _rows(d_mask_pre)
        del hcat
        grads["b_mask"] += _rows(d_mask_pre).sum(axis=0)
        d_hcat = d_mask_pre @ a["w_mask"].T
        del d_mask_pre
        d_hcat += ((d_e @ a["w_embed"].T) / t_len)[..., None, :]

        # the recurrence in the kernel's time-major layout
        d_in = _join(_time_major(d_hcat[..., :h]), _time_major(d_hcat[..., h:])[::-1])
        del d_hcat
        d_x = kernels.rnn_seq_backward(cache.states, _joint_recurrence_weight(a), d_in)
        del d_in
        prev = np.concatenate([np.zeros_like(cache.states[:1]), cache.states[:-1]])
        grads["w_hf"] += _rows(prev[..., :h]).T @ _rows(d_x[..., :h])
        grads["w_hb"] += _rows(prev[..., h:]).T @ _rows(d_x[..., h:])
        del prev
        d_xf = np.ascontiguousarray(np.moveaxis(d_x[..., :h], 0, -2))
        d_xb = np.ascontiguousarray(np.moveaxis(d_x[::-1, ..., h:], 0, -2))
        del d_x
        p_rows = _rows(cache.p)
        grads["w_xf"] += p_rows.T @ _rows(d_xf)
        grads["b_f"] += _rows(d_xf).sum(axis=0)
        grads["w_xb"] += p_rows.T @ _rows(d_xb)
        grads["b_b"] += _rows(d_xb).sum(axis=0)

        d_pre = d_xf @ a["w_xf"].T
        del d_xf
        d_pre += d_xb @ a["w_xb"].T
        del d_xb
        # times tanh's slope, 1 - p^2, in place
        tanh_slope = np.multiply(cache.p, cache.p)
        np.subtract(1.0, tanh_slope, out=tanh_slope)
        d_pre *= tanh_slope
        del tanh_slope
        grads["w_res"] += _rows(np.asarray(residual, dtype=dt)).T @ _rows(d_pre)
        d_pre_sum = d_pre.sum(axis=-2)
        grads["w_emb_in"] += _rows(cache.z_prev).T @ _rows(d_pre_sum)
        d_z_prev = d_pre_sum @ a["w_emb_in"].T
        d_static_pre = d_pre.reshape(-1, *d_pre.shape[-2:]).sum(axis=0)
        return d_z_prev, d_static_pre

    def finish_block_backward(self, mag: np.ndarray, ipd: IpdFeature, d_static_pre,
                              grads: dict):
        """Accumulate the static projection's gradients.  The block's
        features are rebuilt byte-equal for the ``w_static`` product only."""
        grads["w_static"] += self._static_features(mag, ipd).T @ d_static_pre
        grads["b_static"] += d_static_pre.sum(axis=0)


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------


def save_params(params: ModelParams, path) -> None:
    """Write a versioned checkpoint: magic, version, shape table, f32 payload."""
    shapes = param_shapes(params.bins, params.embed_dim, params.hidden, params.proj)
    meta = {
        "bins": params.bins,
        "embed_dim": params.embed_dim,
        "hidden": params.hidden,
        "proj": params.proj,
        "stft": params.stft,
        "shapes": [[name, list(params.arrays[name].shape)] for name in shapes],
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for name in shapes:
            fh.write(params.arrays[name].astype("<f4").tobytes())


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise ValueError("corrupt checkpoint")
    version, meta_len = struct.unpack("<II", data[4:12])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if len(data) < 12 + meta_len:
        raise ValueError("corrupt checkpoint")
    try:
        meta = json.loads(data[12 : 12 + meta_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError("corrupt checkpoint") from exc
    try:
        shapes = [(name, shape) for name, shape in meta["shapes"]]
        dims = [meta[k] for k in ("bins", "embed_dim", "hidden", "proj")]
        expected = [(name, list(shape)) for name, shape in param_shapes(*dims).items()]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("corrupt checkpoint") from exc
    if shapes != expected:
        raise ValueError("corrupt checkpoint")
    offset = 12 + meta_len
    arrays = {}
    for name, shape in expected:  # integer sizes, whatever numbers the table holds
        count = int(np.prod(shape)) if shape else 1
        nbytes = 4 * count
        if offset + nbytes > len(data):
            raise ValueError("corrupt checkpoint")
        arrays[name] = np.frombuffer(
            data, dtype="<f4", count=count, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise ValueError("corrupt checkpoint")
    stft_meta = meta.get("stft", {})
    if not isinstance(stft_meta, dict):
        raise ValueError("corrupt checkpoint")
    params = ModelParams(arrays, stft_meta)
    params.validate_finite()
    return params
