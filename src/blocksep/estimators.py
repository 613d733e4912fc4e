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

Both follow one session protocol: ``begin_block(index, features)`` hands over
a block's :class:`~blocksep.decoding.BlockFeatures` once and returns a small
handle for the block, then each extraction iteration calls
``estimate(residual, z_prev)``; a zero ``z_prev`` probes for a new speaker.
An estimator reads only the features it needs: :class:`MaskNet` reads
``features.mag`` and ``features.ipd``, the oracle reads none, and the IPD
(with the second channel's STFT) is computed only when read.
``enter_block(handle)`` re-enters a past block for a consistency re-decode
without its features, resetting the per-block call state as ``begin_block``
does.  The handle is all the decoder keeps of a past block.
"""

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from . import kernels
from .dsp import IpdFeature, StftConfig, split_blocks, stft

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
    |X| / (|N| + eps + sum of source magnitudes), and the sources active in
    the block: those whose mean mask is at least ``SILENT_MASK_MEAN``.
    """

    noise_mag: np.ndarray  # (T, F)
    source_mags: dict  # source id -> (T, F)
    noise_irm: np.ndarray  # (T, F)
    irms: dict  # source id -> (T, F)
    active: list  # sorted source ids


def block_truth(noise_mag, source_mags) -> BlockTruth:
    """The ground-truth record of one block; the mask denominator adds the
    sources in sorted id order."""
    denom = noise_mag + MASK_EPS
    for s in sorted(source_mags):
        denom = denom + source_mags[s]
    irms = {s: m / denom for s, m in source_mags.items()}
    active = sorted(s for s, m in irms.items() if float(m.mean()) >= SILENT_MASK_MEAN)
    return BlockTruth(noise_mag, source_mags, noise_mag / denom, irms, active)


def reference_blocks(rendered, stft_cfg: StftConfig, block_len_s: float) -> list:
    """One :class:`BlockTruth` per block of a rendered meeting.

    The signals are zero-padded to whole blocks like the decoder pads the
    mixture; every record holds every speaker of the meeting.
    """
    block_n = int(round(block_len_s * rendered.mixture.sample_rate))

    def block_mags(sig):
        return [np.abs(stft(x, stft_cfg)) for x in split_blocks(sig.channel(0), block_n)]

    per_spk = {spk: block_mags(sig) for spk, sig in sorted(rendered.references.items())}
    return [block_truth(noise, {spk: mags[b] for spk, mags in per_spk.items()})
            for b, noise in enumerate(block_mags(rendered.noise))]


class OracleMaskEstimator:
    """Ideal-ratio-mask estimator backed by simulator ground truth.

    ``blocks`` holds one :class:`BlockTruth` per block.  The first estimate
    call in every block returns the noise mask, matching the decoder's
    noise-first slot convention.  A unit-norm ``z_prev`` selects the speaker
    with the closest fixed embedding; a zero ``z_prev`` probes the strongest
    active source not yet extracted in the block.  A speaker not active in
    the block yields an all-zero mask.  ``begin_block`` reads none of the
    block's features, so an oracle decode never computes the second
    channel's STFT or the IPD; a block's handle is its index.
    """

    embed_dim = DEFAULT_EMBED_DIM

    def __init__(self, blocks):
        # The records keep their magnitudes (about 110 MB per 120 s meeting)
        # although only training reads them; see ROADMAP item 1.
        self.blocks = blocks
        self.speakers = sorted({s for blk in blocks for s in blk.source_mags})
        self.embeddings = {s: speaker_embedding(s) for s in self.speakers}
        self.noise_embedding = speaker_embedding("__noise__")
        self._fallback = speaker_embedding("__none__")
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
            return blk.noise_irm.copy(), self.noise_embedding.copy()
        if not is_zero_embedding(z_prev):
            spk = self.match_speaker(z_prev)
            if spk is None:
                return np.zeros_like(residual), self._fallback.copy()
            emb = self.embeddings[spk].copy()
            if spk not in blk.active:
                return np.zeros_like(residual), emb
            self._emitted.add(spk)
            return blk.irms[spk].copy(), emb
        # zero embedding: probe for the strongest active source not yet
        # extracted; of equal mask means, the last in id order
        left = [s for s in blk.active if s not in self._emitted]
        if not left:
            return np.zeros_like(residual), self._fallback.copy()
        best = max(reversed(left), key=lambda s: float(blk.irms[s].mean()))
        self._emitted.add(best)
        return blk.irms[best].copy(), self.embeddings[best].copy()


# ---------------------------------------------------------------------------
# Trainable network
# ---------------------------------------------------------------------------

def param_shapes(bins: int, embed_dim: int, hidden: int, proj: int) -> dict:
    """Name -> shape of every parameter tensor, in checkpoint order."""
    f, d, h, p = bins, embed_dim, hidden, proj
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
class BlockContext:
    """A block's static projection and the features it was computed from.

    A decode handle holds the static projection only: ``forward`` reads
    nothing else, and the features are needed only to train.
    """

    features: np.ndarray | None  # (T, 3F) normalized static features
    static_pre: np.ndarray  # (T, P)


@dataclass
class IterationCache:
    """What ``MaskNet.backward`` reads of one ``forward`` call, ([B,]) being
    the call's optional slot axis."""

    residual: np.ndarray  # ([B,] T, F)
    z_prev: np.ndarray  # ([B,] D)
    p: np.ndarray  # ([B,] T, P)
    states: np.ndarray  # (T, [B,] 2H): forward states | time-reversed backward states
    hcat: np.ndarray  # ([B,] T, 2H)
    mask: np.ndarray  # ([B,] T, F)
    z_out: np.ndarray  # ([B,] D)
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


class MaskNet:
    """Trainable recurrent mask estimator (see module docstring)."""

    def __init__(self, params: ModelParams):
        params.validate_finite()
        self.params = params
        self._ctx = None  # BlockContext of the current block

    @property
    def embed_dim(self):
        return self.params.embed_dim

    # -- session protocol ---------------------------------------------------

    def begin_block(self, index: int, features) -> BlockContext:
        ctx = self.prepare_block(features.mag, features.ipd)
        self._ctx = BlockContext(None, ctx.static_pre)
        return self._ctx

    def enter_block(self, handle: BlockContext):
        self._ctx = handle

    def estimate(self, residual: np.ndarray, z_prev: np.ndarray):
        mask, z_out, _ = self.forward(self._ctx, residual, z_prev)
        return mask, z_out

    # -- network core -------------------------------------------------------

    def prepare_block(self, mag: np.ndarray, ipd: IpdFeature) -> BlockContext:
        dt = self.params.dtype
        logmag = np.log(np.asarray(mag, dtype=np.float64) + _LOG_FLOOR)
        mu, sigma = logmag.mean(), logmag.std() + 1e-5
        feats = np.concatenate(
            [(logmag - mu) / sigma, ipd.cos, ipd.sin], axis=1
        ).astype(dt)
        static_pre = feats @ self.params.arrays["w_static"] + self.params.arrays["b_static"]
        return BlockContext(feats, static_pre)

    def forward(self, ctx: BlockContext, residual: np.ndarray, z_prev: np.ndarray):
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
        pre = ctx.static_pre + r @ a["w_res"] + (z @ a["w_emb_in"])[..., None, :]
        p = np.tanh(pre)
        xf = p @ a["w_xf"] + a["b_f"]
        xb = p @ a["w_xb"] + a["b_b"]
        # Both directions run as one 2H-wide recurrence; the block-diagonal
        # weight keeps them independent.  The kernel steps over its first
        # axis, so its input is time-major: (T, [B,] 2H).
        h = self.params.hidden
        x = _join(_time_major(xf), _time_major(xb)[::-1])
        states = kernels.rnn_seq_forward(x, _joint_recurrence_weight(a),
                                         np.zeros(x.shape[1:], dtype=dt))
        s = np.moveaxis(states, 0, -2)
        hcat = _join(s[..., :h], np.flip(s[..., h:], -2))
        mask = expit(hcat @ a["w_mask"] + a["b_mask"])
        pooled = hcat.mean(axis=-2)
        e = pooled @ a["w_embed"] + a["b_embed"]
        # norms in float64, then one cast, so float32 tensors stay float32
        inv_norm = (1.0 / np.sqrt(_row_dots(e, e) + 1e-12)).astype(dt)
        z_out = e * inv_norm[..., None]
        cache = IterationCache(r, z, p, states, hcat, mask, z_out, inv_norm)
        return mask, z_out, cache

    def backward(self, cache: IterationCache, d_mask: np.ndarray,
                 d_z_out: np.ndarray, grads: dict):
        """Accumulate parameter gradients for one ``forward`` call.

        ``d_mask`` and ``d_z_out`` are shaped like the call's mask and
        embedding: (T, F) and (D,), or (B, T, F) and (B, D) with one row per
        slot.  Returns (d_residual, d_z_prev, d_static_pre) to chain
        gradients through the residual recursion, across blocks and into the
        block's projection; the first two keep the slot axis, and
        d_static_pre (T, P) is summed over it.
        """
        a = self.params.arrays
        dt = self.params.dtype
        t_len = cache.hcat.shape[-2]
        d_mask = np.asarray(d_mask, dtype=dt)
        d_z_out = np.asarray(d_z_out, dtype=dt)

        # embedding head (through the L2 normalization)
        along = _row_dots(cache.z_out, d_z_out).astype(dt)
        d_e = (d_z_out - cache.z_out * along[..., None]) * cache.inv_norm[..., None]
        pooled = cache.hcat.mean(axis=-2)
        grads["w_embed"] += _rows(pooled).T @ _rows(d_e)
        grads["b_embed"] += _rows(d_e).sum(axis=0)

        # mask head; the pooled embedding's gradient reaches every frame
        d_mask_pre = d_mask * cache.mask * (1.0 - cache.mask)
        grads["w_mask"] += _rows(cache.hcat).T @ _rows(d_mask_pre)
        grads["b_mask"] += _rows(d_mask_pre).sum(axis=0)
        d_hcat = (d_mask_pre @ a["w_mask"].T
                  + ((d_e @ a["w_embed"].T) / t_len)[..., None, :])

        # the recurrence in the kernel's time-major layout
        h = self.params.hidden
        d_x = kernels.rnn_seq_backward(
            cache.states, _joint_recurrence_weight(a),
            _join(_time_major(d_hcat[..., :h]), _time_major(d_hcat[..., h:])[::-1]))
        prev = np.concatenate([np.zeros_like(cache.states[:1]), cache.states[:-1]])
        grads["w_hf"] += _rows(prev[..., :h]).T @ _rows(d_x[..., :h])
        grads["w_hb"] += _rows(prev[..., h:]).T @ _rows(d_x[..., h:])
        d_xf = np.ascontiguousarray(np.moveaxis(d_x[..., :h], 0, -2))
        d_xb = np.ascontiguousarray(np.moveaxis(d_x[::-1, ..., h:], 0, -2))
        p_rows = _rows(cache.p)
        grads["w_xf"] += p_rows.T @ _rows(d_xf)
        grads["b_f"] += _rows(d_xf).sum(axis=0)
        grads["w_xb"] += p_rows.T @ _rows(d_xb)
        grads["b_b"] += _rows(d_xb).sum(axis=0)

        d_p = d_xf @ a["w_xf"].T + d_xb @ a["w_xb"].T
        d_pre = d_p * (1.0 - cache.p * cache.p)
        grads["w_res"] += _rows(cache.residual).T @ _rows(d_pre)
        d_pre_sum = d_pre.sum(axis=-2)
        grads["w_emb_in"] += _rows(cache.z_prev).T @ _rows(d_pre_sum)
        d_residual = d_pre @ a["w_res"].T
        d_z_prev = d_pre_sum @ a["w_emb_in"].T
        d_static_pre = d_pre.reshape(-1, *d_pre.shape[-2:]).sum(axis=0)
        return d_residual, d_z_prev, d_static_pre

    def finish_block_backward(self, ctx: BlockContext, d_static_pre, grads: dict):
        grads["w_static"] += ctx.features.T @ d_static_pre
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
        if not all(type(d) is int and d > 0 for d in dims):
            raise ValueError("dimensions must be positive integers")
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
