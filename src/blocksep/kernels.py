"""Hot sequence kernels for the recurrent mask network.

The tanh recurrence over time frames is the only part of the network that
cannot be expressed as a single BLAS call, so it gets a dedicated kernel: a
numpy loop with one vector-matrix product per frame.  Each step writes in
place, into its row of the output and into buffers allocated once per call,
with the same operations in the same order as the plain per-step loop, so
the results are bit-identical to it; all inputs must share one dtype.

Both kernels take an optional batch axis after the time axis: ``x`` of shape
(T, B, H) steps B independent sequences in lockstep, one (B, H) x (H, H)
matrix product per frame instead of B vector-matrix products.  Training
uses it for a block's teacher-forced slots, whose inputs do not depend on
each other.  Batched rows are not bit-identical to single-sequence calls,
because a matrix product sums in another order than a vector product.  A
decode stays single-sequence: each slot's residual needs the previous
slot's mask, so a block's slots cannot step together.

``MaskNet`` runs its forward and time-reversed backward directions as one
2H-wide call whose (2H, 2H) weight is block-diagonal, so each step does
the zero blocks' multiply-adds too, in exchange for half the calls.

``USING_NUMBA`` (always ``False``) and the ``rnn_seq_*_numpy`` aliases stay
because ``benchmarks/env.py``, ``benchmarks/layers.py`` and
``benchmarks/bench_kernels.py`` read them to report and time the backend.
"""

import numpy as np

__all__ = [
    "USING_NUMBA",
    "rnn_seq_forward",
    "rnn_seq_backward",
    "rnn_seq_forward_numpy",
    "rnn_seq_backward_numpy",
]


def _check_one_dtype(**arrays):
    """Reject inputs of mixed dtypes: the in-place steps would cast silently."""
    dtypes = {name: a.dtype for name, a in arrays.items()}
    if len(set(dtypes.values())) > 1:
        named = ", ".join(f"{name} {dtype}" for name, dtype in dtypes.items())
        raise TypeError(f"kernel inputs must share one dtype, not {named}")


def _check_shapes(seq_name, seq, w_h):
    """Reject a sequence that is not (T, H) or (T, B, H), and a ``w_h`` that
    is not (H, H)."""
    if seq.ndim not in (2, 3):
        raise ValueError(f"{seq_name} must be (T, H) or (T, B, H), not {seq.shape}")
    h_dim = seq.shape[-1]
    if w_h.shape != (h_dim, h_dim):
        raise ValueError(f"w_h must be ({h_dim}, {h_dim}) for {seq_name} of shape "
                         f"{seq.shape}, not {w_h.shape}")


def rnn_seq_forward(x, w_h, h0):
    """Run the recurrence h[t] = tanh(x[t] + h[t-1] @ w_h).

    Args:
        x: (T, H) pre-activations from the input path (already includes
            bias), or (T, B, H) for B sequences stepped in lockstep.
        w_h: (H, H) hidden-to-hidden weights.
        h0: (H,) or (B, H) initial hidden state, shaped like ``x[0]``; not
            modified.
    Returns:
        Hidden states shaped like ``x``.  All inputs share one dtype, or
        ``TypeError``; mismatched shapes raise ``ValueError``.
    """
    _check_one_dtype(x=x, w_h=w_h, h0=h0)
    _check_shapes("x", x, w_h)
    if h0.shape != x.shape[1:]:
        raise ValueError(f"h0 must be {x.shape[1:]} like x[0] for x of shape "
                         f"{x.shape}, not {h0.shape}")
    out = np.empty_like(x)
    buf = np.empty_like(h0)
    h = h0
    for x_t, out_t in zip(x, out):
        np.dot(h, w_h, out=buf)
        np.add(x_t, buf, out=buf)
        np.tanh(buf, out=out_t)
        h = out_t
    return out


def rnn_seq_backward(states, w_h, d_states):
    """Backward pass of :func:`rnn_seq_forward`.

    Args:
        states: (T, H) or (T, B, H) hidden states from the forward pass.
        w_h: (H, H) hidden-to-hidden weights.
        d_states: loss gradient w.r.t. every hidden state, shaped like
            ``states``.
    Returns:
        Gradient w.r.t. the pre-activation input ``x``, shaped like
        ``states``.  The weight gradient is recovered by the caller as
        ``prev_states.T @ d_pre``.  All inputs share one dtype, or
        ``TypeError``; mismatched shapes raise ``ValueError``.
    """
    _check_one_dtype(states=states, w_h=w_h, d_states=d_states)
    _check_shapes("states", states, w_h)
    if d_states.shape != states.shape:
        raise ValueError(f"d_states must be {states.shape} like states, "
                         f"not {d_states.shape}")
    d_pre = np.empty_like(states)
    carry = np.zeros(states.shape[1:], dtype=states.dtype)
    u = np.empty_like(carry)
    tmp = np.empty_like(carry)
    # carry = g @ w_h.T: for one sequence the same BLAS call as w_h @ g
    w_t = w_h.T
    for s, d_t, g in zip(states[::-1], d_states[::-1], d_pre[::-1]):
        np.add(d_t, carry, out=u)
        # g = u - (u * s) * s, i.e. u * (1 - s^2), dtype-preserving
        np.multiply(u, s, out=tmp)
        np.multiply(tmp, s, out=tmp)
        np.subtract(u, tmp, out=g)
        np.dot(g, w_t, out=carry)
    return d_pre


# Read by the benchmark (see the module docstring); numba is not a backend.
USING_NUMBA = False
rnn_seq_forward_numpy = rnn_seq_forward
rnn_seq_backward_numpy = rnn_seq_backward
