"""Hot sequence kernels for the recurrent mask network.

The tanh recurrence over time frames is the only part of the network that
cannot be expressed as a single BLAS call, so it gets a dedicated kernel: a
numpy loop with one vector-matrix product per frame.  Each step writes in
place, into its row of the output and into buffers allocated once per call,
with the same operations in the same order as the plain per-step loop, so
the results are bit-identical to it; all inputs must share one dtype.

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


def rnn_seq_forward(x, w_h, h0):
    """Run the recurrence h[t] = tanh(x[t] + h[t-1] @ w_h).

    Args:
        x: (T, H) pre-activations from the input path (already includes bias).
        w_h: (H, H) hidden-to-hidden weights.
        h0: (H,) initial hidden state, not modified.
    Returns:
        (T, H) hidden states.  All inputs share one dtype, or ``TypeError``.
    """
    _check_one_dtype(x=x, w_h=w_h, h0=h0)
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
        states: (T, H) hidden states from the forward pass.
        w_h: (H, H) hidden-to-hidden weights.
        d_states: (T, H) loss gradient w.r.t. every hidden state.
    Returns:
        (T, H) gradient w.r.t. the pre-activation input ``x``.  The weight
        gradient is recovered by the caller as ``prev_states.T @ d_pre``.
        All inputs share one dtype, or ``TypeError``.
    """
    _check_one_dtype(states=states, w_h=w_h, d_states=d_states)
    h_dim = states.shape[1]
    d_pre = np.empty_like(states)
    carry = np.zeros(h_dim, dtype=states.dtype)
    u = np.empty_like(carry)
    tmp = np.empty_like(carry)
    for s, d_t, g in zip(states[::-1], d_states[::-1], d_pre[::-1]):
        np.add(d_t, carry, out=u)
        # g = u - (u * s) * s, i.e. u * (1 - s^2), dtype-preserving
        np.multiply(u, s, out=tmp)
        np.multiply(tmp, s, out=tmp)
        np.subtract(u, tmp, out=g)
        np.dot(w_h, g, out=carry)
    return d_pre


# Read by the benchmark (see the module docstring); numba is not a backend.
USING_NUMBA = False
rnn_seq_forward_numpy = rnn_seq_forward
rnn_seq_backward_numpy = rnn_seq_backward
