"""Hot sequence kernels for the recurrent mask network.

The tanh recurrence over time frames is the only part of the network that
cannot be expressed as a single BLAS call, so it gets a dedicated kernel.
numba is optional (the ``numba`` extra): the kernels are compiled with it
only when it is installed and the environment variable
``BLOCKSEP_NO_NUMBA`` is unset or ``0``; otherwise the pure-numpy fallbacks
run.  Both paths compute the same recurrence step by step and agree within
floating-point rounding.

``MaskNet`` runs its forward and time-reversed backward directions as one
2H-wide call whose (2H, 2H) weight is block-diagonal, so each step does
the zero blocks' multiply-adds too, in exchange for half the calls.

``benchmarks/bench_kernels.py`` times the two paths against each other.
"""

import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "rnn_seq_forward",
    "rnn_seq_backward",
    "rnn_seq_forward_numpy",
    "rnn_seq_backward_numpy",
]


def rnn_seq_forward_numpy(x, w_h, h0):
    """Run the recurrence h[t] = tanh(x[t] + h[t-1] @ w_h).

    Args:
        x: (T, H) pre-activations from the input path (already includes bias).
        w_h: (H, H) hidden-to-hidden weights.
        h0: (H,) initial hidden state.
    Returns:
        (T, H) hidden states.
    """
    t_len = x.shape[0]
    out = np.empty_like(x)
    h = h0.copy()
    for t in range(t_len):
        h = np.tanh(x[t] + np.dot(h, w_h))
        out[t] = h
    return out


def rnn_seq_backward_numpy(states, w_h, d_states):
    """Backward pass of :func:`rnn_seq_forward_numpy`.

    Args:
        states: (T, H) hidden states from the forward pass.
        w_h: (H, H) hidden-to-hidden weights.
        d_states: (T, H) loss gradient w.r.t. every hidden state.
    Returns:
        (T, H) gradient w.r.t. the pre-activation input ``x``.  The weight
        gradient is recovered by the caller as ``prev_states.T @ d_pre``.
    """
    t_len, h_dim = states.shape
    d_pre = np.empty_like(states)
    carry = np.zeros(h_dim, dtype=states.dtype)
    for t in range(t_len - 1, -1, -1):
        u = d_states[t] + carry
        g = u - u * states[t] * states[t]  # u * (1 - s^2), dtype-preserving
        d_pre[t] = g
        carry = np.dot(w_h, g)
    return d_pre


def _resolve_backend():
    if os.environ.get("BLOCKSEP_NO_NUMBA", "") not in ("", "0"):
        return False, rnn_seq_forward_numpy, rnn_seq_backward_numpy
    try:
        from numba import njit
    except ImportError:
        return False, rnn_seq_forward_numpy, rnn_seq_backward_numpy
    fwd = njit(cache=True)(rnn_seq_forward_numpy)
    bwd = njit(cache=True)(rnn_seq_backward_numpy)
    return True, fwd, bwd


USING_NUMBA, rnn_seq_forward, rnn_seq_backward = _resolve_backend()
