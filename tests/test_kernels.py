import numpy as np
import pytest

from blocksep import kernels


def test_forward_recurrence_definition():
    # spot-check the recurrence against a hand-rolled loop
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    w = 0.5 * rng.normal(size=(3, 3))
    h0 = rng.normal(size=3)
    out = kernels.rnn_seq_forward(x, w, h0)
    h = h0
    for t in range(5):
        h = np.tanh(x[t] + h @ w)
        assert np.allclose(out[t], h)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    t_len, h_dim = 7, 4
    x = rng.normal(size=(t_len, h_dim))
    w = 0.5 * rng.normal(size=(h_dim, h_dim))
    h0 = np.zeros(h_dim)
    proj = rng.normal(size=(t_len, h_dim))

    def loss(xv):
        return float(np.sum(kernels.rnn_seq_forward(xv, w, h0) * proj))

    states = kernels.rnn_seq_forward(x, w, h0)
    d_x = kernels.rnn_seq_backward(states, w, proj)
    eps = 1e-6
    for idx in [(0, 0), (3, 2), (6, 3)]:
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        fd = (loss(xp) - loss(xm)) / (2 * eps)
        assert fd == pytest.approx(d_x[idx], rel=1e-5)
