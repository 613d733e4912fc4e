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


def _forward_loop(x, w_h, h0):
    """The plain per-step recurrence, allocating every step."""
    out = np.empty_like(x)
    h = h0.copy()
    for t in range(x.shape[0]):
        h = np.tanh(x[t] + np.dot(h, w_h))
        out[t] = h
    return out


def _backward_loop(states, w_h, d_states):
    """The plain per-step backward of :func:`_forward_loop`."""
    t_len, h_dim = states.shape
    d_pre = np.empty_like(states)
    carry = np.zeros(h_dim, dtype=states.dtype)
    for t in range(t_len - 1, -1, -1):
        u = d_states[t] + carry
        g = u - u * states[t] * states[t]
        d_pre[t] = g
        carry = np.dot(w_h, g)
    return d_pre


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_equal_the_per_step_loop(dtype):
    # the in-place kernels run the loop's operations in the loop's order;
    # 2H = 128 as in MaskNet's joint recurrence
    rng = np.random.default_rng(3)
    t_len, h_dim = 50, 128
    x = rng.normal(size=(t_len, h_dim)).astype(dtype)
    w = (0.1 * rng.normal(size=(h_dim, h_dim))).astype(dtype)
    h0 = rng.normal(size=h_dim).astype(dtype)
    h0_before = h0.copy()
    states = kernels.rnn_seq_forward(x, w, h0)
    assert states.dtype == dtype
    assert np.array_equal(states, _forward_loop(x, w, h0))
    assert np.array_equal(h0, h0_before)
    d_states = rng.normal(size=(t_len, h_dim)).astype(dtype)
    d_pre = kernels.rnn_seq_backward(states, w, d_states)
    assert d_pre.dtype == dtype
    assert np.array_equal(d_pre, _backward_loop(states, w, d_states))


def test_kernels_reject_mixed_dtypes():
    x = np.zeros((3, 2), dtype=np.float32)
    w32, w64 = np.zeros((2, 2), dtype=np.float32), np.zeros((2, 2))
    with pytest.raises(TypeError, match="x float32, w_h float64, h0 float32"):
        kernels.rnn_seq_forward(x, w64, np.zeros(2, dtype=np.float32))
    with pytest.raises(TypeError, match="h0 float64"):
        kernels.rnn_seq_forward(x, w32, np.zeros(2))
    with pytest.raises(TypeError, match="states float32, w_h float32, d_states float64"):
        kernels.rnn_seq_backward(x, w32, np.zeros((3, 2)))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_batched_rows_equal_single_sequence_calls(dtype, tol):
    # a (T, B, H) call steps B sequences in lockstep; each row equals its own
    # (T, H) call up to the matrix product's summation order.  w_h is drawn
    # as init_params draws the recurrence weights (0.9 x Glorot uniform).
    rng = np.random.default_rng(4)
    t_len, batch, h_dim = 60, 5, 128
    x = rng.normal(size=(t_len, batch, h_dim)).astype(dtype)
    bound = 0.9 * np.sqrt(6.0 / (2 * h_dim))
    w = rng.uniform(-bound, bound, (h_dim, h_dim)).astype(dtype)
    h0 = rng.normal(size=(batch, h_dim)).astype(dtype)
    d_states = rng.normal(size=(t_len, batch, h_dim)).astype(dtype)
    states = kernels.rnn_seq_forward(x, w, h0)
    d_pre = kernels.rnn_seq_backward(states, w, d_states)
    assert states.shape == d_pre.shape == (t_len, batch, h_dim)
    assert states.dtype == d_pre.dtype == dtype
    for b in range(batch):
        one = kernels.rnn_seq_forward(np.ascontiguousarray(x[:, b]), w, h0[b])
        assert np.max(np.abs(states[:, b] - one)) <= tol * np.max(np.abs(one))
        d_one = kernels.rnn_seq_backward(one, w, np.ascontiguousarray(d_states[:, b]))
        assert np.max(np.abs(d_pre[:, b] - d_one)) <= tol * np.max(np.abs(d_one))


def test_batched_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    t_len, batch, h_dim = 7, 3, 4
    x = rng.normal(size=(t_len, batch, h_dim))
    w = 0.5 * rng.normal(size=(h_dim, h_dim))
    h0 = rng.normal(size=(batch, h_dim))
    proj = rng.normal(size=(t_len, batch, h_dim))

    def loss(xv):
        return float(np.sum(kernels.rnn_seq_forward(xv, w, h0) * proj))

    d_x = kernels.rnn_seq_backward(kernels.rnn_seq_forward(x, w, h0), w, proj)
    eps = 1e-6
    for idx in [(0, 0, 0), (3, 1, 2), (6, 2, 3), (2, 2, 0)]:
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        fd = (loss(xp) - loss(xm)) / (2 * eps)
        assert fd == pytest.approx(d_x[idx], rel=1e-5)


_X, _W = np.zeros((5, 4)), np.zeros((4, 4))


@pytest.mark.parametrize("call, message", [
    # these failed deep inside numpy, naming no input
    (lambda: kernels.rnn_seq_forward(_X, _W, np.zeros(3)),
     r"h0 must be \(4,\) like x\[0\] for x of shape \(5, 4\), not \(3,\)"),
    (lambda: kernels.rnn_seq_forward(np.zeros((5, 2, 4)), _W, np.zeros(4)),
     r"h0 must be \(2, 4\) .* not \(4,\)"),
    (lambda: kernels.rnn_seq_forward(_X, np.zeros((4, 3)), np.zeros(4)),
     r"w_h must be \(4, 4\) for x of shape \(5, 4\), not \(4, 3\)"),
    (lambda: kernels.rnn_seq_backward(_X, np.zeros((3, 3)), _X),
     r"w_h must be \(4, 4\) for states .* not \(3, 3\)"),
    (lambda: kernels.rnn_seq_forward(np.zeros(4), _W, np.zeros(4)),
     r"x must be \(T, H\) or \(T, B, H\), not \(4,\)"),
    # fewer frames of d_states than of states were accepted, and the first
    # rows of the result came back uninitialized
    (lambda: kernels.rnn_seq_backward(_X, _W, np.zeros((4, 4))),
     r"d_states must be \(5, 4\) like states, not \(4, 4\)"),
    (lambda: kernels.rnn_seq_backward(np.zeros((5, 2, 4)), _W, np.zeros((5, 3, 4))),
     r"d_states must be \(5, 2, 4\) like states, not \(5, 3, 4\)"),
], ids=["h0", "batched-h0", "forward-w_h", "backward-w_h", "x-ndim", "d_states-frames",
        "batched-d_states"])
def test_kernels_reject_mismatched_shapes(call, message):
    with pytest.raises(ValueError, match=message):
        call()
