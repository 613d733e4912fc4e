"""Micro-run of the tanh recurrence kernels at the shapes the system uses.

Times ``kernels.rnn_seq_forward`` and ``kernels.rnn_seq_backward`` at the
decode shape (T=1247 frames: 10 s blocks at hop 64) and the training shape
(T=623 frames: hop 128), H=64, float32 like the default model.  Alongside
the time per step it reports the computed work per step (see
:func:`step_flops` and :func:`step_bytes`; these are counted from the
shapes, not measured) and which backend ran.  When numba is not importable
the compiled path cannot run, so its row is reported as unverified.

Run ``python3 benchmarks/bench_kernels.py`` from the repository root for a
table; ``benchmarks/run.py --trace 1`` includes the same figures.
"""

import sys
import time
from pathlib import Path

import numpy as np

SHAPES = {"decode": (1247, 64), "train": (623, 64)}
REPEATS = 7


def step_flops(kind, hidden):
    """Computed floating-point operations of one recurrence step.

    Forward: one (H,)x(H,H) product (2H^2), the input add and the tanh (2H).
    Backward: the carry add, u*(1-s^2) (4H) and one (H,H)x(H,) product (2H^2).
    """
    if kind == "forward":
        return 2 * hidden * hidden + 2 * hidden
    return 2 * hidden * hidden + 4 * hidden


def step_bytes(kind, hidden, itemsize):
    """Computed bytes one step reads and writes, counting the (H, H) weight
    once per step (no cache reuse assumed): forward reads W and x[t] and
    writes h[t]; backward reads W, s[t] and d[t] and writes the gradient."""
    vectors = 2 if kind == "forward" else 3
    return (hidden * hidden + vectors * hidden) * itemsize


def _time_call(fn, args, repeats=REPEATS):
    fn(*args)  # warm-up (also triggers JIT compilation on the numba path)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def micro_run(forward, backward, dtype=np.float32, seed=0):
    """Time a forward/backward kernel pair at every shape in :data:`SHAPES`.

    Returns ``{(kind, shape_name): seconds_per_step}``.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for shape_name, (t_len, hidden) in SHAPES.items():
        x = rng.normal(0.0, 1.0, (t_len, hidden)).astype(dtype)
        w_h = (0.1 * rng.normal(0.0, 1.0, (hidden, hidden))).astype(dtype)
        h0 = np.zeros(hidden, dtype=dtype)
        states = forward(x, w_h, h0)
        d_states = rng.normal(0.0, 1.0, (t_len, hidden)).astype(dtype)
        out[("forward", shape_name)] = (
            _time_call(forward, (x, w_h, h0)) / t_len)
        out[("backward", shape_name)] = (
            _time_call(backward, (states, w_h, d_states)) / t_len)
    return out


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from blocksep import kernels

    itemsize = np.dtype(np.float32).itemsize
    paths = {"numpy": (kernels.rnn_seq_forward_numpy, kernels.rnn_seq_backward_numpy)}
    if kernels.USING_NUMBA:
        paths["numba"] = (kernels.rnn_seq_forward, kernels.rnn_seq_backward)
    print(f"{'path':6} {'kernel':9} {'shape':7} {'T':>5} {'H':>3} {'us/step':>8} "
          f"{'flop/step':>9} {'B/step':>7}")
    for path, (forward, backward) in paths.items():
        for (kind, shape_name), sec in micro_run(forward, backward).items():
            t_len, hidden = SHAPES[shape_name]
            print(f"{path:6} {kind:9} {shape_name:7} {t_len:5d} {hidden:3d} "
                  f"{sec * 1e6:8.2f} {step_flops(kind, hidden):9d} "
                  f"{step_bytes(kind, hidden, itemsize):7d}")
    if not kernels.USING_NUMBA:
        print("numba  unverified: numba is not importable here, or "
              "BLOCKSEP_NO_NUMBA is set")


if __name__ == "__main__":
    main()
