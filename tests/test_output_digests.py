"""The output-digest tool runs against the library as it is: it imports the
library's decode API, so an API change that breaks the tool fails here."""

import importlib
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def output_digests(monkeypatch):
    """The tool's module, imported with its settings undone afterwards: it
    pins BLAS through the environment and puts ``src`` and ``benchmarks`` on
    the import path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools")] + sys.path)
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.delitem(sys.modules, "output_digests", raising=False)
    return importlib.import_module("output_digests")


def test_the_digest_tool_digests_the_tiny_decode_meetings(output_digests, tmp_path):
    workloads = output_digests.workloads
    decode = [w for w in workloads.TINY.values() if w.kind == "decode"]
    assert [w.estimator for w in decode] == ["net", "oracle"]
    for workload in decode:
        checkpoint = (workloads.write_checkpoint(workload, tmp_path)
                      if workload.estimator == "net" else None)
        (seed,) = workload.meeting_seeds
        lines = {name: output_digests.digest(value) for name, value in
                 output_digests.meeting_outputs(workload, seed, tmp_path, checkpoint)}
        inputs = "block_inputs" if workload.estimator == "net" else "oracle_irms"
        assert list(lines) == ["scenario", "audio", inputs] + [
            f"decode.{name}" for name in ("streams", "masks", "embeddings", "counts",
                                          "consistency_log", "scores")]
        assert all(re.fullmatch("[0-9a-f]{64}", value) for value in lines.values())
