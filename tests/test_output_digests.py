"""The output-digest tool runs against the library as it is: it imports the
library's decode API, so an API change that breaks the tool fails here."""

import importlib
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _import_tool(monkeypatch):
    """The tool's module, imported afresh, with the import path restored
    afterwards: it puts ``src`` and ``benchmarks`` on it."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools")] + sys.path)
    monkeypatch.delitem(sys.modules, "output_digests", raising=False)
    return importlib.import_module("output_digests")


@pytest.fixture
def output_digests(monkeypatch):
    return _import_tool(monkeypatch)


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
            f"decode.{name}" for name in ("streams", "masks", "chunks", "embeddings",
                                          "counts", "consistency_log", "scores")]
        assert all(re.fullmatch("[0-9a-f]{64}", value) for value in lines.values())


def test_importing_the_digest_tool_leaves_blas_and_bytecode_settings_alone(monkeypatch):
    # the tool once pinned BLAS and stopped bytecode for its importer too
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    _import_tool(monkeypatch)
    assert not any(var in os.environ for var in blas)
    assert sys.dont_write_bytecode is False


def test_the_digest_tool_digests_the_tiny_train_meeting(output_digests, tmp_path):
    # a change to the training API would otherwise break the tool unseen
    workload = output_digests.workloads.TINY["train"]
    (seed,) = workload.meeting_seeds
    lines = {name: output_digests.digest(value) for name, value in
             output_digests.meeting_outputs(workload, seed, tmp_path, None)}
    assert list(lines) == ["scenario", "audio", "train_sample", "trained_params",
                           "epoch_losses"] + [
        f"decode.{name}" for name in ("streams", "masks", "chunks", "embeddings",
                                      "counts", "consistency_log", "scores")]
    assert all(re.fullmatch("[0-9a-f]{64}", value) for value in lines.values())
