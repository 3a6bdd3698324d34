"""Streaming tests: bounded peak memory and actionable truncation.

The v2 artifact layout exists so that ``load_state`` can decode one
checksummed segment at a time instead of materializing the whole packed
blob: peak *additional* allocation (beyond the decoded state itself) must
be bounded by the largest single tensor segment's decode footprint — the
property that lets a large model load on a machine with little headroom.
``save_model`` writes the same way round: it encodes and packs a tensor a
chunk at a time, so it never holds a whole tensor's scaled copy or codes.
``tracemalloc`` sees NumPy's allocations, so the bounds are measured, not
assumed.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.formats import parse_format
from repro.models import MLP
from repro.serve import (
    ArtifactError,
    artifact_info,
    load_state,
    save_model,
    segment_table,
)
from repro.serve.artifact import _DECODE_BLOCK
from repro.serve.packing import pack_codes

#: Many same-sized segments, so whole-blob residency would dwarf any single
#: segment: 64 hidden Linear layers of 128x128 @ fixed(16,13) pack ~32 KB
#: each (~2.1 MB blob) while one segment's decode scratch stays a few
#: hundred KB.
LAYER_WIDTH = 128
HIDDEN_LAYERS = 64

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Runs in a fresh interpreter: the high-water RSS ``load_model`` adds on
#: top of everything it imports, against the decoded state's bytes.
FOOTPRINT_SCRIPT = """
import json, sys
import repro.api  # everything load_model imports, before the baseline
from repro.serve import load_model

def vm_hwm():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

before = vm_hwm()
model, _manifest = load_model(sys.argv[1])
decoded = sum(param.data.nbytes for param in model.parameters())
print(json.dumps({"growth": vm_hwm() - before, "decoded": decoded}))
"""


@pytest.fixture(scope="module")
def large_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("streaming") / "large.rpak"
    model = MLP(LAYER_WIDTH, hidden=(LAYER_WIDTH,) * HIDDEN_LAYERS,
                num_classes=16, rng=np.random.default_rng(0))
    manifest = save_model(model, path, fmt="fixed(16,13)")
    return str(path), manifest


def test_peak_extra_memory_bounded_by_largest_segment(large_artifact):
    path, manifest = large_artifact
    blob_nbytes = manifest["blob_nbytes"]
    largest_segment = max(int(entry["nbytes"]) for entry in manifest["tensors"])
    assert blob_nbytes > 30 * largest_segment  # the premise: many segments
    # Build the codec's decode tables first: they are made once per
    # process, not per load, and would otherwise land in the window.
    parse_format("fixed(16,13)").from_bits(0)

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        state, _manifest = load_state(path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    decoded_nbytes = sum(array.nbytes for array in state.values())
    additional = peak - decoded_nbytes
    # The whole blob is never resident: scratch stays well under the blob
    # (the v1 monolithic reader necessarily exceeds this — it holds the
    # full blob on top of the decoded state)...
    assert additional < 0.6 * blob_nbytes, (
        f"streaming load used {additional} extra bytes against a "
        f"{blob_nbytes}-byte blob — looks like a whole-blob read")
    # ...and is proportional to ONE segment's decode footprint: its packed
    # bytes (one chunk here), the codec's int64 codes and float64 values
    # (~24 B per 2-byte code) and a transient parse of the manifest measure
    # ~19x the packed segment; a bit-matrix unpacker (~28x) fails the bound.
    assert additional < 24 * largest_segment, (
        f"{additional} extra bytes is not bounded by the largest "
        f"segment ({largest_segment} bytes)")


def test_v1_monolithic_load_exceeds_the_streaming_bound(tmp_path):
    """Sanity check of the measurement itself: the legacy v1 reader holds
    the entire blob, so its extra memory must blow past the blob bound the
    streaming reader honours."""
    path = tmp_path / "large_v1.rpak"
    model = MLP(LAYER_WIDTH, hidden=(LAYER_WIDTH,) * HIDDEN_LAYERS,
                num_classes=16, rng=np.random.default_rng(0))
    manifest = save_model(model, path, fmt="fixed(16,13)", version=1)

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        state, _manifest = load_state(path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    decoded_nbytes = sum(array.nbytes for array in state.values())
    additional = peak - decoded_nbytes
    assert additional >= manifest["blob_nbytes"]


def test_truncated_file_names_the_offending_segment(large_artifact, tmp_path):
    path, manifest = large_artifact
    data = open(path, "rb").read()
    # Cut mid-way through the blob: the error must name the first tensor
    # whose segment no longer fits, not just say "bad file".
    rows = segment_table(path)
    victim = rows[len(rows) // 2]
    cut = victim["file_offset"] + victim["nbytes"] // 2
    bad = tmp_path / "trunc.rpak"
    bad.write_bytes(data[:cut])
    with pytest.raises(ArtifactError) as excinfo:
        load_state(bad)
    assert "truncated" in str(excinfo.value)
    assert repr(victim["name"]) in str(excinfo.value)


def test_truncation_inside_the_last_segment_is_still_named(large_artifact,
                                                           tmp_path):
    path, _manifest = large_artifact
    data = open(path, "rb").read()
    last = segment_table(path)[-1]
    bad = tmp_path / "tail.rpak"
    bad.write_bytes(data[:-3])
    with pytest.raises(ArtifactError, match=repr(last["name"])):
        load_state(bad)


def test_extra_trailing_bytes_rejected(large_artifact, tmp_path):
    path, _manifest = large_artifact
    bad = tmp_path / "padded.rpak"
    bad.write_bytes(open(path, "rb").read() + b"\x00\x00")
    with pytest.raises(ArtifactError, match="length mismatch"):
        load_state(bad)


def test_artifact_info_verifies_segments_without_decoding(large_artifact,
                                                          tmp_path):
    """``artifact_info`` streams the checksums: bounded memory, and it
    still catches a flipped byte anywhere in the blob."""
    path, manifest = large_artifact
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        info = artifact_info(path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info["blob_nbytes"] == manifest["blob_nbytes"]
    assert peak < 0.75 * manifest["blob_nbytes"]

    data = bytearray(open(path, "rb").read())
    data[-1] ^= 0x01
    bad = tmp_path / "flipped.rpak"
    bad.write_bytes(bytes(data))
    with pytest.raises(ArtifactError, match="checksum mismatch"):
        artifact_info(bad)


def test_streamed_state_loads_into_the_model(large_artifact):
    path, _manifest = large_artifact
    model = MLP(LAYER_WIDTH, hidden=(LAYER_WIDTH,) * HIDDEN_LAYERS,
                num_classes=16, rng=np.random.default_rng(1))
    state, _ = load_state(path)
    model.load_state_dict(state)
    for name, param in model.named_parameters():
        assert np.array_equal(param.data, state[name]), name
    assert os.path.getsize(path) < 4 * 1024 * 1024  # the fixture stays small


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the high-water RSS (VmHWM) from /proc")
def test_load_model_footprint_in_a_fresh_process(tmp_path):
    """``load_model`` decodes straight into the rebuilt model.  In a fresh
    process its high-water RSS grows by the model itself plus the chunked
    decode's scratch (~1.3x the decoded state), where a decoded state dict
    and ``load_state_dict``'s copy of it read ~4.2x."""
    path = tmp_path / "wide.rpak"
    model = MLP(2, hidden=(2048, 1024), num_classes=3,
                rng=np.random.default_rng(0))
    save_model(model, path, fmt="posit(8,1)",
               model_info={"model": "mlp",
                           "model_kwargs": {"hidden": [2048, 1024]},
                           "num_classes": 3, "in_features": 2, "seed": 0})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else []))}
    completed = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(path)], env=env,
        capture_output=True, text=True, timeout=120, check=True)
    row = json.loads(completed.stdout.strip().splitlines()[-1])
    assert row["decoded"] == sum(p.data.nbytes for p in model.parameters())
    ratio = row["growth"] / row["decoded"]
    assert ratio < 1.6, (
        f"load_model grew VmHWM by {row['growth']} bytes, {ratio:.2f}x the "
        f"{row['decoded']}-byte decoded state")


# --------------------------------------------------------------------- #
# Writing: one chunk of a tensor at a time
# --------------------------------------------------------------------- #
def test_save_holds_no_whole_tensor_copy(tmp_path):
    """Saving the serve-bench MLP (a 2048x1024 layer) with its recorded
    scales, as an export's final write does: a whole-tensor encode held the
    scaled float64 copy and the int64 codes, 32 MiB for that layer alone."""
    model = MLP(2, hidden=(2048, 1024), num_classes=3,
                rng=np.random.default_rng(0))
    first = save_model(model, tmp_path / "first.rpak")  # builds the codec too
    scales = {entry["name"]: entry["scale"] for entry in first["tensors"]}

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        manifest = save_model(model, tmp_path / "m.rpak", scales=scales)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert manifest["tensors"] == first["tensors"]
    # The packed blob (~2.1 MB) plus one chunk's codec scratch.
    assert peak < 8 * 2**20, f"save_model peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("spec", ["posit(5,1)", "posit(8,1)", "posit(16,1)",
                                  "fixed(16,13)", "posit(32,2)"])
def test_chunked_encode_matches_a_whole_tensor_encode(tmp_path, spec, version):
    """Segments and checksums equal a whole-tensor ``to_bits`` and pack, on a
    tensor of more than one chunk that ends mid-chunk."""
    model = MLP(3, hidden=(23339,), num_classes=3, rng=np.random.default_rng(2))
    assert 3 * 23339 > _DECODE_BLOCK
    path = tmp_path / "m.rpak"
    manifest = save_model(model, path, fmt=spec, version=version)
    fmt = parse_format(spec)
    data = path.read_bytes()
    blob = data[len(data) - manifest["blob_nbytes"]:]
    params = dict(model.named_parameters())
    for entry in manifest["tensors"]:
        segment = blob[entry["offset"]:entry["offset"] + entry["nbytes"]]
        if entry["kind"] == "param":
            values = np.asarray(params[entry["name"]].data, dtype=np.float64)
            codes = fmt.to_bits(values / entry["scale"], mode="nearest")
            assert segment == pack_codes(codes, fmt.bits), entry["name"]
        if version == 2:
            assert entry["sha256"] == hashlib.sha256(segment).hexdigest()
    if version == 1:
        assert manifest["blob_sha256"] == hashlib.sha256(blob).hexdigest()
