"""Tests for the packed artifact format: round trips, size, corruption."""

import json
import os
import pickle
import struct

import numpy as np
import pytest

from repro.core.inference import quantize_model_weights
from repro.formats import available_formats, parse_format
from repro.models import MLP
from repro.serve import (
    ArtifactError,
    artifact_info,
    fp32_state_nbytes,
    load_model,
    load_state,
    save_model,
)
from repro.serve.artifact import MAGIC


def tiny_model(seed=0, hidden=(6,)):
    return MLP(4, hidden=hidden, num_classes=3,
               rng=np.random.default_rng(seed))


# --------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------- #
def unique_registry_formats():
    """One instance per distinct registered format (aliases collapse)."""
    seen = {}
    for fmt in available_formats().values():
        seen.setdefault(fmt.spec(), fmt)
    return sorted(seen.values(), key=lambda fmt: fmt.spec())


@pytest.mark.parametrize("fmt", unique_registry_formats(),
                         ids=lambda fmt: fmt.spec())
def test_round_trip_every_registry_format(tmp_path, fmt):
    """Decoded weights match the reference scaled quantization, bit for bit."""
    model = tiny_model()
    path = tmp_path / "model.rpak"
    save_model(model, path, fmt=fmt)

    reference = tiny_model()
    scales = quantize_model_weights(reference, fmt, rounding="nearest",
                                    use_scaling=True)
    state, manifest = load_state(path)
    assert manifest["format"] == fmt.spec()
    for name, param in reference.named_parameters():
        assert np.array_equal(state[name], param.data), name
        assert scales[name] == next(t["scale"] for t in manifest["tensors"]
                                    if t["name"] == name)


@pytest.mark.parametrize("spec", ["posit(8,1)", "posit(6,1)", "posit(5,2)",
                                  "float(3,1)", "fixed(8,5)"])
def test_save_load_save_is_bit_identical(tmp_path, spec):
    """Re-exporting a loaded model reproduces the file byte for byte.

    Exercises odd widths whose packing is sub-byte: the decode->encode
    composition is the identity on the format's grid, provided the
    manifest's recorded scales are reused (recomputing Eq. (2) on the
    quantized weights may round to a different center).
    """
    model = tiny_model(seed=3)
    first = tmp_path / "a.rpak"
    second = tmp_path / "b.rpak"
    manifest = save_model(model, first, fmt=spec)
    reloaded, _manifest = load_model(first, model=tiny_model(seed=9))
    save_model(reloaded, second, fmt=spec,
               scales={t["name"]: t["scale"] for t in manifest["tensors"]})
    assert first.read_bytes() == second.read_bytes()


def test_manifest_rebuilds_model_without_caller_help(tmp_path):
    model = tiny_model(seed=5)
    path = tmp_path / "model.rpak"
    save_model(model, path, fmt="posit(8,1)",
               model_info={"model": "mlp", "model_kwargs": {"hidden": [6]},
                           "num_classes": 3, "in_features": 4, "seed": 5})
    rebuilt, manifest = load_model(path)
    state, _ = load_state(path)
    for name, param in rebuilt.named_parameters():
        assert np.array_equal(param.data, state[name])
    assert rebuilt.training is False


def test_buffers_round_trip_as_fp32(tmp_path):
    from repro.models import tiny_resnet

    model = tiny_resnet(num_classes=4, rng=np.random.default_rng(0))
    # Give the BN running stats non-trivial values.
    for name, buffer in model.named_buffers():
        np.asarray(buffer)[...] = np.random.default_rng(1).normal(
            size=np.asarray(buffer).shape)
    path = tmp_path / "resnet.rpak"
    save_model(model, path, fmt="posit(16,1)")
    state, manifest = load_state(path)
    for name, buffer in model.named_buffers():
        stored = np.asarray(buffer, dtype=np.float32).astype(np.float64)
        assert np.array_equal(state[name], stored), name
    kinds = {t["name"]: t["kind"] for t in manifest["tensors"]}
    assert any(kind == "buffer" for kind in kinds.values())


# --------------------------------------------------------------------- #
# The memory-savings claim
# --------------------------------------------------------------------- #
def test_packed_artifact_beats_fp32_pickle(tmp_path):
    """posit(8,1) artifact < FP32 pickle of the same state (§V claim)."""
    model = MLP(32, hidden=(64, 32), num_classes=10,
                rng=np.random.default_rng(0))
    path = tmp_path / "model.rpak"
    save_model(model, path, fmt="posit(8,1)")
    fp32_pickle = pickle.dumps({name: np.asarray(value, dtype=np.float32)
                                for name, value in model.state_dict().items()})
    artifact_bytes = os.path.getsize(path)
    assert artifact_bytes < len(fp32_pickle)
    assert artifact_bytes < fp32_state_nbytes(model)
    # The blob itself is a strict 4x win; the manifest is the only overhead.
    manifest = artifact_info(path)
    assert manifest["blob_nbytes"] * 4 <= fp32_state_nbytes(model) + 4


@pytest.mark.parametrize("spec,ratio", [("posit(8,1)", 4.0), ("posit(16,1)", 2.0),
                                        ("posit(6,1)", 32 / 6)])
def test_blob_size_matches_bit_width(tmp_path, spec, ratio):
    model = MLP(32, hidden=(64,), num_classes=10, rng=np.random.default_rng(0))
    path = tmp_path / "model.rpak"
    manifest = save_model(model, path, fmt=spec)
    params = sum(p.size for p in model.parameters())
    assert manifest["blob_nbytes"] == pytest.approx(4 * params / ratio, abs=8)


# --------------------------------------------------------------------- #
# Corruption rejection
# --------------------------------------------------------------------- #
@pytest.fixture
def saved(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.rpak"
    save_model(model, path, fmt="posit(8,1)")
    return path


def test_bad_magic_rejected(saved):
    data = saved.read_bytes()
    saved.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(ArtifactError, match="bad magic"):
        artifact_info(saved)


def test_unsupported_version_rejected(saved):
    data = bytearray(saved.read_bytes())
    data[len(MAGIC)] = 99
    saved.write_bytes(bytes(data))
    with pytest.raises(ArtifactError, match="version"):
        artifact_info(saved)


def test_corrupted_manifest_json_rejected(saved):
    data = bytearray(saved.read_bytes())
    data[len(MAGIC) + 5 + 2] ^= 0xFF  # flip a byte inside the JSON
    saved.write_bytes(bytes(data))
    with pytest.raises(ArtifactError):
        artifact_info(saved)


def test_flipped_blob_bit_rejected(saved):
    data = bytearray(saved.read_bytes())
    data[-1] ^= 0x01
    saved.write_bytes(bytes(data))
    with pytest.raises(ArtifactError, match="checksum"):
        load_state(saved)


def test_truncated_file_rejected(saved):
    data = saved.read_bytes()
    saved.write_bytes(data[:len(data) // 2])
    with pytest.raises(ArtifactError):
        load_state(saved)


def test_tensor_offsets_validated(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.rpak"
    save_model(model, path, fmt="posit(8,1)")
    # Rewrite the manifest so a tensor points outside the blob, re-deriving
    # lengths and the (valid) checksum — only the offset check can catch it.
    data = path.read_bytes()
    header = len(MAGIC) + 1 + 4
    (manifest_len,) = struct.unpack_from("<I", data, len(MAGIC) + 1)
    manifest = json.loads(data[header:header + manifest_len])
    blob = data[header + manifest_len:]
    manifest["tensors"][0]["offset"] = len(blob)
    raw = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(MAGIC + struct.pack("<B", 1) + struct.pack("<I", len(raw))
                     + raw + blob)
    with pytest.raises(ArtifactError, match="outside"):
        load_state(path)


def test_state_shape_mismatch_rejected(saved):
    wrong = MLP(5, hidden=(6,), num_classes=3, rng=np.random.default_rng(0))
    with pytest.raises(ArtifactError, match="does not fit"):
        load_model(saved, model=wrong)


def test_missing_model_block_is_actionable(saved):
    with pytest.raises(ArtifactError, match="load_state"):
        load_model(saved)


# --------------------------------------------------------------------- #
# v2: per-tensor formats + checksummed segments
# --------------------------------------------------------------------- #
def reference_state(model, specs, scales, rounding="nearest"):
    """Per-tensor reference quantization: what the artifact must decode to."""
    expected = {}
    for name, param in model.named_parameters():
        fmt = parse_format(specs[name])
        values = np.asarray(param.data, dtype=np.float64)
        scale = scales[name]
        codes = fmt.to_bits(values / scale, mode=rounding)
        expected[name] = (np.asarray(fmt.from_bits(codes), dtype=np.float64)
                          * scale).reshape(values.shape)
    return expected


def test_v2_manifest_shape(tmp_path):
    from repro.serve import ARTIFACT_MINOR_VERSION, ARTIFACT_VERSION

    manifest = save_model(tiny_model(), tmp_path / "m.rpak", fmt="posit(8,1)")
    assert manifest["version"] == ARTIFACT_VERSION == 2
    assert manifest["version_minor"] == ARTIFACT_MINOR_VERSION
    assert "blob_sha256" not in manifest  # integrity is per segment now
    for entry in manifest["tensors"]:
        assert len(entry["sha256"]) == 64
    assert (sum(entry["nbytes"] for entry in manifest["tensors"])
            == manifest["blob_nbytes"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_mixed_format_map_round_trip(tmp_path, seed):
    """Random ≥3-format maps: every tensor round-trips bit-identically on
    its own format grid, and re-export with recorded scales is
    byte-identical."""
    rng = np.random.default_rng(seed)
    formats = unique_registry_formats()
    model = tiny_model(seed=seed)
    names = [name for name, _ in model.named_parameters()]
    chosen = rng.choice(len(formats), size=3, replace=False)
    format_map = {name: formats[chosen[index % 3]].spec()
                  for index, name in enumerate(names)}
    assert len(set(format_map.values())) >= 3

    path = tmp_path / "mixed.rpak"
    manifest = save_model(model, path, format_map=format_map)
    specs = {t["name"]: t["format"] for t in manifest["tensors"]}
    scales = {t["name"]: t["scale"] for t in manifest["tensors"]}
    assert {specs[name] for name in names} == set(format_map.values())

    state, _ = load_state(path)
    expected = reference_state(model, specs, scales)
    for name in names:
        assert np.array_equal(state[name], expected[name]), name

    # save -> load -> save with the recorded scales: byte-identical file.
    reloaded, _ = load_model(path, model=tiny_model(seed=seed + 100))
    second = tmp_path / "again.rpak"
    save_model(reloaded, second,
               format_map=format_map,
               scales={name: scales[name] for name in names})
    assert path.read_bytes() == second.read_bytes()


def test_every_registry_format_participates_in_a_mixed_map(tmp_path):
    """Sweep the whole registry through mixed maps, three formats at a time."""
    formats = unique_registry_formats()
    model = tiny_model()
    names = [name for name, _ in model.named_parameters()]
    for start in range(0, len(formats), 3):
        chunk = formats[start:start + 3]
        format_map = {name: chunk[index % len(chunk)].spec()
                      for index, name in enumerate(names)}
        path = tmp_path / f"chunk{start}.rpak"
        manifest = save_model(model, path, fmt=chunk[0], format_map=format_map)
        specs = {t["name"]: t["format"] for t in manifest["tensors"]}
        scales = {t["name"]: t["scale"] for t in manifest["tensors"]}
        state, _ = load_state(path)
        expected = reference_state(model, specs, scales)
        for name in names:
            assert np.array_equal(state[name], expected[name]), (start, name)


def test_single_byte_corruption_rejected_in_every_segment(tmp_path):
    """Flip one byte inside each segment in turn: the load must fail with
    an error naming exactly that tensor."""
    from repro.serve import segment_table

    model = tiny_model()
    path = tmp_path / "m.rpak"
    save_model(model, path,
               format_map={"body.0.weight": "posit(6,1)",
                           "body.2.weight": "fixed(16,13)"})
    pristine = path.read_bytes()
    for row in segment_table(path):
        data = bytearray(pristine)
        data[row["file_offset"]] ^= 0x40
        bad = tmp_path / "bad.rpak"
        bad.write_bytes(bytes(data))
        with pytest.raises(ArtifactError) as excinfo:
            load_state(bad)
        assert "checksum mismatch" in str(excinfo.value)
        assert repr(row["name"]) in str(excinfo.value)


def test_format_map_exact_name_beats_pattern():
    from repro.serve import resolve_format_map

    resolved = resolve_format_map(
        ["body.0.weight", "body.0.bias", "body.2.weight"], "posit(8,1)",
        {"body.*": "fixed(16,13)", "body.0.weight": "posit(6,1)"})
    assert resolved["body.0.weight"].spec() == "posit(6,1)"
    assert resolved["body.0.bias"].spec() == "fixed(16,13)"
    assert resolved["body.2.weight"].spec() == "fixed(16,13)"


def test_format_map_patterns_first_match_wins():
    from repro.serve import resolve_format_map

    resolved = resolve_format_map(
        ["body.0.weight", "body.2.weight"], "posit(8,1)",
        {"body.0.*": "posit(16,1)", "body.*": "fixed(16,13)"})
    assert resolved["body.0.weight"].spec() == "posit(16,1)"
    assert resolved["body.2.weight"].spec() == "fixed(16,13)"


def test_format_map_unmatched_entry_rejected(tmp_path):
    with pytest.raises(ValueError, match="match no model tensor"):
        save_model(tiny_model(), tmp_path / "m.rpak",
                   format_map={"no.such.tensor": "posit(8,1)"})


def test_format_map_shadowed_entry_rejected_accurately():
    """A dead rule (every tensor it matches is claimed earlier) is refused
    with a diagnostic that says *shadowed*, not 'matches no tensor'."""
    from repro.serve import resolve_format_map

    with pytest.raises(ValueError, match="shadowed"):
        resolve_format_map(["body.0.weight"], "posit(8,1)",
                           {"body.*": "posit(8,1)",
                            "body.0.*": "posit(6,1)"})


def test_v1_writer_is_uniform_only(tmp_path):
    with pytest.raises(ValueError, match="uniform format"):
        save_model(tiny_model(), tmp_path / "m.rpak",
                   format_map={"body.0.weight": "posit(6,1)"}, version=1)
    with pytest.raises(ValueError, match="supported versions"):
        save_model(tiny_model(), tmp_path / "m.rpak", version=3)


def test_v1_writer_round_trips_through_v2_reader(tmp_path):
    model = tiny_model(seed=4)
    path = tmp_path / "v1.rpak"
    manifest = save_model(model, path, fmt="posit(8,1)", version=1)
    assert manifest["version"] == 1
    assert "blob_sha256" in manifest
    assert all("sha256" not in entry for entry in manifest["tensors"])
    state, loaded = load_state(path)
    assert loaded["version"] == 1
    for name, param in model.named_parameters():
        fmt = parse_format("posit(8,1)")
        scale = next(t["scale"] for t in manifest["tensors"]
                     if t["name"] == name)
        values = np.asarray(param.data, dtype=np.float64)
        codes = fmt.to_bits(values / scale, mode="nearest")
        expected = (np.asarray(fmt.from_bits(codes), dtype=np.float64)
                    * scale).reshape(values.shape)
        assert np.array_equal(state[name], expected), name


def test_iter_tensors_matches_load_state_for_both_versions(tmp_path):
    from repro.serve import iter_tensors

    model = tiny_model(seed=6)
    for version in (1, 2):
        path = tmp_path / f"v{version}.rpak"
        save_model(model, path, fmt="posit(8,1)", version=version)
        state, manifest = load_state(path)
        streamed = dict(iter_tensors(path))
        assert sorted(streamed) == sorted(state)
        assert [entry["name"] for entry in manifest["tensors"]] == list(streamed)
        for name, array in streamed.items():
            assert np.array_equal(array, state[name]), (version, name)


def test_segment_table_offsets_address_the_file(tmp_path):
    """``file_offset`` rows point at the exact packed bytes (mmap contract)."""
    import hashlib

    from repro.serve import segment_table

    model = tiny_model(seed=8)
    path = tmp_path / "m.rpak"
    save_model(model, path, format_map={"body.0.weight": "posit(6,1)"})
    data = path.read_bytes()
    for row in segment_table(path):
        segment = data[row["file_offset"]:row["file_offset"] + row["nbytes"]]
        assert hashlib.sha256(segment).hexdigest() == row["sha256"], row["name"]


def test_format_breakdown_accounts_for_every_byte(tmp_path):
    from repro.serve import format_breakdown

    manifest = save_model(tiny_model(), tmp_path / "m.rpak",
                          format_map={"body.0.weight": "posit(6,1)",
                                      "body.2.weight": "fixed(16,13)"})
    breakdown = format_breakdown(manifest)
    assert len(breakdown) >= 3
    assert (sum(row["nbytes"] for row in breakdown.values())
            == manifest["blob_nbytes"])
    assert (sum(row["tensors"] for row in breakdown.values())
            == len(manifest["tensors"]))


# --------------------------------------------------------------------- #
# load_model decodes in place
# --------------------------------------------------------------------- #
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "fixtures")


def state_bytes(model):
    """Every parameter and buffer's exact float64 bytes, by name."""
    return {name: np.ascontiguousarray(array, dtype=np.float64).tobytes()
            for name, array in model.state_dict().items()}


@pytest.mark.parametrize("name", ["v1_0_posit8", "v1_0_fixed16",
                                  "v1_1_posit8_guardrail", "v2_0_mixed"])
def test_load_model_matches_the_golden_decoded_state(name):
    """The in-place decode reproduces each frozen fixture's recorded state,
    bit for bit, and agrees with ``load_state``."""
    import hashlib

    path = os.path.join(GOLDEN_DIR, f"{name}.rpak")
    with open(os.path.join(GOLDEN_DIR, "expected", f"{name}.json"),
              encoding="utf-8") as handle:
        expected = json.load(handle)["state_sha256"]
    model, _manifest = load_model(path)
    loaded = state_bytes(model)
    assert {key: hashlib.sha256(raw).hexdigest()
            for key, raw in loaded.items()} == expected
    state, _ = load_state(path)
    assert loaded == {key: array.tobytes() for key, array in state.items()}


@pytest.mark.parametrize("use_scaling", [True, False])
def test_load_model_matches_load_state_on_wide_and_raw_tensors(tmp_path,
                                                              use_scaling):
    """posit(32,2) and bfloat16 weights next to raw-fp32 BatchNorm buffers,
    with Eq. (2) scales and with the unit scale whose multiply is skipped."""
    from repro.models import tiny_resnet

    def build(seed):
        return tiny_resnet(num_classes=4, rng=np.random.default_rng(seed))

    model = build(0)
    for _name, buffer in model.named_buffers():
        np.asarray(buffer)[...] = np.random.default_rng(1).normal(
            size=np.asarray(buffer).shape)
    names = [name for name, _ in model.named_parameters()]
    format_map = {name: ("posit(32,2)", "bfloat16")[index % 2]
                  for index, name in enumerate(names)}
    path = tmp_path / "wide.rpak"
    manifest = save_model(model, path, format_map=format_map,
                          use_scaling=use_scaling)
    scales = {t["name"]: t["scale"] for t in manifest["tensors"]}
    assert any(scale != 1.0 for scale in scales.values()) == use_scaling

    loaded, _ = load_model(path, model=build(2))
    state, _ = load_state(path)
    assert state_bytes(loaded) == {key: array.tobytes()
                                   for key, array in state.items()}
    expected = reference_state(model, format_map, scales)
    for name in names:
        assert np.array_equal(state[name], expected[name]), name
    for name, buffer in model.named_buffers():
        stored = np.asarray(buffer, dtype=np.float32).astype(np.float64)
        assert np.array_equal(state[name], stored), name


@pytest.mark.parametrize("version", [1, 2])
def test_corrupted_artifact_leaves_the_callers_model_untouched(tmp_path,
                                                               version):
    """The checksums all pass before the caller's model is written, so a
    flipped byte in the *last* segment cannot leave the earlier tensors
    half loaded."""
    path = tmp_path / "model.rpak"
    save_model(tiny_model(seed=1, hidden=(6, 5)), path, version=version)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))
    target = tiny_model(seed=2, hidden=(6, 5))
    before = state_bytes(target)
    with pytest.raises(ArtifactError, match="checksum mismatch"):
        load_model(path, model=target)
    assert state_bytes(target) == before


@pytest.mark.parametrize("wrong", [
    lambda: MLP(5, hidden=(6,), num_classes=3, rng=np.random.default_rng(0)),
    lambda: tiny_model(hidden=(6, 6)),
], ids=["shape", "names"])
def test_misfit_leaves_the_callers_model_untouched(saved, wrong):
    target = wrong()
    before = state_bytes(target)
    with pytest.raises(ArtifactError, match="does not fit"):
        load_model(saved, model=target)
    assert state_bytes(target) == before


def test_load_model_fills_arrays_it_cannot_decode_into_directly(saved):
    """A Fortran-ordered parameter and a float32 buffer get the decoded
    values too (a flat view of either would be a copy, or the wrong
    dtype), exactly as ``load_state_dict`` would write them."""
    target = tiny_model(seed=4)
    weight = dict(target.named_parameters())["body.0.weight"]
    weight.data = np.asfortranarray(weight.data)
    target.body[0].register_buffer("calls", np.zeros(2, dtype=np.float32))
    reference = tiny_model(seed=4)
    reference.body[0].register_buffer("calls", np.ones(2, dtype=np.float32))
    path = saved.parent / "with_buffer.rpak"
    save_model(reference, path)
    state, _ = load_state(path)
    load_model(path, model=target)
    assert not weight.data.flags.c_contiguous
    assert np.array_equal(weight.data, state["body.0.weight"])
    assert target.body[0].calls.dtype == np.float32
    assert np.array_equal(target.body[0].calls, [1.0, 1.0])
