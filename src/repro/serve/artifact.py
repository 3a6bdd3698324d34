"""Packed posit model artifacts: a versioned, self-describing checkpoint format.

The paper's deployment story (inherited from Deep Positron, its ref. [12]) is
that a model trained in posit is *served* in posit: parameters live in memory
as n-bit posit words, decoded by the hardware codec on the way into the MAC
array.  This module is the software realization of that storage format:

* :func:`save_model` packs every parameter through its format's ``to_bits``
  into a dense n-bit buffer (:mod:`repro.serve.packing`) with the layer-wise
  Eq. (2)/(3) scale factor recorded per tensor, so decoding is exactly
  ``from_bits(codes) * scale``;
* since **v2.0** the format is **per tensor**: the manifest's ``tensors[]``
  entries each carry their own registry spec, so a mixed-precision model —
  posit(8,1) conv weights next to posit(16,1) BatchNorm parameters, the
  paper's Table III footnote shape — packs each tensor at its own bit width
  with its own Eq. (2) scale (``format_map`` / ``resolve_format_map``);
* non-trainable buffers (BatchNorm running statistics) are stored as raw
  little-endian ``float32`` — they are not part of the paper's quantized
  state and are negligibly small;
* a JSON manifest carries the format specs, shapes, scales, byte offsets,
  model-architecture description, and — v2.0 — a SHA-256 **per segment**,
  so the reader can stream one tensor at a time (:func:`iter_tensors`) with
  peak extra memory bounded by the largest single segment instead of the
  whole blob, while still rejecting any single-byte corruption and naming
  the offending segment;
* the manifest may carry a **guardrail block** (since v1.1): a small
  held-out calibration batch (inputs, labels, the exact serving-path
  logits, and the reference accuracy) that every serving process replays at
  startup, refusing to serve when the replay is not bit-identical or the
  accuracy drifts beyond the recorded tolerance (:mod:`repro.serve.engine`);
* :func:`load_model` rebuilds the architecture from the manifest (via
  :mod:`repro.api`'s model zoo) and decodes every segment straight into its
  parameter or buffer, with no decoded copy of the state in between —
  bit-identical across save/load/save round trips for every registry format,
  including sub-byte widths like posit(6,1).

File layout (single file, magic ``RPAK`` + one version byte)::

    b"RPAK" | version:u8 | manifest_len:u32-LE | manifest JSON | packed blob

Version compatibility: this reader loads **v1** artifacts (monolithic
``blob_sha256``, one uniform format) bit-identically to the v1 reader — a
uniform format is just the degenerate per-tensor map — which the golden
fixtures under ``tests/serve/fixtures/`` pin byte for byte.  The v1 writer
is kept (``save_model(..., version=1)``) so those fixtures can be
regenerated and the matrix extended when a v3 ships.
"""

from __future__ import annotations

import fnmatch
import hashlib
import io
import json
import os
import struct
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from ..core.scaling import compute_scale_factor
from ..formats import NumberFormat, as_format, parse_format
from ..nn import Module
from .packing import pack_codes, packed_nbytes, unpack_codes

__all__ = [
    "ArtifactError",
    "save_model",
    "load_model",
    "load_state",
    "iter_tensors",
    "artifact_info",
    "read_manifest",
    "segment_table",
    "format_breakdown",
    "resolve_format_map",
    "fp32_state_nbytes",
    "ARTIFACT_VERSION",
    "ARTIFACT_MINOR_VERSION",
    "SUPPORTED_VERSIONS",
]

MAGIC = b"RPAK"
#: Current artifact major version: per-tensor formats + checksummed segments.
ARTIFACT_VERSION = 2
#: Manifest minor version.  Minor bumps are additive (new optional manifest
#: blocks like v1.1's ``guardrail``); readers accept any minor under a
#: supported major.
ARTIFACT_MINOR_VERSION = 0
#: Major versions this reader loads.  v1 artifacts (uniform format, one
#: monolithic blob checksum) decode bit-identically to the v1 reader.
SUPPORTED_VERSIONS = (1, 2)

#: Minor version the legacy v1 writer stamps (v1.1 = guardrail-capable).
_V1_MINOR_VERSION = 1

#: RPAK header: magic(4) + version(1) + manifest length prefix (u32 LE).
_HEADER_LEN = len(MAGIC) + 1 + 4

#: Manifest ``format`` value for raw little-endian float32 buffer tensors.
RAW_FP32 = "raw_fp32"

#: Values per ``to_bits`` call when a tensor is written, and per chunk a
#: segment is read in and per ``from_bits`` call when it is loaded: bounds
#: the codec's chunk and scratch at ~1.5 MB either way.  A multiple of 8,
#: so every chunk of packed codes starts on a byte boundary.
_DECODE_BLOCK = 1 << 16


class ArtifactError(ValueError):
    """Raised for malformed, corrupted, or unsupported artifact files."""


def fp32_state_nbytes(model: Module) -> int:
    """Bytes the model's parameters + buffers occupy as dense FP32 arrays.

    The reference point for the artifact's memory-savings claim: an n-bit
    packed artifact should approach ``n/32`` of this (plus the manifest).
    """
    scalars = sum(p.size for p in model.parameters())
    scalars += sum(np.asarray(b).size for _, b in model.named_buffers())
    return scalars * 4


def _blob_sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def resolve_format_map(names, default: Union[NumberFormat, str, None],
                       format_map: Optional[Mapping] = None,
                       ) -> "dict[str, NumberFormat]":
    """Resolve the storage format of named tensors against a format map.

    ``format_map`` maps tensor names — an exact name always wins; otherwise
    :mod:`fnmatch` patterns like ``"layers.*.weight"`` are tried in mapping
    order, first match wins — to registry spec strings or
    :class:`~repro.formats.NumberFormat` objects.  Names the map does not
    cover fall back to ``default``; with ``default=None`` uncovered names
    are simply left out of the result (the partial-resolution mode the
    exporter uses to layer CLI overrides on top of a policy-derived map).
    A map entry matching no tensor raises ``ValueError`` — a silently
    ignored override is a typo shipping the wrong precision.
    """
    names = list(names)
    default = as_format(default, allow_none=True)
    if not format_map:
        if default is None:
            return {}
        return {name: default for name in names}
    entries = [(key, as_format(value)) for key, value in format_map.items()]
    exact = {key: fmt for key, fmt in entries}
    resolved: dict[str, NumberFormat] = {}
    used: set = set()
    for name in names:
        if name in exact:
            resolved[name] = exact[name]
            used.add(name)
            continue
        for key, fmt in entries:
            if fnmatch.fnmatchcase(name, key):
                resolved[name] = fmt
                used.add(key)
                break
        else:
            if default is not None:
                resolved[name] = default
    unused = [key for key, _ in entries if key not in used]
    if unused:
        # Distinguish the two failure modes so the diagnostic is true:
        # an entry may genuinely match nothing (a typo), or match tensors
        # that a higher-precedence entry (exact name, earlier pattern)
        # always claimed first (a dead rule that cannot mean what was
        # intended).
        unmatched = [key for key in unused
                     if not any(key == name or fnmatch.fnmatchcase(name, key)
                                for name in names)]
        shadowed = [key for key in unused if key not in unmatched]
        problems = []
        if unmatched:
            problems.append(f"entries {unmatched} match no model tensor")
        if shadowed:
            problems.append(
                f"entries {shadowed} are shadowed by earlier entries or "
                f"exact names and never apply")
        raise ValueError(
            f"format_map {'; '.join(problems)} (known tensors: {names})")
    return resolved


def save_model(model: Module, path: Union[str, os.PathLike],
               fmt: Union[NumberFormat, str] = "posit(8,1)",
               rounding: str = "nearest",
               use_scaling: bool = True, sigma: int = 2,
               model_info: Optional[Mapping] = None,
               metadata: Optional[Mapping] = None,
               activation_calibration: Optional[Mapping] = None,
               scales: Optional[Mapping] = None,
               guardrail: Optional[Mapping] = None,
               format_map: Optional[Mapping] = None,
               version: Optional[int] = None) -> dict:
    """Write ``model`` to ``path`` as a packed artifact; returns the manifest.

    Each parameter is scaled, encoded and packed :data:`_DECODE_BLOCK`
    values at a time, with its checksum updated as it goes, so no whole
    tensor's scaled copy or int64 codes are ever held.  The packed chunks
    are kept until the manifest, which precedes them in the file, is
    written, and are then written one by one, never joined.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`.  Parameters are quantized through
        their resolved format; buffers are stored raw (FP32).
    fmt:
        The default storage :class:`~repro.formats.NumberFormat` (or
        registry spec string) for every parameter ``format_map`` does not
        override.
    rounding:
        Rounding mode handed to ``to_bits``.
    use_scaling / sigma:
        Apply the paper's Eq. (2) layer-wise scale before encoding
        (``codes = to_bits(w / S_f)``, decoded as ``from_bits(codes) * S_f``).
    model_info:
        Architecture description enabling :func:`load_model` to rebuild the
        model without caller help: ``{"model": ..., "model_kwargs": ...,
        "num_classes": ..., "in_features": ..., "seed": ...}`` (the shape
        :func:`repro.serve.export.export_experiment` records).  Optional —
        without it :func:`load_state` still works against a caller-built
        model.
    metadata:
        Free-form JSON-able dict stored under ``"metadata"`` (training
        accuracy, sweep run id, ...).
    activation_calibration:
        Optional ``{"sigma": ..., "centers": {layer: log2_center}}`` block
        (see :func:`repro.serve.export.calibrate_activation_centers`); the
        serving engine re-installs these frozen centers so activation
        quantization is independent of micro-batch composition.
    scales:
        Optional ``{parameter_name: scale}`` overriding the Eq. (2)
        computation.  Re-exporting a loaded artifact with its manifest's
        recorded scales reproduces the file byte for byte — recomputing
        Eq. (2) on already-quantized weights could round to a different
        center (quantization perturbs the log2 mean), silently changing
        the stored codes.
    guardrail:
        Optional startup-guardrail block: ``{"inputs": [[...]...],
        "labels": [...], "logits": [[...]...], "reference_accuracy": ...,
        "tolerance": ..., "tensor_formats": {...}}`` (see
        :func:`repro.serve.export.build_guardrail`).  Serving processes
        replay it before accepting traffic and refuse to serve on drift.
    format_map:
        Optional per-tensor format overrides (exact parameter names or
        fnmatch patterns -> format spec), resolved through
        :func:`resolve_format_map`.  This is the mixed-precision export
        mirroring the training-time :class:`~repro.core.policy.RoleFormats`
        assignment.  v2 only.
    version:
        Artifact major version to write (default: :data:`ARTIFACT_VERSION`).
        ``version=1`` emits the legacy uniform-format layout byte-for-byte
        (used by the golden-fixture regeneration script); it rejects
        ``format_map``.
    """
    version = ARTIFACT_VERSION if version is None else int(version)
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"cannot write artifact version {version}; "
            f"supported versions: {SUPPORTED_VERSIONS}")
    if version == 1 and format_map:
        raise ValueError(
            "artifact v1 packs every tensor in one uniform format; "
            "per-tensor format_map requires version 2")
    default_fmt = as_format(fmt)
    param_names = [name for name, _ in model.named_parameters()]
    formats = resolve_format_map(param_names, default_fmt, format_map)

    tensors = []
    chunks = []
    offset = 0
    for name, param in model.named_parameters():
        tensor_fmt = formats[name]
        values = np.asarray(param.data, dtype=np.float64)
        if scales is not None and name in scales:
            scale = float(scales[name])
        elif use_scaling:
            scale = compute_scale_factor(values, sigma=sigma)
        else:
            scale = 1.0
        digest = hashlib.sha256()
        flat = values.reshape(-1)
        nbytes = 0
        for start in range(0, flat.size, _DECODE_BLOCK):
            codes = tensor_fmt.to_bits(flat[start:start + _DECODE_BLOCK] / scale,
                                       mode=rounding)
            packed = pack_codes(codes, tensor_fmt.bits)
            digest.update(packed)
            chunks.append(packed)
            nbytes += len(packed)
        expected = packed_nbytes(values.size, tensor_fmt.bits)
        assert nbytes == expected, (name, nbytes, expected)
        entry = {
            "name": name,
            "kind": "param",
            "format": tensor_fmt.spec(),
            "bits": tensor_fmt.bits,
            "shape": list(values.shape),
            "scale": float(scale),
            "offset": offset,
            "nbytes": nbytes,
        }
        if version >= 2:
            entry["sha256"] = digest.hexdigest()
        tensors.append(entry)
        offset += nbytes
    for name, buffer in model.named_buffers():
        raw = np.asarray(buffer, dtype="<f4").tobytes()
        entry = {
            "name": name,
            "kind": "buffer",
            "format": RAW_FP32,
            "bits": 32,
            "shape": list(np.asarray(buffer).shape),
            "scale": 1.0,
            "offset": offset,
            "nbytes": len(raw),
        }
        if version >= 2:
            entry["sha256"] = _blob_sha256(raw)
        tensors.append(entry)
        chunks.append(raw)
        offset += len(raw)

    manifest = {
        "artifact": "repro.serve packed model",
        "version": version,
        "version_minor": (ARTIFACT_MINOR_VERSION if version >= 2
                          else _V1_MINOR_VERSION),
        "format": default_fmt.spec(),
        "rounding": rounding,
        "use_scaling": bool(use_scaling),
        "sigma": int(sigma),
        "tensors": tensors,
        "blob_nbytes": offset,
        "fp32_state_nbytes": fp32_state_nbytes(model),
    }
    if version == 1:
        # v1 readers verify one monolithic digest; v2 verifies per segment.
        blob_digest = hashlib.sha256()
        for chunk in chunks:
            blob_digest.update(chunk)
        manifest["blob_sha256"] = blob_digest.hexdigest()
    if model_info is not None:
        manifest["model"] = dict(model_info)
    if metadata is not None:
        manifest["metadata"] = dict(metadata)
    if activation_calibration is not None:
        manifest["activation_calibration"] = dict(activation_calibration)
    if guardrail is not None:
        manifest["guardrail"] = dict(guardrail)

    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<B", version))
        handle.write(struct.pack("<I", len(manifest_bytes)))
        handle.write(manifest_bytes)
        handle.writelines(chunks)
    return manifest


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #
def _read_header(handle, path) -> tuple[int, dict, int]:
    """Parse magic/version/manifest from an open file.

    Returns ``(version, manifest, blob_offset)`` where ``blob_offset`` is
    the absolute file offset of the packed blob — every tensor segment
    lives at ``blob_offset + entry["offset"]``, which is what makes the v2
    layout ``mmap``-friendly (see :func:`segment_table`).
    """
    header = handle.read(_HEADER_LEN)
    if len(header) < _HEADER_LEN or header[:len(MAGIC)] != MAGIC:
        raise ArtifactError(f"{path}: not a repro.serve artifact (bad magic)")
    version = header[len(MAGIC)]
    if version not in SUPPORTED_VERSIONS:
        raise ArtifactError(
            f"{path}: unsupported artifact version {version} "
            f"(this build reads versions {SUPPORTED_VERSIONS})")
    (manifest_len,) = struct.unpack_from("<I", header, len(MAGIC) + 1)
    manifest_bytes = handle.read(manifest_len)
    if len(manifest_bytes) < manifest_len:
        raise ArtifactError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(manifest_bytes)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: corrupted manifest ({exc})") from exc
    if not isinstance(manifest, dict) or "tensors" not in manifest:
        raise ArtifactError(f"{path}: manifest missing 'tensors'")
    return version, manifest, _HEADER_LEN + manifest_len


def _read_artifact(path: Union[str, os.PathLike]) -> tuple[dict, bytes]:
    """v1 path: read and validate the whole file; returns ``(manifest, blob)``.

    Kept verbatim from the v1 reader — monolithic in memory, monolithic
    checksum — so v1 artifacts load exactly as they always did (the golden
    compatibility suite pins this byte for byte).
    """
    with open(path, "rb") as handle:
        _version, manifest, blob_offset = _read_header(handle, path)
        blob = handle.read()
    declared = manifest.get("blob_nbytes")
    if declared is not None and declared != len(blob):
        raise ArtifactError(
            f"{path}: blob length mismatch (manifest says {declared} bytes, "
            f"file holds {len(blob)})"
        )
    digest = manifest.get("blob_sha256")
    if digest is not None and digest != _blob_sha256(blob):
        raise ArtifactError(f"{path}: blob checksum mismatch (corrupted weights)")
    return manifest, blob


def _entry_shape(entry: dict) -> tuple:
    return tuple(int(dim) for dim in entry["shape"])


def _decode_segment(entry: dict, chunks, out: np.ndarray) -> np.ndarray:
    """Decode one tensor's segment chunks into ``out``, in place; returns it.

    ``out`` is a float64 array of the entry's shape, and ``chunks`` yields
    the segment in pieces of :data:`_DECODE_BLOCK` values.  Packed codes go
    through the format's ``from_bits`` (so the codec profiler sees weight
    decode) and are scaled in place; a scale of 1.0 skips the multiply,
    which would not change a bit.
    """
    if not (out.dtype == np.float64 and out.flags.c_contiguous):
        out[...] = _decode_segment(entry, chunks, np.empty(out.shape))
        return out
    flat = out.reshape(-1)
    fmt = None if entry["format"] == RAW_FP32 else parse_format(entry["format"])
    scale = float(entry["scale"])
    start = 0
    for chunk in chunks:
        block = flat[start:start + _DECODE_BLOCK]
        if fmt is None:
            block[...] = np.frombuffer(chunk, dtype="<f4", count=block.size)
        else:
            block[...] = fmt.from_bits(unpack_codes(chunk, fmt.bits,
                                                    block.size))
            if scale != 1.0:
                block *= scale
        start += block.size
    if start != flat.size:
        raise ArtifactError(
            f"tensor {entry['name']!r}: segment holds {start} of "
            f"{flat.size} values")
    return out


def _check_v2_length(path, manifest, blob_offset, file_size) -> int:
    """Validate the v2 file length; returns the declared blob size.

    A truncated file is diagnosed down to the first tensor segment that no
    longer fits — "re-pull the artifact" is actionable, "bad file" is not.
    """
    declared = int(manifest.get("blob_nbytes", 0))
    available = file_size - blob_offset
    if available > declared:
        raise ArtifactError(
            f"{path}: blob length mismatch (manifest says {declared} bytes, "
            f"file holds {available})")
    if available < declared:
        for entry in manifest["tensors"]:
            if int(entry["offset"]) + int(entry["nbytes"]) > available:
                raise ArtifactError(
                    f"{path}: truncated blob ({available} of {declared} "
                    f"bytes); tensor {entry['name']!r} segment "
                    f"[{entry['offset']}, "
                    f"{int(entry['offset']) + int(entry['nbytes'])}) is "
                    f"incomplete")
        raise ArtifactError(
            f"{path}: truncated blob ({available} of {declared} bytes)")
    return declared


def _read_segment(handle, path, entry, blob_offset,
                  declared) -> Iterator[bytes]:
    """Read one tensor's segment in chunks of whole values; verify it last.

    Each chunk holds :data:`_DECODE_BLOCK` values (the last may hold
    fewer), so no segment is ever resident whole.  The checksum is checked
    after the last chunk: whatever a consumer builds from the chunks is
    verified only once the iterator is exhausted without raising.
    """
    offset, nbytes = int(entry["offset"]), int(entry["nbytes"])
    if offset < 0 or offset + nbytes > declared:
        raise ArtifactError(
            f"tensor {entry.get('name')!r} spans [{offset}, {offset + nbytes}) "
            f"outside the {declared}-byte blob")
    handle.seek(blob_offset + offset)
    digest = hashlib.sha256()
    bits = (32 if entry["format"] == RAW_FP32
            else parse_format(entry["format"]).bits)
    step = _DECODE_BLOCK * bits // 8
    for start in range(0, nbytes, step):
        size = min(step, nbytes - start)
        chunk = handle.read(size)
        if len(chunk) < size:
            raise ArtifactError(
                f"{path}: truncated blob; tensor {entry['name']!r} segment "
                f"is incomplete")
        digest.update(chunk)
        yield chunk
    expected = entry.get("sha256")
    if expected is not None and expected != digest.hexdigest():
        raise ArtifactError(
            f"{path}: segment checksum mismatch for tensor "
            f"{entry['name']!r} (corrupted weights)")


def _iter_segments(path: str) -> Iterator[tuple[dict, Iterator]]:
    """Yield ``(entry, chunks)`` per tensor; see :func:`_read_segment`.

    v2 seeks to one segment at a time and verifies its own SHA-256 as the
    chunks are consumed (each tensor's chunks must be exhausted before the
    next tensor is asked for).  v1 has only the monolithic checksum, so
    the whole blob is validated first, exactly as the v1 reader did, and
    its segments are then read back from memory the same way.
    """
    with open(path, "rb") as handle:
        version, manifest, blob_offset = _read_header(handle, path)
        if version >= 2:
            file_size = os.fstat(handle.fileno()).st_size
            declared = _check_v2_length(path, manifest, blob_offset, file_size)
            for entry in manifest["tensors"]:
                yield entry, _read_segment(handle, path, entry, blob_offset,
                                           declared)
            return
    manifest, blob = _read_artifact(path)
    handle = io.BytesIO(blob)
    for entry in manifest["tensors"]:
        yield entry, _read_segment(handle, path, entry, 0, len(blob))


def iter_tensors(path: Union[str, os.PathLike]
                 ) -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(name, array)`` pairs, decoding **one tensor at a time**.

    The streaming read path: a v2 segment is read, checksummed and decoded
    in chunks of 65,536 values, so beyond the arrays it yields, the decode
    holds about 1.5 MB of chunk and scratch, however large the tensor or
    the blob.  Each yielded array is a fresh float64 allocation, returned
    once its segment's checksum has passed.  v1 artifacts have only a
    monolithic checksum, so they are validated whole-blob exactly as the
    v1 reader did, then decoded entry by entry.
    """
    for entry, chunks in _iter_segments(os.fspath(path)):
        yield entry["name"], _decode_segment(entry, chunks,
                                             np.empty(_entry_shape(entry)))


def load_state(path: Union[str, os.PathLike]) -> tuple[dict, dict]:
    """Decode an artifact into ``(state_dict, manifest)``.

    The state dict maps tensor names to float64 arrays, directly loadable
    with :meth:`repro.nn.Module.load_state_dict`.  Decoding streams through
    :func:`iter_tensors`: the returned arrays are the only whole-model
    allocation; the packed file is never held in memory at once (v2).  To
    fill a model, :func:`load_model` decodes straight into its arrays
    instead, without this second copy of the state.
    """
    path = os.fspath(path)
    manifest = read_manifest(path)
    return dict(iter_tensors(path)), manifest


def _rebuild_model(manifest: dict) -> Module:
    """Construct the architecture named by the manifest's ``model`` block."""
    info = manifest.get("model")
    if not info:
        raise ArtifactError(
            "artifact has no 'model' architecture block; load it with "
            "load_state(path) into a model you construct yourself"
        )
    from ..api import ExperimentConfig, _build_model

    config = ExperimentConfig(
        model=info["model"],
        model_kwargs=dict(info.get("model_kwargs") or {}),
        num_classes=int(info.get("num_classes", 10)),
        seed=int(info.get("seed", 0)),
    )
    return _build_model(config, int(info.get("in_features", 0) or 1))


def _model_arrays(model: Module, manifest: dict) -> dict:
    """Map each manifest tensor to the model array it decodes into.

    Raises :class:`ArtifactError` when names or shapes disagree, before
    anything is written.
    """
    arrays = {name: param.data for name, param in model.named_parameters()}
    arrays.update((name, np.asarray(buffer))
                  for name, buffer in model.named_buffers())
    stored = {entry["name"]: _entry_shape(entry)
              for entry in manifest["tensors"]}
    held = {name: array.shape for name, array in arrays.items()}
    misfits = [f"{name}: model {held.get(name)}, artifact {stored.get(name)}"
               for name in sorted(set(held) | set(stored))
               if held.get(name) != stored.get(name)]
    if misfits:
        raise ArtifactError(
            f"artifact state does not fit the model: {'; '.join(misfits)}")
    return arrays


def load_model(path: Union[str, os.PathLike],
               model: Optional[Module] = None) -> tuple[Module, dict]:
    """Load an artifact into a model; returns ``(model, manifest)``.

    With ``model=None`` the architecture is rebuilt from the manifest's
    ``model`` block; otherwise the given module is filled (names and
    shapes must match).  Either way the names and shapes are checked
    against the manifest first, then every segment is decoded in place,
    straight into its parameter or buffer: no decoded state dict is built,
    so the extra memory is the same ~1.5 MB of chunk and scratch as
    :func:`iter_tensors`.  A caller's model is written only after the
    whole artifact has passed its checksums, so a misfit or a corrupted
    file raises :class:`ArtifactError` and leaves it untouched.  The
    returned model is in eval mode with weights decoded onto each tensor's
    format grid.
    """
    path = os.fspath(path)
    manifest = read_manifest(path)
    target = _rebuild_model(manifest) if model is None else model
    arrays = _model_arrays(target, manifest)
    if model is not None:
        artifact_info(path)
    for entry, chunks in _iter_segments(path):
        _decode_segment(entry, chunks, arrays[entry["name"]])
    target.eval()
    return target, manifest


def artifact_info(path: Union[str, os.PathLike]) -> dict:
    """Validate ``path`` and return its manifest (no model construction).

    Integrity is fully checked — v1 through the monolithic blob digest, v2
    by streaming every segment through its own SHA-256 (constant memory) —
    so a passing ``artifact_info`` means ``load_state`` will not hit a
    corruption error.
    """
    path = os.fspath(path)
    manifest = read_manifest(path)
    for _entry, chunks in _iter_segments(path):
        for _chunk in chunks:
            pass
    return manifest


def read_manifest(path: Union[str, os.PathLike]) -> dict:
    """Parse just the manifest — header only, **no** blob integrity checks.

    The cheap introspection path (``/stats`` aggregation, size reporting):
    reads ``O(manifest)`` bytes however large the blob is.  Use
    :func:`artifact_info` when corruption must be ruled out.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        _version, manifest, _blob_offset = _read_header(handle, path)
    return manifest


def segment_table(path: Union[str, os.PathLike]) -> list[dict]:
    """Per-tensor segment layout with **absolute file offsets**.

    One row per tensor: ``name``, ``kind``, ``format``, ``bits``, ``shape``,
    ``scale``, ``nbytes``, ``offset`` (blob-relative) and ``file_offset``
    (absolute) — everything an ``mmap``-based loader needs to map one
    segment without parsing the blob, plus ``sha256`` where the artifact
    (v2) records it.  Layout only; segment checksums are *not* verified
    (use :func:`artifact_info` for that).
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        _version, manifest, blob_offset = _read_header(handle, path)
    rows = []
    for entry in manifest["tensors"]:
        rows.append({
            "name": entry["name"],
            "kind": entry["kind"],
            "format": entry["format"],
            "bits": int(entry["bits"]),
            "shape": [int(dim) for dim in entry["shape"]],
            "scale": float(entry["scale"]),
            "offset": int(entry["offset"]),
            "file_offset": blob_offset + int(entry["offset"]),
            "nbytes": int(entry["nbytes"]),
            "sha256": entry.get("sha256"),
        })
    return rows


def format_breakdown(manifest: Mapping) -> dict:
    """Per-format size breakdown of a manifest's tensor table.

    Returns ``{spec: {"tensors": n, "scalars": n, "nbytes": n}}`` over the
    packed segments — the ``/stats`` / ``repro export`` reporting view of a
    mixed-precision artifact (raw FP32 buffers appear under ``"raw_fp32"``).
    """
    breakdown: dict[str, dict] = {}
    for entry in manifest["tensors"]:
        row = breakdown.setdefault(entry["format"],
                                   {"tensors": 0, "scalars": 0, "nbytes": 0})
        shape = _entry_shape(entry)
        row["tensors"] += 1
        row["scalars"] += int(np.prod(shape)) if shape else 1
        row["nbytes"] += int(entry["nbytes"])
    return breakdown
