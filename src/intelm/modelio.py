"""Versioned binary model files.

Layout (all little-endian):

    magic   "IELM"                       4 bytes
    u32     format version (currently 1)
    u32     n, L, m
    f64     gamma
    u8      weight kind: 0=continuous 1=ternary
    u8      beta kind:   0=float 1=integer
    u64     seed
    [beta kind 1 only] f64 tau, u32 ladder_step, i64 range_lo, i64 range_hi
    u32     prng id length, then utf-8 bytes
    u32     metadata length, then utf-8 JSON (sorted keys)
    W       n*L f64 (continuous) or n*L i8 (ternary)
    beta    L*m f64 (float) or L*m i32 (integer)

Writing the same model twice yields byte-identical files. load_model reads
a file once (data.BoundedReader); an integer model's W is a view of it.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from intelm.data import BoundedReader, check_range
from intelm.elm import FloatModel
from intelm.intinfer import QuantizedModel
from intelm.quantize import IntegerBeta

MAGIC = b"IELM"
FORMAT_VERSION = 1

_WEIGHT_CODES = {"continuous": 0, "ternary": 1}
_WEIGHT_KINDS = {v: k for k, v in _WEIGHT_CODES.items()}

_HEADER = struct.Struct("<4sIIIIdBBQ")
_INT_EXTRA = struct.Struct("<dIqq")


class ModelFormatError(ValueError):
    pass


def _weight_dtype(kind: str) -> np.dtype:
    return np.dtype(np.int8 if kind == "ternary" else "<f8")


def save_model(model: FloatModel | QuantizedModel, path) -> None:
    path = Path(path)
    if isinstance(model, QuantizedModel):
        kind, beta_code = "ternary", 1
        W = model.ternary_weights
        gamma = float(model.metadata.get("gamma", 1.0))
        ib = model.int_beta
        extra = _INT_EXTRA.pack(ib.tau, ib.ladder_step, *model.input_range)
        beta_payload = np.ascontiguousarray(ib.values, dtype="<i4").tobytes()
        m = ib.values.shape[1]
        prng_id = str(model.metadata.get("prng_id", ""))
    else:
        kind, beta_code = model.weight_kind, 0
        W = model.input_weights
        gamma = model.gamma
        extra = b""
        beta_payload = np.ascontiguousarray(model.beta, dtype="<f8").tobytes()
        m = model.m
        prng_id = model.prng_id
    # the steps the model scores with, whatever its metadata dict says now
    meta = {**model.metadata, "preprocessing": list(model.steps)}
    n, L = W.shape
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, n, L, m, gamma, _WEIGHT_CODES[kind], beta_code, model.seed
    )
    prng_bytes = prng_id.encode()
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(extra)
        fh.write(struct.pack("<I", len(prng_bytes)) + prng_bytes)
        fh.write(struct.pack("<I", len(meta_bytes)) + meta_bytes)
        fh.write(np.ascontiguousarray(W, dtype=_weight_dtype(kind)).tobytes())
        fh.write(beta_payload)


def load_model(path) -> FloatModel | QuantizedModel:
    """Read an IELM file; any malformed file raises ModelFormatError."""
    file = BoundedReader(path, ModelFormatError)
    magic, version, n, L, m, gamma, wcode, bcode, seed = _HEADER.unpack(file.take(_HEADER.size, "header"))
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r} in {path}")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    if wcode not in _WEIGHT_KINDS:
        raise ModelFormatError(f"unknown weight kind code {wcode}")
    if bcode not in (0, 1):
        raise ModelFormatError(f"unknown beta kind code {bcode}")
    kind = _WEIGHT_KINDS[wcode]
    if bcode == 1:
        tau, ladder_step, lo, hi = _INT_EXTRA.unpack(file.take(_INT_EXTRA.size, "integer beta header"))
    (prng_len,) = file.take(1, "prng id length", "<u4").tolist()
    prng_bytes = file.take(prng_len, "prng id").tobytes()
    (meta_len,) = file.take(1, "metadata length", "<u4").tolist()
    meta_bytes = file.take(meta_len, "metadata").tobytes()
    try:
        prng_id = prng_bytes.decode()
        metadata = json.loads(meta_bytes or b"{}")
    except ValueError as e:  # UnicodeDecodeError, JSONDecodeError
        raise ModelFormatError(f"{path}: {e}") from None
    if not isinstance(metadata, dict):
        raise ModelFormatError(f"metadata is a JSON {type(metadata).__name__}, not an object")
    W = file.take(n * L, "weights", _weight_dtype(kind))
    beta = file.take(L * m, "beta", "<i4" if bcode else "<f8")
    if file.offset != len(file.data):
        raise ModelFormatError(f"trailing bytes after model payload in {path}")
    try:
        check_range("gamma", gamma)  # the header's, in every file; a QuantizedModel checks its metadata's on its own
        if bcode == 0:
            return FloatModel(
                input_weights=W.reshape(n, L).copy(),
                beta=beta.reshape(L, m).copy(),
                gamma=gamma,
                weight_kind=kind,
                seed=seed,
                prng_id=prng_id,
                metadata=metadata,
            )
        # QuantizedModel keeps W as this view of the file's bytes (no one can write them) and copies beta.
        return QuantizedModel(
            ternary_weights=W.reshape(n, L),
            int_beta=IntegerBeta(values=beta.reshape(L, m), tau=tau, ladder_step=ladder_step),
            input_range=(lo, hi),
            seed=seed,
            metadata=metadata,
        )
    except ValueError as e:  # the models' own checks: codes, gamma, finite beta, tau, range, headroom
        raise ModelFormatError(f"{path}: {e}") from None
