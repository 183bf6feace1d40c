"""Versioned binary model files.

Layout (all little-endian):

    magic   "IELM"                       4 bytes
    u32     format version (currently 1)
    u32     n, L, m
    f64     gamma
    u8      weight kind: 0=continuous 1=ternary 2=pm1 3=symmetric
    u8      beta kind:   0=float 1=integer
    u64     seed
    [beta kind 1 only] f64 tau, u32 ladder_step, i64 range_lo, i64 range_hi
    u32     prng id length, then utf-8 bytes
    u32     metadata length, then utf-8 JSON (sorted keys)
    W       n*L f64 (continuous/symmetric) or n*L i8 (ternary/pm1)
    beta    L*m f64 (float) or L*m i32 (integer)

Writing the same model twice yields byte-identical files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from intelm.elm import FloatModel
from intelm.intinfer import QuantizedModel
from intelm.quantize import IntegerBeta

MAGIC = b"IELM"
FORMAT_VERSION = 1
BETA_STORAGE_MAX = 2**31 - 1  # integer beta is stored as i32

_WEIGHT_CODES = {"continuous": 0, "ternary": 1, "pm1": 2, "symmetric": 3}
_WEIGHT_KINDS = {v: k for k, v in _WEIGHT_CODES.items()}
_INT8_KINDS = ("ternary", "pm1")

_HEADER = struct.Struct("<4sIIIIdBBQ")
_INT_EXTRA = struct.Struct("<dIqq")


class ModelFormatError(ValueError):
    pass


def _weights_payload(kind: str, W: np.ndarray) -> bytes:
    if kind in _INT8_KINDS:
        return np.ascontiguousarray(W, dtype=np.int8).tobytes()
    return np.ascontiguousarray(W, dtype="<f8").tobytes()


def save_model(model: FloatModel | QuantizedModel, path) -> None:
    path = Path(path)
    if isinstance(model, QuantizedModel):
        kind, beta_code = "ternary", 1
        W = model.ternary_weights
        gamma = float(model.metadata.get("gamma", 1.0))
        ib = model.int_beta
        if ib.max_abs > BETA_STORAGE_MAX:
            raise ModelFormatError("integer beta exceeds the 32-bit storage range")
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
    n, L = W.shape
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, n, L, m, gamma, _WEIGHT_CODES[kind], beta_code, model.seed
    )
    prng_bytes = prng_id.encode()
    meta_bytes = json.dumps(model.metadata, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(extra)
        fh.write(struct.pack("<I", len(prng_bytes)) + prng_bytes)
        fh.write(struct.pack("<I", len(meta_bytes)) + meta_bytes)
        fh.write(_weights_payload(kind, W))
        fh.write(beta_payload)


def _read_exact(fh, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ModelFormatError(f"truncated model file while reading {what}")
    return data


def load_model(path) -> FloatModel | QuantizedModel:
    path = Path(path)
    with open(path, "rb") as fh:
        magic, version, n, L, m, gamma, wcode, bcode, seed = _HEADER.unpack(
            _read_exact(fh, _HEADER.size, "header")
        )
        if magic != MAGIC:
            raise ModelFormatError(f"bad magic {magic!r} in {path}")
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported format version {version}")
        if wcode not in _WEIGHT_KINDS:
            raise ModelFormatError(f"unknown weight kind code {wcode}")
        kind = _WEIGHT_KINDS[wcode]
        if bcode == 1:
            tau, ladder_step, lo, hi = _INT_EXTRA.unpack(
                _read_exact(fh, _INT_EXTRA.size, "integer beta header")
            )
        (prng_len,) = struct.unpack("<I", _read_exact(fh, 4, "prng id length"))
        prng_id = _read_exact(fh, prng_len, "prng id").decode()
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
        metadata = json.loads(_read_exact(fh, meta_len, "metadata") or b"{}")
        if kind in _INT8_KINDS:
            W = np.frombuffer(_read_exact(fh, n * L, "weights"), dtype=np.int8)
        else:
            W = np.frombuffer(_read_exact(fh, 8 * n * L, "weights"), dtype="<f8")
        W = W.reshape(n, L).copy()
        if bcode == 0:
            beta = (
                np.frombuffer(_read_exact(fh, 8 * L * m, "beta"), dtype="<f8")
                .reshape(L, m)
                .copy()
            )
        else:
            beta = (
                np.frombuffer(_read_exact(fh, 4 * L * m, "beta"), dtype="<i4")
                .reshape(L, m)
                .astype(np.int64)
            )
        if fh.read(1):
            raise ModelFormatError(f"trailing bytes after model payload in {path}")
    if bcode == 0:
        return FloatModel(
            input_weights=W,
            beta=beta,
            gamma=gamma,
            weight_kind=kind,
            seed=seed,
            prng_id=prng_id,
            metadata=metadata,
        )
    return QuantizedModel(
        ternary_weights=W,
        int_beta=IntegerBeta(values=beta, tau=tau, ladder_step=ladder_step),
        input_range=(lo, hi),
        seed=seed,
        metadata=metadata,
    )
