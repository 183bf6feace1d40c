import runpy
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import near_zero_beta_model, random_float_model
from intelm.elm import GENERATORS, FloatModel, one_hot, scores_float, train
from intelm.experiments import make_quantized
from intelm.intinfer import QuantizedModel, output_beta_limit
from intelm.modelio import _HEADER, _INT_EXTRA, _WEIGHT_CODES, ModelFormatError, load_model, save_model
from intelm.quantize import IntegerBeta
from intelm.seeding import make_rng

# Byte offsets of header fields, from the layout in intelm.modelio.
N_AT, GAMMA_AT, WCODE_AT, BCODE_AT = 8, 20, 28, 29
TAU_AT, LO_AT = _HEADER.size, _HEADER.size + 12


def saved_models(directory):
    """Bytes of a saved float continuous, float ternary and quantized model."""
    rng = make_rng(7)
    ternary = random_float_model(rng, n=5, L=4, m=3, weight_kind="ternary")
    models = {
        "continuous": random_float_model(rng, n=5, L=4, m=3),
        "ternary": ternary,
        "quantized": make_quantized(ternary, (0, 255)),
    }
    blobs = {}
    for name, model in models.items():
        save_model(model, directory / f"{name}.ielm")
        blobs[name] = (directory / f"{name}.ielm").read_bytes()
    return blobs


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    return saved_models(tmp_path_factory.mktemp("models"))


def patched(blob: bytes, fmt: str, offset: int, *values) -> bytes:
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, *values)
    return bytes(out)


def metadata_offset(blob: bytes, integer: bool) -> int:
    at = _HEADER.size + (_INT_EXTRA.size if integer else 0)
    (prng_len,) = struct.unpack_from("<I", blob, at)
    return at + 4 + prng_len + 4


def weights_offset(blob: bytes, integer: bool) -> int:
    at = metadata_offset(blob, integer)
    (meta_len,) = struct.unpack_from("<I", blob, at - 4)
    return at + meta_len


@pytest.mark.parametrize(
    "name, mutate, match",
    [
        ("ternary", lambda b: patched(b, "<II", N_AT, 2**32 - 1, 2**32 - 1), "truncated"),
        ("ternary", lambda b: patched(b, "<II", N_AT, 100_000, 100_000), "truncated"),
        ("continuous", lambda b: patched(b, "<II", N_AT, 100_000, 100_000), "truncated"),
        ("quantized", lambda b: patched(b, "<B", BCODE_AT, 2), "beta kind code 2"),
        ("ternary", lambda b: patched(b, "<B", BCODE_AT, 2), "beta kind code 2"),
        ("continuous", lambda b: patched(b, "<c", metadata_offset(b, False), b"x"), "Expecting value"),
        ("quantized", lambda b: patched(b, "<B", _HEADER.size + _INT_EXTRA.size + 4, 0xFF), "utf-8"),
        ("quantized", lambda b: patched(b, "<d", TAU_AT, float("nan")), "tau"),
        ("quantized", lambda b: patched(b, "<d", TAU_AT, float("inf")), "tau"),
        ("quantized", lambda b: patched(b, "<qq", LO_AT, 10, 5), "lo > hi"),
        ("continuous", lambda b: patched(b, "<d", GAMMA_AT, -1.0), "gamma"),
        ("continuous", lambda b: patched(b, "<d", GAMMA_AT, float("nan")), "gamma"),
        ("continuous", lambda b: patched(b, "<d", GAMMA_AT, float("inf")), "gamma must be > 0 with gamma and 1/gamma"),
        ("ternary", lambda b: patched(b, "<d", GAMMA_AT, 1e-320), "gamma must be > 0 with gamma and 1/gamma"),
        *(("quantized", lambda b, g=g: patched(b, "<d", GAMMA_AT, g), "gamma must be > 0 with gamma and 1/gamma")
          for g in (float("inf"), 0.0, 1e-320)),
        ("quantized", lambda b: patched(b, "<qq", LO_AT, 0, 2**40), "hidden accumulator"),
        ("ternary", lambda b: b[:-1], "truncated"),
        ("quantized", lambda b: b + b"\0", "trailing"),
        # codes 2 and 3 were the removed pm1 (i8) and symmetric (f8) kinds
        ("ternary", lambda b: patched(b, "<B", WCODE_AT, 2), "weight kind code 2"),
        ("quantized", lambda b: patched(b, "<B", WCODE_AT, 2), "weight kind code 2"),
        ("continuous", lambda b: patched(b, "<B", WCODE_AT, 3), "weight kind code 3"),
        ("continuous", lambda b: patched(b, "<d", weights_offset(b, False), float("nan")), "input weights"),
        ("continuous", lambda b: patched(b, "<d", weights_offset(b, False), float("inf")), "input weights"),
        # |-2**31| is one past the i32 beta the headroom proof admits
        ("quantized", lambda b: patched(b, "<i", len(b) - 4, -(2**31)), "output accumulator"),
    ],
    ids=[
        "dims_2p32", "dims_1e5", "dims_1e5_f64", "beta_code_2_quantized", "beta_code_2_float",
        "bad_json", "non_utf8_prng", "nan_tau", "inf_tau", "range_lo_above_hi", "negative_gamma",
        "nan_gamma", "inf_gamma", "subnormal_gamma",
        "inf_gamma_quantized", "zero_gamma_quantized", "subnormal_gamma_quantized", "range_past_headroom", "truncated", "trailing", "weight_code_2_ternary",
        "weight_code_2_quantized", "weight_code_3_continuous", "nan_weight", "inf_weight", "beta_minus_2p31",
    ],
)
def test_malformed_file_raises_model_format_error(blobs, tmp_path, name, mutate, match):
    path = tmp_path / "bad.ielm"
    path.write_bytes(mutate(blobs[name]))
    with pytest.raises(ModelFormatError, match=match):
        load_model(path)


@pytest.mark.parametrize("name", ["continuous", "ternary", "quantized"])
def test_a_file_cut_inside_a_matrix_names_it(blobs, tmp_path, name):
    blob = blobs[name]
    path = tmp_path / "cut.ielm"
    for cut, field in ((weights_offset(blob, name == "quantized") + 1, "weights"), (len(blob) - 1, "beta")):
        path.write_bytes(blob[:cut])
        with pytest.raises(ModelFormatError, match=f"truncated {field} at offset {cut}"):
            load_model(path)


def test_metadata_must_be_an_object(blobs, tmp_path):
    blob = blobs["continuous"]
    at = metadata_offset(blob, False)
    (meta_len,) = struct.unpack_from("<I", blob, at - 4)
    body = b"[]".ljust(meta_len)
    path = tmp_path / "list.ielm"
    path.write_bytes(blob[:at] + body + blob[at + meta_len :])
    with pytest.raises(ModelFormatError, match="not an object"):
        load_model(path)


def test_ternary_code_out_of_range_is_a_format_error(blobs, tmp_path):
    blob = blobs["quantized"]
    at = metadata_offset(blob, True)
    (meta_len,) = struct.unpack_from("<I", blob, at - 4)
    path = tmp_path / "w.ielm"
    path.write_bytes(patched(blob, "<b", at + meta_len, 2))  # first weight
    with pytest.raises(ModelFormatError, match="ternary"):
        load_model(path)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_every_weight_kind_round_trips(tmp_path, kind):
    rng = make_rng(11)
    X = rng.integers(0, 256, size=(30, 6), dtype=np.int64)
    W = GENERATORS[kind](6, 5, seed=4)
    model = train(X, one_hot(np.arange(30) % 3, 3), W, seed=4, weight_kind=kind)
    save_model(model, tmp_path / "m.ielm")
    loaded = load_model(tmp_path / "m.ielm")
    assert loaded.weight_kind == kind and loaded.input_weights.dtype == W.dtype
    np.testing.assert_array_equal(scores_float(loaded, X), scores_float(model, X))


def test_weight_codes_match_the_benchmark_reader():
    # perfbench/checks.py parses IELM files on its own; loaded by path, read only.
    checks = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"))
    assert _WEIGHT_CODES["ternary"] in checks["INT8_WEIGHT_CODES"]
    assert _WEIGHT_CODES["continuous"] not in checks["INT8_WEIGHT_CODES"]
    assert (checks["IELM_HEADER"].format, checks["IELM_INT_EXTRA"].format) == (_HEADER.format, _INT_EXTRA.format)


def test_loaded_quantized_weights_are_read_only_views_of_the_file_bytes(blobs, tmp_path):
    path = tmp_path / "q.ielm"
    path.write_bytes(blobs["quantized"])
    model = load_model(path)
    W = model.ternary_weights
    assert W.dtype == np.int8 and not W.flags.owndata and not W.flags.writeable
    with pytest.raises(ValueError, match="WRITEABLE"):
        W.setflags(write=True)
    save_model(model, tmp_path / "again.ielm")
    assert (tmp_path / "again.ielm").read_bytes() == blobs["quantized"]


def test_fitted_near_zero_beta_model_saves_without_further_climbing(tmp_path):
    qm = make_quantized(near_zero_beta_model(), (0, 255), fit_headroom=True)
    assert qm.int_beta.ladder_step > 0 and qm.int_beta.max_abs <= 2**31 - 1
    save_model(qm, tmp_path / "q.ielm")
    loaded = load_model(tmp_path / "q.ielm")
    assert loaded.int_beta.ladder_step == qm.int_beta.ladder_step
    np.testing.assert_array_equal(loaded.int_beta.values, qm.int_beta.values)


@given(n=st.integers(1, 10**6), L=st.integers(1, 10**6), lo=st.integers(-(2**63), 2**63 - 1),
       width=st.integers(0, 2**64), centred=st.booleans())
def test_output_beta_limit_fits_the_files_i32_beta(n, L, lo, width, centred):
    assert 0 <= output_beta_limit(n, L, (lo, lo + width), centred) <= np.iinfo("<i4").max


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 12), L=st.integers(1, 12), m=st.integers(1, 3), bits=st.integers(0, 31),
       centred=st.booleans(), sign=st.sampled_from([1, -1]), seed=st.integers(0, 2**32))
@example(n=1, L=12, m=2, bits=31, centred=False, sign=-1, seed=0)  # limit set by the accumulator
@example(n=12, L=12, m=2, bits=31, centred=True, sign=1, seed=0)
def test_beta_at_the_limit_saves_and_reloads_byte_identically(tmp_path_factory, n, L, m, bits, centred, sign, seed):
    # Inputs within +/- bound keep the hidden bound within i32, centred or not.
    rng = make_rng(seed)
    bound = min(2**bits, (2**31 - 1) // (n * n))
    input_range = tuple(sorted(int(v) for v in rng.integers(-bound, bound + 1, size=2)))
    limit = output_beta_limit(n, L, input_range, centred)
    values = rng.integers(-limit, limit + 1, size=(L, m))
    values[rng.integers(L), rng.integers(m)] = sign * limit
    model = QuantizedModel(rng.integers(-1, 2, size=(n, L)).astype(np.int8), IntegerBeta(values=values, tau=0.5),
                           input_range, metadata={"preprocessing": ["zero_mean"] if centred else []})
    path = tmp_path_factory.getbasetemp() / "limit.ielm"
    save_model(model, path)
    blob = path.read_bytes()
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.int_beta.values, model.int_beta.values)
    save_model(loaded, path)
    assert path.read_bytes() == blob


@st.composite
def damaged(draw):
    """A saved model's bytes cut short, or with a few bytes changed."""
    name = draw(st.sampled_from(["continuous", "ternary", "quantized"]))
    cut = draw(st.none() | st.integers(0, 10_000))
    flips = draw(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 255)), max_size=4))
    return name, cut, flips


@settings(max_examples=400, deadline=None, database=None)
@given(damaged())
def test_damaged_file_loads_or_raises_model_format_error(blobs, tmp_path_factory, case):
    name, cut, flips = case
    blob = bytearray(blobs[name])
    for at, mask in flips:
        blob[at % len(blob)] ^= mask
    if cut is not None:
        blob = blob[: cut % len(blob)]
    path = tmp_path_factory.getbasetemp() / "damaged.ielm"
    path.write_bytes(bytes(blob))
    try:
        model = load_model(path)
    except ModelFormatError:
        return
    assert isinstance(model, (FloatModel, QuantizedModel))
