"""Checkpoint round trips and corruption handling."""

import struct

import numpy as np
import pytest

from evsnn.nn import init_params, sew_tiny
from evsnn.nn.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def params(rng):
    return {
        "a.weight": rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
        "a.bias": rng.normal(size=3).astype(np.float64),
        "counts": rng.integers(0, 10, size=(2, 2)).astype(np.int64),
        "scalar": np.float32(1.5) * np.ones((), dtype=np.float32),
    }


class TestRoundTrip:
    def test_exact(self, tmp_path, params):
        path = tmp_path / "m.evck"
        save_checkpoint(path, params, {"epoch": 3, "net": "tiny"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"epoch": 3, "net": "tiny"}
        assert set(loaded) == set(params)
        for k in params:
            assert loaded[k].dtype == params[k].dtype
            assert loaded[k].shape == params[k].shape
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_byte_deterministic(self, tmp_path, params):
        p1, p2 = tmp_path / "a.evck", tmp_path / "b.evck"
        save_checkpoint(p1, params, {"k": 1})
        save_checkpoint(p2, dict(reversed(list(params.items()))), {"k": 1})
        assert p1.read_bytes() == p2.read_bytes()  # name-sorted on disk

    def test_empty_meta_default(self, tmp_path, params):
        path = tmp_path / "m.evck"
        save_checkpoint(path, params)
        _, meta = load_checkpoint(path)
        assert meta == {}

    def test_no_tensors(self, tmp_path):
        path = tmp_path / "m.evck"
        save_checkpoint(path, {}, {"only": "meta"})
        loaded, meta = load_checkpoint(path)
        assert loaded == {}
        assert meta == {"only": "meta"}

    def test_real_network_params(self, tmp_path):
        config = sew_tiny(4, height=16, width=16)
        params = init_params(config, seed=0)
        path = tmp_path / "net.evck"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])
            assert loaded[k].dtype == params[k].dtype

    def test_big_endian_input_normalized(self, tmp_path):
        be = np.arange(6, dtype=">f8").reshape(2, 3)
        path = tmp_path / "m.evck"
        save_checkpoint(path, {"w": be})
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["w"], be)
        assert loaded["w"].dtype.byteorder in ("<", "=")

    def test_loaded_arrays_writable(self, tmp_path, params):
        path = tmp_path / "m.evck"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        loaded["a.bias"][0] = 99.0  # frombuffer output must have been copied


class TestCorruption:
    @pytest.fixture
    def blob(self, tmp_path, params):
        path = tmp_path / "m.evck"
        save_checkpoint(path, params, {"epoch": 1})
        return bytearray(path.read_bytes())

    def _expect(self, tmp_path, raw, match):
        path = tmp_path / "bad.evck"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path, blob):
        self._expect(tmp_path, blob[:5], "truncated header")

    def test_bad_magic(self, tmp_path, blob):
        blob[:4] = b"NOPE"
        self._expect(tmp_path, blob, "magic")

    def test_bad_version(self, tmp_path, blob):
        blob[4:6] = struct.pack("<H", VERSION + 1)
        self._expect(tmp_path, blob, "version")

    def test_truncated_tensor_data(self, tmp_path, blob):
        self._expect(tmp_path, blob[:-3], "truncated")

    def test_trailing_bytes(self, tmp_path, blob):
        self._expect(tmp_path, blob + b"\x00", "trailing")

    def test_bad_metadata_json(self, tmp_path):
        meta = b"not json"
        raw = (_pack_head(0) + struct.pack("<I", len(meta)) + meta)
        self._expect(tmp_path, raw, "bad metadata")

    def test_metadata_length_overruns(self, tmp_path):
        raw = _pack_head(0) + struct.pack("<I", 1000) + b"{}"
        self._expect(tmp_path, raw, "truncated metadata")

    def test_bad_dtype_string(self, tmp_path):
        name = b"w"
        dt = b"zz9"
        raw = (_pack_head(1) + struct.pack("<I", 2) + b"{}"
               + struct.pack("<H", len(name)) + name
               + struct.pack("<B", len(dt)) + dt)
        self._expect(tmp_path, raw, "bad dtype")

    def test_metadata_not_an_object(self, tmp_path):
        meta = b"[1]"
        raw = _pack_head(0) + struct.pack("<I", len(meta)) + meta
        self._expect(tmp_path, raw, "bad metadata block: list, not a JSON object")

    def test_tensor_name_not_utf8(self, tmp_path):
        self._expect(tmp_path, _one_tensor(b"\xff", b"<f4"),
                     "tensor name at offset 18 is not UTF-8")

    @pytest.mark.parametrize("dt, match", [
        (b"|O", r"\|O is not numeric"),  # frombuffer cannot build objects
        (b"|V0", r"\|V0 is not numeric"),  # nor zero-size items
        (b"<f4,<i4", r"\|V8 is not numeric"),
        (b"<M8[s]", "<M8\\[s\\] is not numeric"),
        (b"2u=8", "is not recognized"),  # numpy's parsers raise ValueError
        (b",3ac8", "invalid syntax"),  # and SyntaxError besides TypeError
        (b"\xff", "dtype at offset 20 is not UTF-8"),
    ], ids=["object", "void0", "record", "datetime", "value_error", "syntax_error",
            "not_utf8"])
    def test_dtype_not_numeric(self, tmp_path, dt, match):
        self._expect(tmp_path, _one_tensor(b"w", dt), "tensor w: bad dtype: .*" + match)

    @pytest.mark.parametrize("dtype", [np.int32, np.bool_, np.complex64, np.uint8])
    def test_numeric_dtypes_load(self, tmp_path, dtype):
        path = tmp_path / "m.evck"
        save_checkpoint(path, {"w": np.ones((2, 3), dtype=dtype)})
        loaded, _ = load_checkpoint(path)
        assert loaded["w"].dtype == dtype and loaded["w"].shape == (2, 3)


def test_metadata_bytes_fixed(tmp_path):
    """Metadata is written as compact sorted-key JSON with ASCII escapes."""
    path = tmp_path / "m.evck"
    save_checkpoint(path, {"w": np.ones(2, np.float32)},
                    {"epoch": 3, "net": "tiny", "acc": 0.5, "tags": ["\u00e9", None, True],
                     "nested": {"z": 1, "a": -2.5e-07}})
    raw = path.read_bytes()
    (size,) = struct.unpack_from("<I", raw, 10)
    assert raw[14:14 + size] == (b'{"acc":0.5,"epoch":3,"nested":{"a":-2.5e-07,"z":1},'
                                 b'"net":"tiny","tags":["\\u00e9",null,true]}')


def _one_tensor(name, dt):
    """A checkpoint holding one 2-element tensor, its name and dtype given raw."""
    return (_pack_head(1) + struct.pack("<I", 2) + b"{}"
            + struct.pack("<H", len(name)) + name
            + struct.pack("<B", len(dt)) + dt
            + struct.pack("<BI", 1, 2) + bytes(8))


def _pack_head(count):
    return struct.pack("<4sHI", MAGIC, VERSION, count)


def _tensors(*named):
    """A checkpoint holding one float64 scalar per (name, value), in the order given."""
    raw = _pack_head(len(named)) + struct.pack("<I", 2) + b"{}"
    for name, value in named:
        raw += (struct.pack("<H", len(name)) + name + struct.pack("<B", 3) + b"<f8"
                + struct.pack("<B", 0) + struct.pack("<d", value))
    return raw


class TestNameOrder:
    """Tensors come in strictly ascending name order, the order save_checkpoint
    writes; a repeated name or any other order is a malformed file."""

    @pytest.mark.parametrize("names, match", [
        ((b"w", b"w"), "^tensor w follows tensor w: names must ascend$"),
        ((b"w", b"b"), "^tensor b follows tensor w: names must ascend$"),
        ((b"a", b"c", b"b"), "^tensor b follows tensor c: names must ascend$"),
    ], ids=["repeated", "descending", "late"])
    def test_refused(self, tmp_path, names, match):
        path = tmp_path / "bad.evck"
        path.write_bytes(_tensors(*((name, float(i)) for i, name in enumerate(names))))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_ascending_loads(self, tmp_path):
        path = tmp_path / "m.evck"
        path.write_bytes(_tensors((b"b", 1.0), (b"w", 2.0)))
        params, _ = load_checkpoint(path)
        assert list(params) == ["b", "w"] and params["w"] == 2.0

    def test_saved_names_load_in_any_script(self, tmp_path):
        # save_checkpoint's sorted() and the reader's check share code-point order
        names = ["b", "B", "a.b", "a_b", "a", "é", "Z9", "z"]
        path = tmp_path / "m.evck"
        save_checkpoint(path, {n: np.full(1, i, np.float32) for i, n in enumerate(names)})
        params, _ = load_checkpoint(path)
        assert list(params) == sorted(names)
        assert all(params[n][0] == i for i, n in enumerate(names))
