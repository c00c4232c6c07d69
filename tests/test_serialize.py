"""Tests for the binary model container and the text records."""

import struct

import numpy as np
import pytest

from edlae import serialize
from edlae.closed_form import ZERO_DIAGONAL, EdlaeConfig, LowRankModel
from edlae.errors import ModelFormatError, ParseError
from edlae.serialize import load_model, read_record, save_model, write_atomic, write_record


def make_model(kind="edlae", n=5, k=2, seed=0):
    rng = np.random.default_rng(seed)
    cfg = EdlaeConfig(lam=2.5, dropout_p=0.25)
    return LowRankModel(
        u=rng.standard_normal((n, k)), v=rng.standard_normal((n, k)), config=cfg, kind=kind,
    )


class TestRoundtrip:
    @pytest.mark.parametrize("kind,magic", [("edlae", b"EDLR"), ("ridge", b"RDGR")])
    def test_roundtrip(self, tmp_path, kind, magic):
        model = make_model(kind)
        path = tmp_path / "m.model"
        save_model(path, model)
        assert path.read_bytes()[:4] == magic
        loaded = load_model(path)
        assert loaded.kind == kind and loaded.rank == model.rank
        np.testing.assert_array_equal(loaded.u, model.u)
        np.testing.assert_array_equal(loaded.v, model.v)
        assert loaded.config.lam == 2.5 and loaded.config.dropout_p == 0.25

    def test_a_magic_for_every_family(self):
        # every family the trainers and the CLI know can be saved, and no other
        assert serialize.MAGIC_BY_KIND.keys() == ZERO_DIAGONAL.keys()

    def test_serialization_deterministic(self, tmp_path):
        model = make_model()
        save_model(tmp_path / "a", model)
        save_model(tmp_path / "b", model)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_header_layout(self, tmp_path):
        model = make_model(n=3, k=1)
        path = tmp_path / "m.model"
        save_model(path, model)
        blob = path.read_bytes()
        magic, version, n, k, lam, p = struct.unpack_from("<4sIQQdd", blob)
        assert (magic, version, n, k) == (b"EDLR", 1, 3, 1)
        assert lam == 2.5 and p == 0.25
        assert len(blob) == struct.calcsize("<4sIQQdd") + 2 * 3 * 1 * 8


class TestValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(path, make_model())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(path, make_model())
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(path, make_model())
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ModelFormatError, match="bytes"):
            load_model(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(path, make_model())
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize("offset, fmt, value, match", [
        (16, "<Q", 0, "rank must be >= 1, got 0"),
        (24, "<d", -1.0, "lam must be finite and non-negative, got -1.0"),
        (24, "<d", float("nan"), "lam must be finite and non-negative, got nan"),
        (32, "<d", 1.0, "dropout_p must be in [0, 1), got 1.0"),
        (32, "<d", -0.25, "dropout_p must be in [0, 1), got -0.25"),
    ])
    def test_bad_header_value(self, tmp_path, offset, fmt, value, match):
        path = tmp_path / "m.model"
        save_model(path, make_model())
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: header: {match}"

    @pytest.mark.parametrize("corrupt", [
        lambda blob: b"XXXX" + blob[4:],
        lambda blob: blob[:10],
        lambda blob: blob[:-8],
        lambda blob: blob[:-8] + struct.pack("<d", float("inf")),
    ], ids=["magic", "short-header", "short-payload", "non-finite-payload"])
    def test_every_format_error_starts_with_the_path(self, tmp_path, corrupt):
        path = tmp_path / "m.model"
        save_model(path, make_model())
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_model_without_config_rejected(self, tmp_path):
        model = LowRankModel(u=np.zeros((2, 1)), v=np.zeros((2, 1)))
        with pytest.raises(ModelFormatError, match="config"):
            save_model(tmp_path / "m.model", model)

    def test_unknown_kind_rejected(self, tmp_path):
        model = make_model(kind="linear-svd")
        with pytest.raises(ModelFormatError, match="kind"):
            save_model(tmp_path / "m.model", model)


class FailingHandle:
    """A file handle whose second write fails, as on a full disk."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0

    def write(self, chunk):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return self.handle.write(chunk)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


class TestAtomicWrite:
    def fail_second_write(self, monkeypatch):
        monkeypatch.setattr(
            serialize, "open", lambda *a, **kw: FailingHandle(open(*a, **kw)), raising=False
        )

    def test_failed_save_keeps_old_model(self, tmp_path, monkeypatch):
        path = tmp_path / "m.model"
        save_model(path, make_model(seed=0))
        before = path.read_bytes()
        self.fail_second_write(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            save_model(path, make_model(seed=1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.model"]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        self.fail_second_write(monkeypatch)
        with pytest.raises(OSError):
            write_atomic(tmp_path / "metrics.txt", b"head\n", b"rows\n")
        assert list(tmp_path.iterdir()) == []

    def test_replaces_whole_content(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_bytes(b"an older and longer content\n")
        write_atomic(path, b"a\t", b"b\n")
        assert path.read_bytes() == b"a\tb\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.tsv"]


class TestRecord:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.txt"
        fields = [("seed", 3), ("lam", 0.1), ("ks", [8, 16]), ("ps", (0.25, 1 / 3)),
                  ("binarize", False), ("split", "a b#c")]
        write_record(path, fields, header="v1")
        assert path.read_text(encoding="utf-8").splitlines()[:4] == [
            "v1", "seed = 3", "lam = 0.10000000000000001", "ks = 8,16"]
        record = read_record(path, header="v1")
        assert record == {"seed": "3", "lam": "0.10000000000000001", "ks": "8,16",
                          "ps": "0.25,0.33333333333333331", "binarize": "false",
                          "split": "a b#c"}
        assert float(record["ps"].split(",")[1]) == 1 / 3

    def test_comments_blank_lines_and_dashed_keys(self, tmp_path):
        path = tmp_path / "r.cfg"
        path.write_text("# job\n\n  test-fraction = 0.2 # share\nout=x#1\n", encoding="utf-8")
        assert read_record(path) == {"test_fraction": "0.2", "out": "x#1"}

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "r.cfg"
        path.write_text("\ufeffv1\nseed = 3\n", encoding="utf-8")
        assert read_record(path, header="v1") == {"seed": "3"}
        path.write_text("\ufeffseed = 3\n", encoding="utf-8")
        assert read_record(path) == {"seed": "3"}

    @pytest.mark.parametrize("text, error", [
        ("a = 1\nb\n", "r.cfg, line 2: expected 'key = value', got 'b'"),
        ("a = 1\n = 2\n", "r.cfg, line 2: expected 'key = value', got '= 2'"),
        ("a-b = 1\n\na_b = 2\n", "r.cfg, line 3: repeated key 'a_b'"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, text, error):
        path = tmp_path / "r.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=error):
            read_record(path, file="r.cfg")
