"""Round trips and format details for field serialization."""

import numpy as np
import pytest

from schrobvp.errors import ConfigError
from schrobvp.fieldio import (
    dump_field_binary,
    dump_field_csv,
    load_field,
    load_field_binary,
    load_field_csv,
    write_norms_csv,
)
from schrobvp.spectral import Grid1D, random_band_field


@pytest.fixture
def field():
    return random_band_field(Grid1D(64, 4 * np.pi), 20, 9)


class TestCsv:
    def test_round_trip_exact(self, field, tmp_path):
        p = tmp_path / "f.csv"
        dump_field_csv(field, p)
        back = load_field_csv(p)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)  # 17 digits round-trips f64

    def test_header(self, field, tmp_path):
        p = tmp_path / "f.csv"
        dump_field_csv(field, p)
        assert p.read_text().splitlines()[0] == "x,re,im"

    def test_rejects_nonuniform_nodes(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["x,re,im"] + [f"{x},{1.0},{0.0}" for x in np.r_[np.linspace(-1, 0, 32), np.linspace(0.1, 1.2, 32)]]
        p.write_text("\n".join(rows))
        with pytest.raises(ConfigError):
            load_field_csv(p)


class TestBinary:
    def test_round_trip_exact(self, field, tmp_path):
        p = tmp_path / "f.spf"
        dump_field_binary(field, p)
        back = load_field_binary(p)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)

    def test_layout(self, field, tmp_path):
        p = tmp_path / "f.spf"
        dump_field_binary(field, p)
        blob = p.read_bytes()
        assert blob[:4] == b"SPF1"
        assert len(blob) == 20 + 16 * field.grid.n
        n = int.from_bytes(blob[4:12], "little")
        assert n == field.grid.n

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.spf"
        p.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ConfigError):
            load_field_binary(p)

    def test_truncated(self, field, tmp_path):
        p = tmp_path / "f.spf"
        dump_field_binary(field, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            load_field_binary(p)


    @pytest.mark.parametrize("size", [16, 19])
    def test_truncated_header(self, tmp_path, size):
        p = tmp_path / "short.spf"
        p.write_bytes(b"SPF1" + bytes(size - 4))
        with pytest.raises(ConfigError, match="truncated header"):
            load_field_binary(p)


class TestSniffing:
    def test_load_either_format(self, field, tmp_path):
        c = tmp_path / "f.csv"
        b = tmp_path / "f.spf"
        dump_field_csv(field, c)
        dump_field_binary(field, b)
        assert np.array_equal(load_field(c).values, load_field(b).values)


class TestNormsCsv:
    def test_layout_and_values(self, tmp_path):
        p = tmp_path / "norms.csv"
        times = np.linspace(0, 1, 5)
        cols = {"norm_vplus": times + 1, "norm_vminus": times + 2, "norm_w": times + 3}
        write_norms_csv(p, times, cols)
        lines = p.read_text().splitlines()
        assert lines[0] == "t,norm_vplus,norm_vminus,norm_w"
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 1.0, 2.0, 3.0]
        assert len(lines) == 6
