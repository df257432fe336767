"""Field serialization: text CSV, binary SPF1, norm-series tables.

All writers are atomic (write to a temp file in the target directory,
then rename), so a crashed run never leaves a half-written artifact.
``publish_directory`` does the same for a whole directory of files: one
rename publishes all of them.

CSV field format: header ``x,re,im``, one row per node, 17 significant
digits.  Binary format: magic ``SPF1``, little-endian u64 node count,
little-endian f64 half-length, then per node an (re, im) f64 pair.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .spectral import Grid1D, SpectralField

__all__ = [
    "dump_field_csv",
    "load_field_csv",
    "dump_field_binary",
    "field_binary_bytes",
    "load_field_binary",
    "load_field",
    "write_norms_csv",
    "atomic_write_text",
    "atomic_write_bytes",
    "publish_directory",
]

_MAGIC = b"SPF1"
_HEADER_BYTES = 20   # magic, u64 node count, f64 half-length


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def publish_directory(path: str | Path, entries: Iterable[tuple[str, bytes]]) -> None:
    """Publish every (file name, payload) of ``entries`` as the directory ``path``.

    The files go, by plain writes, into a fresh directory beside ``path``,
    which one rename then puts in place; an existing ``path`` is moved
    aside first and removed after, so no file of it survives.  ``entries``
    may be a generator, so payloads need not be held at once.  If anything
    fails before the rename, ``path`` is left as it was and the fresh
    directory is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp"))
    old = stage.with_suffix(".old")
    try:
        for name, payload in entries:
            (stage / name).write_bytes(payload)
        if path.exists():
            os.replace(path, old)
        try:
            os.replace(stage, path)
        except BaseException:
            if old.exists():
                os.replace(old, path)
            raise
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


def dump_field_csv(field: SpectralField, path: str | Path) -> None:
    rows = ["x,re,im"]
    for x, v in zip(field.grid.x, field.values):
        rows.append(f"{x:.17g},{v.real:.17g},{v.imag:.17g}")
    atomic_write_text(path, "\n".join(rows) + "\n")


def load_field_csv(path: str | Path) -> SpectralField:
    raw = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != 3 or raw.shape[0] < 16:
        raise ConfigError(f"{path}: expected x,re,im rows")
    x = raw[:, 0]
    n = len(x)
    dx = x[1] - x[0]
    if not np.allclose(np.diff(x), dx, rtol=1e-9, atol=1e-12):
        raise ConfigError(f"{path}: nodes are not uniformly spaced")
    half_length = -x[0]
    if abs(n * dx - 2 * half_length) > 1e-9 * max(1.0, half_length):
        raise ConfigError(f"{path}: nodes do not form a [-L, L) grid")
    grid = Grid1D(n, half_length)
    return SpectralField(grid, raw[:, 1] + 1j * raw[:, 2])


def field_binary_bytes(grid: Grid1D, values: np.ndarray) -> bytes:
    """The SPF1 file contents of the samples ``values`` on ``grid``.

    A little-endian complex128 array already holds (re, im) pairs in order,
    so its bytes are the payload.
    """
    payload = np.asarray(values, dtype="<c16").tobytes()
    return _MAGIC + struct.pack("<Q", grid.n) + struct.pack("<d", grid.half_length) + payload


def dump_field_binary(field: SpectralField, path: str | Path) -> None:
    atomic_write_bytes(path, field_binary_bytes(field.grid, field.values))


def load_field_binary(path: str | Path) -> SpectralField:
    blob = Path(path).read_bytes()
    if blob[:4] != _MAGIC:
        raise ConfigError(f"{path}: not a field file (bad magic)")
    if len(blob) < _HEADER_BYTES:
        raise ConfigError(f"{path}: truncated header")
    n = struct.unpack("<Q", blob[4:12])[0]
    half_length = struct.unpack("<d", blob[12:20])[0]
    expected = _HEADER_BYTES + 16 * n
    if len(blob) != expected:
        raise ConfigError(f"{path}: expected {expected} bytes for n={n}, got {len(blob)}")
    interleaved = np.frombuffer(blob, dtype="<f8", offset=_HEADER_BYTES)
    grid = Grid1D(n, half_length)
    return SpectralField(grid, interleaved[0::2] + 1j * interleaved[1::2])


def load_field(path: str | Path) -> SpectralField:
    """Load either format, sniffing the binary magic first."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        return load_field_binary(path)
    return load_field_csv(path)


def write_norms_csv(path: str | Path, times: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    """Norm-series table: header ``t,<name>,...``, 17 significant digits."""
    names = list(columns)
    rows = ["t," + ",".join(names)]
    for i, t in enumerate(times):
        vals = ",".join(f"{columns[name][i]:.17g}" for name in names)
        rows.append(f"{t:.17g},{vals}")
    atomic_write_text(path, "\n".join(rows) + "\n")
