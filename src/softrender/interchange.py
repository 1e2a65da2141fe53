"""One-way shared-memory transform table between a physics writer and a
render reader.

Region layout (all little-endian, sizes in bytes):

  offset 0   u32  magic 0x41564931
  offset 4   u32  layout version (1)
  offset 8   u32  node count
  offset 12  u32  reserved (zero)
  offset 16  u64  generation: even = stable, odd = write in progress
  offset 24  40B  reserved lock slot (zeroed; see below)
  offset 64  node records, 128 bytes each:
               64B zero-padded UTF-8 node name (no NUL inside)
               64B 4x4 float32 matrix, column-major

Total size is 64 + 128 * node_count.  The records are read and written
as one numpy structured dtype, all nodes at once.  The roster of names is
fixed at creation; only matrices and the generation change afterwards.

Cross-process exclusion uses fcntl.flock on the backing file instead of
a mutex inside the reserved slot (portable from pure Python; the slot
stays zeroed for layout compatibility).  The writer holds LOCK_EX while
it sets the region up and for every write, and a reader copies under
LOCK_SH, so a reader waits on the lock rather than spinning.  Readers
still validate the generation seqlock-style: a snapshot only counts when
the counter is even and unchanged across the copy.  Under the lock that
fails only when a writer died mid-write, and the region then never
becomes stable again, so read_frame raises ContentionError at once.
Data flows strictly writer to reader; a reader never writes the region.
"""

from __future__ import annotations

import fcntl
import mmap
import os
import struct
import tempfile
import time
from pathlib import Path

import numpy as np

from .errors import ContentionError, IncompatibleRegionError, RegionError, ValidationError
from .linalg import rotate_z, translate
from .scene import check_unique_names

MAGIC = 0x41564931
VERSION = 1
HEADER_SIZE = 64
RECORD_SIZE = 128
NAME_BYTES = 64
GENERATION_OFFSET = 16
LOCK_SLOT_OFFSET = 24
LOCK_SLOT_SIZE = 40

_HEADER = struct.Struct("<IIII Q")  # magic, version, node_count, reserved, generation
# zero-padded name, then the matrix in column-major order
_RECORD = np.dtype([("name", f"S{NAME_BYTES}"), ("matrix", "<f4", (16,))])


def region_size(node_count: int) -> int:
    return HEADER_SIZE + RECORD_SIZE * node_count


def region_path(name: str) -> Path:
    if not name or any(c not in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
                       for c in name):
        raise RegionError(f"invalid region name '{name}'")
    base = Path("/dev/shm") if Path("/dev/shm").is_dir() else Path(tempfile.gettempdir())
    return base / f"softrender-{name}"


def unlink_region(name: str, missing_ok: bool = True) -> None:
    region_path(name).unlink(missing_ok=missing_ok)


def _encode_name(name: str) -> bytes:
    try:
        raw = name.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raw = b""
    if not raw or len(raw) > NAME_BYTES - 1 or b"\x00" in raw:
        raise ValidationError(f"node name {name!r} must be 1..{NAME_BYTES - 1} UTF-8 bytes "
                              "without NUL")
    return raw


def _decode_names(records) -> list:
    try:
        return np.char.decode(records["name"], "utf-8").tolist()
    except UnicodeDecodeError as exc:
        raise IncompatibleRegionError(f"region holds a node name that is not UTF-8 ({exc})") \
            from None


def _decode_matrices(records) -> np.ndarray:
    """(N, 4, 4) float64 from the records' column-major float32 matrices."""
    return records["matrix"].reshape(-1, 4, 4).transpose(0, 2, 1).astype(np.float64)


class TransformSnapshot:
    """One stable frame of the table: names and their (N, 4, 4) float64
    world transforms, matrices.

    A reader's snapshots share one names list, the roster's; entries pairs
    names and matrices up on first access.  A snapshot built from entries,
    [(name, 16 values)], stacks them.  ValidationError unless there is
    one 4x4 matrix per name.
    """

    def __init__(self, generation: int, entries=None, names=None, matrices=None):
        if entries is not None:
            entries = list(entries)
            names = [name for name, _ in entries]
            try:
                matrices = np.array([np.reshape(mat, (4, 4)) for _, mat in entries],
                                    dtype=np.float64).reshape(-1, 4, 4)
            except ValueError as exc:
                raise ValidationError(f"pose snapshot holds a matrix that is not 4x4 ({exc})") \
                    from exc
        if np.shape(matrices) != (len(names), 4, 4):
            raise ValidationError(f"pose snapshot matrices have shape {np.shape(matrices)}, "
                                  f"expected ({len(names)}, 4, 4)")
        self.generation = generation
        self.names = names
        self.matrices = matrices
        self._entries = entries

    @property
    def entries(self) -> list:
        """[(name, (4, 4) float64)]"""
        if self._entries is None:
            self._entries = list(zip(self.names, self.matrices))
        return self._entries


class TransformTableWriter:
    """Owns the region: creates it, publishes frames, unlinks on close."""

    def __init__(self, name: str, node_names):
        names = list(node_names)
        check_unique_names(names)
        encoded = [_encode_name(n) for n in names]
        self.name = name
        self.node_names = names
        self.path = region_path(name)
        size = region_size(len(names))
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
        except FileExistsError:
            raise RegionError(f"region '{name}' already exists at {self.path}") from None
        except OSError as e:
            raise RegionError(f"cannot create region '{name}': {e}") from None
        self._fd = fd
        os.ftruncate(fd, size)
        self._mm = mmap.mmap(fd, size)
        self._records = np.frombuffer(self._mm, dtype=_RECORD, count=len(names),
                                      offset=HEADER_SIZE)
        # set up under LOCK_EX, born at generation 1 (write in progress):
        # an attacher racing creation sees magic 0 (attach fails) or waits
        # on the lock in read_frame until the records are real
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            self._mm[:HEADER_SIZE] = _HEADER.pack(MAGIC, VERSION, len(names), 0, 1) \
                + b"\x00" * (HEADER_SIZE - _HEADER.size)
            self._records["name"] = encoded
            self._records["matrix"] = np.eye(4).ravel()
            self._set_generation(0)
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)

    @property
    def generation(self) -> int:
        return struct.unpack_from("<Q", self._mm, GENERATION_OFFSET)[0]

    def _set_generation(self, value: int) -> None:
        struct.pack_into("<Q", self._mm, GENERATION_OFFSET, value)

    def write_frame(self, transforms) -> int:
        """Publish one frame; returns the new (even) generation.

        transforms is a mapping or pair list covering the full roster.
        """
        table = dict(transforms)
        missing = [n for n in self.node_names if n not in table]
        if missing:
            raise ValidationError(f"write_frame missing transforms for {missing}")
        mats = np.array([np.reshape(table[n], (4, 4)) for n in self.node_names],
                        dtype=np.float64).reshape(-1, 4, 4)
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        try:
            gen = self.generation
            self._set_generation(gen + 1)  # odd: write in progress
            self._records["matrix"] = mats.transpose(0, 2, 1).reshape(-1, 16)
            self._set_generation(gen + 2)
            return gen + 2
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)

    def close(self, unlink: bool = True) -> None:
        if self._mm is not None:
            self._records = None  # an exported view would make close() raise BufferError
            self._mm.close()
            self._mm = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if unlink:
            self.path.unlink(missing_ok=True)


def create_table(name: str, node_names) -> TransformTableWriter:
    return TransformTableWriter(name, node_names)


class TransformTableReader:
    """Attaches to an existing region; mapped read-write per the layout
    contract but never writes (flock carries the lock role instead)."""

    def __init__(self, name: str):
        self.name = name
        self.path = region_path(name)
        try:
            fd = os.open(self.path, os.O_RDWR)
        except FileNotFoundError:
            raise RegionError(f"region '{name}' does not exist") from None
        except OSError as e:
            raise RegionError(f"cannot attach region '{name}': {e}") from None
        self._fd = fd
        header = os.pread(fd, HEADER_SIZE, 0)
        if len(header) < HEADER_SIZE:
            os.close(fd)
            raise RegionError(f"region '{name}' is truncated")
        magic, version, node_count, _res, _gen = _HEADER.unpack_from(header)
        if magic != MAGIC:
            os.close(fd)
            raise IncompatibleRegionError(
                f"region '{name}' has magic 0x{magic:08X}, expected 0x{MAGIC:08X}")
        if version != VERSION:
            os.close(fd)
            raise IncompatibleRegionError(
                f"region '{name}' has layout version {version}, expected {VERSION}")
        size = region_size(node_count)
        if os.fstat(fd).st_size < size:
            os.close(fd)
            raise RegionError(f"region '{name}' smaller than its declared layout")
        self.node_count = node_count
        self._mm = mmap.mmap(fd, size)
        self._names = None  # the roster, decoded by the first stable read

    def read_frame(self) -> TransformSnapshot:
        """Copy out one stable snapshot under LOCK_SH.

        The generation must be even and identical before and after the
        copy.  Writers hold LOCK_EX for a whole write, so under the lock
        anything else is a writer that died mid-write: ContentionError.
        The roster is fixed at creation, so its names are decoded once,
        from the first copy that passes this check (a reader attached
        while the writer was still setting up would otherwise see zeroed
        names), and every later snapshot shares that list.  Each snapshot
        gets its own matrices.
        """
        fcntl.flock(self._fd, fcntl.LOCK_SH)
        try:
            g1 = struct.unpack_from("<Q", self._mm, GENERATION_OFFSET)[0]
            raw = bytes(self._mm[HEADER_SIZE:HEADER_SIZE + RECORD_SIZE * self.node_count])
            g2 = struct.unpack_from("<Q", self._mm, GENERATION_OFFSET)[0]
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        if g1 % 2 == 1 or g1 != g2:
            raise ContentionError(f"region '{self.name}' is stuck at generation {g2} "
                                  "(a writer died mid-write)")
        records = np.frombuffer(raw, dtype=_RECORD, count=self.node_count)
        if self._names is None:
            self._names = _decode_names(records)
        return TransformSnapshot(generation=g1, names=self._names,
                                 matrices=_decode_matrices(records))

    def close(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def attach_table(name: str) -> TransformTableReader:
    return TransformTableReader(name)


# ---------------------------------------------------------------------------
# Deterministic physics stand-in.

def physics_stub_step(tick: int, node_names) -> list:
    """Node k orbits: translate k along +X after rotating 0.1*tick + k
    around Z.  Pure function of (tick, roster order)."""
    out = []
    for k, name in enumerate(node_names):
        out.append((name, translate(float(k), 0.0, 0.0) @ rotate_z(0.1 * tick + k)))
    return out


def stub_writer_loop(region_name: str, node_names, tick_hz: float, stop_event,
                     max_ticks: int | None = None,
                     crash_after_ticks: int | None = None) -> None:
    """Writer process body: publish stub poses at tick_hz until stopped.

    Tick k is published at t0 + k / tick_hz on an absolute schedule: the
    writer waits only for what is left of the period after its own work,
    and a tick that is late is published at once.
    A clean stop unlinks the region (the writer owns its lifetime).
    crash_after_ticks instead simulates a physics crash by exiting hard
    with no cleanup, leaving the file behind at its last stable frame.
    """
    writer = create_table(region_name, node_names)
    tick = 0
    t0 = time.monotonic()
    try:
        while not stop_event.is_set():
            writer.write_frame(physics_stub_step(tick, node_names))
            tick += 1
            if crash_after_ticks is not None and tick >= crash_after_ticks:
                os._exit(3)
            if max_ticks is not None and tick >= max_ticks:
                break
            if tick_hz > 0:
                delay = t0 + tick / tick_hz - time.monotonic()
                if delay > 0.0:
                    stop_event.wait(delay)
    finally:
        writer.close(unlink=True)
