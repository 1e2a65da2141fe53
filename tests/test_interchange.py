"""Shared-memory transform table tests.

The byte-layout goldens are rebuilt here from struct.pack so any drift
in the writer's encoding shows up as a byte diff.  The torn-read hammer
uses a sentinel tick stamped into matrix element [3][0] of a dedicated
node; every snapshot must be self-consistent with that tick.
"""

import fcntl
import math
import multiprocessing
import os
import struct
import threading
import time
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrender.errors import (
    ContentionError,
    IncompatibleRegionError,
    RegionError,
    ValidationError,
)
from softrender import interchange
from softrender.interchange import (
    GENERATION_OFFSET,
    HEADER_SIZE,
    MAGIC,
    NAME_BYTES,
    RECORD_SIZE,
    VERSION,
    TransformSnapshot,
    _RECORD,
    _decode_matrices,
    _decode_names,
    attach_table,
    create_table,
    physics_stub_step,
    region_path,
    region_size,
    stub_writer_loop,
    unlink_region,
)
from softrender.linalg import rotate_z, translate


@pytest.fixture
def region_name():
    name = f"test-{uuid.uuid4().hex[:12]}"
    yield name
    unlink_region(name, missing_ok=True)


def pack_record(name: str, mat) -> bytes:
    raw = name.encode("utf-8").ljust(64, b"\x00")
    cols = np.asarray(mat, dtype=np.float64).flatten(order="F")
    return raw + struct.pack("<16f", *cols)


def pack_header(node_count: int, generation: int) -> bytes:
    head = struct.pack("<IIIIQ", 0x41564931, 1, node_count, 0, generation)
    return head + b"\x00" * (HEADER_SIZE - len(head))


# ------------------------------------------------------------- layout

def test_region_size_three_nodes_is_448():
    assert region_size(3) == 448
    assert region_size(0) == HEADER_SIZE == 64
    assert RECORD_SIZE == 128


def test_magic_and_version_constants():
    assert MAGIC == 0x41564931
    assert VERSION == 1


def test_fresh_table_bytes_match_struct_oracle(region_name):
    writer = create_table(region_name, ["alpha", "beta"])
    try:
        expected = pack_header(2, 0)
        expected += pack_record("alpha", np.eye(4))
        expected += pack_record("beta", np.eye(4))
        assert writer.path.read_bytes() == expected
    finally:
        writer.close()


def test_post_write_bytes_match_struct_oracle(region_name):
    names = ["alpha", "beta"]
    writer = create_table(region_name, names)
    try:
        writer.write_frame(physics_stub_step(0, names))
        c, s = math.cos(1.0), math.sin(1.0)
        beta = np.array([
            [c, -s, 0.0, 1.0],
            [s, c, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        expected = pack_header(2, 2)
        expected += pack_record("alpha", np.eye(4))  # k=0: no offset, no turn
        expected += pack_record("beta", beta)
        assert writer.path.read_bytes() == expected
    finally:
        writer.close()


def test_region_file_name_is_prefixed(region_name):
    assert region_path(region_name).name == f"softrender-{region_name}"


# ----------------------------------------------------- create / attach

def test_fresh_table_reads_identities_at_generation_zero(region_name):
    writer = create_table(region_name, ["a", "b", "c"])
    reader = attach_table(region_name)
    try:
        snap = reader.read_frame()
        assert snap.generation == 0
        assert [n for n, _ in snap.entries] == ["a", "b", "c"]
        for _, mat in snap.entries:
            np.testing.assert_array_equal(mat, np.eye(4))
    finally:
        reader.close()
        writer.close()


def test_generation_increments_by_two_per_write(region_name):
    writer = create_table(region_name, ["n"])
    reader = attach_table(region_name)
    try:
        assert writer.generation == 0
        assert writer.write_frame({"n": np.eye(4)}) == 2
        assert writer.write_frame({"n": translate(1, 0, 0)}) == 4
        snap = reader.read_frame()
        assert snap.generation == 4
        assert writer.generation == 4
    finally:
        reader.close()
        writer.close()


def test_snapshot_needs_one_4x4_matrix_per_name():
    # built from entries, a snapshot stacks them; either way apply gets (N, 4, 4)
    snap = TransformSnapshot(2, [("a", np.eye(4)), ("b", np.arange(16.0))])
    assert (snap.names, snap.matrices.shape) == (["a", "b"], (2, 4, 4))
    with pytest.raises(ValidationError, match="not 4x4"):
        TransformSnapshot(2, [("a", np.eye(4)), ("b", np.eye(3))])
    with pytest.raises(ValidationError, match=r"expected \(2, 4, 4\)"):
        TransformSnapshot(2, names=["a", "b"], matrices=np.zeros((2, 3, 3)))


def test_snapshot_values_are_float32_quantized(region_name):
    writer = create_table(region_name, ["n"])
    reader = attach_table(region_name)
    try:
        writer.write_frame({"n": translate(0.1, 0.2, 0.3)})
        mat = dict(reader.read_frame().entries)["n"]
        assert mat[0, 3] == float(np.float32(0.1))
        assert mat[0, 3] != 0.1  # 0.1 is not exactly representable in f32
        assert mat[1, 3] == float(np.float32(0.2))
        assert mat[2, 3] == float(np.float32(0.3))
    finally:
        reader.close()
        writer.close()


def test_generation_is_monotonic_across_interleaved_reads(region_name):
    writer = create_table(region_name, ["n"])
    reader = attach_table(region_name)
    try:
        seen = [reader.read_frame().generation]
        for i in range(5):
            writer.write_frame({"n": translate(float(i), 0, 0)})
            g = reader.read_frame().generation
            assert g % 2 == 0
            assert g >= seen[-1]
            seen.append(g)
        assert seen == [0, 2, 4, 6, 8, 10]
    finally:
        reader.close()
        writer.close()


# ------------------------------------------------------------- errors

def test_duplicate_roster_name_rejected(region_name):
    with pytest.raises(ValidationError, match="duplicate node name 'twin'"):
        create_table(region_name, ["twin", "twin"])
    assert not region_path(region_name).exists()


def test_overlong_and_empty_names_rejected(region_name):
    with pytest.raises(ValidationError):
        create_table(region_name, ["x" * 64])
    with pytest.raises(ValidationError):
        create_table(region_name, [""])
    with pytest.raises(ValidationError):  # zero padding would strip it on read
        create_table(region_name, ["a", "a\x00"])
    create_table(region_name, ["y" * 63]).close()  # longest legal name


def test_invalid_region_names_rejected():
    # dots are allowed: the "softrender-" prefix means ".." cannot traverse
    for bad in ["", "no/slashes", "no spaces", "a\x00b"]:
        with pytest.raises(RegionError):
            region_path(bad)


def test_create_refuses_existing_region(region_name):
    writer = create_table(region_name, ["n"])
    try:
        with pytest.raises(RegionError):
            create_table(region_name, ["n"])
    finally:
        writer.close()


def test_attach_missing_region_raises():
    with pytest.raises(RegionError):
        attach_table(f"test-absent-{uuid.uuid4().hex[:8]}")


def test_wrong_magic_is_incompatible(region_name):
    writer = create_table(region_name, ["n"])
    try:
        with open(writer.path, "r+b") as f:
            f.write(struct.pack("<I", 0xDEADBEEF))
        with pytest.raises(IncompatibleRegionError, match="magic"):
            attach_table(region_name)
    finally:
        writer.close()


def test_wrong_version_is_incompatible(region_name):
    writer = create_table(region_name, ["n"])
    try:
        with open(writer.path, "r+b") as f:
            f.seek(4)
            f.write(struct.pack("<I", 9))
        with pytest.raises(IncompatibleRegionError, match="version"):
            attach_table(region_name)
    finally:
        writer.close()


def test_truncated_region_rejected(region_name):
    writer = create_table(region_name, ["n"])
    try:
        with open(writer.path, "r+b") as f:
            f.truncate(HEADER_SIZE + 10)
        with pytest.raises(RegionError):
            attach_table(region_name)
    finally:
        writer.close()


def test_write_frame_missing_node_fails_before_mutation(region_name):
    writer = create_table(region_name, ["a", "b"])
    try:
        writer.write_frame({"a": translate(1, 0, 0), "b": np.eye(4)})
        before = writer.path.read_bytes()
        with pytest.raises(ValidationError, match="missing"):
            writer.write_frame({"a": np.eye(4)})
        assert writer.path.read_bytes() == before
        assert writer.generation == 2
    finally:
        writer.close()


def spy_flock(monkeypatch) -> list:
    """Record the operation of every fcntl.flock call from here on."""
    calls = []
    flock = fcntl.flock
    monkeypatch.setattr(fcntl, "flock", lambda fd, op: (calls.append(op), flock(fd, op))[1])
    return calls


def test_stuck_odd_generation_times_out(region_name, monkeypatch):
    writer = create_table(region_name, ["n"])
    reader = attach_table(region_name)
    try:
        with open(writer.path, "r+b") as f:
            f.seek(GENERATION_OFFSET)
            f.write(struct.pack("<Q", 7))  # simulate a dead writer mid-write
        calls = spy_flock(monkeypatch)
        with pytest.raises(ContentionError, match="generation 7"):
            reader.read_frame()
        assert calls.count(fcntl.LOCK_SH) == 1
    finally:
        reader.close()
        writer.close()


def test_writer_sets_region_up_under_exclusive_lock(region_name, monkeypatch):
    # a reader that attaches mid-setup waits on the lock instead of
    # meeting the odd birth generation
    calls = spy_flock(monkeypatch)
    create_table(region_name, ["n"]).close()
    assert calls == [fcntl.LOCK_EX, fcntl.LOCK_UN]


def test_non_utf8_name_is_incompatible(region_name):
    writer = create_table(region_name, ["n"])
    reader = attach_table(region_name)
    try:
        with open(writer.path, "r+b") as f:
            f.seek(HEADER_SIZE)
            f.write(b"\xff\xfe")  # first record's name: not UTF-8
        with pytest.raises(IncompatibleRegionError, match="UTF-8"):
            reader.read_frame()
    finally:
        reader.close()
        writer.close()


def test_reader_snapshots_equal_a_full_decode_of_their_bytes(region_name):
    # the reader decodes the roster once and then only the matrices
    names = ["alpha", "b\u00e9ta", "n2", "n3"]
    writer = create_table(region_name, names)
    reader = attach_table(region_name)
    try:
        taken = []
        for tick in range(5):
            writer.write_frame(physics_stub_step(3 * tick, names))
            records = np.frombuffer(writer.path.read_bytes()[HEADER_SIZE:], dtype=_RECORD,
                                    count=len(names))
            taken.append((reader.read_frame(),
                          list(zip(_decode_names(records), _decode_matrices(records)))))
    finally:
        reader.close()
        writer.close()
    for snap, want in taken:  # later writes left earlier snapshots alone
        assert [n for n, _ in snap.entries] == [n for n, _ in want] == names
        for (_, got), (_, mat) in zip(snap.entries, want):
            assert got.dtype == mat.dtype == np.float64
            assert got.tobytes() == mat.tobytes()
    assert all(snap.names is taken[0][0].names for snap, _ in taken)
    assert len({snap.generation for snap, _ in taken}) == 5


# ------------------------------------------------- record properties

def legal_name(name: str) -> bool:
    try:
        raw = name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return 1 <= len(raw) <= NAME_BYTES - 1 and b"\x00" not in raw


_legal_names = st.text(st.characters(codec="utf-8", exclude_characters="\x00"),
                       min_size=1, max_size=NAME_BYTES - 1).filter(legal_name)
# any float64 in float32's finite range; writing rounds it to float32
_matrices = st.lists(st.floats(-3.4e38, 3.4e38), min_size=16, max_size=16).map(
    lambda vals: np.array(vals).reshape(4, 4))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_legal_names, _matrices), min_size=1, max_size=6,
                unique_by=lambda pair: pair[0]))
def test_records_round_trip(pairs):
    name = f"test-{uuid.uuid4().hex[:12]}"
    writer = create_table(name, [n for n, _ in pairs])
    reader = attach_table(name)
    try:
        writer.write_frame(pairs)
        snap = reader.read_frame()
    finally:
        reader.close()
        writer.close()
    assert [n for n, _ in snap.entries] == [n for n, _ in pairs]
    for (_, got), (_, mat) in zip(snap.entries, pairs):
        np.testing.assert_array_equal(got, mat.astype(np.float32).astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(st.characters(), max_size=NAME_BYTES + 4), min_size=1, max_size=3))
def test_roster_names_fail_only_with_validation_error(names):
    name = f"test-{uuid.uuid4().hex[:12]}"
    legal = len(set(names)) == len(names) and all(legal_name(n) for n in names)
    try:
        create_table(name, names).close()
    except ValidationError:
        assert not legal
        assert not region_path(name).exists()
    else:
        assert legal


# ----------------------------------------------------------- one-way

def test_reader_never_writes_the_region(region_name):
    writer = create_table(region_name, ["a", "b"])
    writer.write_frame(physics_stub_step(4, ["a", "b"]))
    reader = attach_table(region_name)
    try:
        before = writer.path.read_bytes()
        for _ in range(200):
            reader.read_frame()
        assert writer.path.read_bytes() == before
    finally:
        reader.close()
        writer.close()


# ------------------------------------------------------- physics stub

def test_stub_step_matches_hand_matrix():
    (name, mat), = physics_stub_step(10, ["only"])  # k=0: pure rotation
    c, s = math.cos(1.0), math.sin(1.0)
    np.testing.assert_allclose(mat, [[c, -s, 0, 0], [s, c, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 0, 1]], rtol=1e-15)

    pairs = physics_stub_step(10, ["a", "b", "c"])
    expected = translate(2.0, 0.0, 0.0) @ rotate_z(0.1 * 10 + 2)
    np.testing.assert_array_equal(pairs[2][1], expected)
    c3, s3 = math.cos(3.0), math.sin(3.0)
    np.testing.assert_allclose(pairs[2][1], [[c3, -s3, 0, 2], [s3, c3, 0, 0],
                                             [0, 0, 1, 0], [0, 0, 0, 1]],
                               rtol=1e-15, atol=1e-16)


def test_stub_step_tick_zero_node_zero_is_identity():
    (_, mat), = physics_stub_step(0, ["n"])
    np.testing.assert_array_equal(mat, np.eye(4))


# ------------------------------------------------------- writer loop

def test_stub_writer_loop_publishes_and_unlinks(region_name):
    stop = threading.Event()
    t = threading.Thread(target=stub_writer_loop,
                         args=(region_name, ["a", "b"], 400.0, stop))
    t.start()
    try:
        deadline = time.monotonic() + 5.0
        reader = None
        while reader is None:
            try:
                reader = attach_table(region_name)
            except RegionError:
                assert time.monotonic() < deadline, "writer never created region"
                time.sleep(0.01)
        while reader.read_frame().generation < 4:
            assert time.monotonic() < deadline, "generation never advanced"
            time.sleep(0.01)
        reader.close()
    finally:
        stop.set()
        t.join(timeout=5.0)
    assert not region_path(region_name).exists()  # clean stop unlinks


def test_stub_writer_loop_publishes_on_an_absolute_schedule(region_name, monkeypatch):
    """At 4 Hz, publish k is due at t0 + k / 4: a fake clock advances by each
    tick's work and by each wait, so no real time is slept or timed.  A
    writer that waited a full period after each publish would wait
    [0.25] * 6; a late tick (0.5 s of work) is followed by no wait."""
    class Clock:
        now = 8.0

        def monotonic(self):
            return self.now

    class StopEvent:
        def __init__(self):
            self.timeouts = []

        def is_set(self):
            return False

        def wait(self, timeout):
            self.timeouts.append(timeout)
            clock.now += timeout
            return False

    clock = Clock()
    work = iter([0.125, 0.125, 0.5, 0.125, 0.125, 0.125, 0.125])
    published = []
    real_step = interchange.physics_stub_step

    def step(tick, names):
        clock.now += next(work)
        published.append(clock.now)
        return real_step(tick, names)

    monkeypatch.setattr(interchange, "time", clock)
    monkeypatch.setattr(interchange, "physics_stub_step", step)
    stop = StopEvent()
    stub_writer_loop(region_name, ["a", "b"], 4.0, stop, max_ticks=7)
    assert stop.timeouts == [0.125, 0.125, 0.125]
    assert published == [8.125, 8.375, 9.0, 9.125, 9.25, 9.375, 9.625]


def test_writer_crash_leaves_last_stable_frame(region_name):
    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    p = ctx.Process(target=stub_writer_loop,
                    args=(region_name, ["a", "b"], 0.0, stop, None, 2))
    p.start()
    p.join(timeout=10.0)
    assert p.exitcode == 3  # hard exit, no cleanup
    assert region_path(region_name).exists()
    reader = attach_table(region_name)
    try:
        snap = reader.read_frame()
        assert snap.generation == 4  # two completed ticks
        expected = dict(physics_stub_step(1, ["a", "b"]))
        for name, mat in snap.entries:
            f32 = np.asarray(expected[name]).astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(mat, f32)
    finally:
        reader.close()


# ------------------------------------------------------------- hammer

def _sentinel_writer(region, stop):
    roster = ["body0", "body1", "sentinel"]
    writer = create_table(region, roster)
    tick = 0
    try:
        while not stop.is_set():
            frame = dict(physics_stub_step(tick, roster[:2]))
            sent = np.eye(4)
            sent[3, 0] = float(np.float32(tick))
            frame["sentinel"] = sent
            writer.write_frame(frame)
            tick += 1
    finally:
        writer.close(unlink=False)  # the test fixture unlinks


def check_snapshot_consistency(snap):
    """A snapshot is torn unless every record agrees with the sentinel
    tick; returns that tick."""
    m = dict(snap.entries)
    tick = int(m["sentinel"][3, 0])
    assert snap.generation == 2 * (tick + 1)
    sent_rest = m["sentinel"].copy()
    sent_rest[3, 0] = 0.0
    np.testing.assert_array_equal(sent_rest, np.eye(4))
    for name, expected in physics_stub_step(tick, ["body0", "body1"]):
        f32 = np.asarray(expected).astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(m[name], f32)
    return tick


def test_concurrent_hammer_sees_no_torn_snapshot(region_name):
    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    p = ctx.Process(target=_sentinel_writer, args=(region_name, stop))
    p.start()
    try:
        deadline = time.monotonic() + 10.0
        reader = None
        while reader is None:
            try:
                reader = attach_table(region_name)
            except RegionError:
                assert time.monotonic() < deadline
                time.sleep(0.005)
        # generation 0 is the identity roster, not a published frame
        while reader.read_frame().generation < 2:
            assert time.monotonic() < deadline, "writer never published"
            time.sleep(0.001)
        ticks = set()
        for i in range(20_000):
            if i % 1000 == 999:
                time.sleep(0)  # let the writer's exclusive lock in
            snap = reader.read_frame()
            ticks.add(check_snapshot_consistency(snap))
        reader.close()
        # the writer must actually have been racing us
        assert len(ticks) > 20, f"writer advanced only {len(ticks)} ticks"
    finally:
        stop.set()
        p.join(timeout=10.0)
        if p.is_alive():
            p.terminate()
