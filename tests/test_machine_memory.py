"""Guest memory: loads/stores, alignment, sparseness, properties."""

import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.machine import memory as memory_module
from repro.machine.errors import AlignmentFault, MemoryFault
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, Memory

LIMIT = 1 << 32


class TestBasicAccess:
    def test_byte_roundtrip(self):
        mem = Memory()
        mem.store_byte(100, 0xAB)
        assert mem.load_byte(100) == 0xAB

    def test_word_roundtrip(self):
        mem = Memory()
        mem.store_word(0x1000, 0xDEADBEEF)
        assert mem.load_word(0x1000) == 0xDEADBEEF

    def test_half_roundtrip(self):
        mem = Memory()
        mem.store_half(0x2000, 0x1234)
        assert mem.load_half(0x2000) == 0x1234

    def test_little_endian(self):
        mem = Memory()
        mem.store_word(0, 0x04030201)
        assert [mem.load_byte(i) for i in range(4)] == [1, 2, 3, 4]

    def test_unmapped_reads_zero(self):
        mem = Memory()
        assert mem.load_word(0x7FFF0000) == 0
        assert mem.load_byte(12345) == 0

    def test_store_truncates(self):
        mem = Memory()
        mem.store_word(0, 0x1_2345_6789)
        assert mem.load_word(0) == 0x2345_6789
        mem.store_byte(8, 0x1FF)
        assert mem.load_byte(8) == 0xFF

    def test_cross_page_isolation(self):
        mem = Memory()
        mem.store_word(PAGE_SIZE - 4, 0x11111111)
        mem.store_word(PAGE_SIZE, 0x22222222)
        assert mem.load_word(PAGE_SIZE - 4) == 0x11111111
        assert mem.load_word(PAGE_SIZE) == 0x22222222


class TestFaults:
    @pytest.mark.parametrize("addr", [1, 2, 3, 0x1001, 0x1002, 0x1003])
    def test_misaligned_word(self, addr):
        mem = Memory()
        with pytest.raises(AlignmentFault):
            mem.load_word(addr)
        with pytest.raises(AlignmentFault):
            mem.store_word(addr, 0)

    def test_misaligned_half(self):
        mem = Memory()
        with pytest.raises(AlignmentFault):
            mem.load_half(1)

    def test_out_of_range(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.load_byte(1 << 32)
        with pytest.raises(MemoryFault):
            mem.store_word((1 << 32) - 2, 1)

    def test_unterminated_cstring(self):
        mem = Memory()
        mem.write_bytes(0, b"abcd")
        with pytest.raises(MemoryFault):
            mem.read_cstring(0, limit=4)

    def test_unterminated_cstring_faults_at_limit(self):
        # a page-crossing run of non-NUL bytes stops at limit exactly
        mem = Memory()
        start = PAGE_SIZE - 5
        mem.write_bytes(start, b"x" * 16)
        assert mem.read_cstring(start, limit=17) == "x" * 16
        with pytest.raises(MemoryFault) as excinfo:
            mem.read_cstring(start, limit=16)
        assert excinfo.value.addr == start
        assert "unterminated string" in str(excinfo.value)

    def test_cstring_running_off_the_top_faults_at_limit_address(self):
        mem = Memory()
        mem.write_bytes(LIMIT - 3, b"abc")
        with pytest.raises(MemoryFault) as excinfo:
            mem.read_cstring(LIMIT - 3)
        assert excinfo.value.addr == LIMIT
        assert "load" in str(excinfo.value)


class TestBulk:
    def test_write_read_bytes(self):
        mem = Memory()
        mem.write_bytes(0x100, b"hello world")
        assert mem.read_bytes(0x100, 11) == b"hello world"

    def test_cstring(self):
        mem = Memory()
        mem.write_bytes(0x200, b"guest\0")
        assert mem.read_cstring(0x200) == "guest"

    def test_cstring_across_page_boundary(self):
        mem = Memory()
        text = bytes(range(1, 256)) * 20  # > one page of non-NUL bytes
        start = 2 * PAGE_SIZE - 7
        mem.write_bytes(start, text + b"\0")
        assert mem.read_cstring(start) == text.decode("latin-1")

    def test_cstring_ends_at_unmapped_page(self):
        mem = Memory()
        mem.write_bytes(PAGE_SIZE - 3, b"abc")  # page 1 stays unmapped
        assert mem.read_cstring(PAGE_SIZE - 3) == "abc"
        assert mem.resident_pages == 1

    def test_resident_pages_sparse(self):
        mem = Memory()
        mem.store_byte(0, 1)
        mem.store_byte(0x7000_0000, 1)
        assert mem.resident_pages == 2


class TestFaultAccessKind:
    """The access kind reaches the fault message on every path.

    Pins the ``_fail`` bugfix: the shared fast-path guard used to raise
    ``MemoryFault(addr)`` without saying whether the rejected access was
    a load or a store, so wide-access faults were indistinguishable in
    fault reports while the byte accessors labelled theirs correctly.
    """

    @pytest.mark.parametrize(
        "op, expected",
        [
            (lambda m: m.store_word((1 << 32) - 2, 1), "store"),
            (lambda m: m.store_half((1 << 32) - 1, 1), "store"),
            (lambda m: m.store_byte(1 << 32, 1), "store"),
            (lambda m: m.load_word((1 << 32) - 2), "load"),
            (lambda m: m.load_half((1 << 32) - 1), "load"),
            (lambda m: m.load_byte(1 << 32), "load"),
            (lambda m: m.write_bytes(-4, b"xy"), "store"),
            (lambda m: m.read_bytes(-4, 2), "load"),
            (lambda m: m.write_bytes((1 << 32) - 1, b"xy"), "store"),
            (lambda m: m.read_bytes((1 << 32) - 1, 2), "load"),
        ],
    )
    def test_fault_message_carries_kind(self, op, expected):
        mem = Memory()
        with pytest.raises(MemoryFault) as excinfo:
            op(mem)
        assert expected in str(excinfo.value)

    def test_misalignment_still_alignment_fault(self):
        # in-range misaligned accesses keep raising AlignmentFault; the
        # op threading must not change the fault taxonomy
        mem = Memory()
        with pytest.raises(AlignmentFault):
            mem.store_word(2, 1)
        with pytest.raises(AlignmentFault):
            mem.load_half(1)


def _write_bytes_bytewise(mem: Memory, addr: int, data: bytes) -> None:
    """The historical per-byte bulk-write loop (the reference oracle)."""
    for offset, byte in enumerate(data):
        mem.store_byte(addr + offset, byte)


class TestBulkEquivalence:
    """Page-sliced bulk paths are byte-identical to the per-byte loop."""

    @pytest.mark.parametrize(
        "addr",
        [0, 5, PAGE_SIZE - 3, PAGE_SIZE - 1, 3 * PAGE_SIZE - 7],
    )
    def test_write_bytes_matches_bytewise(self, addr):
        data = bytes(range(256)) * 20  # > one page, crosses boundaries
        sliced, bytewise = Memory(), Memory()
        sliced.write_bytes(addr, data)
        _write_bytes_bytewise(bytewise, addr, data)
        span = len(data) + 8
        start = max(addr - 4, 0)
        assert sliced.read_bytes(start, span) == \
            bytewise.read_bytes(start, span)

    def test_limit_overrun_writes_prefix_then_faults(self):
        # the old loop wrote every in-range byte, then faulted at the
        # first out-of-range address; the sliced path must match exactly
        addr = (1 << 32) - 6
        sliced, bytewise = Memory(), Memory()
        with pytest.raises(MemoryFault) as got:
            sliced.write_bytes(addr, b"abcdefgh")
        with pytest.raises(MemoryFault) as want:
            _write_bytes_bytewise(bytewise, addr, b"abcdefgh")
        assert got.value.addr == want.value.addr == 1 << 32
        assert sliced.read_bytes(addr, 6) == bytewise.read_bytes(addr, 6) \
            == b"abcdef"

    def test_read_bytes_zero_fill_and_overrun(self):
        mem = Memory()
        mem.store_byte(PAGE_SIZE + 1, 0xAA)
        assert mem.read_bytes(PAGE_SIZE - 2, 5) == b"\x00\x00\x00\xaa\x00"
        with pytest.raises(MemoryFault) as excinfo:
            mem.read_bytes((1 << 32) - 2, 4)
        assert excinfo.value.addr == 1 << 32
        assert mem.read_bytes(0, 0) == b""

    @given(
        st.integers(0, 3 * PAGE_SIZE),
        st.binary(min_size=1, max_size=2 * PAGE_SIZE + 17),
    )
    def test_write_bytes_property(self, addr, data):
        sliced, bytewise = Memory(), Memory()
        sliced.write_bytes(addr, data)
        _write_bytes_bytewise(bytewise, addr, data)
        assert sliced.read_bytes(addr, len(data)) == \
            bytewise.read_bytes(addr, len(data)) == data


class TestWriteWatch:
    def _armed(self):
        mem = Memory()
        fired: list[tuple[int, int]] = []
        mem.set_write_watch(lambda addr, length: fired.append((addr, length)))
        return mem, fired

    def test_fires_only_on_watched_pages(self):
        mem, fired = self._armed()
        mem.watch_page(1)
        mem.store_word(0x10, 1)          # page 0: unwatched
        mem.store_word(PAGE_SIZE + 8, 2)  # page 1: watched
        mem.store_half(PAGE_SIZE + 2, 3)
        mem.store_byte(PAGE_SIZE, 4)
        assert fired == [(PAGE_SIZE + 8, 4), (PAGE_SIZE + 2, 2),
                         (PAGE_SIZE, 1)]

    def test_hook_sees_landed_bytes(self):
        # the hook fires *after* the store lands, so a coherence layer
        # can immediately re-read the new code bytes
        mem = Memory()
        seen: list[int] = []
        mem.set_write_watch(lambda addr, length: seen.append(
            mem.load_word(addr)
        ))
        mem.watch_page(0)
        mem.store_word(0x40, 0xCAFEBABE)
        assert seen == [0xCAFEBABE]

    def test_unwatch_and_clear(self):
        mem, fired = self._armed()
        mem.watch_page(0)
        mem.store_word(0, 1)
        mem.unwatch_page(0)
        mem.store_word(0, 2)
        assert len(fired) == 1
        mem.unwatch_page(7)  # absent page index: no-op
        mem.set_write_watch(None)
        assert mem.watched_pages() == frozenset()

    def test_fast_store_dict_tracks_watch(self):
        # store_pages lists exactly the resident pages no watch covers
        mem, fired = self._armed()
        mem.store_word(0, 1)
        mem.watch_page(0)
        mem.watch_page(1)
        assert mem.store_pages == {}
        mem.store_word(PAGE_SIZE, 2)  # allocates a watched page
        assert mem.store_pages == {} and mem.resident_pages == 2
        mem.unwatch_page(0)
        assert mem.store_pages == {0: mem.pages[0]}
        mem.set_write_watch(None)
        assert mem.store_pages == mem.pages
        assert fired == [(PAGE_SIZE, 4)]

    def test_watch_page_requires_hook(self):
        mem = Memory()
        with pytest.raises(ValueError):
            mem.watch_page(0)

    def test_write_bytes_fires_per_page_slice(self):
        mem, fired = self._armed()
        mem.watch_page(0)
        mem.watch_page(1)
        start = PAGE_SIZE - 4
        mem.write_bytes(start, bytes(12))  # 4 bytes page 0, 8 bytes page 1
        assert fired == [(start, 4), (PAGE_SIZE, 8)]

    def test_write_bytes_skips_unwatched_slice(self):
        mem, fired = self._armed()
        mem.watch_page(1)
        mem.write_bytes(PAGE_SIZE - 4, bytes(12))
        assert fired == [(PAGE_SIZE, 8)]


@given(
    st.lists(
        st.tuples(
            st.integers(0, (1 << 30) - 1).map(lambda a: a * 4),
            st.integers(0, 0xFFFFFFFF),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_last_write_wins_property(writes):
    """Memory behaves like a map: last word write to an address wins."""
    mem = Memory()
    expected: dict[int, int] = {}
    for addr, value in writes:
        mem.store_word(addr, value)
        expected[addr] = value
    for addr, value in expected.items():
        assert mem.load_word(addr) == value


@given(st.integers(0, (1 << 32) - 4).map(lambda a: a & ~3),
       st.integers(0, 0xFFFFFFFF))
def test_word_byte_agreement_property(addr, value):
    """A stored word reads back identically through byte loads (LE)."""
    mem = Memory()
    mem.store_word(addr, value)
    recomposed = sum(mem.load_byte(addr + i) << (8 * i) for i in range(4))
    assert recomposed == value


# -- reference model ---------------------------------------------------------


class _ModelMemory:
    """Dict-of-bytes reference for :class:`Memory`, written independently
    of its page layout: one entry per byte ever stored, the set of pages
    a store touched, and the write watch as a set plus a call log."""

    def __init__(self) -> None:
        self.data: dict[int, int] = {}
        self.resident: set[int] = set()
        self.hooked = False
        self.watched: set[int] = set()
        self.calls: list[tuple[int, int]] = []

    @staticmethod
    def check(addr: int, width: int, op: str) -> None:
        if not 0 <= addr <= LIMIT - width:
            raise MemoryFault(addr, op)
        if addr % width:
            raise AlignmentFault(addr, width)

    def load(self, addr: int, width: int) -> int:
        self.check(addr, width, "load")
        return sum(self.data.get(addr + i, 0) << (8 * i) for i in range(width))

    def _land(self, addr: int, chunk: bytes) -> None:
        for i, byte in enumerate(chunk):
            self.data[addr + i] = byte
        page = addr >> PAGE_SHIFT
        self.resident.add(page)
        if self.hooked and page in self.watched:
            self.calls.append((addr, len(chunk)))

    def store(self, addr: int, width: int, value: int) -> None:
        self.check(addr, width, "store")
        self._land(addr, (value & ((1 << 8 * width) - 1)).to_bytes(width,
                                                                   "little"))

    def write_bytes(self, addr: int, data: bytes) -> None:
        if not data:
            return
        if addr < 0:
            raise MemoryFault(addr, "store")
        cursor = addr
        while cursor < addr + len(data) and cursor < LIMIT:
            stop = min((cursor | (PAGE_SIZE - 1)) + 1, addr + len(data))
            self._land(cursor, data[cursor - addr:stop - addr])
            cursor = stop
        if cursor < addr + len(data):
            raise MemoryFault(cursor, "store")

    def read_bytes(self, addr: int, length: int) -> bytes:
        if length <= 0:
            return b""
        if addr < 0:
            raise MemoryFault(addr, "load")
        out = bytearray()
        for a in range(addr, addr + length):
            if a >= LIMIT:
                raise MemoryFault(a, "load")
            out.append(self.data.get(a, 0))
        return bytes(out)

    def read_cstring(self, addr: int, limit: int) -> str:
        out = bytearray()
        for a in range(addr, addr + limit):
            if not 0 <= a < LIMIT:
                raise MemoryFault(a, "load")
            byte = self.data.get(a, 0)
            if byte == 0:
                return out.decode("latin-1")
            out.append(byte)
        raise MemoryFault(addr, "unterminated string")


#: Addresses a few bytes either side of page edges, the bottom and the
#: top of the address space: misaligned, page-crossing, negative and
#: out-of-range accesses all come from here.
_ADDRS = st.builds(
    lambda base, delta: base + delta,
    st.sampled_from([0, PAGE_SIZE, 2 * PAGE_SIZE, LIMIT - PAGE_SIZE, LIMIT]),
    st.integers(-9, 9),
)
_PAGES = st.sampled_from([0, 1, 2, (LIMIT >> PAGE_SHIFT) - 1])
_WIDTHS = st.sampled_from([1, 2, 4])


def _outcome(fn):
    """``fn()``'s result, or its fault as ``(type, addr, message)``."""
    try:
        return fn()
    except (MemoryFault, AlignmentFault) as exc:
        return type(exc), exc.addr, str(exc)


class MemoryMachine(RuleBasedStateMachine):
    """:class:`Memory` against :class:`_ModelMemory`, rule by rule.

    The oracle executor shares :class:`Memory` with every engine, so the
    engine differential cannot catch a bug here; this model can.
    """

    def __init__(self) -> None:
        super().__init__()
        self.mem = Memory()
        self.model = _ModelMemory()
        self.calls: list[tuple[int, int]] = []

    def _same(self, got, want) -> None:
        assert _outcome(got) == _outcome(want)

    @rule(addr=_ADDRS, width=_WIDTHS)
    def load(self, addr, width):
        method = {1: self.mem.load_byte, 2: self.mem.load_half,
                  4: self.mem.load_word}[width]
        self._same(lambda: method(addr), lambda: self.model.load(addr, width))

    @rule(addr=_ADDRS, width=_WIDTHS, value=st.integers(0, (1 << 33) - 1))
    def store(self, addr, width, value):
        method = {1: self.mem.store_byte, 2: self.mem.store_half,
                  4: self.mem.store_word}[width]
        self._same(lambda: method(addr, value),
                   lambda: self.model.store(addr, width, value))

    @rule(addr=_ADDRS, data=st.binary(max_size=PAGE_SIZE + 9))
    def write_bytes(self, addr, data):
        self._same(lambda: self.mem.write_bytes(addr, data),
                   lambda: self.model.write_bytes(addr, data))

    @rule(addr=_ADDRS, length=st.integers(-1, PAGE_SIZE + 9))
    def read_bytes(self, addr, length):
        self._same(lambda: self.mem.read_bytes(addr, length),
                   lambda: self.model.read_bytes(addr, length))

    @rule(addr=_ADDRS, limit=st.integers(0, 24))
    def read_cstring(self, addr, limit):
        self._same(lambda: self.mem.read_cstring(addr, limit),
                   lambda: self.model.read_cstring(addr, limit))

    @initialize(hooked=st.booleans())
    def start(self, hooked):
        if hooked:
            self.set_hook()

    @rule()
    def set_hook(self):
        self.mem.set_write_watch(lambda addr, n: self.calls.append((addr, n)))
        self.model.hooked = True

    @rule()
    def clear_hook(self):
        self.mem.set_write_watch(None)
        self.model.hooked = False
        self.model.watched.clear()

    @precondition(lambda self: self.model.hooked)
    @rule(page=_PAGES)
    def watch(self, page):
        self.mem.watch_page(page)
        self.model.watched.add(page)

    @precondition(lambda self: not self.model.hooked)
    @rule(page=_PAGES)
    def watch_without_hook(self, page):
        with pytest.raises(ValueError):
            self.mem.watch_page(page)

    @rule(page=_PAGES)
    def unwatch(self, page):
        self.mem.unwatch_page(page)
        self.model.watched.discard(page)

    @invariant()
    def hook_calls_match(self):
        assert self.calls == self.model.calls

    @invariant()
    def pages_match(self):
        mem, model = self.mem, self.model
        assert mem.resident_pages == len(model.resident)
        assert mem.watched_pages() == frozenset(model.watched)
        # the fast-store dict lists exactly the resident unwatched pages
        assert set(mem.store_pages) == model.resident - model.watched
        assert all(mem.store_pages[i] is mem.pages[i]
                   for i in mem.store_pages)

    @invariant()
    def bytes_match(self):
        for addr, byte in self.model.data.items():
            assert self.mem.load_byte(addr) == byte


MemoryMachine.TestCase.settings = settings(max_examples=150,
                                           stateful_step_count=50,
                                           deadline=None)
TestMemoryModel = MemoryMachine.TestCase


def test_bulk_copy_byteswap_branch(monkeypatch):
    """The big-endian bulk-copy path, forced on whatever the host is.

    Bytes must round-trip through it.  On a little-endian host the forced
    path lays each word out byte-reversed, i.e. as a big-endian host's
    native words hold the same guest bytes.
    """
    data = bytes(range(1, 256)) * 20
    addr = PAGE_SIZE - 6  # misaligned start, crosses two page edges
    native = Memory()
    native.write_bytes(addr, data)
    monkeypatch.setattr(memory_module, "_BIG_ENDIAN", True)
    swapped = Memory()
    swapped.write_bytes(addr, data)
    assert swapped.read_bytes(addr, len(data)) == data
    assert swapped.read_bytes(addr + 3, 4099) == data[3:4102]
    assert swapped.read_cstring(addr) == data.decode("latin-1")
    if sys.byteorder == "little":
        assert native.pages.keys() == swapped.pages.keys()
        for index, page in native.pages.items():
            words = array("I", page)
            words.byteswap()
            assert swapped.pages[index] == words
