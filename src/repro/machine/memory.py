"""Sparse word-addressed guest memory.

Memory is organised as 4 KiB pages allocated on first touch, so the guest's
widely separated text / data / stack regions do not cost host RAM.  Each
page is a 1024-word ``array('I')``: a word access is one array index, and
byte and half-word accesses shift and mask the word that holds them.  All
multi-byte accesses are little-endian and must be naturally aligned (SR32
has no unaligned accesses, which keeps the SDT's fetch path simple).
Loads from an unmapped page read 0 and allocate nothing.

Words hold their guest *values*, so word, half and byte accesses do not
depend on the host's byte order.  Only the bulk copies
(:meth:`Memory.write_bytes`, :meth:`Memory.read_bytes`,
:meth:`Memory.read_cstring`) see a page's raw bytes, through
``memoryview(page).cast("B")``; on a big-endian host they byteswap the
words around the copy, so guest memory stays little-endian everywhere.

Write watch
-----------

Every store path (byte/half/word and the bulk copy) funnels through one
hook point so execution engines can detect guest writes to translated
code (:mod:`repro.sdt.coherence`, the interpreter's block caches).  The
owner registers a hook with :meth:`Memory.set_write_watch` and marks
pages of interest with :meth:`Memory.watch_page`; the hook fires *after*
the bytes land, with the store's address and length.

Fast stores
-----------

Besides :attr:`Memory.pages` (every resident page), memory keeps
:attr:`Memory.store_pages`: the resident pages that are *not* watched.
A store whose page is listed there needs no watch test at all, so the
compiled tiers (:data:`repro.machine.engine.SEMANTICS`) index those
arrays inline and take the accessor only on a miss.  ``watch_page``
drops a page from the dict and ``unwatch_page`` /
``set_write_watch(None)`` put resident pages back, so a store to a
watched page always reaches the hook.  Both dicts keep their identity
for the life of the :class:`Memory`, because compiled code binds them.
"""

from __future__ import annotations

import sys
from array import array
from typing import Callable

from repro.machine.errors import AlignmentFault, MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDR_LIMIT = 1 << 32

#: A fresh page is a copy of this one.
_ZERO_PAGE = array("I", bytes(PAGE_SIZE))
if _ZERO_PAGE.itemsize != 4:  # pragma: no cover - no such CPython host
    raise ImportError("guest memory needs a 4-byte array('I') item")

#: Native word layout is big-endian, so bulk copies byteswap.
_BIG_ENDIAN = sys.byteorder == "big"

#: Write-watch callback: ``hook(addr, length)`` after the store landed.
WriteWatch = Callable[[int, int], None]


def _get_bytes(page: array, start: int, stop: int) -> bytes:
    """Guest bytes ``[start, stop)`` of one page, little-endian."""
    if _BIG_ENDIAN:
        base = start & ~3
        words = page[base >> 2:(stop + 3) >> 2]
        words.byteswap()
        return memoryview(words).cast("B")[start - base:stop - base].tobytes()
    return memoryview(page).cast("B")[start:stop].tobytes()


def _put_bytes(page: array, start: int, data) -> None:
    """Copy ``data`` into one page at byte offset ``start``, little-endian."""
    if _BIG_ENDIAN:
        page.byteswap()
    memoryview(page).cast("B")[start:start + len(data)] = data
    if _BIG_ENDIAN:
        page.byteswap()


class Memory:
    """Sparse 32-bit guest address space.

    Attributes:
        pages: page index -> word array, every resident page.
        store_pages: the resident pages no write watch covers.  Compiled
            code binds both dicts; callers must not mutate them.
    """

    __slots__ = ("pages", "store_pages", "_watched", "_watch_hook")

    def __init__(self) -> None:
        self.pages: dict[int, array] = {}
        self.store_pages: dict[int, array] = {}
        #: watched page indices, or None when no watch is installed
        self._watched: set[int] | None = None
        self._watch_hook: WriteWatch | None = None

    def _page(self, index: int) -> array:
        """The page a store into page ``index`` lands in, allocated on
        first touch (and listed as a fast-store page unless watched)."""
        page = self.pages.get(index)
        if page is None:
            page = self.pages[index] = _ZERO_PAGE[:]
            watched = self._watched
            if watched is None or index not in watched:
                self.store_pages[index] = page
        return page

    def _notify(self, index: int, addr: int, length: int) -> None:
        """Fire the watch hook if page ``index`` is watched."""
        watched = self._watched
        if watched is not None and index in watched:
            self._watch_hook(addr, length)

    def _fail(self, addr: int, width: int, op: str) -> None:
        """Raise for an access rejected by a fast-path guard.

        Out-of-range beats misalignment, matching the historical check
        order (an out-of-range odd address is a :class:`MemoryFault`).
        ``op`` is the access kind ("load"/"store") carried into the
        fault message, the same label the byte accessors report.
        """
        if not 0 <= addr <= ADDR_LIMIT - width:
            raise MemoryFault(addr, op)
        raise AlignmentFault(addr, width)

    # -- write watch ---------------------------------------------------------

    def set_write_watch(self, hook: WriteWatch | None) -> None:
        """Install (or, with ``None``, remove) the store-path hook.

        The hook is called as ``hook(addr, length)`` after any store that
        touches a page previously marked via :meth:`watch_page`.  Only
        one hook can be installed at a time; the owning execution layer
        multiplexes if it needs more.
        """
        if hook is None:
            for index in self._watched or ():
                self._relist(index)
            self._watched = None
            self._watch_hook = None
            return
        self._watch_hook = hook
        if self._watched is None:
            self._watched = set()

    def watch_page(self, page_index: int) -> None:
        """Mark one page so stores into it invoke the watch hook."""
        if self._watch_hook is None:
            raise ValueError("watch_page requires set_write_watch first")
        assert self._watched is not None
        self._watched.add(page_index)
        self.store_pages.pop(page_index, None)

    def unwatch_page(self, page_index: int) -> None:
        """Stop watching one page (missing pages are ignored)."""
        watched = self._watched
        if watched is not None and page_index in watched:
            watched.discard(page_index)
            self._relist(page_index)

    def _relist(self, page_index: int) -> None:
        """Put a no longer watched page back among the fast-store pages."""
        page = self.pages.get(page_index)
        if page is not None:
            self.store_pages[page_index] = page

    def watched_pages(self) -> frozenset[int]:
        """Currently watched page indices (introspection/tests)."""
        return frozenset(self._watched) if self._watched is not None else frozenset()

    # -- loads -------------------------------------------------------------
    #
    # Bounds + alignment are folded into a single inline guard per access
    # (no helper-call on the hot path); an aligned in-range access never
    # crosses a word, so one page lookup and one index suffice.

    def load_byte(self, addr: int) -> int:
        if not 0 <= addr < ADDR_LIMIT:
            raise MemoryFault(addr, "load")
        page = self.pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return (page[(addr & PAGE_MASK) >> 2] >> ((addr & 3) << 3)) & 0xFF

    def load_half(self, addr: int) -> int:
        if addr & 1 or addr < 0 or addr > ADDR_LIMIT - 2:
            self._fail(addr, 2, "load")
        page = self.pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return (page[(addr & PAGE_MASK) >> 2] >> ((addr & 2) << 3)) & 0xFFFF

    def load_word(self, addr: int) -> int:
        if addr & 3 or addr < 0 or addr > ADDR_LIMIT - 4:
            self._fail(addr, 4, "load")
        page = self.pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[(addr & PAGE_MASK) >> 2]

    # -- stores ------------------------------------------------------------

    def store_byte(self, addr: int, value: int) -> None:
        if not 0 <= addr < ADDR_LIMIT:
            raise MemoryFault(addr, "store")
        self._merge(addr, 0xFF, value, 1)

    def store_half(self, addr: int, value: int) -> None:
        if addr & 1 or addr < 0 or addr > ADDR_LIMIT - 2:
            self._fail(addr, 2, "store")
        self._merge(addr, 0xFFFF, value, 2)

    def _merge(self, addr: int, mask: int, value: int, length: int) -> None:
        """Store the ``mask``-wide field at ``addr`` into its word."""
        index = addr >> PAGE_SHIFT
        page = self.store_pages.get(index)
        slow = page is None
        if slow:
            page = self._page(index)
        off = (addr & PAGE_MASK) >> 2
        shift = (addr & 3) << 3
        page[off] = (page[off] & ~(mask << shift)) | ((value & mask) << shift)
        if slow:
            self._notify(index, addr, length)

    def store_word(self, addr: int, value: int) -> None:
        if addr & 3 or addr < 0 or addr > ADDR_LIMIT - 4:
            self._fail(addr, 4, "store")
        index = addr >> PAGE_SHIFT
        page = self.store_pages.get(index)
        if page is not None:
            page[(addr & PAGE_MASK) >> 2] = value & 0xFFFFFFFF
            return
        self._page(index)[(addr & PAGE_MASK) >> 2] = value & 0xFFFFFFFF
        self._notify(index, addr, 4)

    # -- bulk --------------------------------------------------------------

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Copy a buffer into guest memory, one page slice at a time.

        Faulting behaviour matches the historical per-byte loop exactly:
        a negative start faults before writing anything, and a buffer
        running past the address limit writes the in-range prefix and
        then faults at the first out-of-range address.
        """
        if not data:
            return
        if addr < 0:
            raise MemoryFault(addr, "store")
        length = len(data)
        prefix = min(length, ADDR_LIMIT - addr) if addr < ADDR_LIMIT else 0
        view = memoryview(data)
        pos = 0
        cursor = addr
        while pos < prefix:
            off = cursor & PAGE_MASK
            take = min(PAGE_SIZE - off, prefix - pos)
            index = cursor >> PAGE_SHIFT
            _put_bytes(self._page(index), off, view[pos:pos + take])
            self._notify(index, cursor, take)
            pos += take
            cursor += take
        if prefix < length:
            raise MemoryFault(addr + prefix, "store")

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Read a buffer from guest memory, one page slice at a time."""
        if length <= 0:
            return b""
        if addr < 0:
            raise MemoryFault(addr, "load")
        prefix = min(length, ADDR_LIMIT - addr) if addr < ADDR_LIMIT else 0
        pages = self.pages
        out = bytearray()
        pos = 0
        cursor = addr
        while pos < prefix:
            off = cursor & PAGE_MASK
            take = min(PAGE_SIZE - off, prefix - pos)
            page = pages.get(cursor >> PAGE_SHIFT)
            if page is None:
                out.extend(b"\x00" * take)
            else:
                out.extend(_get_bytes(page, off, off + take))
            pos += take
            cursor += take
        if prefix < length:
            raise MemoryFault(addr + prefix, "load")
        return bytes(out)

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        """Read a NUL-terminated string (bounded by ``limit`` bytes).

        Scans one page slice at a time.  Faults like a per-byte
        ``load_byte`` loop would: at the first out-of-range address the
        scan reaches, or with ``"unterminated string"`` when ``limit``
        bytes hold no NUL.
        """
        out = bytearray()
        cursor = addr
        end = addr + limit
        while cursor < end:
            if not 0 <= cursor < ADDR_LIMIT:
                raise MemoryFault(cursor, "load")
            off = cursor & PAGE_MASK
            stop = min(PAGE_SIZE, off + min(end, ADDR_LIMIT) - cursor)
            page = self.pages.get(cursor >> PAGE_SHIFT)
            if page is None:
                return out.decode("latin-1")
            chunk = _get_bytes(page, off, stop)
            nul = chunk.find(0)
            if nul >= 0:
                out += chunk[:nul]
                return out.decode("latin-1")
            out += chunk
            cursor += stop - off
        raise MemoryFault(addr, "unterminated string")

    @property
    def resident_pages(self) -> int:
        """Number of host-allocated guest pages (for stats)."""
        return len(self.pages)
