"""The fragment cache.

Follows Strata's policy: fragments are bump-allocated; when the cache fills
up, the *entire* cache is flushed (all fragments, all links, all IB-mechanism
state holding fragment pointers).  Whole-cache flush is what makes stale
translated-address transparency violations (fast returns) interesting, and
it is also what the paper's systems actually did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sdt.fragment import FRAGMENT_CACHE_BASE, Fragment
from repro.sdt.stats import SDTStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.inject import FaultInjector

DEFAULT_CAPACITY = 8 * 1024 * 1024  # bytes; effectively unbounded for tests


class FragmentTooLarge(ValueError):
    """A single fragment cannot fit in the cache even when it is empty.

    Raised instead of flushing: flushing cannot help, and retrying the
    reservation after a flush would loop forever.  The fix is a larger
    ``fragment_cache_bytes`` or a smaller ``max_fragment_instrs``
    (:class:`repro.sdt.config.SDTConfig` validates the pair up front).
    """

    def __init__(self, size_bytes: int, capacity: int):
        self.size_bytes = size_bytes
        self.capacity = capacity
        super().__init__(
            f"fragment of {size_bytes} bytes can never fit in a "
            f"{capacity}-byte fragment cache (even empty); raise "
            f"fragment_cache_bytes or lower max_fragment_instrs"
        )


class FlushHookError(RuntimeError):
    """One or more flush hooks raised.

    Every registered hook still runs (a failing IB-mechanism hook must
    not leave *other* mechanisms holding stale fragment pointers); the
    individual exceptions are collected in :attr:`errors`.
    """

    def __init__(self, errors: list[BaseException]):
        self.errors = errors
        summary = "; ".join(f"{type(e).__name__}: {e}" for e in errors)
        super().__init__(
            f"{len(errors)} flush hook(s) raised after running all "
            f"hooks: {summary}"
        )


class FragmentCache:
    """Guest-PC-indexed store of translated fragments."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, stats: SDTStats | None = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.stats = stats if stats is not None else SDTStats()
        self._fragments: dict[int, Fragment] = {}
        self._alloc = 0
        self._flush_hooks: list[Callable[[], None]] = []
        #: when set, :meth:`reserve` consults the injector for forced
        #: flush storms (see repro.faults)
        self.fault_injector: "FaultInjector | None" = None
        #: optional observability sink (repro.trace.session.TraceSession);
        #: the owning VM wires it after construction
        self.trace = None
        #: optional callable run before any fragment is evicted (flush or
        #: invalidation); the owning VM folds its deferred block ledger
        #: here, so the ledger never holds a dead fragment's plan
        self.before_evict: Callable[[], None] | None = None

    def __len__(self) -> int:
        return len(self._fragments)

    def __contains__(self, guest_pc: int) -> bool:
        return guest_pc in self._fragments

    @property
    def bytes_used(self) -> int:
        return self._alloc

    def on_flush(self, hook: Callable[[], None]) -> None:
        """Register a callback run whenever the cache is flushed.

        IB mechanisms register here because their tables cache fragment
        pointers that a flush invalidates.  Hooks run in registration
        order; the invariant checker (when active) registers last so it
        observes every mechanism's post-flush state.
        """
        self._flush_hooks.append(hook)

    def lookup(self, guest_pc: int) -> Fragment | None:
        return self._fragments.get(guest_pc)

    def fragments(self) -> list[Fragment]:
        """All live fragments (introspection/debugging)."""
        return list(self._fragments.values())

    def reserve(self, size_bytes: int) -> int:
        """Allocate space for a fragment, flushing if necessary.

        Returns the fragment-cache address of the allocation.  Raises
        :class:`FragmentTooLarge` when the fragment could not fit even in
        an empty cache (flushing would loop forever).
        """
        if size_bytes > self.capacity:
            raise FragmentTooLarge(size_bytes, self.capacity)
        injector = self.fault_injector
        if injector is not None and injector.should_force_flush():
            self.flush()
        if self._alloc + size_bytes > self.capacity:
            self.flush()
        addr = FRAGMENT_CACHE_BASE + self._alloc
        self._alloc += size_bytes
        return addr

    def insert(self, fragment: Fragment) -> None:
        self._fragments[fragment.guest_pc] = fragment

    def invalidate(self, fragments: list[Fragment]) -> int:
        """Selectively evict fragments (code-cache coherence).

        Unlike :meth:`flush` this does *not* run the flush hooks — the
        caller (:class:`repro.sdt.coherence.CoherenceManager`) scrubs the
        derived IB state itself, because only it knows which fragments
        died.  Bump allocation means the evicted bytes are not reclaimed;
        the holes persist until the next whole-cache flush, exactly like
        a patched-out fragment in a real bump-allocated code cache.

        Returns the number of fragments actually evicted.
        """
        if self.before_evict is not None:
            self.before_evict()
        evicted = 0
        for fragment in fragments:
            if not fragment.valid:
                continue
            fragment.valid = False
            fragment.links.clear()
            fragment.plan = None
            registered = self._fragments.get(fragment.guest_pc)
            if registered is fragment:
                del self._fragments[fragment.guest_pc]
            evicted += 1
        if evicted:
            self.stats.coherence["fragments_invalidated"] += evicted
            if self.trace is not None:
                self.trace.emit("coherence.invalidate", fragments=evicted)
        return evicted

    def flush(self) -> None:
        """Drop every fragment and notify mechanisms.

        All hooks run even if some raise; their exceptions are aggregated
        into one :class:`FlushHookError` raised afterwards, so a broken
        hook can neither mask later hooks nor be silently swallowed.
        """
        if self.before_evict is not None:
            self.before_evict()
        if self.trace is not None:
            self.trace.emit("cache.flush", fragments=len(self._fragments),
                            bytes=self._alloc)
        for fragment in self._fragments.values():
            fragment.valid = False
            fragment.links.clear()
        self._fragments.clear()
        self._alloc = 0
        self.stats.cache_flushes += 1
        errors: list[BaseException] = []
        for hook in self._flush_hooks:
            try:
                hook()
            except Exception as exc:  # noqa: BLE001 - aggregated below
                errors.append(exc)
        if errors:
            raise FlushHookError(errors)
