"""Mechanism interfaces.

A mechanism is bound to an :class:`repro.sdt.vm.SDTVM` and asked to resolve
dynamic indirect-branch targets.  It charges every cycle of its dispatch
code to the VM's host model and keeps hit/miss statistics under its
``name`` in :class:`repro.sdt.stats.SDTStats`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.sdt.fragment import Fragment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.cpu import CPUState
    from repro.sdt.vm import SDTVM


class IBMechanism(ABC):
    """Resolves indirect jump / indirect call targets."""

    #: stable identifier used in statistics and reports
    name: str = "base"

    def __init__(self) -> None:
        self.vm: "SDTVM | None" = None

    def bind(self, vm: "SDTVM") -> None:
        """Attach to a VM; registers the flush hook.

        ``name`` is final by now, so the hit/miss stat keys are built
        here once instead of on every dispatch.
        """
        self.vm = vm
        self._hit_key = f"{self.name}.hit"
        self._miss_key = f"{self.name}.miss"
        vm.cache.on_flush(self.on_flush)

    @abstractmethod
    def dispatch(
        self, fragment: Fragment, ib_pc: int, guest_target: int
    ) -> Fragment:
        """Resolve ``guest_target``, charging all dispatch costs.

        Args:
            fragment: the fragment whose terminator is the indirect branch
                (its ``exit_site`` is the host-level branch address).
            ib_pc: guest address of the indirect branch (stable site key).
            guest_target: dynamic guest target address.

        Returns:
            The fragment to execute next.
        """

    def preseed(
        self, ib_pc: int, guest_target: int, fragment: Fragment
    ) -> bool:
        """Warm this mechanism's lookup state at translation time.

        Called by the static-targets runtime
        (:mod:`repro.sdt.static_targets`) with a statically proven
        ``(site, target)`` pair and the target's already-translated
        ``fragment``, *before* the site ever dispatches dynamically.  A
        preseeded entry is always safe: dispatch still compares the
        dynamic target against the entry, so a wrong hint degrades to a
        miss, never to a wrong transfer.

        Returns ``True`` if an entry was inserted (the caller charges
        the insertion cost), ``False`` otherwise.  Mechanisms with no
        warmable state (translator re-entry) inherit this no-op.
        """
        return False

    def on_flush(self) -> None:
        """Drop any cached fragment pointers (cache was flushed)."""

    def scrub_invalid(self) -> None:
        """Drop entries pointing at invalidated fragments.

        Called by the coherence manager after a *selective* invalidation
        (:meth:`repro.sdt.cache.FragmentCache.invalidate`), which —
        unlike a whole-cache flush — kills only some fragments and runs
        no flush hooks.  Mechanisms holding no fragment pointers inherit
        this no-op.  Scrubbing must be by validity predicate, never by
        identity list, so it also clears fault-injected tombstones.
        """

    def live_fragment_refs(self) -> list[Fragment]:
        """Every fragment reference this mechanism currently holds.

        The coherence checker (:mod:`repro.faults.invariants`) walks
        these after each flush: none may point at an invalidated
        fragment.  Mechanisms that cache no fragment pointers inherit
        this empty default.
        """
        return []

    # -- shared helpers ----------------------------------------------------

    def _hit(self) -> None:
        assert self.vm is not None
        self.vm.stats.mechanism[self._hit_key] += 1

    def _miss(self) -> None:
        assert self.vm is not None
        self.vm.stats.mechanism[self._miss_key] += 1


class ReturnMechanism(ABC):
    """Resolves return targets; may also hook call sites."""

    name: str = "ret-base"

    def __init__(self) -> None:
        self.vm: "SDTVM | None" = None

    def bind(self, vm: "SDTVM") -> None:
        self.vm = vm
        self._hit_key = f"{self.name}.hit"
        self._miss_key = f"{self.name}.miss"
        vm.cache.on_flush(self.on_flush)

    def on_call(
        self,
        cpu: "CPUState",
        ret_reg: int,
        guest_ret_pc: int,
    ) -> None:
        """Hook run after a call wrote its return address.

        ``ret_reg`` holds ``guest_ret_pc``; schemes that sacrifice address
        transparency (fast returns) may overwrite it here.
        """

    @abstractmethod
    def dispatch_ret(
        self, fragment: Fragment, ib_pc: int, target_value: int
    ) -> Fragment:
        """Resolve a return whose dynamic target register held
        ``target_value`` (a guest address, or a landing-pad address under
        fast returns)."""

    def on_flush(self) -> None:
        """Drop any cached fragment pointers."""

    def scrub_invalid(self) -> None:
        """Drop entries pointing at invalidated fragments (selective
        invalidation; see :meth:`IBMechanism.scrub_invalid`).  Schemes
        that share their fallback with the generic mechanism scrub only
        their *own* state — the coherence manager scrubs the generic
        mechanism separately."""

    def live_fragment_refs(self) -> list[Fragment]:
        """Fragment references held by this scheme (coherence checking)."""
        return []

    def _hit(self) -> None:
        assert self.vm is not None
        self.vm.stats.mechanism[self._hit_key] += 1

    def _miss(self) -> None:
        assert self.vm is not None
        self.vm.stats.mechanism[self._miss_key] += 1
