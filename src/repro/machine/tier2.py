"""Tier-2 execution: profile-guided region compilation to Python source.

The threaded engine (:mod:`repro.machine.engine`) removed per-instruction
dispatch by specialising instructions into closures, but every hot region
still pays one Python call per instruction and one dispatch round-trip
per block per iteration.  This module removes those too: when a block's
execution counter crosses a threshold, a *region* is grown along its hot
direct-branch successors and compiled — ``compile()``/``exec()`` — into a
single Python function of straight-line source:

- guest registers become Python locals (``r5``), loaded once at region
  entry and spilled at every exit, so a loop iteration touches no
  register file at all;
- each instruction is one line rendered from the same per-op template
  table the threaded closures come from
  (:data:`repro.machine.engine.SEMANTICS`), with immediates, branch
  targets and r0 reads constant-folded into the text;
- block-level accounting is preserved exactly: one
  ``HostModel.charge_block`` and one class-count commit per block, and
  the same predictor events at the same sites as the tier below;
- region exits fuse the tier-1 exit protocol (link following, return
  bookkeeping, IBTC/sieve dispatch) directly into the generated code.

Both hosts — the SDT (:class:`Tier2Runtime`) and the reference
interpreter (:class:`InterpreterTier2`) — share the body generator, the
:class:`Region` class and its fault recovery; each keeps its own growth
policy and exit protocol.

**Deoptimization.**  Guards at every block boundary keep the tiers
architecturally indistinguishable: a fuel guard (the next block would
overshoot the budget), a link guard (the region-internal edge was
unlinked by an invalidation or flush) and — under fault injection — a
plan-coherence guard.  A failing guard spills the registers and returns
control to the tier-1 loop *without executing the next block*, so the
slow path replays it with per-instruction fuel/exit semantics and the
run stops, faults and charges exactly like the oracle engine.

**Fault replay.**  Generated source has exactly one line per guest
instruction, recorded in a line table.  When a body line raises,
:meth:`Region.recover` reads the region frame's locals out of the
traceback (registers) and hands the partially executed block to the
host's own ``_flush_partial``, which accounts it per instruction and
leaves ``cpu.pc`` on the faulting instruction; then the fault re-raises.

Regions never survive code mutation: the SDT runtime discards any region
holding an invalidated fragment (wired into
:class:`repro.sdt.coherence.CoherenceManager`) and drops everything on a
cache flush; the interpreter runtime discards regions overlapping any
watched-page write.  Promotion state is profile data, not architecture,
so ``engine="tier2"`` stays fingerprint-exempt like the other engines.

Promotions occur once a block has executed ``REPRO_TIER2_THRESHOLD``
times (default 64); a region holds at most :data:`MAX_REGION_BLOCKS`
blocks.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.host.costs import Category
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CONTROL_CLASSES, InstrClass, Op
from repro.isa.registers import REG_RA
from repro.machine.engine import (
    _TOKEN_RE,
    CONSTANTS,
    HELPERS,
    MEM_ACCESSORS,
    OPERANDS,
    SEMANTICS,
    U32,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.machine.engine import Superblock
    from repro.machine.interpreter import Interpreter
    from repro.sdt.fragment import Fragment
    from repro.sdt.vm import SDTVM

#: Block executions before a promotion attempt (``REPRO_TIER2_THRESHOLD``).
DEFAULT_PROMOTE_THRESHOLD = 64

#: Maximum blocks per region.
MAX_REGION_BLOCKS = 8


def promote_threshold() -> int:
    """Promotion threshold, overridable for tests/experiments."""
    return int(os.environ.get("REPRO_TIER2_THRESHOLD",
                              DEFAULT_PROMOTE_THRESHOLD))


# -- per-instruction source generation ---------------------------------------

def _read(reg: int) -> str:
    """Source expression reading a guest register (r0 folds to 0)."""
    return "0" if reg == 0 else f"r{reg}"


def instr_source(
    pc: int, instr: Instruction
) -> tuple[str, str, set[int], int] | None:
    """Render one instruction from :data:`~repro.machine.engine.SEMANTICS`.

    Returns ``(line, next-pc expression, registers, written register)``:
    the line executes the instruction, assigning ``_npc`` where the
    successor is dynamic; the expression is the next guest PC *after*
    the line ran; the registers are the non-zero ones the line touches
    and the written register is 0 when none is.  ``None`` marks shapes
    that stay on the tiers below: ``SYSCALL``/``HALT`` and results for
    r0.  Fault side effects occur at the same point as in the oracle.
    """
    rule = SEMANTICS.get(instr.op)
    if rule is None:
        return None
    regs = {"rd": instr.rd, "rs": instr.rs, "rt": instr.rt, "ra": REG_RA}
    npc = (pc + 4) & U32
    imm = rule.fold(instr, pc) if rule.fold else instr.imm
    fields = {name: _read(reg) for name, reg in regs.items()}
    fields.update(CONSTANTS, imm=imm, npc=npc, link=npc)
    if rule.next is None:
        written = regs[rule.dest] if rule.dest else 0
        if rule.dest and not written:
            return None
        line, npc_expr = rule.stmt.format(**fields), str(npc)
    else:
        written = regs[rule.link] if rule.link else 0
        stmts = [f"{{{rule.link}}} = {{link}}"] if written else []
        if rule.next == "{imm}":
            npc_expr = str(imm)
        else:
            # a dynamic successor lands in _npc, read before any link
            # write (rd == rs)
            stmts.insert(0, f"_npc = {rule.next}")
            npc_expr = "_npc"
        line = "; ".join(stmts).format(**fields) or "pass"
    used = {regs[name] for name in OPERANDS[instr.op]} - {0}
    return line, npc_expr, used, written


def _body(pairs: list[tuple[int, Instruction]]):
    """Eligibility check and body codegen in a single walk over a block.

    Returns ``(lines, npc_expr, used_regs, written_regs)`` — the
    per-instruction source lines (with their in-block index ``k``), the
    expression for the next guest PC after the last instruction, the
    non-zero registers the body touches and the subset it writes — or
    ``None`` when the block must stay on the threaded tier.  Only the
    last instruction may transfer control, except a direct jump inlined
    mid-block (trace_jumps): its successors follow in the same block, so
    it still retires and counts but runs as ``pass``.
    """
    lines: list[tuple[str, int]] = []
    used: set[int] = set()
    written: set[int] = set()
    last = len(pairs) - 1
    npc_expr = ""
    for k, (pc, instr) in enumerate(pairs):
        if (k < last and instr.op is not Op.J
                and instr.iclass in CONTROL_CLASSES):
            return None
        gen = instr_source(pc, instr)
        if gen is None:
            return None
        line, npc_expr, regs, wr = gen
        used |= regs
        if wr:
            written.add(wr)
        lines.append((line, k))
    return lines, npc_expr, used, written


def _join(*parts: str) -> str:
    """Join non-empty statements with ``;`` (for single-line suites)."""
    return "; ".join(part for part in parts if part)


#: Hot callables bound as default arguments (body-line speed); everything
#: colder resolves through the generated function's globals.
_HOT_DEFAULTS = (*MEM_ACCESSORS, *HELPERS)


def _def_line(extra: str = "") -> str:
    binds = ", ".join(f"{name}={name}" for name in _HOT_DEFAULTS)
    return f"def _region(rem, {binds}{extra}):"


_HOT_SET = frozenset(_HOT_DEFAULTS)


def _extra_binds(ns: dict, body: str) -> str:
    """Default-arg bindings for the namespace names the body actually
    references, so the generated code reads them as locals
    (``LOAD_FAST``) rather than dict-backed globals — measurable on loop
    regions, where the guards re-read fragment/block identities every
    iteration.  Unreferenced names are left out: every default arg costs
    compile time and the namespace routinely holds more (all
    ``InstrClass`` members, chaos-only plans) than a region uses."""
    tokens = set(_TOKEN_RE.findall(body))
    return "".join(
        f", {name}={name}" for name in ns
        if name not in _HOT_SET and name in tokens
    )


#: Compiled region code, keyed by (filename, source).  Regions are
#: re-promoted after flush storms and re-created for every VM of the same
#: program (differential tests, chaos sweeps, the serve loop), and the
#: source fully determines the code object — all per-VM identities bind
#: at ``exec`` time through the namespace, never into the code.
_CODE_CACHE: dict[tuple[str, str], object] = {}
_CODE_CACHE_MAX = 1024


def _compile_cached(source: str, filename: str):
    key = (filename, source)
    code = _CODE_CACHE.get(key)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        code = _CODE_CACHE[key] = compile(source, filename, "exec")
    return code


def _base_namespace(mem) -> dict:
    """The template callables, bound to ``mem``."""
    ns = {name: getattr(mem, method) for name, method in MEM_ACCESSORS.items()}
    ns.update(HELPERS)
    return ns


def _spill(used: list[int]) -> str:
    return "; ".join(f"_regs[{reg}] = r{reg}" for reg in used)


def _loads(used: list[int]) -> str:
    if not used:
        return "pass"
    return "; ".join(f"r{reg} = _regs[{reg}]" for reg in used)


def _class_commit(class_counts) -> str:
    return "; ".join(
        f"_cnt[_ic_{iclass.name}] += {count}"
        for iclass, count in class_counts.items()
    )


class Region:
    """A compiled region: the function plus fault-recovery metadata."""

    __slots__ = ("fn", "members", "filename", "line_table", "used_regs",
                 "member_meta", "source")

    def __init__(self, fn, members, filename, line_table, used_regs,
                 member_meta, source):
        self.fn = fn
        self.members = members
        self.filename = filename
        self.line_table = line_table
        self.used_regs = used_regs
        #: per-member ``(pcs, iclasses)`` snapshots for fault replay —
        #: snapshots, not live plans, because a store inside the region
        #: may invalidate a member (clearing its plan) before a later
        #: instruction faults
        self.member_meta = member_meta
        self.source = source

    def recover(self, exc: BaseException, regs: list[int],
                flush_partial) -> None:
        """Replay a fault raised inside the region like the tiers below.

        Restores ``regs`` from the region frame's locals, then calls the
        host's ``flush_partial(pcs, iclasses, k)`` for the faulting
        block.  An exception raised by an exit call, after the state was
        already spilled and committed, needs nothing.
        """
        tb = exc.__traceback__
        hit = None
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == self.filename:
                hit = tb
            tb = tb.tb_next
        if hit is None:
            return
        entry = self.line_table.get(hit.tb_lineno)
        if entry is None:
            return
        member_idx, k = entry
        frame_locals = hit.tb_frame.f_locals
        for reg in self.used_regs:
            value = frame_locals.get(f"r{reg}")
            if value is not None:
                regs[reg] = value
        pcs, iclasses = self.member_meta[member_idx]
        flush_partial(pcs, iclasses, k)


class _RegionBuilder:
    """Numbered region source: register loads, the loop header, member
    bodies with their line table, then :meth:`finish` compiles it.

    ``host_ns`` holds the host's exit-protocol names; the builder adds
    the template callables before and the ``InstrClass`` members after
    them, and callers add per-member names to :attr:`ns` as they emit.
    """

    def __init__(self, filename: str, mem, host_ns: dict, bodies,
                 loop: bool):
        used: set[int] = set()
        written: set[int] = set()
        for _lines, _npc, regs, wregs in bodies:
            used |= regs
            written |= wregs
        self.filename = filename
        self.order = sorted(used)
        self.spill = _spill(sorted(written))
        self.ns = _base_namespace(mem)
        self.ns.update(host_ns)
        for iclass in InstrClass:
            self.ns[f"_ic_{iclass.name}"] = iclass
        self.lines = [""]  # def line patched in once the body names are known
        self.line_table: dict[int, tuple[int, int]] = {}
        self.indent = 4
        self.add(_loads(self.order))
        if loop:
            self.add("while True:")
            self.indent = 8

    def add(self, text: str, member: int | None = None,
            k: int | None = None) -> None:
        self.lines.append(" " * self.indent + text)
        if member is not None:
            self.line_table[len(self.lines)] = (member, k)

    def finish(self, members, plans) -> Region:
        self.lines[0] = _def_line(
            _extra_binds(self.ns, "\n".join(self.lines[1:])))
        source = "\n".join(self.lines) + "\n"
        exec(_compile_cached(source, self.filename), self.ns)
        member_meta = tuple((plan.pcs, plan.iclasses) for plan in plans)
        return Region(self.ns["_region"], list(members), self.filename,
                      self.line_table, self.order, member_meta, source)


# -- SDT regions --------------------------------------------------------------

def _boundary_deopt(vm: "SDTVM", frag, key: str, nxt, nxt_n: int):
    """Cold path behind a region-internal edge guard.

    The generated guard folds the link, fuel and (chaos) plan checks
    into one conditional; this closure re-discriminates the reason off
    the hot path, keeps the deopt counters and trace events exact, and
    hands control back to the tier-1 loop the same way the separate
    guards did: a broken link re-dispatches through
    ``_direct_successor``, a fuel or plan deopt returns the next
    fragment for the main loop to run with per-instruction semantics.
    ``nxt_n`` is the successor's block length *at region-compile time*,
    matching the constant folded into the guard.
    """
    t2 = vm.stats.tier2
    trace = vm.trace
    ds = vm._direct_successor
    pc = nxt.guest_pc

    def _db(npc: int, rem: int):
        if frag.links.get(key) is not nxt or not nxt.valid:
            reason = "link"
        elif rem < nxt_n:
            reason = "fuel"
        else:
            reason = "plan"
        t2[f"deopt.{reason}"] += 1
        if trace is not None:
            trace.emit("tier2.deopt", pc=pc, reason=reason)
        if reason == "link":
            return ds(frag, key, npc)
        return nxt

    return _db


class Tier2Runtime:
    """Per-VM tier-2 state: promotion, execution, discard hooks."""

    def __init__(self, vm: "SDTVM"):
        self.vm = vm
        self.threshold = promote_threshold()
        #: id(head fragment) -> region
        self._regions: dict[int, Region] = {}
        #: id(member fragment) -> regions containing it
        self._by_member: dict[int, list[Region]] = {}
        vm.cache.on_flush(self.on_flush)

    # -- promotion -----------------------------------------------------------

    def _probe(self, fragment: "Fragment"):
        """Region body of ``fragment`` (see :func:`_body`), or ``None``
        when the fragment must stay on the threaded tier."""
        from repro.sdt.fragment import ExitKind

        plan = fragment.plan
        if (not fragment.valid or fragment.demoted or plan is None
                or plan.has_syscall or not fragment.instrs
                or fragment.exit_kind is ExitKind.HALT):
            return None
        if self.vm._chaos and not plan.coherent_with(
            fragment.guest_pc, fragment.instrs
        ):
            return None
        return _body(fragment.instrs)

    def _hot_key(self, fragment: "Fragment") -> str | None:
        """The direct-exit key to grow the region along (None = stop)."""
        from repro.sdt.fragment import ExitKind

        kind = fragment.exit_kind
        if kind in (ExitKind.JUMP, ExitKind.FALL, ExitKind.CALL):
            return "J"
        if kind is ExitKind.COND:
            taken = fragment.links.get("T")
            fall = fragment.links.get("F")
            taken_ok = taken is not None and taken.valid
            fall_ok = fall is not None and fall.valid
            if taken_ok and fall_ok:
                return "T" if taken.executions >= fall.executions else "F"
            if taken_ok:
                return "T"
            if fall_ok:
                return "F"
        return None  # IB exits (fused in-region) and HALT end the region

    def try_promote(self, fragment: "Fragment") -> Region | None:
        """Grow and compile a region headed by ``fragment``.

        On success the region is installed on ``fragment.region``; on
        ineligibility the sentinel ``False`` is stored so the fragment
        is never probed again (a fresh fragment after retranslation
        starts clean).
        """
        body = self._probe(fragment)
        if body is None:
            fragment.region = False
            return None
        members = [fragment]
        bodies = [body]
        keys: list[str] = []
        seen = {id(fragment)}
        loop = False
        current = fragment
        while len(members) < MAX_REGION_BLOCKS:
            key = self._hot_key(current)
            if key is None:
                break
            nxt = current.links.get(key)
            if nxt is None or not nxt.valid:
                break
            if nxt is fragment:
                keys.append(key)
                loop = True
                break
            if id(nxt) in seen:
                break
            nxt_body = self._probe(nxt)
            if nxt_body is None:
                break
            keys.append(key)
            members.append(nxt)
            bodies.append(nxt_body)
            seen.add(id(nxt))
            current = nxt
        try:
            region = self._compile(members, keys, loop, bodies)
        except Exception:
            # a compile failure must never take the run down — the
            # threaded tier is always correct; surface it in stats so
            # the tier-2 test suite can assert it never happens
            self.vm.stats.tier2["compile_error"] += 1
            fragment.region = False
            return None
        fragment.region = region
        self._regions[id(fragment)] = region
        for member in members:
            self._by_member.setdefault(id(member), []).append(region)
        self.vm.stats.tier2["promote"] += 1
        if self.vm.trace is not None:
            self.vm.trace.emit("tier2.promote", pc=fragment.guest_pc,
                               blocks=len(members), loop=loop)
        return region

    # -- code generation -----------------------------------------------------

    def _compile(self, members, keys, loop: bool, bodies) -> Region:
        """Emit and compile the region source.

        ``bodies`` carries the per-member ``(lines, npc_expr, used,
        written)`` tuples the promotion probe already generated — codegen
        never re-walks the instructions.

        Code-size discipline keeps ``compile()`` cheap (it dominates the
        cost of a promotion): exits spill only registers the region
        *writes* (anything else still equals its entry value in
        ``_regs``), each internal boundary folds its link/fuel(/plan)
        guards into one conditional whose cold path is a prebuilt
        closure, and the def line binds only names the body references.
        """
        from repro.sdt.fragment import ExitKind

        vm = self.vm
        chaos = vm._chaos
        sb = _RegionBuilder(
            f"<tier2 {members[0].guest_pc:#x}>", vm.mem,
            dict(
                _regs=vm.cpu.regs, _vm=vm, _cnt=vm.iclass_counts,
                _cyc=vm.model.cycles, _APP=Category.APP,
                _cb=vm.model.cond_branch,
                _ds=vm._direct_successor, _oc=vm.return_mech.on_call,
                _cpu=vm.cpu, _dib=vm._dispatch_ib,
                _gd=vm.generic_ib.dispatch, _rd=vm.return_mech.dispatch_ret,
                _ibs=vm.stats.ib_dispatches,
            ),
            bodies, loop,
        )
        ns = sb.ns
        spill = sb.spill
        for i, fragment in enumerate(members):
            ns[f"_f{i}"] = fragment
            if chaos:
                ns[f"_p{i}"] = fragment.plan

        count = len(members)
        for i, fragment in enumerate(members):
            plan = fragment.plan
            lines, npc_expr, _regs, _wregs = bodies[i]
            for text, k in lines:
                sb.add(text, member=i, k=k)
            sb.add(f"_vm.retired += {plan.n}; rem -= {plan.n}")
            sb.add(_class_commit(plan.class_counts))
            sb.add(f"_cyc[_APP] += {plan.app_cycles}")

            kind = fragment.exit_kind
            term_pc = plan.term_pc
            fall = (term_pc + 4) & U32
            is_last = i == count - 1
            if is_last and not loop:
                # region exit: spill everything, run the tier-1 exit
                # protocol and hand its successor to the main loop
                if kind is ExitKind.COND:
                    sb.add(f"_cb({fragment.exit_site}, _npc != {fall})")
                    sb.add(_join(
                        f"if _npc != {fall}: {spill}" if spill
                        else f"if _npc != {fall}: pass",
                        f'return _ds(_f{i}, "T", _npc)'))
                    sb.add(_join(spill, f'return _ds(_f{i}, "F", {fall})'))
                elif kind is ExitKind.CALL:
                    sb.add(_join(
                        spill, f"_oc(_cpu, {REG_RA}, {fall})",
                        f'return _ds(_f{i}, "J", {npc_expr})'))
                elif kind is ExitKind.ICALL:
                    sb.add(_join(
                        spill, '_ibs["icall"] += 1',
                        f"_oc(_cpu, {plan.term_rd}, {fall})",
                        f'return _dib("icall", _f{i}, {term_pc}, _npc, _gd)'))
                elif kind is ExitKind.IJUMP:
                    sb.add(_join(
                        spill, '_ibs["ijump"] += 1',
                        f'return _dib("ijump", _f{i}, {term_pc}, _npc, _gd)'))
                elif kind is ExitKind.RET:
                    sb.add(_join(
                        spill, '_ibs["ret"] += 1',
                        f'return _dib("ret", _f{i}, {term_pc}, _npc, _rd)'))
                else:  # JUMP / FALL
                    sb.add(_join(spill, f'return _ds(_f{i}, "J", {npc_expr})'))
                continue

            # region-internal boundary (or loop backedge): guards, then
            # fall through into the next member's body / the loop top
            j = 0 if is_last else i + 1
            key = keys[i]
            nxt = members[j]
            nplan = nxt.plan
            if kind is ExitKind.COND:
                sb.add(f"_cb({fragment.exit_site}, _npc != {fall})")
                if key == "T":
                    sb.add(_join(
                        f"if _npc == {fall}: {spill}" if spill
                        else f"if _npc == {fall}: pass",
                        f'return _ds(_f{i}, "F", {fall})'))
                else:
                    sb.add(_join(
                        f"if _npc != {fall}: {spill}" if spill
                        else f"if _npc != {fall}: pass",
                        f'return _ds(_f{i}, "T", _npc)'))
            elif kind is ExitKind.CALL:
                # tier-1 calls on_call after the body; the return scheme
                # may rewrite the link register (fast returns), so spill
                # it, let the scheme run, and reload the rewritten value
                sb.add(_join(
                    f"_regs[{REG_RA}] = r{REG_RA}",
                    f"_oc(_cpu, {REG_RA}, {fall})",
                    f"r{REG_RA} = _regs[{REG_RA}]"))
            ns[f"_db{i}"] = _boundary_deopt(vm, fragment, key, nxt, nplan.n)
            cond = (f'_f{i}.links.get("{key}") is not _f{j} '
                    f"or not _f{j}.valid or rem < {nplan.n}")
            if chaos:
                cond += (f" or _f{j}.plan is not _p{j} or not "
                         f"_p{j}.coherent_with({nxt.guest_pc}, _f{j}.instrs)")
            sb.add(_join(
                f"if {cond}: {spill}" if spill else f"if {cond}: pass",
                f"return _db{i}({npc_expr}, rem)"))

        return sb.finish(members, [m.plan for m in members])

    # -- execution -----------------------------------------------------------

    def execute(self, fragment: "Fragment", region: Region,
                budget: int) -> "Fragment | None":
        """Run a region; returns the successor fragment (or None on exit).

        The caller (``SDTVM.execute_fragment``) has already verified the
        head block fits the remaining fuel and — under chaos — that its
        plan is coherent, the same gate the threaded fast path uses.
        """
        vm = self.vm
        trace = vm.trace
        if trace is None:
            try:
                return region.fn(budget)
            except BaseException as exc:
                region.recover(exc, vm.cpu.regs, vm._flush_partial)
                raise
        trace.emit("tier2.enter", pc=fragment.guest_pc)
        try:
            return region.fn(budget)
        except BaseException as exc:
            region.recover(exc, vm.cpu.regs, vm._flush_partial)
            raise
        finally:
            trace.emit("tier2.exit", pc=fragment.guest_pc)

    # -- discard hooks -------------------------------------------------------

    def _discard(self, region: Region, reason: str) -> None:
        head = region.members[0]
        if head.region is region:
            head.region = None
        self._regions.pop(id(head), None)
        for member in region.members:
            bucket = self._by_member.get(id(member))
            if bucket is not None:
                try:
                    bucket.remove(region)
                except ValueError:
                    pass
                if not bucket:
                    del self._by_member[id(member)]
        self.vm.stats.tier2[f"discard.{reason}"] += 1
        if self.vm.trace is not None:
            self.vm.trace.emit("tier2.discard", pc=head.guest_pc,
                               reason=reason)

    def on_invalidate(self, dead) -> None:
        """Selective invalidation: drop every region holding a dead
        member (called by the coherence manager before its checker walk,
        so a surviving stale region would be a CI violation)."""
        if not self._by_member:
            return
        doomed: dict[int, Region] = {}
        for fragment in dead:
            for region in self._by_member.get(id(fragment), ()):
                doomed[id(region)] = region
        for region in doomed.values():
            self._discard(region, "invalidate")

    def on_flush(self) -> None:
        """Whole-cache flush: every member fragment just died."""
        if not self._regions:
            return
        count = len(self._regions)
        for region in self._regions.values():
            head = region.members[0]
            if head.region is region:
                head.region = None
        self._regions.clear()
        self._by_member.clear()
        self.vm.stats.tier2["discard.flush"] += count
        if self.vm.trace is not None:
            self.vm.trace.emit("tier2.discard", reason="flush", count=count)

    def live_fragment_refs(self):
        """Every fragment pointer tier-2 state holds (invariant walks)."""
        for region in self._regions.values():
            yield from region.members


# -- interpreter regions ------------------------------------------------------

class InterpreterTier2:
    """Tier-2 runtime for the reference interpreter.

    Regions are grown over cached superblocks along *static* direct
    successors (jumps, calls, fallthroughs; conditional branches prefer
    the edge returning to the region head, capturing loop backedges).
    Block-identity guards (``blocks.get(entry) is member``) make regions
    self-invalidating under self-modifying code: a store into watched
    code drops the member from the block cache, and
    :meth:`on_code_write` additionally discards the overlapping regions
    so the rebuilt blocks can re-promote.
    """

    def __init__(self, interp: "Interpreter"):
        self.interp = interp
        self.threshold = promote_threshold()
        self._regions: list[Region] = []

    # -- promotion -----------------------------------------------------------

    def _pairs(self, block: "Superblock"):
        """Re-fetch the block's instructions (superblocks keep closures,
        not the decoded :class:`Instruction` objects)."""
        fetch = self.interp.fetch
        pairs = []
        for k, pc in enumerate(block.pcs):
            instr = fetch(pc)
            if instr.iclass is not block.iclasses[k]:
                return None  # decode drifted under the block (defensive)
            pairs.append((pc, instr))
        return pairs

    def _probe(self, block: "Superblock"):
        """``(body, terminator)`` for ``block`` (see :func:`_body`), or
        ``None`` when the block must stay on the threaded tier."""
        if block.has_syscall or block.term_iclass is InstrClass.HALT:
            return None
        try:
            pairs = self._pairs(block)
        except Exception:
            return None
        if pairs is None:
            return None
        body = _body(pairs)
        return None if body is None else (body, pairs[-1][1])

    def _successor_pc(self, block: "Superblock", term: Instruction,
                      head_pc: int) -> int | None:
        """Static follow-edge out of ``block`` (None ends the region)."""
        iclass = block.term_iclass
        pc = block.term_pc
        if iclass in (InstrClass.JUMP, InstrClass.CALL):
            return term.branch_target(pc)
        if iclass not in CONTROL_CLASSES:
            return (pc + 4) & U32  # length-capped / truncated block
        if iclass is InstrClass.BRANCH:
            taken = term.branch_target(pc)
            fall = (pc + 4) & U32
            if taken == head_pc:
                return taken
            return fall
        return None  # IJUMP / ICALL / RET fuse the exit and end the region

    def try_promote(self, block: "Superblock") -> Region | None:
        probe = self._probe(block)
        if probe is None:
            block.region = False
            return None
        blocks = self.interp._blocks
        members = [block]
        bodies = [probe[0]]
        seen = {block.entry_pc}
        loop = False
        current, term = block, probe[1]
        while len(members) < MAX_REGION_BLOCKS:
            nxt_pc = self._successor_pc(current, term, block.entry_pc)
            if nxt_pc is None:
                break
            if nxt_pc == block.entry_pc:
                loop = True
                break
            nxt = blocks.get(nxt_pc)
            if nxt is None or nxt_pc in seen:
                break
            probe = self._probe(nxt)
            if probe is None:
                break
            members.append(nxt)
            bodies.append(probe[0])
            seen.add(nxt_pc)
            current, term = nxt, probe[1]
        try:
            region = self._compile(members, loop, bodies)
        except Exception:
            block.region = False
            return None
        block.region = region
        self._regions.append(region)
        return region

    def _compile(self, members, loop: bool, bodies) -> Region:
        """Emit and compile the region source from the probe output."""
        interp = self.interp
        observer = interp.observer
        model = observer.model if observer is not None else None
        count_classes = interp.count_classes

        host_ns = dict(
            _regs=interp.cpu.regs, _cpu=interp.cpu, _it=interp,
            _blocks=interp._blocks, _cnt=interp.iclass_counts,
        )
        if model is not None:
            host_ns.update(_cyc=model.cycles, _APP=Category.APP,
                           _cbr=model.cond_branch,
                           _hc=model.host_call, _ij=model.indirect_jump,
                           _hr=model.host_return)
        sb = _RegionBuilder(f"<tier2i {members[0].entry_pc:#x}>",
                            interp.mem, host_ns, bodies, loop)
        spill = sb.spill
        count = len(members)
        for i in range(count):
            if i == count - 1 and not loop:
                continue
            nxt_block = members[0] if i == count - 1 else members[i + 1]
            sb.ns[f"_b{i}"] = nxt_block
            nxt_block.hits += 1  # formation itself is evidence of heat

        for i, block in enumerate(members):
            lines, npc_expr, _regs, _wregs = bodies[i]
            for text, k in lines:
                sb.add(text, member=i, k=k)
            sb.add(f"_it.retired += {block.n}; rem -= {block.n}")
            if count_classes:
                sb.add(_class_commit(block.class_counts))
            if model is not None:
                sb.add(f"_cyc[_APP] += {block.app_cycles}")

            iclass = block.term_iclass
            term_pc = block.term_pc
            fall = (term_pc + 4) & U32
            if model is not None and iclass in CONTROL_CLASSES:
                # native_exit_event, inlined case by case
                if iclass is InstrClass.BRANCH:
                    sb.add(f"_cbr({term_pc}, _npc != {fall})")
                elif iclass is InstrClass.CALL:
                    sb.add(f"_hc({fall})")
                elif iclass is InstrClass.ICALL:
                    sb.add(f"_hc({fall}); _ij({term_pc}, _npc)")
                elif iclass is InstrClass.IJUMP:
                    sb.add(f"_ij({term_pc}, _npc)")
                elif iclass is InstrClass.RET:
                    sb.add("_hr(_npc)")

            is_last = i == count - 1
            if is_last and not loop:
                sb.add(_join(spill, f"_cpu.pc = {npc_expr}", "return rem"))
                continue

            # boundary into the next member (or the loop backedge): the
            # next block may be off the follow-edge (conditional branch
            # went the other way), dropped by a code write, or too big
            # for the remaining fuel — all exit to the tier-1 loop
            nxt_block = members[0] if is_last else members[i + 1]
            target = nxt_block.entry_pc
            if iclass is InstrClass.BRANCH:
                sb.add(_join(
                    f"if _npc != {target}: {spill}" if spill
                    else f"if _npc != {target}: pass",
                    "_cpu.pc = _npc", "return rem"))
            sb.add(_join(
                f"if _blocks.get({target}) is not _b{i} or rem < "
                f"{nxt_block.n}: {spill}" if spill else
                f"if _blocks.get({target}) is not _b{i} or rem < "
                f"{nxt_block.n}: pass",
                f"_cpu.pc = {target}", "return rem"))

        return sb.finish(members, members)

    # -- execution -----------------------------------------------------------

    def execute(self, region: Region, remaining: int) -> int:
        interp = self.interp
        try:
            return region.fn(remaining)
        except BaseException as exc:
            region.recover(exc, interp.cpu.regs, interp._flush_partial)
            raise

    # -- discard -------------------------------------------------------------

    def on_code_write(self, addr: int, length: int) -> None:
        """Discard every region whose member bytes overlap the write."""
        if not self._regions:
            return
        end = addr + length
        survivors = []
        for region in self._regions:
            stale = any(
                pcs[0] < end and pcs[0] + 4 * len(pcs) > addr
                for pcs, _ic in region.member_meta
            )
            if stale:
                head = region.members[0]
                if head.region is region:
                    head.region = None
            else:
                survivors.append(region)
        self._regions = survivors
