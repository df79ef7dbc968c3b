"""Threaded-code execution engine: closure-specialised dispatch.

The reference executor (:func:`repro.machine.executor.execute`) pays a
~40-way opcode dispatch, per-field attribute loads and a ``cpu.write``
call for every retired guest instruction.  This module removes that cost
by *specialising* each decoded :class:`~repro.isa.instruction.Instruction`
into a Python closure at decode/translation time: operands, immediates,
sign-extension masks, branch targets and the bound memory accessors are
pre-resolved into the closure's default variables, so executing an
instruction is one argumentless call with no dispatch at all.

The closures come from :data:`SEMANTICS`, one source template per SR32
op (except ``SYSCALL``/``HALT``, which stay hand-written here).  The
table is rendered twice: into one closure factory per op at import
(:func:`compile_instr` is a dict lookup), and into constant-folded
region lines by the tier-2 engine (:mod:`repro.machine.tier2`) at
promotion.  Outside the oracle executor, each op's semantics is
therefore written exactly once.

Closures are grouped into :class:`Superblock` plans — straight-line runs
executed as a flat list — and each plan precomputes its
:class:`~repro.isa.opcodes.InstrClass` count vector plus its total APP
cycle cost under the active :class:`~repro.host.profile.ArchProfile`, so
cycle accounting and instruction-class counting need not be charged
per instruction: a fast-path block execution only bumps the plan's
``runs`` counter, and the host later folds ``runs`` times the vectors
into its counters (:meth:`repro.host.costs.HostModel.charge_block`;
see docs/performance.md, "Block-level accounting").

Invariants the block layer relies on (see docs/performance.md):

- only the final instruction of a plan can transfer control, so host
  predictor events fire exactly once per block, at the terminator;
- ``SYSCALL`` can appear mid-plan only in SDT fragments (interpreter
  superblocks terminate at syscalls); plans flag ``has_syscall`` so
  callers keep per-step exit checks on those blocks;
- fuel is decremented in block-sized strides; when a stride would
  overshoot, callers execute a per-instruction prefix instead so runs
  stop at exactly the same retired count as the oracle engine.

The oracle executor stays the independent, hand-written reference;
both renderings of the table must match it bit-for-bit (enforced by
tests/test_machine_engine.py and tests/test_engine_differential.py).
Results for ``r0`` — ALU writes, loads into r0 — fall back to a
closure that simply calls the oracle executor, so unspecialised paths
cannot drift.
"""

from __future__ import annotations

import os
import re
from array import array
from typing import Callable, NamedTuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_TABLE, Fmt, InstrClass, Op
from repro.isa.registers import REG_RA
from repro.machine.cpu import CPUState, s32
from repro.machine.executor import _sdiv, _srem, execute
from repro.machine.memory import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, Memory
from repro.machine.syscalls import SyscallHandler

#: The execution engines.  ``oracle`` steps through
#: :func:`repro.machine.executor.execute` (the semantics reference);
#: ``threaded`` runs closure-specialised superblocks; ``tier2`` adds
#: profile-guided region compilation to generated Python source on top
#: of the threaded tier (:mod:`repro.machine.tier2`), deoptimizing back
#: to it at any guard failure.  All three are architecturally and
#: cycle-count identical.
ENGINES = ("oracle", "threaded", "tier2")

#: Straight-line superblock length cap for the interpreter (fragments are
#: already capped by ``max_fragment_instrs``).
MAX_SUPERBLOCK_INSTRS = 256

U32 = 0xFFFFFFFF
_SBIT = 0x8000_0000

StepFn = Callable[[], int]


def default_engine() -> str:
    """Engine selected by ``REPRO_ENGINE`` (default: ``threaded``)."""
    return os.environ.get("REPRO_ENGINE", "threaded")


def resolve_engine(engine: str | None) -> str:
    """Validate an engine name, resolving ``None`` via the environment."""
    engine = engine if engine is not None else default_engine()
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


class OpRule(NamedTuple):
    """One SR32 op's semantics as a source template.

    Both compiled tiers render these templates: the threaded tier into
    one closure factory per op at import (:func:`compile_instr`), tier-2
    into constant-folded region lines at promotion
    (:func:`repro.machine.tier2.instr_source`).  Templates name
    ``{rd}``/``{rs}``/``{rt}`` (the register an instruction field
    selects), ``{ra}`` (the link register), ``{imm}`` (the immediate
    after ``fold``), ``{npc}`` (the fall-through address) and the keys
    of :data:`CONSTANTS`; the other names they use are the keys of
    :data:`MEM_ACCESSORS` and :data:`HELPERS`.
    """

    #: register field the statement writes; a result for r0 is left to
    #: the oracle (threaded) or ends region eligibility (tier-2)
    dest: str | None = None
    #: statement executing a non-control op
    stmt: str = ""
    #: next-PC expression of a control transfer (``None``: falls through)
    next: str | None = None
    #: register field receiving the return address (a write to r0 is
    #: dropped)
    link: str | None = None
    #: immediate folding ``(instr, pc) -> value`` (``None``: ``instr.imm``)
    fold: Callable[[Instruction, int], int] | None = None


def _shamt(instr: Instruction, pc: int) -> int:
    return instr.shamt


def _target(instr: Instruction, pc: int) -> int:
    return instr.branch_target(pc)


#: SR32 semantics for the compiled tiers, one entry per op except
#: ``SYSCALL``/``HALT``.  Every rendering must match the oracle executor
#: bit for bit (tests/test_machine_engine.py).
SEMANTICS: dict[Op, OpRule] = {
    # -- ALU register forms
    Op.ADD: OpRule("rd", "{rd} = ({rs} + {rt}) & {U32}"),
    Op.SUB: OpRule("rd", "{rd} = ({rs} - {rt}) & {U32}"),
    Op.AND: OpRule("rd", "{rd} = {rs} & {rt}"),
    Op.OR: OpRule("rd", "{rd} = {rs} | {rt}"),
    Op.XOR: OpRule("rd", "{rd} = {rs} ^ {rt}"),
    Op.NOR: OpRule("rd", "{rd} = ~({rs} | {rt}) & {U32}"),
    # signed compare via bias: s32(a) < s32(b)  <=>  a^SBIT < b^SBIT
    Op.SLT: OpRule("rd", "{rd} = 1 if ({rs} ^ {SBIT}) < ({rt} ^ {SBIT}) "
                   "else 0"),
    Op.SLTU: OpRule("rd", "{rd} = 1 if {rs} < {rt} else 0"),
    # s32(a)*s32(b) is congruent to a*b mod 2^32
    Op.MUL: OpRule("rd", "{rd} = ({rs} * {rt}) & {U32}"),
    Op.DIV: OpRule("rd", "{rd} = _sdiv(_sx({rs}), _sx({rt})) & {U32}"),
    Op.REM: OpRule("rd", "{rd} = _srem(_sx({rs}), _sx({rt})) & {U32}"),
    Op.SLLV: OpRule("rd", "{rd} = ({rs} << ({rt} & 31)) & {U32}"),
    Op.SRLV: OpRule("rd", "{rd} = {rs} >> ({rt} & 31)"),
    Op.SRAV: OpRule("rd", "{rd} = (_sx({rs}) >> ({rt} & 31)) & {U32}"),
    # -- shifts by immediate
    Op.SLL: OpRule("rd", "{rd} = ({rt} << {imm}) & {U32}", fold=_shamt),
    Op.SRL: OpRule("rd", "{rd} = {rt} >> {imm}", fold=_shamt),
    Op.SRA: OpRule("rd", "{rd} = (_sx({rt}) >> {imm}) & {U32}", fold=_shamt),
    # -- ALU immediate forms
    Op.ADDI: OpRule("rt", "{rt} = ({rs} + {imm}) & {U32}"),
    Op.ANDI: OpRule("rt", "{rt} = {rs} & {imm}"),
    Op.ORI: OpRule("rt", "{rt} = {rs} | {imm}"),
    Op.XORI: OpRule("rt", "{rt} = {rs} ^ {imm}"),
    Op.SLTI: OpRule("rt", "{rt} = 1 if ({rs} ^ {SBIT}) < {imm} else 0",
                    fold=lambda instr, pc: (instr.imm & U32) ^ _SBIT),
    Op.SLTIU: OpRule("rt", "{rt} = 1 if {rs} < {imm} else 0",
                     fold=lambda instr, pc: instr.imm & U32),
    Op.LUI: OpRule("rt", "{rt} = {imm}",
                   fold=lambda instr, pc: (instr.imm << 16) & U32),
    # -- memory (sign extension ORs in 0xFFFFFF00 / 0xFFFF0000)
    # an aligned word access to a listed page indexes its array inline;
    # a miss, a misaligned address or (for SW) a watched page takes the
    # accessor, which faults, allocates or fires the write watch.  SW
    # stays one line by letting the accessor path finish on a scratch
    # page (docs/performance.md, "Guest memory")
    Op.LW: OpRule("rt", "_a = ({rs} + {imm}) & {U32}; "
                  "_p = _pg.get(_a >> {PSHIFT}); "
                  "{rt} = _mlw(_a) if _a & 3 or _p is None "
                  "else _p[(_a & {PMASK}) >> 2]"),
    Op.LB: OpRule("rt", "_t = _mlb(({rs} + {imm}) & {U32}); "
                  "{rt} = _t | 4294967040 if _t & 0x80 else _t"),
    Op.LBU: OpRule("rt", "{rt} = _mlb(({rs} + {imm}) & {U32})"),
    Op.LH: OpRule("rt", "_t = _mlh(({rs} + {imm}) & {U32}); "
                  "{rt} = _t | 4294901760 if _t & 0x8000 else _t"),
    Op.LHU: OpRule("rt", "{rt} = _mlh(({rs} + {imm}) & {U32})"),
    Op.SW: OpRule(None, "_a = ({rs} + {imm}) & {U32}; "
                  "_p = None if _a & 3 else _sp.get(_a >> {PSHIFT}); "
                  "(_p if _p is not None else _msw(_a, {rt}) or _sink)"
                  "[(_a & {PMASK}) >> 2] = {rt}"),
    Op.SB: OpRule(None, "_msb(({rs} + {imm}) & {U32}, {rt})"),
    Op.SH: OpRule(None, "_msh(({rs} + {imm}) & {U32}, {rt})"),
    # -- control
    Op.BEQ: OpRule(next="{imm} if {rs} == {rt} else {npc}", fold=_target),
    Op.BNE: OpRule(next="{imm} if {rs} != {rt} else {npc}", fold=_target),
    Op.BLT: OpRule(next="{imm} if ({rs} ^ {SBIT}) < ({rt} ^ {SBIT}) "
                   "else {npc}", fold=_target),
    Op.BGE: OpRule(next="{imm} if ({rs} ^ {SBIT}) >= ({rt} ^ {SBIT}) "
                   "else {npc}", fold=_target),
    Op.BLTU: OpRule(next="{imm} if {rs} < {rt} else {npc}", fold=_target),
    Op.BGEU: OpRule(next="{imm} if {rs} >= {rt} else {npc}", fold=_target),
    Op.J: OpRule(next="{imm}", fold=_target),
    Op.JAL: OpRule(next="{imm}", link="ra", fold=_target),
    Op.JR: OpRule(next="{rs}"),
    Op.JALR: OpRule(next="{rs}", link="rd"),
    Op.RET: OpRule(next="{ra}"),
}

#: Template name -> :class:`Memory` attribute: the accessors templates
#: call and the page dicts inline word accesses index.
MEM_ACCESSORS = {
    "_mlw": "load_word", "_mlh": "load_half", "_mlb": "load_byte",
    "_msw": "store_word", "_msh": "store_half", "_msb": "store_byte",
    "_pg": "pages", "_sp": "store_pages",
}

#: Arithmetic helpers templates call, and the scratch page an ``SW``
#: that took the accessor path finishes its inline store on.
HELPERS = {"_sx": s32, "_sdiv": _sdiv, "_srem": _srem,
           "_sink": array("I", bytes(PAGE_SIZE))}

#: Constants templates name; both renderings inline their values.
CONSTANTS = {"U32": U32, "SBIT": _SBIT, "PSHIFT": PAGE_SHIFT,
             "PMASK": PAGE_MASK}

#: Register operands per format in assembly order, the order closures
#: take them as parameters; ``ra`` is the implicit link register.
_FORMAT_OPERANDS = {
    Fmt.R3: ("rd", "rs", "rt"), Fmt.SHIFT: ("rd", "rt"),
    Fmt.I2: ("rt", "rs"), Fmt.LUI: ("rt",), Fmt.MEM: ("rt", "rs"),
    Fmt.BR: ("rs", "rt"), Fmt.JR: ("rs",), Fmt.JALR: ("rd", "rs"),
}

#: The register operands each op reads or writes, in parameter order.
OPERANDS: dict[Op, tuple[str, ...]] = {
    op: tuple(
        name for name in _FORMAT_OPERANDS.get(OP_TABLE[op].fmt, ()) + ("ra",)
        if name == rule.link or f"{{{name}}}" in rule.stmt + (rule.next or "")
    )
    for op, rule in SEMANTICS.items()
}

#: How closures spell template fields: registers index the bound
#: register file, constants are literals, the rest are parameters.
_CLOSURE_FIELDS = {
    "rd": "regs[rd]", "rs": "regs[rs]", "rt": "regs[rt]",
    "ra": "regs[REG_RA]", "imm": "imm", "npc": "npc", "link": "link",
    **{name: str(value) for name, value in CONSTANTS.items()},
}

_TOKEN_RE = re.compile(r"[A-Za-z_]\w*")


def _closure_source(op: Op, rule: OpRule, linked: bool) -> list[str]:
    """``def step(...)`` for one op shape; operands and constants are
    bound as default arguments so every name the body touches is a fast
    local."""
    if rule.next is None:
        lines = [rule.stmt, "return {npc}"]
    else:
        link = [f"{{{rule.link}}} = {{link}}"] if rule.link and linked else []
        if link and rule.next != "{imm}":
            # the target is read before the link write (rd == rs)
            lines = [f"_npc = {rule.next}", *link, "return _npc"]
        else:
            lines = [*link, f"return {rule.next}"]
    body = "\n".join(lines).format(**_CLOSURE_FIELDS)
    names = set(_TOKEN_RE.findall(body))
    binds = ["regs=cpu.regs"] if "regs" in names else []
    binds += [f"{name}=instr.{name}" for name in OPERANDS[op] if name in names]
    if "link" in names:
        binds.append("link=(pc + 4) & U32")
    if "imm" in names:
        binds.append(f"imm=_fold_{op.name}(instr, pc)" if rule.fold
                     else "imm=instr.imm")
    binds += [f"{name}=mem.{method}" for name, method in MEM_ACCESSORS.items()
              if name in names]
    if "npc" in names:
        binds.append("npc=(pc + 4) & U32")
    binds += [f"{name}={name}" for name in
              sorted(names.intersection(HELPERS), key=body.index)]
    return [f"def step({', '.join(binds)}):",
            *("    " + line for line in body.split("\n")), "return step"]


def _factory_source(op: Op, rule: OpRule) -> str:
    lines = []
    if rule.dest is not None:
        lines += [f"if not instr.{rule.dest}:", "    return None"]
    elif rule.link not in (None, "ra"):
        lines += [f"if not instr.{rule.link}:",
                  *("    " + line for line in _closure_source(op, rule, False))]
    lines += _closure_source(op, rule, True)
    return "\n".join([f"def _make_{op.name}(pc, instr, cpu, mem):",
                      *("    " + line for line in lines)])


def _build_factories() -> dict[Op, Callable]:
    """Render :data:`SEMANTICS` into one closure factory per op."""
    ns = {"U32": U32, "REG_RA": REG_RA, **HELPERS}
    ns.update((f"_fold_{op.name}", rule.fold)
              for op, rule in SEMANTICS.items() if rule.fold)
    source = "\n\n".join(_factory_source(op, rule)
                         for op, rule in SEMANTICS.items())
    exec(compile(source, "<repro.machine.engine.SEMANTICS>", "exec"), ns)
    return {op: ns[f"_make_{op.name}"] for op in SEMANTICS}


_FACTORIES = _build_factories()


def compile_instr(
    pc: int,
    instr: Instruction,
    cpu: CPUState,
    mem: Memory,
    syscalls: SyscallHandler,
) -> StepFn:
    """Specialise one instruction at ``pc`` into an argumentless closure.

    The closure executes the instruction against the bound machine state
    and returns the next guest PC, exactly like the oracle executor.
    """
    make = _FACTORIES.get(instr.op)
    if make is not None:
        step = make(pc, instr, cpu, mem)
        if step is not None:
            return step
    elif instr.op is Op.SYSCALL:
        def step(dispatch=syscalls.dispatch, cpu=cpu, mem=mem,
                 npc=(pc + 4) & U32):
            dispatch(cpu, mem)
            return npc
        return step
    elif instr.op is Op.HALT:
        def step(syscalls=syscalls, pc=pc):
            if syscalls.exit_code is None:
                syscalls.exit_code = 0
            return pc  # halt spins; run loops stop on `exited`
        return step

    # A result for r0: defer to the oracle so the semantics cannot
    # diverge.  Side effects (faults) still occur.
    def oracle(pc=pc, instr=instr, cpu=cpu, mem=mem, syscalls=syscalls):
        cpu.pc = pc
        return execute(instr, cpu, mem, syscalls)
    return oracle


class Superblock:
    """A compiled straight-line block: closures plus block-level costs.

    Attributes:
        entry_pc: guest address of the first instruction.
        pcs / fns / iclasses: per-instruction guest PCs, step closures and
            instruction classes (parallel tuples).
        n: instruction count.
        class_counts: ``InstrClass -> count`` vector for the whole block.
        app_cycles: total APP cycles under the profile the block was
            compiled for (0 when compiled without a cost model).
        has_syscall: the block contains a ``SYSCALL``; callers must keep
            per-step exit checks when executing it.
        term_pc / term_iclass / term_rd: terminator metadata (host
            predictor events and SDT call/return bookkeeping key on these).
        hits: full fast-path executions — the tier-2 engine's heat
            counter; crossing the promotion threshold triggers region
            formation (:mod:`repro.machine.tier2`).
        runs: fast-path executions not yet accounted — the deferred
            block ledger's counter.  A host lists the plan as pending
            when ``runs`` leaves 0 and zeroes it again when it folds
            ``runs * class_counts`` / ``runs * app_cycles`` into its
            counters.
        region: tier-2 promotion state — ``None`` until probed, a
            compiled region once promoted, or ``False`` when the block
            is permanently region-ineligible.
    """

    __slots__ = (
        "entry_pc", "pcs", "fns", "iclasses", "n", "class_counts",
        "app_cycles", "has_syscall", "term_pc", "term_iclass", "term_rd",
        "hits", "runs", "region",
    )

    def __init__(
        self,
        pairs: list[tuple[int, Instruction]],
        cpu: CPUState,
        mem: Memory,
        syscalls: SyscallHandler,
        class_cycles: dict[InstrClass, int] | None = None,
        trace=None,
    ):
        if not pairs:
            raise ValueError("cannot compile an empty block")
        self.entry_pc = pairs[0][0]
        self.pcs = tuple(pc for pc, _instr in pairs)
        self.fns = tuple(
            compile_instr(pc, instr, cpu, mem, syscalls)
            for pc, instr in pairs
        )
        iclasses = tuple(instr.iclass for _pc, instr in pairs)
        self.iclasses = iclasses
        self.n = len(pairs)
        counts: dict[InstrClass, int] = {}
        for iclass in iclasses:
            counts[iclass] = counts.get(iclass, 0) + 1
        self.class_counts = counts
        self.app_cycles = (
            sum(class_cycles[ic] * c for ic, c in counts.items())
            if class_cycles is not None else 0
        )
        self.has_syscall = InstrClass.SYSCALL in counts
        term_pc, term_instr = pairs[-1]
        self.term_pc = term_pc
        self.term_iclass = iclasses[-1]
        self.term_rd = term_instr.rd
        self.hits = 0
        self.runs = 0
        self.region = None
        if trace is not None:
            trace.emit("plan.build", entry=self.entry_pc, instrs=self.n,
                       syscall=self.has_syscall)

    def coherent_with(self, entry_pc: int, pairs) -> bool:
        """Does this plan still describe the block it was compiled from?

        ``pairs`` is the fragment's ``(guest_pc, instruction)`` list.  The
        SDT's graceful-degradation path calls this before executing a
        plan under fault injection: any metadata corruption (entry,
        length, terminator, class-count vector) is caught here and the
        fragment is demoted to the oracle engine instead of executing a
        lying plan (see repro.faults and docs/robustness.md).
        """
        n = len(pairs)
        if self.entry_pc != entry_pc or self.n != n:
            return False
        if self.term_pc != pairs[-1][0]:
            return False
        if sum(self.class_counts.values()) != n:
            return False
        pcs = self.pcs
        return len(pcs) == n and all(
            pcs[i] == pairs[i][0] for i in range(n)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Superblock(entry={self.entry_pc:#x}, n={self.n}, "
            f"term={self.term_iclass.value})"
        )


class BlockLedger:
    """Deferred block accounting for one host (SDT VM or interpreter).

    A fast-path block execution only bumps its plan's ``runs`` counter;
    the first run since the last fold lists the plan in ``pending``.
    :meth:`fold` then adds ``runs * class_counts`` to ``counts`` and
    charges ``runs * app_cycles`` through one
    :meth:`~repro.host.costs.HostModel.charge_block` call.  Accounting
    is additive, so a fold at any point leaves the counters exactly
    where per-block charging would have left them; hosts fold before
    anything reads them (run end, trace events, cache eviction).
    ``counts`` or ``model`` may be ``None`` when the host keeps no
    class counts or cycles.
    """

    __slots__ = ("pending", "counts", "model")

    def __init__(self, counts: dict | None, model) -> None:
        self.pending: list[Superblock] = []
        self.counts = counts
        self.model = model

    def fold(self) -> None:
        """Account every pending plan's runs and empty the ledger."""
        pending = self.pending
        if not pending:
            return
        counts = self.counts
        cycles = 0
        for plan in pending:
            runs = plan.runs
            plan.runs = 0
            cycles += runs * plan.app_cycles
            if counts is not None:
                for iclass, count in plan.class_counts.items():
                    counts[iclass] += runs * count
        pending.clear()
        if self.model is not None:
            self.model.charge_block(cycles)


def native_exit_event(model, block: Superblock, next_pc: int) -> None:
    """Charge the host-predictor event for a block's terminator.

    Mirrors :class:`repro.host.costs.NativeCostObserver` exactly; only
    terminators can transfer control, so this is the one predictor event
    per block execution.
    """
    iclass = block.term_iclass
    pc = block.term_pc
    if iclass is InstrClass.BRANCH:
        model.cond_branch(pc, taken=next_pc != pc + 4)
    elif iclass is InstrClass.CALL:
        model.host_call(pc + 4)
    elif iclass is InstrClass.ICALL:
        model.host_call(pc + 4)
        model.indirect_jump(pc, next_pc)
    elif iclass is InstrClass.IJUMP:
        model.indirect_jump(pc, next_pc)
    elif iclass is InstrClass.RET:
        model.host_return(next_pc)
