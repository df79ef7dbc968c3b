"""Reference interpreter for SR32 programs.

This is the baseline execution engine: it runs a program directly from its
text section, with no translation.  It serves two roles:

1. **Correctness oracle** — the SDT must produce the same output, exit code
   and retired-instruction count.
2. **Native-performance baseline** — attach a host cost model as the
   ``observer`` and the interpreter charges exactly the cycles the program
   would cost when running natively (no SDT dispatch code).

Two execution engines are available (see docs/performance.md):

``oracle``
    one :func:`repro.machine.executor.execute` call per instruction — the
    semantics reference.
``threaded``
    closure-specialised superblocks from :mod:`repro.machine.engine`,
    cached by entry PC and invalidated together with ``_decoded``.
    Observable results (output, exit code, retired count, iclass counts,
    charged cycles, fault timing, fuel semantics) are identical; only
    wall-clock speed differs.
``tier2``
    the threaded engine plus profile-guided region compilation
    (:mod:`repro.machine.tier2`): superblocks whose execution counter
    crosses the promotion threshold are compiled — along their hot
    static successors — into generated Python functions with registers
    as locals, deoptimizing back to this loop at any guard failure.
    Same observable-identity contract as ``threaded``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.host.costs import NativeCostObserver
from repro.isa.encoding import DecodeError, decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CONTROL_CLASSES, InstrClass
from repro.isa.program import Program
from repro.machine.engine import (
    MAX_SUPERBLOCK_INSTRS,
    BlockLedger,
    Superblock,
    native_exit_event,
    resolve_engine,
)
from repro.machine.errors import FuelExhausted, MemoryFault
from repro.machine.executor import execute
from repro.machine.loader import load_program
from repro.machine.memory import PAGE_SHIFT

DEFAULT_FUEL = 50_000_000


class Observer(Protocol):
    """Per-instruction hook: called after each retired instruction."""

    def __call__(self, pc: int, instr: Instruction, next_pc: int) -> None:
        ...


@dataclass(slots=True)
class RunResult:
    """Outcome of one program run."""

    output: str
    exit_code: int
    retired: int
    iclass_counts: Counter = field(default_factory=Counter)

    @property
    def indirect_branches(self) -> int:
        """Total dynamic indirect control transfers."""
        return (
            self.iclass_counts[InstrClass.IJUMP]
            + self.iclass_counts[InstrClass.ICALL]
            + self.iclass_counts[InstrClass.RET]
        )


class Interpreter:
    """Directly interprets a loaded program."""

    def __init__(
        self,
        program: Program,
        inputs: list[int] | None = None,
        observer: Callable[[int, Instruction, int], None] | None = None,
        count_classes: bool = True,
        engine: str | None = None,
    ):
        self.program = program
        self.cpu, self.mem, self.syscalls = load_program(program, inputs)
        self.observer = observer
        self.count_classes = count_classes
        self.engine = resolve_engine(engine)
        self.retired = 0
        self.iclass_counts: Counter = Counter()
        self._decoded: dict[int, Instruction] = {}
        self._blocks: dict[int, Superblock] = {}
        #: deferred block accounting of the threaded loop (set per run)
        self._ledger: BlockLedger | None = None
        self._tier2 = None
        if self.engine == "tier2":
            from repro.machine.tier2 import InterpreterTier2

            self._tier2 = InterpreterTier2(self)
        self._text_lo = program.text.base
        self._text_hi = program.text.end
        # The interpreter is the correctness oracle, so it must observe
        # self-modifying code: pages are watched as they are decoded and
        # a store into one drops the overlapping decode/superblock cache
        # entries (docs/robustness.md, "Code-cache coherence").
        self.mem.set_write_watch(self._on_code_write)

    def fetch(self, pc: int) -> Instruction:
        """Fetch and decode the instruction at ``pc`` (cached)."""
        instr = self._decoded.get(pc)
        if instr is None:
            if not (self._text_lo <= pc < self._text_hi) or pc % 4:
                raise MemoryFault(pc, "fetch")
            instr = decode(self.mem.load_word(pc))
            self._decoded[pc] = instr
            self.mem.watch_page(pc >> PAGE_SHIFT)
        return instr

    def _on_code_write(self, addr: int, length: int) -> None:
        """A store hit a page holding decoded code: drop stale entries.

        SR32's SMC visibility rule: a store to code becomes
        architecturally visible at the next control transfer.  Both
        caches are consulted at control-transfer boundaries (per-pc
        fetch, block lookup by entry), so dropping every overlapping
        entry here is exactly that boundary.
        """
        decoded = self._decoded
        if decoded:
            first = addr & ~3
            last = (addr + length - 1) & ~3
            for pc in range(first, last + 4, 4):
                decoded.pop(pc, None)
        blocks = self._blocks
        if blocks:
            end = addr + length
            stale = [
                entry for entry, block in blocks.items()
                if entry < end and entry + 4 * block.n > addr
            ]
            for entry in stale:
                del blocks[entry]
            if stale and self._ledger is not None:
                self._ledger.fold()  # hold no dropped block's plan
        if self._tier2 is not None:
            self._tier2.on_code_write(addr, length)

    def step(self) -> None:
        """Execute exactly one instruction."""
        cpu = self.cpu
        pc = cpu.pc
        instr = self.fetch(pc)
        next_pc = execute(instr, cpu, self.mem, self.syscalls)
        cpu.pc = next_pc
        self.retired += 1
        if self.count_classes:
            self.iclass_counts[instr.iclass] += 1
        if self.observer is not None:
            self.observer(pc, instr, next_pc)

    def run(self, fuel: int = DEFAULT_FUEL) -> RunResult:
        """Run until the program exits or ``fuel`` instructions retire."""
        # The block engines only model the cost events the native
        # observer generates; arbitrary observers (profilers etc.) need
        # the per-instruction callback, so they get the oracle loop.
        if self.engine in ("threaded", "tier2") and (
            self.observer is None
            or isinstance(self.observer, NativeCostObserver)
        ):
            ledger = self._ledger = BlockLedger(
                self.iclass_counts if self.count_classes else None,
                self.observer.model if self.observer is not None else None,
            )
            try:
                self._run_threaded(fuel, ledger, tier2=self._tier2)
            finally:
                ledger.fold()
        else:
            self._run_oracle(fuel)
        syscalls = self.syscalls
        return RunResult(
            output=syscalls.output,
            exit_code=syscalls.exit_code or 0,
            retired=self.retired,
            iclass_counts=self.iclass_counts,
        )

    def _run_oracle(self, fuel: int) -> None:
        syscalls = self.syscalls
        step = self.step
        remaining = fuel
        while not syscalls.exited:
            if remaining <= 0:
                raise FuelExhausted(fuel)
            step()
            remaining -= 1

    # -- threaded engine -----------------------------------------------------

    def _block_at(self, pc: int) -> Superblock:
        """Build (and cache) the superblock starting at ``pc``.

        Blocks end at the first control-transfer *or* ``SYSCALL``
        instruction, so exits and predictor events only ever occur at
        block terminators.  A fetch/decode failure beyond the first
        instruction truncates the block instead of faulting: the fault
        must fire when execution actually reaches that PC, exactly as in
        the oracle loop.
        """
        observer = self.observer
        class_cycles = (
            observer.model.profile.class_cycles
            if isinstance(observer, NativeCostObserver) else None
        )
        pairs = [(pc, self.fetch(pc))]
        probe = pc
        while (
            pairs[-1][1].iclass not in CONTROL_CLASSES
            and pairs[-1][1].iclass is not InstrClass.SYSCALL
            and len(pairs) < MAX_SUPERBLOCK_INSTRS
        ):
            probe += 4
            try:
                pairs.append((probe, self.fetch(probe)))
            except (MemoryFault, DecodeError):
                break
        block = Superblock(
            pairs, self.cpu, self.mem, self.syscalls,
            class_cycles=class_cycles,
        )
        self._blocks[pc] = block
        return block

    def _run_threaded(self, fuel: int, ledger: BlockLedger,
                      tier2=None) -> None:
        cpu = self.cpu
        syscalls = self.syscalls
        model = ledger.model
        pending = ledger.pending
        blocks = self._blocks
        block_at = self._block_at
        threshold = tier2.threshold if tier2 is not None else 0
        remaining = fuel

        while not syscalls.exited:
            if remaining <= 0:
                raise FuelExhausted(fuel)
            pc = cpu.pc
            block = blocks.get(pc)
            if block is None:
                block = block_at(pc)
            n = block.n
            if n <= remaining:
                if tier2 is not None:
                    region = block.region
                    if region is None and block.hits >= threshold:
                        region = tier2.try_promote(block)
                    if region:
                        # head-block fuel already checked (n <= remaining);
                        # every further block is fuel-guarded in-region
                        remaining = tier2.execute(region, remaining)
                        continue
                    block.hits += 1
                fns = block.fns
                k = 0
                next_pc = pc
                try:
                    for fn in fns:
                        next_pc = fn()
                        k += 1
                except BaseException:
                    self._flush_partial(block.pcs, block.iclasses, k)
                    raise
                self.retired += n
                remaining -= n
                if not block.runs:
                    pending.append(block)
                block.runs += 1
                if model is not None and \
                        block.term_iclass in CONTROL_CLASSES:
                    native_exit_event(model, block, next_pc)
                cpu.pc = next_pc
            else:
                # fuel runs out inside this block: retire exactly
                # ``remaining`` instructions one at a time (the prefix
                # never reaches the terminator, so no predictor events)
                self._run_prefix(block, remaining, model)
                remaining = 0

    def _run_prefix(self, block: Superblock, limit: int, model) -> None:
        """Execute the first ``limit`` instructions of a block."""
        cpu = self.cpu
        counts = self.iclass_counts
        count_classes = self.count_classes
        iclasses = block.iclasses
        k = 0
        try:
            for fn in block.fns[:limit]:
                fn()
                k += 1
                if count_classes:
                    counts[iclasses[k - 1]] += 1
                if model is not None:
                    model.charge_instr(iclasses[k - 1])
        except BaseException:
            cpu.pc = block.pcs[min(k, block.n - 1)]
            raise
        finally:
            self.retired += k
        cpu.pc = block.pcs[limit] if limit < block.n else block.pcs[-1]

    def _flush_partial(self, pcs, iclasses, k: int) -> None:
        """Account a block's first ``k`` instructions after a fault."""
        self.retired += k
        if self.count_classes:
            counts = self.iclass_counts
            for iclass in iclasses[:k]:
                counts[iclass] += 1
        if self.observer is not None:
            model = self.observer.model
            for iclass in iclasses[:k]:
                model.charge_instr(iclass)
        # leave cpu.pc on the faulting instruction, like the oracle loop
        self.cpu.pc = pcs[min(k, len(pcs) - 1)]


def run_program(
    program: Program,
    inputs: list[int] | None = None,
    fuel: int = DEFAULT_FUEL,
    observer: Callable[[int, Instruction, int], None] | None = None,
    engine: str | None = None,
) -> RunResult:
    """Convenience wrapper: load and run a program to completion."""
    return Interpreter(
        program, inputs=inputs, observer=observer, engine=engine
    ).run(fuel)
