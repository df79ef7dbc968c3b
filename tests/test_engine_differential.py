"""Oracle vs threaded engine: observable-result byte identity.

The threaded engine (repro.machine.engine) must be a pure performance
change: for every workload, profile and execution mode the observable
results — output, exit code, retired count, per-class instruction
counts, total cycles and the full cycle breakdown — must match the
oracle engine exactly.  These tests enforce that, plus the fuel-parity
contract (both the interpreter and the SDT stop at *exactly* the fuel
limit) and engine-neutral disk caching.
"""

from __future__ import annotations

import random

import pytest

from repro.host.costs import HostModel, NativeCostObserver
from repro.host.profile import SIMPLE, X86_P4
from repro.isa.assembler import assemble
from repro.isa.program import DATA_BASE
from repro.lang import compile_to_program
from repro.machine.engine import ENGINES
from repro.machine.errors import FuelExhausted, GuestFault
from repro.machine.interpreter import Interpreter
from repro.sdt.config import SDTConfig
from repro.sdt.vm import SDTVM
from repro.workloads import get_workload, workload_names

PROFILES = (SIMPLE, X86_P4)


def _native(program, profile, engine):
    model = HostModel(profile)
    result = Interpreter(
        program, observer=NativeCostObserver(model), engine=engine
    ).run()
    return {
        "output": result.output,
        "exit_code": result.exit_code,
        "retired": result.retired,
        "iclass_counts": dict(result.iclass_counts),
        "total_cycles": model.total_cycles,
        "cycles": dict(model.cycles),
    }


def _sdt(program, profile, engine, **config_kwargs):
    config = SDTConfig(profile=profile, engine=engine, **config_kwargs)
    result = SDTVM(program, config=config).run()
    return {
        "output": result.output,
        "exit_code": result.exit_code,
        "retired": result.retired,
        "iclass_counts": dict(result.iclass_counts),
        "total_cycles": result.total_cycles,
        "cycles": dict(result.cycles),
    }


def _assert_same(oracle: dict, threaded: dict, context: str) -> None:
    for key in oracle:
        assert oracle[key] == threaded[key], (
            f"{context}: engines diverge on {key}: "
            f"oracle={oracle[key]!r} threaded={threaded[key]!r}"
        )


class TestWorkloadDifferential:
    """Every registered workload, both modes, two architecture profiles."""

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_native_identical(self, name, profile):
        program = get_workload(name, "tiny").compile()
        _assert_same(
            _native(program, profile, "oracle"),
            _native(program, profile, "threaded"),
            f"native/{name}@{profile.name}",
        )

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_sdt_identical(self, name, profile):
        program = get_workload(name, "tiny").compile()
        _assert_same(
            _sdt(program, profile, "oracle"),
            _sdt(program, profile, "threaded"),
            f"sdt/{name}@{profile.name}",
        )

    @pytest.mark.parametrize(
        "ib", ["reentry", "ibtc", "sieve"], ids=lambda s: f"ib={s}"
    )
    def test_sdt_identical_across_ib_mechanisms(self, ib):
        """Engine parity holds whatever IB handling the SDT uses."""
        program = get_workload("gzip_like", "tiny").compile()
        _assert_same(
            _sdt(program, SIMPLE, "oracle", ib=ib),
            _sdt(program, SIMPLE, "threaded", ib=ib),
            f"sdt/gzip_like ib={ib}",
        )


# -- randomized instruction sequences ----------------------------------------

_ALU3 = ("add", "sub", "and", "or", "xor", "nor", "slt", "sltu",
         "mul", "sllv", "srlv", "srav")
_ALUI_SIGNED = ("addi", "slti", "sltiu")
_ALUI_UNSIGNED = ("andi", "ori", "xori")
_SHIFT = ("sll", "srl", "sra")
#: destination pool deliberately excludes s0 (data base) and s1 (divisor)
_DEST = ("t0", "t1", "t2", "t3", "t4", "t5")
_SRC = _DEST + ("zero", "s0", "s1")


def _random_program(seed: int, length: int = 250) -> str:
    rng = random.Random(seed)
    lines = [".text"]
    for index, reg in enumerate(_DEST):
        lines.append(f"    li {reg}, {rng.getrandbits(32)}")
    lines.append(f"    li s0, {DATA_BASE}")
    lines.append("    li s1, 13")  # nonzero divisor, never overwritten
    for _ in range(length):
        shape = rng.randrange(10)
        rd = rng.choice(_DEST)
        if shape < 4:
            lines.append(
                f"    {rng.choice(_ALU3)} {rd}, "
                f"{rng.choice(_SRC)}, {rng.choice(_SRC)}"
            )
        elif shape < 6:
            if rng.random() < 0.5:
                mnemonic = rng.choice(_ALUI_SIGNED)
                imm = rng.randrange(-0x8000, 0x8000)
            else:
                mnemonic = rng.choice(_ALUI_UNSIGNED)
                imm = rng.randrange(0, 0x10000)
            lines.append(f"    {mnemonic} {rd}, {rng.choice(_SRC)}, {imm}")
        elif shape == 6:
            lines.append(
                f"    {rng.choice(_SHIFT)} {rd}, {rng.choice(_SRC)}, "
                f"{rng.randrange(32)}"
            )
        elif shape == 7:
            off = rng.randrange(0, 256, 4)
            if rng.random() < 0.5:
                lines.append(f"    sw {rng.choice(_SRC)}, {off}(s0)")
            else:
                lines.append(f"    lw {rd}, {off}(s0)")
        elif shape == 8:
            lines.append(f"    lui {rd}, {rng.randrange(0, 0x10000)}")
        else:
            lines.append(
                f"    {rng.choice(('div', 'rem'))} {rd}, "
                f"{rng.choice(_SRC)}, s1"
            )
    lines.append("    halt")
    return "\n".join(lines) + "\n"


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", range(8))
    def test_native_identical(self, seed):
        program = assemble(_random_program(seed))
        _assert_same(
            _native(program, SIMPLE, "oracle"),
            _native(program, SIMPLE, "threaded"),
            f"random[{seed}]",
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_sdt_identical(self, seed):
        program = assemble(_random_program(seed))
        _assert_same(
            _sdt(program, X86_P4, "oracle"),
            _sdt(program, X86_P4, "threaded"),
            f"random-sdt[{seed}]",
        )

    def test_final_register_state_identical(self):
        program = _random_program(99)
        interps = {
            engine: Interpreter(assemble(program), engine=engine)
            for engine in ENGINES
        }
        for interp in interps.values():
            interp.run()
        assert (interps["oracle"].cpu.regs
                == interps["threaded"].cpu.regs)
        base = interps["oracle"].mem
        other = interps["threaded"].mem
        for off in range(0, 256, 4):
            assert (base.load_word(DATA_BASE + off)
                    == other.load_word(DATA_BASE + off))


# -- fuel semantics -----------------------------------------------------------

_FIB = r"""
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print_int(fib(10));
    return 0;
}
"""


class TestFuelParity:
    """Satellite 1: SDT stops at exactly the same retired count as the
    interpreter when fuel runs out, under both engines."""

    def test_sdt_retires_exactly_fuel(self):
        program = compile_to_program(_FIB)
        for fuel in (1, 2, 17, 100, 101, 500, 1234):
            for engine in ENGINES:
                vm = SDTVM(
                    program, config=SDTConfig(profile=SIMPLE, engine=engine)
                )
                with pytest.raises(FuelExhausted):
                    vm.run(fuel)
                assert vm.retired == fuel, (engine, fuel)

    def test_native_and_sdt_agree_at_tight_fuel(self):
        """Regression: native and SDT pinned to identical retired counts."""
        program = compile_to_program(_FIB)
        for fuel in (50, 333, 2000):
            counts = set()
            for engine in ENGINES:
                interp = Interpreter(program, engine=engine)
                with pytest.raises(FuelExhausted):
                    interp.run(fuel)
                counts.add(interp.retired)
                vm = SDTVM(
                    program, config=SDTConfig(profile=SIMPLE, engine=engine)
                )
                with pytest.raises(FuelExhausted):
                    vm.run(fuel)
                counts.add(vm.retired)
            assert counts == {fuel}

    @staticmethod
    def _interrupted(program, run, exc_type, same_pc: bool) -> None:
        """Every engine, both hosts, stops with identical accounting.

        The threaded fast path defers class counts and APP cycles to a
        block ledger; an interrupted run must still fold all of it.
        ``same_pc`` also compares ``cpu.pc`` (pinned for faults only).
        """
        for host in ("native", "sdt"):
            accounts = {}
            for engine in ENGINES:
                if host == "native":
                    model = HostModel(X86_P4)
                    runner = Interpreter(
                        program, observer=NativeCostObserver(model),
                        engine=engine,
                    )
                else:
                    runner = SDTVM(
                        program,
                        config=SDTConfig(profile=X86_P4, engine=engine),
                    )
                    model = runner.model
                with pytest.raises(exc_type):
                    run(runner)
                accounts[engine] = (
                    runner.retired, dict(runner.iclass_counts),
                    model.breakdown(), runner.cpu.pc if same_pc else None,
                )
            for engine in ENGINES:
                assert accounts[engine] == accounts["oracle"], (host, engine)

    def test_accounting_identical_at_fuel_exhaustion(self):
        program = compile_to_program(_FIB)
        for fuel in (17, 101, 1234, 3000):
            self._interrupted(
                program, lambda runner: runner.run(fuel), FuelExhausted,
                same_pc=False,
            )

    def test_accounting_identical_at_mid_block_guest_fault(self):
        # 200 loop trips fill the ledger before the misaligned load
        # faults inside the next block
        program = assemble(
            ".text\n"
            "    li t0, 200\n"
            "loop:\n"
            "    addi t1, t1, 3\n"
            "    addi t0, t0, -1\n"
            "    bne t0, zero, loop\n"
            "    addi t2, zero, 1\n"
            "    addi t3, zero, 2\n"
            "    lw t4, 1(zero)\n"
            "    addi t5, zero, 1\n"
            "    halt\n"
        )
        self._interrupted(
            program, lambda runner: runner.run(), GuestFault, same_pc=True
        )

    def test_exact_fuel_completes_without_exhaustion(self):
        program = compile_to_program(_FIB)
        full = Interpreter(program, engine="oracle").run().retired
        for engine in ENGINES:
            assert Interpreter(program, engine=engine).run(full).retired == full
            vm = SDTVM(
                program, config=SDTConfig(profile=SIMPLE, engine=engine)
            )
            assert vm.run(full).retired == full


# -- caching ------------------------------------------------------------------

@pytest.mark.usefixtures("no_faults")
class TestEngineNeutralCaching:
    """Engine choice must not split caches: identical fingerprints, and a
    cache warmed by an oracle run serves threaded runs (and vice versa)."""

    def test_cell_keys_identical_across_engines(self):
        from repro.eval.cells import measure_cell

        cells = {
            engine: measure_cell(
                "gzip_like", "tiny",
                SDTConfig(profile=SIMPLE, engine=engine),
            )
            for engine in ENGINES
        }
        assert (cells["oracle"].fingerprint()
                == cells["threaded"].fingerprint())
        assert cells["oracle"].key() == cells["threaded"].key()

    def test_warm_oracle_cache_serves_threaded_run(self, tmp_path):
        from repro.eval.cells import measure_cell
        from repro.eval.diskcache import DiskCache
        from repro.eval.parallel import execute_cells

        oracle_cell = measure_cell(
            "gzip_like", "tiny", SDTConfig(profile=SIMPLE, engine="oracle")
        )
        threaded_cell = measure_cell(
            "gzip_like", "tiny", SDTConfig(profile=SIMPLE, engine="threaded")
        )

        cache = DiskCache(tmp_path)
        _results, report = execute_cells([oracle_cell], cache=cache)
        assert report.computed == 1 and report.cache_hits == 0

        results, report = execute_cells([threaded_cell], cache=cache)
        assert report.cache_hits == 1 and report.computed == 0
        result = results[threaded_cell.key()]
        assert result is not None
