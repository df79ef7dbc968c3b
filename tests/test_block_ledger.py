"""Deferred block accounting, per-fragment exit handlers, enum hashing.

The threaded fast path only bumps a plan's ``runs`` counter; the host's
:class:`repro.machine.engine.BlockLedger` folds the counters into the
class counts and the cycle model later.  These tests pin where it folds
(cache eviction, run end), that folded results equal the oracle's, and
the two hot-path helpers the fast path relies on: the exit handler each
fragment carries, and identity hashing of the cost and ISA enums.
"""

from __future__ import annotations

import pickle
from collections import Counter

from repro.host.costs import Category, HostModel
from repro.host.profile import SIMPLE, X86_P4
from repro.isa.opcodes import Fmt, InstrClass, Op
from repro.machine.engine import BlockLedger
from repro.sdt.config import SDTConfig
from repro.sdt.fragment import ExitKind
from repro.sdt.vm import SDTVM
from repro.workloads import get_coherence_workload, get_workload


def _summary(result) -> tuple:
    return (result.output, result.retired, dict(result.iclass_counts),
            result.cycles)


class TestLedgerFolds:
    def test_forced_flush_leaves_no_dead_plan_pending(self):
        program = get_workload("gzip_like", "tiny").compile()
        config = SDTConfig(profile=X86_P4, fragment_cache_bytes=1024)
        vm = SDTVM(program, config=config)
        pending_at_flush = []
        vm.cache.on_flush(
            lambda: pending_at_flush.append(list(vm._ledger.pending))
        )
        result = vm.run()
        assert vm.stats.cache_flushes > 0
        assert len(pending_at_flush) == vm.stats.cache_flushes
        # every fragment is dead once the flush hooks run
        assert all(not pending for pending in pending_at_flush)
        assert not vm._ledger.pending
        oracle = SDTVM(program, config=SDTConfig(
            profile=X86_P4, fragment_cache_bytes=1024, engine="oracle",
        )).run()
        assert _summary(result) == _summary(oracle)

    def test_selective_invalidation_folds_first(self):
        program = get_coherence_workload("smc_loop", "tiny").compile()
        vm = SDTVM(program, config=SDTConfig(coherence="targeted"))
        invalidate = vm.cache.invalidate
        pending_after = []

        def checked(fragments):
            evicted = invalidate(fragments)
            pending_after.append(list(vm._ledger.pending))
            return evicted

        vm.cache.invalidate = checked
        result = vm.run()
        assert vm.stats.coherence["fragments_invalidated"] > 0
        assert pending_after and all(not p for p in pending_after)
        oracle = SDTVM(program, config=SDTConfig(
            coherence="targeted", engine="oracle",
        )).run()
        assert _summary(result) == _summary(oracle)

    def test_fold_multiplies_runs(self):
        program = get_workload("mcf_like", "tiny").compile()
        vm = SDTVM(program, config=SDTConfig(profile=X86_P4))
        plan = vm.reenter_translator(vm.cpu.pc).plan
        counts: Counter = Counter()
        model = HostModel(X86_P4)
        ledger = BlockLedger(counts, model)
        plan.runs = 3
        ledger.pending.append(plan)
        ledger.fold()
        assert plan.runs == 0 and not ledger.pending
        assert counts == Counter(
            {iclass: 3 * n for iclass, n in plan.class_counts.items()}
        )
        assert model.cycles[Category.APP] == 3 * plan.app_cycles


class TestExitHandlers:
    def test_translator_stores_exit_site(self):
        program = get_workload("perl_like", "tiny").compile()
        vm = SDTVM(program, config=SDTConfig(profile=SIMPLE))
        vm.run()
        fragments = vm.cache.fragments()
        assert fragments
        for fragment in fragments:
            assert fragment.exit_site == (
                fragment.fc_addr + 4 * (len(fragment.instrs) - 1)
            )

    def test_tombstone_exits_through_its_own_links(self):
        from repro.faults.inject import tombstone

        program = get_workload("mcf_like", "tiny").compile()
        vm = SDTVM(program, config=SDTConfig(profile=SIMPLE))
        vm.run()
        linked = next(
            fragment for fragment in vm.cache.fragments()
            if fragment.exit_kind is ExitKind.JUMP and "J" in fragment.links
        )
        stale = tombstone(linked)
        assert stale.exit == linked.exit
        successor = stale.links["J"]
        stale.links = {}
        target = successor.guest_pc
        patched = vm.stats.links_patched
        # an invalid fragment re-dispatches and is never patched
        assert stale.exit(stale, target, 0, 0) is successor
        assert vm.stats.links_patched == patched
        assert stale.links == {}


class TestIdentityHashing:
    def test_enums_hash_by_identity(self):
        for enum_cls in (InstrClass, Category, Op, Fmt):
            assert enum_cls.__hash__ is object.__hash__
            for member in enum_cls:
                assert hash(member) == object.__hash__(member)

    def test_counters_survive_a_pickle_round_trip(self):
        # pool workers hand Counter[InstrClass] results back by pickle
        counts = Counter({iclass: i + 1 for i, iclass in enumerate(InstrClass)})
        cycles = Counter({cat: 10 * (i + 1) for i, cat in enumerate(Category)})
        for original in (counts, cycles):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original
            for key, value in original.items():
                assert copy[key] == value
                assert next(k for k in copy if k == key) is key
