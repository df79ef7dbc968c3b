"""Fragment cache: allocation, flush policy, hooks."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.sdt.cache import FlushHookError, FragmentCache, FragmentTooLarge
from repro.sdt.fragment import (
    ExitKind,
    FRAGMENT_CACHE_BASE,
    Fragment,
    exit_kind_for,
)
from repro.isa.opcodes import InstrClass


def make_fragment(guest_pc: int, n_instrs: int = 2) -> Fragment:
    instrs = [(guest_pc + 4 * i, Instruction(Op.ADD)) for i in range(n_instrs)]
    return Fragment(guest_pc=guest_pc, fc_addr=0, instrs=instrs,
                    exit_kind=ExitKind.JUMP)


class TestFragment:
    def test_size_estimate(self):
        frag = make_fragment(0x1000, 3)
        assert frag.size_bytes == 3 * 4 + 8
        cond = make_fragment(0x1000, 3)
        cond.exit_kind = ExitKind.COND
        assert cond.size_bytes == 3 * 4 + 16

    def test_exit_site_is_last_instruction(self):
        frag = make_fragment(0x1000, 4)
        frag.place(0x100)
        assert frag.fc_addr == 0x100
        assert frag.exit_site == 0x100 + 12

    def test_exit_kind_mapping(self):
        assert exit_kind_for(InstrClass.BRANCH) is ExitKind.COND
        assert exit_kind_for(InstrClass.RET) is ExitKind.RET
        assert exit_kind_for(InstrClass.ICALL) is ExitKind.ICALL
        assert exit_kind_for(InstrClass.HALT) is ExitKind.HALT


class TestCacheAllocation:
    def test_reserve_returns_increasing_addresses(self):
        cache = FragmentCache(capacity=1024)
        first = cache.reserve(16)
        second = cache.reserve(16)
        assert first == FRAGMENT_CACHE_BASE
        assert second == FRAGMENT_CACHE_BASE + 16

    def test_lookup_after_insert(self):
        cache = FragmentCache()
        frag = make_fragment(0x1000)
        frag.fc_addr = cache.reserve(frag.size_bytes)
        cache.insert(frag)
        assert cache.lookup(0x1000) is frag
        assert 0x1000 in cache
        assert cache.lookup(0x2000) is None

    def test_oversized_fragment_rejected(self):
        cache = FragmentCache(capacity=32)
        with pytest.raises(ValueError):
            cache.reserve(64)

    def test_oversized_fragment_error_is_actionable(self):
        """The error must say what happened and how to fix it — a flush
        cannot help, so the caller needs the numbers, not a retry."""
        cache = FragmentCache(capacity=32)
        with pytest.raises(FragmentTooLarge) as excinfo:
            cache.reserve(64)
        err = excinfo.value
        assert (err.size_bytes, err.capacity) == (64, 32)
        assert "64 bytes" in str(err) and "32-byte" in str(err)
        assert "fragment_cache_bytes" in str(err)
        assert isinstance(err, ValueError)      # old catch sites still work

    def test_oversized_check_does_not_flush(self):
        cache = FragmentCache(capacity=32)
        cache.reserve(24)
        with pytest.raises(FragmentTooLarge):
            cache.reserve(64)
        assert cache.stats.cache_flushes == 0   # rejected before flushing
        assert cache.bytes_used == 24           # prior allocation intact

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FragmentCache(capacity=0)


class TestFlush:
    def test_flush_on_capacity(self):
        cache = FragmentCache(capacity=64)
        for i in range(4):
            frag = make_fragment(0x1000 + 0x100 * i)
            frag.fc_addr = cache.reserve(24)
            cache.insert(frag)
        # 3rd/4th reserve must have flushed at least once
        assert cache.stats.cache_flushes >= 1

    def test_flush_invalidates_and_clears(self):
        cache = FragmentCache()
        frag = make_fragment(0x1000)
        other = make_fragment(0x2000)
        frag.links["J"] = other
        frag.fc_addr = cache.reserve(frag.size_bytes)
        cache.insert(frag)
        cache.flush()
        assert not frag.valid
        assert frag.links == {}
        assert len(cache) == 0
        assert cache.bytes_used == 0

    def test_flush_hooks_called(self):
        cache = FragmentCache()
        calls = []
        cache.on_flush(lambda: calls.append(1))
        cache.on_flush(lambda: calls.append(2))
        cache.flush()
        assert calls == [1, 2]

    def test_raising_hook_does_not_mask_later_hooks(self):
        cache = FragmentCache()
        calls = []
        cache.on_flush(lambda: calls.append("first"))
        cache.on_flush(lambda: (_ for _ in ()).throw(RuntimeError("h2")))
        cache.on_flush(lambda: calls.append("third"))
        with pytest.raises(FlushHookError):
            cache.flush()
        assert calls == ["first", "third"]      # every hook still ran
        assert len(cache) == 0                  # and the flush completed

    def test_all_hook_exceptions_aggregated(self):
        cache = FragmentCache()

        def boom(msg):
            raise RuntimeError(msg)

        cache.on_flush(lambda: boom("first failure"))
        cache.on_flush(lambda: boom("second failure"))
        with pytest.raises(FlushHookError) as excinfo:
            cache.flush()
        err = excinfo.value
        assert [str(e) for e in err.errors] == \
            ["first failure", "second failure"]
        assert "2 flush hook(s) raised" in str(err)
        assert "first failure" in str(err) and "second failure" in str(err)

    def test_hook_failure_still_counts_the_flush(self):
        cache = FragmentCache()
        cache.on_flush(lambda: (_ for _ in ()).throw(ValueError("x")))
        with pytest.raises(FlushHookError):
            cache.flush()
        assert cache.stats.cache_flushes == 1

    def test_allocation_restarts_after_flush(self):
        cache = FragmentCache(capacity=1024)
        cache.reserve(100)
        cache.flush()
        assert cache.reserve(16) == FRAGMENT_CACHE_BASE
