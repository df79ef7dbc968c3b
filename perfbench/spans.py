"""Spans recorded around calls into each layer, from outside the program.

:func:`instrument` swaps wrappers in for the layers' public functions and
methods for the duration of a ``with`` block and puts the originals back
afterwards.  No file of the program is modified, and nothing is wrapped
outside the block, so untraced runs execute the program unchanged.

A span is ``(name, start_ns, end_ns, parent, run_id, self_ns)``: ``parent``
indexes the enclosing span (-1 at top level), ``run_id`` numbers the SDT
run the span belongs to, and ``self_ns`` is the span's duration minus the
time its child spans cover.  Sub-microsecond calls (the host cost model,
the fragment loop) are counted, not timed.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


SPAN_COLUMNS = ("name", "start_ns", "end_ns", "parent", "run", "self_ns")


class SpanRecorder:
    """In-memory span store; written out only when the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: run id -> headline config name (or None) of each SDT run
        self.runs: dict[int, str | None] = {}
        self.run_id = -1
        self._stack: list[list[int]] = []   # [span index, child ns]

    def timed(self, name: str, fn):
        """``fn`` wrapped to record one span per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (name, start, end, parent, self.run_id,
                                   duration - frame[1])
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped to count its calls."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sdt_run(self, fn, name_of):
        """``SDTVM.run`` wrapped to open a new run id per simulation.

        Also credits the host-model calls made during the run to
        ``host.calls.sdt`` and its retired instructions to ``sdt.retired``.
        """
        counts = self.counts

        def wrapper(vm, *args, **kwargs):
            self.run_id = len(self.runs)
            self.runs[self.run_id] = name_of(vm.config)
            before = counts["host.calls"]
            try:
                result = fn(vm, *args, **kwargs)
            finally:
                counts["host.calls.sdt"] += counts["host.calls"] - before
            counts["sdt.retired"] += result.retired
            return result

        return wrapper

    # -- aggregation -------------------------------------------------------

    def total(self, name: str, field: str = "self") -> float:
        """Seconds summed over spans called ``name`` (self or inclusive)."""
        index = 5 if field == "self" else None
        ns = 0
        for span in self.spans:
            if span[0] == name:
                ns += span[index] if index else span[2] - span[1]
        return ns / 1e9

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: Path) -> None:
        """Write every span as a gzipped CSV row (done once, after timing).

        Columns: name, start_ns, end_ns, parent, run, self_ns; ``parent``
        is the row number (from 0) of the enclosing span, or -1.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as out:
            rows = csv.writer(out)
            rows.writerow(SPAN_COLUMNS)
            rows.writerows(self.spans)


#: Host-model methods whose calls ``host.calls`` counts.
HOST_METHODS = ("charge", "charge_instr", "charge_block", "cond_branch",
                "indirect_jump", "host_call", "host_return")


def _targets():
    """``(owner, attribute, span name or None, kind)`` for every hook."""
    from repro.eval import cells, runner
    from repro.host.costs import HostModel
    from repro.machine.tier2 import Tier2Runtime
    from repro.sdt import static_targets
    from repro.sdt.cache import FragmentCache
    from repro.sdt.ib.ibtc import IBTC
    from repro.sdt.ib.reentry import TranslatorReentry
    from repro.sdt.ib.returns import (
        FastReturns, ReturnCache, ReturnsAsIB, ShadowReturnStack,
    )
    from repro.sdt.ib.sieve import Sieve
    from repro.sdt.translator import Translator
    from repro.sdt.vm import SDTVM
    from repro.workloads import base

    hooks = [
        (base, "compile_to_program", "lang.compile", "timed"),
        (base, "assemble", "isa.assemble", "timed"),
        # the runtime's constructor runs the whole-program analysis
        (static_targets, "analyze_targets", "analysis.targets", "timed"),
        (SDTVM, "run", "sdt.run", "run"),
        (SDTVM, "execute_fragment", "vm.fragments", "counted"),
        (SDTVM, "reenter_translator", "sdt.reentry", "timed"),
        (Translator, "translate", "translator.translate", "timed"),
        (FragmentCache, "flush", "cache.flush", "timed"),
        (FragmentCache, "invalidate", "cache.invalidate", "timed"),
        (Tier2Runtime, "try_promote", "tier2.promote", "timed"),
        (Tier2Runtime, "execute", "tier2.execute", "timed"),
        (runner, "run_native", "eval.run_native", "timed"),
        (cells, "run_native", "eval.run_native", "timed"),
        (cells, "measure", "eval.measure", "timed"),
    ]
    for cls in (TranslatorReentry, IBTC, Sieve):
        hooks.append((cls, "dispatch", "ib.dispatch", "timed"))
    for cls in (ReturnsAsIB, FastReturns, ShadowReturnStack, ReturnCache):
        hooks.append((cls, "dispatch_ret", "ib.dispatch_ret", "timed"))
    for method in HOST_METHODS:
        hooks.append((HostModel, method, "host.calls", "counted"))
    return hooks


#: Span names charged to the IB mechanisms (their self time).
IB_SPANS = ("ib.dispatch", "ib.dispatch_ret")


@contextmanager
def instrument(recorder: SpanRecorder, name_of,
               only: tuple[str, ...] | None = None):
    """Record spans into ``recorder`` while the block runs.

    ``name_of`` maps an SDT config to the name its run is filed under.
    ``only`` limits the hooks to those span names (e.g. the tier-2 ones),
    so a side pass can time one layer with the least distortion.
    """
    saved = []
    try:
        for owner, attr, name, kind in _targets():
            if only is not None and name not in only:
                continue
            original = owner.__dict__[attr]
            if kind == "timed":
                wrapper = recorder.timed(name, original)
            elif kind == "counted":
                wrapper = recorder.counted(name, original)
            else:
                wrapper = recorder.sdt_run(recorder.timed(name, original),
                                           name_of)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
