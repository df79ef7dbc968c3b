"""Structured SDT event tracing: ring buffer, metrics, cycle attribution.

One :class:`TraceSession` is bound per SDT VM (``SDTVM.trace``).  Every
instrumented point in the pipeline — translator, VM dispatch loop, IB
mechanisms, fragment cache, fault injector, superblock compiler — funnels
through the single :meth:`TraceSession.emit` hook.  When tracing is off
the session simply does not exist (``SDTVM.trace is None``) and every
call site guards with one attribute test, so the disabled cost is a
pointer compare on already-cold paths (never per-instruction).

Tracing is *pure observation*: ``emit`` reads the host model's cycle
accumulator but charges nothing, mutates no architectural state and draws
no randomness, so a traced run is byte-identical — output, retired count,
cycle totals, stats — to the same run untraced
(tests/test_trace_invariants.py pins this).  Before sampling, ``emit``
folds the VM's deferred block ledger (the ``fold`` callable), which only
moves already-spent application cycles into the accumulator earlier.

**Cycle attribution.**  Each emit samples ``model.total_cycles`` and
attributes the delta since the previous sample to the *current phase*,
maintained as a stack driven by bracket events:

- ``dispatch.start`` / ``dispatch.end`` → ``dispatch`` (IB/return
  mechanism probe code),
- ``reentry.enter`` / ``reentry.exit``  → ``translator`` (context
  switches, map lookups, the dispatch jump back),
- ``translate.start`` / ``translate.end`` / ``translate.abort`` →
  ``translate`` (fragment building),
- ``tier2.enter`` / ``tier2.exit``     → ``tier2`` (generated-region
  execution under ``engine=tier2``; its exits re-open the surrounding
  phase, so a deopt's slow-path cycles attribute outside the bracket),
- everything outside any bracket       → ``execute`` (application work,
  link patching, call-site bookkeeping, native-style mispredictions).

Brackets nest (a dispatch miss re-enters the translator, which may
translate), so e.g. an IBTC probe's cycles land in ``dispatch`` while the
translation it triggers lands in ``translate``.  Because attribution is a
telescoping sum over one monotone counter, the phase totals sum *exactly*
to the run's total cycles once :meth:`TraceSession.finish` has sampled
the final value — the invariant the new test suite checks for every
workload × mechanism.
"""

from __future__ import annotations

import math
from collections import deque

from repro.trace.spec import TraceSpec

#: Base attribution phase (application execution inside the fragment
#: cache, plus every cost not inside an explicit bracket).
PHASE_EXECUTE = "execute"

#: Bracket-opening event kinds and the phase they attribute to.
PUSH_PHASES: dict[str, str] = {
    "dispatch.start": "dispatch",
    "reentry.enter": "translator",
    "translate.start": "translate",
    "tier2.enter": "tier2",
}

#: Bracket-closing event kinds (``translate.abort`` closes the
#: ``translate.start`` bracket on an injected translation failure).
POP_KINDS = frozenset({
    "dispatch.end",
    "reentry.exit",
    "translate.end",
    "translate.abort",
    "tier2.exit",
})

#: Event payload fields that feed value histograms automatically: an
#: event ``emit(kind, depth=3)`` records 3 into histogram
#: ``"<kind>.depth"``.  ``depth`` carries sieve chain-walk depths,
#: ``probes`` IBTC probe lengths, ``instrs`` fragment/plan sizes.
HISTOGRAM_FIELDS = ("depth", "probes", "instrs")


class Histogram:
    """Power-of-two-bucketed distribution of non-negative integers.

    Bucket keys are the smallest power of two >= the recorded value
    (``0`` keeps its own bucket), so geometry sweeps (chain depths, probe
    lengths, fragment sizes) stay compact and deterministic.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    def record(self, value: int) -> None:
        bucket = 0 if value <= 0 else 1 << (value - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def __bool__(self) -> bool:
        """Truthiness is "has recorded anything", so gating call sites
        (``hist.quantile(q) if hist else 0``) treat an allocated-but-
        empty histogram exactly like a missing one instead of reporting
        phantom quantiles before the first sample."""
        return self.count > 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """Upper bucket bound at quantile ``q`` in [0, 1].

        An empty histogram always answers 0 — never a bucket bound or a
        stale ``max`` — for every ``q`` including the extremes; callers
        that must distinguish "empty" from "all zeros" gate on the
        histogram's truthiness.  Resolution is the bucket geometry (a
        power of two), which is exactly what the serve layer's
        queue-depth and batch-size distributions need; exact latency
        quantiles use a reservoir instead (see
        :mod:`repro.serve.service`).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if not self.count:
            return 0
        # target is clamped to [1, count] and bucket counts sum to
        # count, so the scan always terminates inside the loop
        target = max(1, min(self.count, math.ceil(q * self.count)))
        seen = 0
        for bound in sorted(self.buckets):
            seen += self.buckets[bound]
            if seen >= target:
                return bound
        raise AssertionError("bucket counts diverged from self.count")

    def as_dict(self) -> dict[str, object]:
        """Deterministic JSON-ready form (buckets sorted numerically)."""
        return {
            "buckets": {
                str(bound): self.buckets[bound]
                for bound in sorted(self.buckets)
            },
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 6),
        }


class MetricsRegistry:
    """Deterministic counters + histograms aggregated over a session."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram()
            self.histograms[name] = hist
        return hist

    def as_dict(self) -> dict[str, object]:
        return {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "histograms": {
                name: self.histograms[name].as_dict()
                for name in sorted(self.histograms)
            },
        }


class TraceSession:
    """Per-VM event sink: ring-buffered log + metrics + attribution.

    ``model`` is the VM's :class:`repro.host.costs.HostModel`; its
    ``total_cycles`` is the (deterministic) timestamp domain, so traces
    need no wall clock and two identical runs export identical bytes.
    """

    __slots__ = (
        "spec", "model", "fold", "events", "emitted", "phase_cycles",
        "_stack", "_last_cycles", "metrics", "finished",
    )

    def __init__(self, model, spec: TraceSpec | None = None, fold=None):
        self.spec = spec if spec is not None else TraceSpec()
        self.model = model
        #: accounts work the VM has deferred (its block ledger), so the
        #: sampled total is exact at every event; ``None`` when unused
        self.fold = fold
        #: ring buffer of ``(seq, cycles, kind, data)`` tuples
        self.events: deque = deque(maxlen=self.spec.ring)
        self.emitted = 0
        self.phase_cycles: dict[str, int] = {}
        self._stack: list[str] = [PHASE_EXECUTE]
        self._last_cycles = 0
        self.metrics = MetricsRegistry()
        self.finished = False

    # -- the one hook --------------------------------------------------------

    def emit(self, kind: str, **data) -> None:
        """Record one structured event (pure observation, zero charges)."""
        if self.fold is not None:
            self.fold()
        cycles = self.model.total_cycles
        delta = cycles - self._last_cycles
        if delta:
            stack = self._stack
            phase = stack[-1] if stack else PHASE_EXECUTE
            self.phase_cycles[phase] = self.phase_cycles.get(phase, 0) + delta
            self._last_cycles = cycles
        self.emitted += 1
        self.events.append((self.emitted, cycles, kind, data))

        metrics = self.metrics
        metrics.counters[kind] = metrics.counters.get(kind, 0) + 1
        for field in HISTOGRAM_FIELDS:
            value = data.get(field)
            if value is not None:
                metrics.histogram(f"{kind}.{field}").record(value)

        push = PUSH_PHASES.get(kind)
        if push is not None:
            self._stack.append(push)
        elif kind in POP_KINDS and len(self._stack) > 1:
            self._stack.pop()

    def finish(self) -> None:
        """Sample the final cycle count so attribution telescopes to it.

        Idempotent; the VM calls this when its run loop exits (including
        on fuel exhaustion), so ``sum(phase_cycles.values())`` equals the
        run's total cycles exactly.
        """
        if not self.finished:
            self.emit("run.end")
            self.finished = True

    # -- derived views -------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events emitted but evicted from the ring buffer."""
        return self.emitted - len(self.events)

    def attribution(self) -> dict[str, int]:
        """Per-phase cycle totals, deterministically ordered.

        After :meth:`finish`, these sum exactly to
        ``model.total_cycles`` (the telescoping-sum invariant).
        """
        return {
            phase: self.phase_cycles[phase]
            for phase in sorted(self.phase_cycles)
        }

    def total_attributed(self) -> int:
        return sum(self.phase_cycles.values())
