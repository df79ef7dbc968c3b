"""Timed passes over one workload, and the metrics derived from them.

A *pass* runs the workload's whole simulation set once after its own
set-up: compiling or assembling the guests and constructing the VMs (plus,
for the grid, planning and deduplicating cells and starting a worker
pool).  Set-up and pass are timed apart, so ``wall_s`` excludes set-up and
``setup_s`` shows work moved into it.  Program caches are emptied before
every set-up, so each pass starts cold.

Untraced runs (``trace=False``) report the end-to-end metrics.  Traced runs
report the per-layer metrics; they alternate untraced and traced passes and
add side passes (native baseline, tier-2 engine, in-program tracing on).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from repro.eval.diskcache import DiskCache
from repro.eval.parallel import ExecutionReport, dedup_cells, execute_cells
from repro.host.costs import HostModel, NativeCostObserver
from repro.host.profile import X86_P4
from repro.machine.interpreter import Interpreter
from repro.sdt.vm import SDTVM
from repro.trace.spec import TraceSpec

from perfbench.expected import (
    WORK_DIR, canonical, cell_digest, sim_key, sim_record,
)
from perfbench.metrics import HIT_RATE_FAMILIES, report
from perfbench.refclock import Probe, ref_slice, scale
from perfbench.spans import IB_SPANS, SpanRecorder, instrument
from perfbench.stats import flatten, median, tail
from perfbench.suites import (
    CONFIG_NAMES, FUEL, GridSuite, SimSuite, config_name, pin,
)

#: Set-up is timed at least this many times per run (median reported).
MIN_SETUPS = 5

#: Simulations retiring fewer instructions are left out of
#: ``ns_per_instr``: their time is fixed start-up cost, and divided by ~100
#: instructions (the E15 assembly scenarios at tiny scale) it is noise.
MIN_RETIRED = 1000

TIER2_SPANS = ("tier2.promote", "tier2.execute")


def clear_program_caches() -> None:
    """Empty every process-wide cache the simulator keeps."""
    from repro.analysis import targets
    from repro.eval import runner
    from repro.machine import tier2
    from repro.workloads import base

    runner.clear_caches()
    base._compile_cached.cache_clear()
    base._assemble_cached.cache_clear()
    targets._REPORT_CACHE.clear()
    tier2._CODE_CACHE.clear()
    gc.collect()


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Pass:
    """Timings, counters and failures of one pass.

    ``*_s`` times are in reference seconds (:mod:`perfbench.refclock`);
    ``raw_*_s`` are the same intervals in plain host seconds.
    """

    setup_s: float = 0.0
    raw_setup_s: float = 0.0
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    #: ``(reference seconds, retired)`` per simulation or computed cell
    sims: list[tuple[float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: SDT statistics summed over the pass (dotted keys)
    stats: Counter = field(default_factory=Counter)
    report: ExecutionReport | None = None

    @property
    def retired(self) -> int:
        return sum(retired for _seconds, retired in self.sims)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        _log(f"FAILED {what}: {why}")


def _timed(fn):
    """``(fn(), raw seconds, reference seconds)``."""
    before = ref_slice()
    start = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - start
    return out, raw, scale(raw, before, ref_slice())


# -- simulation suites --------------------------------------------------------


class SimRunner:
    """Runs a :class:`SimSuite`'s programs x configs in this process."""

    def __init__(self, suite: SimSuite, seed: int, expected: dict):
        self.suite = suite
        self.workloads = suite.workloads(seed)
        self.records = expected["records"]
        self.jobs = 1

    def setup(self, engine: str = "threaded", trace=None):
        """``(raw s, reference s, VMs)``: compile the guests, build VMs."""
        clear_program_caches()
        configs = dict(self.suite.configs)

        def build():
            programs = {name: w.compile()
                        for name, w in self.workloads.items()}
            return [
                (program, label, SDTVM(programs[program],
                                       config=pin(configs[label], engine,
                                                  trace)))
                for program, label in self.suite.sims()
            ]

        vms, raw, scaled = _timed(build)
        return raw, scaled, vms

    def run_pass(self, engine: str = "threaded", trace=None,
                 recorder: SpanRecorder | None = None,
                 only: tuple[str, ...] | None = None) -> Pass:
        if recorder is not None:
            with instrument(recorder, config_name, only):
                return self._run_pass(engine, trace)
        return self._run_pass(engine, trace)

    def _run_pass(self, engine: str, trace) -> Pass:
        raw_setup, setup, vms = self.setup(engine, trace)
        done = Pass(setup_s=setup, raw_setup_s=raw_setup)
        outcomes = []
        gc.collect()
        before = ref_slice()
        for program, label, vm in vms:
            began = time.perf_counter()
            try:
                result = vm.run(FUEL)
            except Exception as exc:  # counted as a failed simulation
                result = exc
            raw = time.perf_counter() - began
            after = ref_slice()
            outcomes.append((program, label, result, raw,
                             scale(raw, before, after)))
            before = after
        for program, label, result, raw, scaled in outcomes:
            done.attempted += 1
            done.raw_wall_s += raw
            done.wall_s += scaled
            key = sim_key(program, label)
            if isinstance(result, Exception):
                done.fail(key, f"{type(result).__name__}: {result}")
                continue
            if sim_record(result) != self.records.get(key):
                done.fail(key, "differs from the oracle record")
            done.sims.append((scaled, result.retired))
            done.stats.update(flatten(result.stats.as_dict()))
        return done

    def native_pass(self) -> Pass:
        """Native runs of the same programs (threaded interpreter)."""
        clear_program_caches()
        done = Pass()
        first_config = self.suite.configs[0][0]
        for name, workload in self.workloads.items():
            program = workload.compile()
            expected = self.records[sim_key(name, first_config)]
            interp = Interpreter(
                program, observer=NativeCostObserver(HostModel(X86_P4)),
                engine="threaded",
            )
            result, raw, scaled = _timed(lambda: interp.run(FUEL))
            done.attempted += 1
            done.raw_wall_s += raw
            done.wall_s += scaled
            got = (result.output, result.exit_code, result.retired)
            want = (expected["output"], expected["exit_code"],
                    expected["retired"])
            if got != want:
                done.fail(f"{name}/native", "differs from the oracle record")
            done.sims.append((scaled, result.retired))
        return done


# -- the cell grid ------------------------------------------------------------


def _worker_ready(_index: int) -> int:
    return os.getpid()


class GridRunner:
    """Runs a :class:`GridSuite` through :func:`execute_cells`."""

    def __init__(self, suite: GridSuite, seed: int, expected: dict):
        self.suite = suite
        self.seed = seed
        self.cells = expected["cells"]
        self.tables = expected.get("tables") or {}
        self.jobs = suite.jobs

    def setup(self, engine: str = "threaded", trace=None, jobs: int = 1):
        """Plan and dedup the cells, compile the guests, build every
        cell's VM and, for ``jobs > 1``, start a worker pool."""
        clear_program_caches()

        def build():
            requested, replacement = self.suite.plan(self.seed, engine,
                                                     trace)
            programs = {}
            for cell in dedup_cells(requested).values():
                workload = cell.resolve()
                program = programs.get(workload.name)
                if program is None:
                    program = programs[workload.name] = workload.compile()
                SDTVM(program, config=cell.config)
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    list(pool.map(_worker_ready, range(jobs)))
            return requested, replacement

        (requested, replacement), raw, scaled = _timed(build)
        # workers fork from this process: leave them nothing warm
        clear_program_caches()
        return raw, scaled, requested, replacement

    def run_pass(self, engine: str = "threaded", trace=None,
                 recorder: SpanRecorder | None = None,
                 only: tuple[str, ...] | None = None,
                 jobs: int = 1, warm: bool = False) -> tuple[Pass, Pass | None]:
        """One cold pass; with ``warm``, a re-run over its disk cache too."""
        if recorder is not None:
            with instrument(recorder, config_name, only):
                return self._run_pass(engine, trace, jobs, warm)
        return self._run_pass(engine, trace, jobs, warm)

    def _run_pass(self, engine, trace, jobs, warm):
        raw_setup, setup, requested, replacement = self.setup(
            engine, trace, jobs)
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        cache_root = tempfile.mkdtemp(prefix="diskcache-", dir=WORK_DIR)
        try:
            cold = self._execute(requested, replacement, jobs, cache_root)
            cold.setup_s, cold.raw_setup_s = setup, raw_setup
            hot = None
            if warm:
                hot = self._execute(requested, replacement, jobs, cache_root)
            return cold, hot
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)

    def _execute(self, requested, replacement, jobs, cache_root) -> Pass:
        gc.collect()

        def batch():
            return execute_cells(requested, jobs=jobs,
                                 cache=DiskCache(cache_root))

        if jobs > 1:
            with Probe() as probe:
                start = time.perf_counter()
                results, report_ = batch()
                raw = time.perf_counter() - start
            scaled = probe.scale(raw)
        else:
            # a probe thread would take the interpreter lock from the
            # simulation running in this process
            (results, report_), raw, scaled = _timed(batch)
        done = Pass(wall_s=scaled, raw_wall_s=raw, report=report_)
        for key, cell in dedup_cells(requested).items():
            done.attempted += 1
            expected = self.cells.get(key, {})
            if key in report_.failures:
                done.fail(cell.label, report_.failures[key].error)
                continue
            result = results[key]
            if cell_digest(result) != expected.get("result"):
                done.fail(cell.label, "differs from the oracle record")
            done.stats.update(flatten(result.stats))
            seconds = report_.cell_seconds.get(key)
            if seconds is not None:
                done.sims.append((seconds * scaled / raw,
                                  expected.get("retired", 0)))
        if self.tables and not done.failed:
            built = canonical(self.suite.build_tables(replacement, results))
            if built != self.tables:
                done.fail("tables", "differ from the oracle tables")
        return done


# -- runs ---------------------------------------------------------------------


@dataclass
class Outcome:
    """What a run prints: its metrics plus the correctness tally."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    detail: dict

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": report(self.metrics),
        }


def _peak_rss_mb(jobs: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if jobs <= 1:
        workers = 0
    return (own + jobs * workers) / 1024.0


def _timed_passes(seconds: float, min_passes: int, run_one) -> list:
    passes = []
    start = time.perf_counter()
    while len(passes) < max(min_passes, 1) or \
            time.perf_counter() - start < seconds:
        passes.append(run_one())
    return passes


def _tally(passes: list[Pass]) -> tuple[int, int]:
    return (sum(p.attempted for p in passes), sum(p.failed for p in passes))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(runner: SimRunner | GridRunner, seconds: float) -> Outcome:
    """Untraced passes for ``seconds``; the end-to-end metrics."""
    min_passes = runner.suite.min_passes
    if isinstance(runner, GridRunner):
        pairs = _timed_passes(
            seconds, min_passes,
            lambda: runner.run_pass(jobs=runner.jobs, warm=True))
        passes = [cold for cold, _hot in pairs]
        checked = passes + [hot for _cold, hot in pairs]
        more_setup = partial(runner.setup, jobs=runner.jobs)
    else:
        passes = _timed_passes(seconds, min_passes, runner.run_pass)
        checked = passes
        more_setup = runner.setup
    setups = [(p.raw_setup_s, p.setup_s) for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(more_setup()[:2])
    if isinstance(runner, GridRunner) and \
            len({len(p.sims) for p in passes}) == 1:
        # each cell contributes its median over the run's passes
        per_cell = [[s / n * 1e9 for s, n in sims if n >= MIN_RETIRED]
                    for sims in zip(*(p.sims for p in passes))]
        per_instr = [median(values) for values in per_cell if values]
        design = len(per_instr)
    else:
        per_instr = [s / n * 1e9 for p in passes for s, n in p.sims
                     if n >= MIN_RETIRED]
        # the percentile follows from the fewest samples a run can have,
        # so it is the same on every run however many passes fit
        design = min_passes * len(per_instr) // len(passes)
    tail_pct, tail_ns = tail(per_instr, design)
    attempted, failed = _tally(checked)
    metrics = {
        "guest_ips": median([p.retired / p.wall_s for p in passes]),
        "wall_s": median([p.wall_s for p in passes]),
        "setup_s": median([scaled for _raw, scaled in setups]),
        "ns_per_instr.p50": median(per_instr),
        "ns_per_instr.tail": tail_ns,
        "cells_per_s": median([len(p.sims) / p.wall_s for p in passes]),
        "peak_rss_mb": _peak_rss_mb(runner.jobs),
    }
    detail = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "ns_per_instr": {"samples": len(per_instr),
                         "tail_percentile": round(tail_pct, 2)},
        "raw_host_seconds": {
            "wall_s": median([p.raw_wall_s for p in passes]),
            "setup_s": median([raw for raw, _scaled in setups]),
            "guest_ips": median([p.retired / p.raw_wall_s
                                 for p in passes]),
        },
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    return Outcome(metrics, attempted, failed, detail)


def per_layer(runner: SimRunner | GridRunner, seconds: float,
              spans_out=None) -> Outcome:
    """Alternating untraced/traced passes plus side passes; layer metrics.

    Span totals (``*.self_s`` and the like) are raw host seconds per
    traced pass.  Ratios between passes (overheads, speed-ups) use
    reference seconds, so host drift between the passes cancels.
    """
    grid = isinstance(runner, GridRunner)

    def in_process(**kwargs) -> Pass:
        # the grid's layer passes run in this process, where spans live
        return runner.run_pass(**kwargs)[0] if grid \
            else runner.run_pass(**kwargs)

    recorder = SpanRecorder()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    # a pair of passes starts only if it should end within ``seconds``
    # (one pair always runs): the side passes that follow take about as
    # long again, and the whole run has to end within run.RUN_LIMIT_S
    start = time.perf_counter()
    pair_s = 0.0
    while not traced or time.perf_counter() - start + pair_s < seconds:
        began = time.perf_counter()
        untraced.append(in_process())
        traced.append(in_process(recorder=recorder))
        pair_s = time.perf_counter() - began
    n = len(traced)
    wall_u = median([p.wall_s for p in untraced])
    wall_t = median([p.wall_s for p in traced])
    raw_t = sum(p.raw_wall_s for p in traced) / n

    tier2_rec = SpanRecorder()
    tier2 = in_process(engine="tier2")
    tier2_spans = in_process(engine="tier2", recorder=tier2_rec,
                             only=TIER2_SPANS)
    checked = untraced + traced + [tier2, tier2_spans]
    if grid:
        cold, hot = runner.run_pass(jobs=runner.jobs, warm=True)
        trace_on = runner.run_pass(jobs=runner.jobs, trace=TraceSpec())[0]
        trace_base = cold.wall_s
        native_s = recorder.total("eval.run_native") / n * wall_t / raw_t
        retired = {cell.workload_name: runner.cells[key]["retired"]
                   for key, cell in dedup_cells(
                       runner.suite.plan(runner.seed)[0]).items()}
        native_retired = sum(retired.values())
        checked += [cold, hot, trace_on]
    else:
        native = runner.native_pass()
        trace_on = runner.run_pass(trace=TraceSpec())
        trace_base = wall_u
        native_s = native.wall_s
        native_retired = native.retired
        cold, hot = untraced[0], None
        checked += [native, trace_on]

    stats: Counter = Counter()
    for p in traced:
        stats.update(p.stats)
    per_pass = {key: value / n for key, value in stats.items()}
    counts = recorder.counts

    sdt_t = recorder.total("sdt.run", "inclusive") / n
    # SDT time of an untraced pass, in reference seconds
    sdt_u = wall_u * _ratio(sdt_t, raw_t)
    ib_self = sum(recorder.total(name) for name in IB_SPANS) / n
    reentry_self = recorder.total("sdt.reentry") / n
    translator_self = recorder.total("translator.translate") / n
    ib_share = _ratio(ib_self, sdt_t)
    translator_share = _ratio(translator_self, sdt_t)
    loop_s = sdt_u * (1 - ib_share - translator_share
                      - _ratio(reentry_self, sdt_t)) - native_s
    fragments = counts["vm.fragments"] / n
    reentries = per_pass.get("translator_reentries", 0)
    translated = per_pass.get("fragments_translated", 0)

    m: dict[str, float] = {
        "lang.compile_s": recorder.total("lang.compile", "inclusive") / n,
        "isa.assemble_s": recorder.total("isa.assemble", "inclusive") / n,
        "analysis.targets_s":
            recorder.total("analysis.targets", "inclusive") / n,
        "machine.native_s": native_s,
        "machine.native_ns_per_instr":
            _ratio(native_s, native_retired) * 1e9,
        "vm.fragments": fragments,
        "vm.instrs_per_fragment": _ratio(counts["sdt.retired"] / n,
                                         fragments),
        "vm.loop_s": loop_s,
        "vm.ns_per_fragment": _ratio(loop_s, fragments) * 1e9,
        "vm.host_overhead": _ratio(sdt_u, native_s),
        "ib.self_s": ib_self,
        "ib.self_share": ib_share,
        "ib.reentries": reentries,
        "ib.reentry_ns": _ratio(reentry_self, reentries) * 1e9,
        "translator.fragments": translated,
        "translator.instrs": per_pass.get("instrs_translated", 0),
        "translator.self_s": translator_self,
        "translator.us_per_fragment":
            _ratio(translator_self, translated) * 1e6,
        "translator.self_share": translator_share,
        "cache.flushes": per_pass.get("cache_flushes", 0),
        "cache.invalidated": recorder.calls("cache.invalidate") / n,
        "cache.flush_s": (recorder.total("cache.flush")
                          + recorder.total("cache.invalidate")) / n,
        "coherence.code_writes": per_pass.get("coherence.code_writes", 0),
        "coherence.fragments_invalidated":
            per_pass.get("coherence.fragments_invalidated", 0),
        "host.calls_per_kinstr":
            _ratio(counts["host.calls.sdt"], counts["sdt.retired"]) * 1e3,
        "tier2.promotions": tier2.stats.get("tier2.promote", 0),
        "tier2.deopts": sum(value for key, value in tier2.stats.items()
                            if key.startswith("tier2.deopt.")),
        "tier2.promote_s": tier2_rec.total("tier2.promote"),
        "tier2.region_s": tier2_rec.total("tier2.execute"),
        "tier2.speedup_vs_threaded": _ratio(wall_u, tier2.wall_s),
        "trace.enabled_overhead": _ratio(trace_on.wall_s, trace_base) - 1,
        "bench.span_overhead": _ratio(wall_t, wall_u) - 1,
    }
    for kind in ("ijump", "icall", "ret"):
        m[f"ib.dispatches.{kind}"] = per_pass.get(f"ib_dispatches.{kind}", 0)
    ns, dispatches = _ib_by_config(recorder)
    for name in CONFIG_NAMES:
        m[f"ib.ns_per_dispatch.{name}"] = _ratio(ns[name], dispatches[name])
    for family in HIT_RATE_FAMILIES:
        prefix = f"mechanism.{family}"
        hits = sum(v for k, v in stats.items()
                   if k.startswith(prefix) and k.endswith(".hit"))
        misses = sum(v for k, v in stats.items()
                     if k.startswith(prefix) and k.endswith((".miss", ".cold")))
        m[f"ib.hit_rate.{family}"] = _ratio(hits, hits + misses)

    cell_s = [s for s, _n in cold.sims]
    busy = sum(cell_s)
    jobs = runner.jobs
    tail_pct, cell_tail = tail(cell_s)
    m.update({
        "eval.dedup_ratio":
            _ratio(cold.report.requested, cold.report.unique) if grid
            else 1.0,
        "eval.cell_s.p50": median(cell_s),
        "eval.cell_s.tail": cell_tail,
        "eval.worker_busy": _ratio(busy, jobs * cold.wall_s),
        "eval.sched_s": cold.wall_s - busy / jobs,
        "eval.native_share":
            _ratio(recorder.total("eval.run_native"),
                   recorder.total("eval.measure", "inclusive")),
        "diskcache.hit_rate": hot.report.hit_rate if hot else 0.0,
        "diskcache.warm_s": hot.wall_s if hot else 0.0,
    })
    if spans_out is not None:
        recorder.write(spans_out)
    attempted, failed = _tally(checked)
    detail = {
        "untraced_passes": len(untraced),
        "traced_passes": n,
        "spans": len(recorder.spans),
        "eval.cell_s": {"samples": len(cell_s),
                        "tail_percentile": round(tail_pct, 2)},
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    return Outcome(m, attempted, failed, detail)


def _ib_by_config(recorder: SpanRecorder):
    """IB self ns and dispatch count per headline config.

    A dispatch is an IB span not nested in another IB span (a return
    routed through the generic mechanism is one dispatch, not two).
    """
    ns: Counter = Counter()
    dispatches: Counter = Counter()
    spans = recorder.spans
    for name, _start, _end, parent, run_id, self_ns in spans:
        if name not in IB_SPANS:
            continue
        config = recorder.runs.get(run_id)
        if config is None:
            continue
        ns[config] += self_ns
        if parent < 0 or spans[parent][0] not in IB_SPANS:
            dispatches[config] += 1
    return ns, dispatches


def make_runner(suite: SimSuite | GridSuite, seed: int, expected: dict):
    if isinstance(suite, GridSuite):
        return GridRunner(suite, seed, expected)
    return SimRunner(suite, seed, expected)
