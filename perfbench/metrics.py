"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

from perfbench.suites import CONFIG_NAMES

#: ``(name, unit, better, bound)``: bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = (
    ("guest_ips", "1/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("ns_per_instr.p50", "ns", "lower", 0.25),
    ("ns_per_instr.tail", "ns", "lower", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Mechanism families whose hit rate is reported (SDTStats key prefixes).
HIT_RATE_FAMILIES = ("ibtc", "sieve", "fast-return", "shadow-stack",
                     "return-cache")

#: ``(name, unit, better)`` of every per-layer metric (traced runs).
PER_LAYER = (
    ("lang.compile_s", "s", "lower"),
    ("isa.assemble_s", "s", "lower"),
    ("analysis.targets_s", "s", "lower"),
    ("machine.native_s", "s", "lower"),
    ("machine.native_ns_per_instr", "ns", "lower"),
    ("vm.fragments", "count", "lower"),
    ("vm.instrs_per_fragment", "count", "higher"),
    ("vm.loop_s", "s", "lower"),
    ("vm.ns_per_fragment", "ns", "lower"),
    ("vm.host_overhead", "ratio", "lower"),
    ("ib.dispatches.ijump", "count", "lower"),
    ("ib.dispatches.icall", "count", "lower"),
    ("ib.dispatches.ret", "count", "lower"),
    ("ib.self_s", "s", "lower"),
    ("ib.self_share", "ratio", "lower"),
    *((f"ib.ns_per_dispatch.{name}", "ns", "lower")
      for name in CONFIG_NAMES),
    *((f"ib.hit_rate.{family}", "ratio", "higher")
      for family in HIT_RATE_FAMILIES),
    ("ib.reentries", "count", "lower"),
    ("ib.reentry_ns", "ns", "lower"),
    ("translator.fragments", "count", "lower"),
    ("translator.instrs", "count", "lower"),
    ("translator.self_s", "s", "lower"),
    ("translator.us_per_fragment", "us", "lower"),
    ("translator.self_share", "ratio", "lower"),
    ("cache.flushes", "count", "lower"),
    ("cache.invalidated", "count", "lower"),
    ("cache.flush_s", "s", "lower"),
    ("coherence.code_writes", "count", "lower"),
    ("coherence.fragments_invalidated", "count", "lower"),
    ("host.calls_per_kinstr", "count", "lower"),
    ("tier2.promotions", "count", "higher"),
    ("tier2.deopts", "count", "lower"),
    ("tier2.promote_s", "s", "lower"),
    ("tier2.region_s", "s", "lower"),
    ("tier2.speedup_vs_threaded", "ratio", "higher"),
    ("eval.dedup_ratio", "ratio", "higher"),
    ("eval.cell_s.p50", "s", "lower"),
    ("eval.cell_s.tail", "s", "lower"),
    ("eval.worker_busy", "ratio", "higher"),
    ("eval.sched_s", "s", "lower"),
    ("eval.native_share", "ratio", "lower"),
    ("diskcache.hit_rate", "ratio", "higher"),
    ("diskcache.warm_s", "s", "lower"),
    ("trace.enabled_overhead", "ratio", "lower"),
    ("bench.span_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def report(values: dict[str, float]) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` in declaration order."""
    return {
        name: {"value": values[name], "unit": UNITS[name]}
        for name in UNITS if name in values
    }
