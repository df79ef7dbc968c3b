#!/usr/bin/env python3
"""CI guard for the parallel executor and disk-cache keying.

Runs the representative E6 grid at tiny scale four times:

1. serial, no cache          — the reference table,
2. ``--jobs 2``, cold cache  — must produce byte-identical CSV output,
3. ``--jobs 2``, warm cache  — must be served >= 90% from the disk cache
                               and still match byte-for-byte,
4. ``--jobs 8``, no cache    — E6 has 12 programs, fewer than the 16
                               tasks 8 workers are fed, so the executor
                               splits program tasks; must still match.

A keying bug (a field missing from the fingerprint, fuel aliasing, a
nondeterministic row order) breaks one of these invariants.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

CSV_NAME = "e6_mechanism_comparison.csv"
MIN_HIT_RATE = 0.90


def main() -> int:
    from repro.eval.diskcache import DiskCache
    from repro.eval.parallel import run_experiments
    from repro.eval.runner import clear_caches

    workdir = Path(tempfile.mkdtemp(prefix="repro-cache-check-"))
    cache = DiskCache(workdir / "cache")

    _t, serial = run_experiments(["e6"], scale="tiny", jobs=1,
                                 results_dir=workdir / "serial")
    print(f"serial:        {serial.computed} simulated "
          f"in {serial.elapsed:.1f}s", flush=True)

    clear_caches()
    _t, cold = run_experiments(["e6"], scale="tiny", jobs=2, cache=cache,
                               results_dir=workdir / "cold")
    print(f"jobs=2 cold:   {cold.computed} simulated, "
          f"{cold.cache_hits} cached in {cold.elapsed:.1f}s", flush=True)

    clear_caches()
    _t, warm = run_experiments(["e6"], scale="tiny", jobs=2, cache=cache,
                               results_dir=workdir / "warm")
    print(f"jobs=2 warm:   {warm.computed} simulated, "
          f"{warm.cache_hits}/{warm.unique} cached "
          f"({warm.hit_rate:.0%}) in {warm.elapsed:.1f}s", flush=True)

    clear_caches()
    _t, split = run_experiments(["e6"], scale="tiny", jobs=8,
                                results_dir=workdir / "split")
    print(f"jobs=8 cold:   {split.computed} simulated "
          f"in {split.elapsed:.1f}s", flush=True)

    reference = (workdir / "serial" / CSV_NAME).read_bytes()
    failures = []
    for label in ("cold", "warm", "split"):
        if (workdir / label / CSV_NAME).read_bytes() != reference:
            failures.append(
                f"{label} parallel run produced different {CSV_NAME} "
                f"bytes than the serial run"
            )
    if warm.hit_rate < MIN_HIT_RATE:
        failures.append(
            f"warm pass hit rate {warm.hit_rate:.0%} is below the "
            f"{MIN_HIT_RATE:.0%} floor — cache keying or persistence "
            f"is broken"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: parallel output byte-identical; warm pass "
              f"{warm.hit_rate:.0%} cache-served")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
