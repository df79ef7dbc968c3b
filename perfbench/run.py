"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ib-dense --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` gives
the end-to-end metrics and ``--trace 1`` the per-layer ones.  The line
before it carries details (pass and sample counts, tail percentiles,
``failed_frac``).  Progress and failures go to standard error.

The run first makes sure an oracle-derived expected record exists for the
seed (deriving it, untimed, in a child process if not), then measures in a
fresh child process, so neither the derivation's memory nor its warm caches
reach the figures.  Each child runs in a process group of its own; the run
adopts orphaned descendants (Linux child subreaper) and does not exit until
every process it started, directly or not, has ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Pinned so the environment cannot change what is measured.
PINNED_ENV = {"REPRO_ENGINE": "threaded", "REPRO_FAULTS": "off",
              "REPRO_TRACE": "off"}

#: Every run must end within this many seconds.
RUN_LIMIT_S = 175.0

#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36

#: How long descendants get to end by themselves once a child has exited.
REAP_GRACE_S = 5.0


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: perfbench.seeds."
                             "DEFAULT_SEED, the committed guest inputs)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--size", choices=("full", "test"), default="full",
                        help="test: shrunken workloads for perfbench's tests")
    parser.add_argument("--expected", type=Path, default=None,
                        help=argparse.SUPPRESS)   # set for the child
    parser.add_argument("--derive", action="store_true",
                        help=argparse.SUPPRESS)   # set for the child
    return parser.parse_args(argv)


def _prepare() -> None:
    os.environ.update(PINNED_ENV)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _measure(args: argparse.Namespace) -> int:
    """Child side: time the workload against the given expected record."""
    from perfbench import measure
    from perfbench.expected import WORK_DIR
    from perfbench.suites import get_suite

    suite = get_suite(args.workload, args.size)
    expected = json.loads(args.expected.read_text())
    runner = measure.make_runner(suite, args.seed, expected)
    if args.trace:
        spans = WORK_DIR / f"spans-{args.workload}-{args.size}.csv.gz"
        outcome = measure.per_layer(runner, args.seconds, spans_out=spans)
    else:
        outcome = measure.end_to_end(runner, args.seconds)
    print(json.dumps({"detail": outcome.detail}))
    print(json.dumps(outcome.result()))
    return 0


def _derive(args: argparse.Namespace) -> int:
    """Child side: print the path of a valid expected record."""
    from perfbench import expected
    from perfbench.suites import get_suite

    suite = get_suite(args.workload, args.size)
    print(expected.ensure(suite, args.size, args.seed))
    return 0


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so that :func:`_reap` can wait for them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass   # not Linux: only direct children are waited for


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _children() -> list[int]:
    """Pids of this process's live children (Linux), adopted ones too."""
    pids = []
    for task in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(pid) for pid in task.read_text().split())
        except OSError:
            continue
    return pids


def _reap(grace_s: float) -> None:
    """Wait for every child; after ``grace_s`` seconds, kill those left."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _run_child(argv: list[str], budget_s: float) -> tuple[int, str] | None:
    """``(exit code, stdout)`` of a child run, or None if it ran out of time.

    The child leads a process group of its own; whatever is left of the
    group when the child ends (a multiprocessing resource tracker, a pool
    worker) is killed, and every descendant is waited for.
    """
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, process_group=0)
    try:
        out, _err = child.communicate(timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(child.pid)
        child.communicate()
        return None
    finally:
        _kill_group(child.pid)
        _reap(REAP_GRACE_S)
    return child.returncode, out


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    _prepare()
    from perfbench import seeds
    from perfbench.suites import get_suite

    if args.seed is None:
        args.seed = seeds.DEFAULT_SEED
    try:
        seeds.rng_state(args.seed)
        get_suite(args.workload, args.size)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.derive:
        return _derive(args)
    if args.expected is not None:
        return _measure(args)

    _become_subreaper()
    base = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size]
    derived = _run_child(base + ["--derive"],
                         RUN_LIMIT_S - (time.monotonic() - started))
    if derived is None:
        print("error: deriving the expected record did not finish in time",
              file=sys.stderr)
        return 3
    code, out = derived
    if code != 0:
        print("error: deriving the expected record failed", file=sys.stderr)
        return code
    record = out.strip().splitlines()[-1]
    measured = _run_child(base + ["--expected", record],
                          RUN_LIMIT_S - (time.monotonic() - started))
    if measured is None:
        print("error: measurement did not finish in time", file=sys.stderr)
        return 3
    code, out = measured
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
