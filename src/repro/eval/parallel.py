"""Parallel + persistent experiment executor.

Fans deduplicated experiment cells across a process pool
(:class:`concurrent.futures.ProcessPoolExecutor`), optionally backed by
the on-disk result cache in :mod:`repro.eval.diskcache`.  Determinism is
structural: results are collected into a mapping keyed by cell
fingerprint and each experiment's ``build`` assembles its table in
declared cell order, so tables (and the CSVs written from them) are
byte-identical whatever the worker count or completion order.

Flow per batch: dedup cells by fingerprint (first-seen order), serve
what the disk cache already has, dispatch only the misses (serially
in-process when ``jobs <= 1``; otherwise one pool task per program, so
each program is compiled, analysed and baselined once, by one worker's
memo caches), then persist every newly computed result from the parent
— workers never write the cache, which keeps persistence single-writer
and atomic.

The executor is *hardened*: a cell that raises is retried with
exponential backoff and then quarantined; a worker process that dies
(segfault, ``os._exit``, OOM-kill) breaks only the cells that were in
flight, not the run — the pool is rebuilt and the survivors resubmitted;
a per-cell watchdog ``timeout`` turns a hung worker into a terminated
process and a quarantined cell.  Failures land in
:attr:`ExecutionReport.failures` in declared cell order, so a degraded
batch still yields a byte-deterministic partial report.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.eval.backoff import Backoff, BackoffPolicy
from repro.eval.cells import Cell
from repro.eval.diskcache import DiskCache

#: Progress callback: called once per unique cell as its result lands
#: (a cache hit at lookup, a computed cell when it is harvested, a failed
#: one when it is quarantined), so events arrive in completion order.
ProgressFn = Callable[["CellEvent"], None]

#: Default bounded-retry budget: attempts beyond the first per cell.
DEFAULT_RETRIES = 2

#: Default base of the exponential inter-round backoff, in seconds.
DEFAULT_BACKOFF = 0.25

#: Ceiling on any single backoff sleep, in seconds.
MAX_BACKOFF = 30.0


def _backoff_policy(backoff: "float | BackoffPolicy") -> BackoffPolicy:
    """Normalise the executor's ``backoff`` argument to a policy."""
    if isinstance(backoff, BackoffPolicy):
        return backoff
    return BackoffPolicy(base=float(backoff), ceiling=MAX_BACKOFF)


@dataclass(frozen=True)
class CellEvent:
    """One unique cell finished (served from cache, simulated or failed)."""

    index: int          #: 1-based declared position among unique cells
    total: int          #: unique cell count in this batch
    label: str          #: human-readable cell identity
    source: str         #: ``"cache"``, ``"run"`` or ``"failed"``
    seconds: float      #: simulation wall time (0.0 for cache hits)


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: its retry budget is spent, the batch goes on."""

    key: str            #: the cell's fingerprint digest
    label: str          #: human-readable cell identity
    kind: str           #: ``"error"``, ``"timeout"`` or ``"crash"``
    attempts: int       #: executions charged against the cell
    error: str          #: stable one-line description of the last failure


class MissingCellResult(KeyError):
    """An experiment table asked for a cell that failed (or was never run)."""


@dataclass
class ExecutionReport:
    """Accounting for one executor batch."""

    requested: int = 0      #: cells asked for, including duplicates
    unique: int = 0         #: cells after fingerprint dedup
    cache_hits: int = 0     #: unique cells served from the disk cache
    computed: int = 0       #: unique cells actually simulated
    elapsed: float = 0.0    #: wall time for the whole batch
    cell_seconds: dict[str, float] = field(default_factory=dict)
    retries: int = 0        #: re-executions granted across all cells
    #: quarantined cells by key, in declared (deduped) cell order
    failures: dict[str, CellFailure] = field(default_factory=dict)
    #: degraded experiments: name -> sorted labels of its failed cells
    degraded: dict[str, list[str]] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Disk-cache hit rate over unique cells (0.0 for empty batches)."""
        return self.cache_hits / self.unique if self.unique else 0.0

    @property
    def ok(self) -> bool:
        """True when every requested cell produced a result."""
        return not self.failures


def dedup_cells(cells: Iterable[Cell]) -> dict[str, Cell]:
    """Unique cells keyed by fingerprint digest, in first-seen order."""
    unique: dict[str, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.key(), cell)
    return unique


#: One worker task: ``(key, cell)`` pairs run in order by one process.
Task = list[tuple[str, Cell]]


def _execute_task(cells: list[Cell]) -> list[tuple[bool, object, float]]:
    """Worker entry point: run ``cells`` in order, one outcome each.

    An outcome is ``(True, result, seconds)`` or ``(False, exception,
    seconds)``: a cell that raises does not stop the cells after it.
    """
    outcomes: list[tuple[bool, object, float]] = []
    for cell in cells:
        start = time.perf_counter()
        try:
            ok, value = True, cell.execute()
        except Exception as exc:
            ok, value = False, exc
        outcomes.append((ok, value, time.perf_counter() - start))
    return outcomes


def _program_tasks(pending: list[tuple[str, Cell]], jobs: int) -> list[Task]:
    """First-round tasks: one per program, split to feed ``jobs`` workers.

    Cells are grouped by ``workload_name`` (groups in first-seen order,
    cells in declared order), so one worker's memo caches compile,
    analyse and baseline each program once.  A cell without a
    ``workload_name`` is a group of its own.  While there are fewer than
    ``2 * jobs`` groups, the largest (the first, on ties) is split into
    two halves in place, until there are ``2 * jobs`` groups or every
    group is one cell.
    """
    tasks: list[Task] = []
    by_program: dict[str, Task] = {}
    for key, cell in pending:
        name = getattr(cell, "workload_name", None)
        if name is None:
            tasks.append([(key, cell)])
        elif name in by_program:
            by_program[name].append((key, cell))
        else:
            by_program[name] = [(key, cell)]
            tasks.append(by_program[name])
    while tasks and len(tasks) < 2 * jobs:
        index = max(range(len(tasks)), key=lambda i: len(tasks[i]))
        task = tasks[index]
        if len(task) < 2:
            break
        half = (len(task) + 1) // 2
        tasks[index:index + 1] = [task[:half], task[half:]]
    return tasks


def _stable_error(exc: BaseException) -> str:
    """One-line, reproducible rendering of a failure (no addresses)."""
    text = str(exc).strip().splitlines()
    return f"{type(exc).__name__}: {text[0] if text else ''}".rstrip(": ")


def _shutdown_pool(pool: ProcessPoolExecutor, force: bool) -> None:
    """Dispose of a pool; ``force`` also terminates hung worker processes."""
    if not force:
        pool.shutdown(wait=True)
        return
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
        except Exception:
            pass  # already reaped, or not ours to kill


def _run_serial(
    pending: list[tuple[str, Cell]],
    retries: int,
    policy: BackoffPolicy,
    finish: Callable[[str, Cell, object, float], None],
    fail: Callable[[str, Cell, str, int, BaseException], None],
    report: ExecutionReport,
) -> None:
    """In-process execution with bounded retry (no watchdog possible)."""
    for key, cell in pending:
        pacer = Backoff(policy, token=key)
        for attempt in range(1, retries + 2):
            [(ok, value, seconds)] = _execute_task([cell])
            if ok:
                finish(key, cell, value, seconds)
            elif attempt <= retries:
                report.retries += 1
                pacer.sleep()
                continue
            else:
                fail(key, cell, "error", attempt, value)
            break


def _run_pooled(
    pending: list[tuple[str, Cell]],
    jobs: int,
    timeout: float | None,
    retries: int,
    policy: BackoffPolicy,
    finish: Callable[[str, Cell, object, float], None],
    fail: Callable[[str, Cell, str, int, BaseException], None],
    report: ExecutionReport,
    mp_context=None,
) -> None:
    """Process-pool execution with watchdog, retry and crash recovery.

    Runs in *rounds*: each round owns a fresh pool and submits *tasks*,
    each a list of cells one worker runs in order.  The first round is
    program-affine (see :func:`_program_tasks`), so a worker compiles,
    analyses and baselines each of its programs once; with a
    ``timeout``, and in every retry round, each task is a single cell,
    so the watchdog and the blame below stay per cell.  A cell that
    raises is charged alone: the worker reports it and goes on to its
    task's next cell.

    A round ends early when a worker hangs past ``timeout`` (the pool is
    torn down and its processes terminated) or dies
    (``BrokenProcessPool``).  Tasks that finished before the incident
    keep their results; every cell of a task in flight during a crash is
    charged an attempt (one of them is the killer, and the innocents,
    siblings in the killer's task included, win their retries in the
    next, singleton round); cells that merely lost their pool to someone
    else's timeout are resubmitted free of charge.
    """
    attempts: dict[str, int] = {key: 0 for key, _ in pending}
    if timeout is None:
        tasks = _program_tasks(pending, jobs)
    else:
        tasks = [[item] for item in pending]
    pacer = Backoff(policy)
    while tasks:
        retry_queue: list[tuple[str, Cell]] = []
        dead = False        # pool unusable for the rest of this round
        blame_rest = False  # crash round: unfinished cells are charged

        def charge(task: Task, kind: str, exc: BaseException) -> None:
            for key, cell in task:
                attempts[key] += 1
                if attempts[key] <= retries:
                    report.retries += 1
                    retry_queue.append((key, cell))
                else:
                    fail(key, cell, kind, attempts[key], exc)

        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=mp_context)
        try:
            submitted: list[tuple[Task, object]] = []
            try:
                for task in tasks:
                    cells = [cell for _key, cell in task]
                    submitted.append(
                        (task, pool.submit(_execute_task, cells))
                    )
            except BrokenProcessPool:
                dead = blame_rest = True
            for task, future in submitted:
                if dead and (not future.done() or future.cancelled()):
                    # pool is gone: reschedule what did not finish
                    future.cancel()
                    if blame_rest:
                        charge(task, "crash",
                               BrokenProcessPool("worker pool died"))
                    else:
                        retry_queue.extend(task)
                    continue
                try:
                    outcomes = future.result(timeout=0 if dead else timeout)
                except FuturesTimeout:
                    dead = True
                    charge(task, "timeout", TimeoutError(
                        f"no result within {timeout:g}s "
                        f"(worker terminated)"
                    ))
                    continue
                except BrokenProcessPool as exc:
                    if not dead:
                        dead = blame_rest = True
                    if blame_rest:
                        charge(task, "crash", exc)
                    else:
                        retry_queue.extend(task)
                    continue
                except Exception as exc:
                    charge(task, "error", exc)
                    continue
                for item, (ok, value, seconds) in zip(task, outcomes):
                    if ok:
                        finish(*item, value, seconds)
                    else:
                        charge([item], "error", value)
            # cells we never managed to submit: free retry
            for task in tasks[len(submitted):]:
                retry_queue.extend(task)
        finally:
            _shutdown_pool(pool, force=dead)
        if retry_queue:
            pacer.sleep()
        tasks = [[item] for item in retry_queue]


def execute_cells(
    cells: Iterable[Cell],
    jobs: int = 1,
    cache: DiskCache | None = None,
    progress: ProgressFn | None = None,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    backoff: "float | BackoffPolicy" = DEFAULT_BACKOFF,
    mp_context=None,
) -> tuple[dict[str, object], ExecutionReport]:
    """Execute a batch of cells; returns ``(results_by_key, report)``.

    ``results_by_key`` maps every requested cell's :meth:`Cell.key` to
    its result (duplicates share one entry); cells listed in
    ``report.failures`` have no entry.  ``jobs <= 1`` runs serially
    in-process; larger values fan misses across that many worker
    processes.  ``timeout`` is the per-cell watchdog in seconds (it
    forces pool execution even for ``jobs == 1``, since a hung cell can
    only be killed from outside its process) — external callers with
    their own deadlines, e.g. the serve daemon, pass the remaining
    deadline here so a client timeout *kills* the worker instead of
    orphaning it; ``retries`` bounds re-execution of failing cells, with
    exponential ``backoff`` (a base in seconds, or a full
    :class:`repro.eval.backoff.BackoffPolicy`) between rounds.
    Uncacheable cells (fault-injected measurements) skip the disk cache
    in both directions.  ``mp_context`` selects the multiprocessing
    start method for worker pools (default: the platform's) — callers
    that execute from a *multithreaded* process (the serve daemon's
    dispatcher thread) must pass a fork-safe context such as
    ``forkserver``, because fork-starting workers from a threaded parent
    can deadlock the child.
    """
    start = time.perf_counter()
    cell_list = list(cells)
    unique = dedup_cells(cell_list)
    report = ExecutionReport(requested=len(cell_list), unique=len(unique))
    results: dict[str, object] = {}
    failed: dict[str, CellFailure] = {}

    position = {key: index for index, key in enumerate(unique, start=1)}

    def emit(key: str, cell: Cell, source: str, seconds: float) -> None:
        if progress is not None:
            progress(CellEvent(
                index=position[key], total=len(unique), label=cell.label,
                source=source, seconds=seconds,
            ))

    pending: list[tuple[str, Cell]] = []
    for key, cell in unique.items():
        cacheable = getattr(cell, "cacheable", True)
        cached = cache.get(cell) if cache is not None and cacheable else None
        if cached is not None:
            results[key] = cached
            report.cache_hits += 1
            emit(key, cell, "cache", 0.0)
        else:
            pending.append((key, cell))

    def finish(key: str, cell: Cell, result: object, seconds: float) -> None:
        results[key] = result
        report.computed += 1
        report.cell_seconds[key] = seconds
        if cache is not None and getattr(cell, "cacheable", True):
            cache.put(cell, result)
        emit(key, cell, "run", seconds)

    def fail(key: str, cell: Cell, kind: str, attempts: int,
             exc: BaseException) -> None:
        failed[key] = CellFailure(
            key=key, label=cell.label, kind=kind, attempts=attempts,
            error=_stable_error(exc),
        )
        emit(key, cell, "failed", 0.0)

    if pending:
        policy = _backoff_policy(backoff)
        if jobs > 1 or timeout is not None:
            _run_pooled(pending, max(1, jobs), timeout, retries, policy,
                        finish, fail, report, mp_context=mp_context)
        else:
            _run_serial(pending, retries, policy, finish, fail, report)

    # deterministic failure order: declared (deduped) cell order, not
    # the completion order the incident happened to produce
    report.failures = {
        key: failed[key] for key in unique if key in failed
    }

    report.elapsed = time.perf_counter() - start
    return results, report


# -- experiment-level entry points --------------------------------------------


def plan_cells(
    names: Iterable[str], scale: str
) -> tuple[dict[str, list[Cell]], dict[str, Cell]]:
    """Cell lists per experiment plus the cross-experiment unique set.

    The unique set is what actually gets dispatched: shared cells (the
    ``ibtc(shared,4096)`` column appears in E3, E6 and E7, E9 reuses the
    whole E3 grid, …) are simulated once.
    """
    from repro.eval.experiments import EXPERIMENT_SPECS

    per_experiment: dict[str, list[Cell]] = {}
    for name in names:
        try:
            spec = EXPERIMENT_SPECS[name]
        except KeyError:
            raise KeyError(
                f"unknown experiment {name!r}; "
                f"available: {sorted(EXPERIMENT_SPECS)}"
            ) from None
        per_experiment[name] = spec.cells(scale)
    unique = dedup_cells(
        cell for cells in per_experiment.values() for cell in cells
    )
    return per_experiment, unique


def run_experiments(
    names: Iterable[str],
    scale: str | None = None,
    jobs: int = 1,
    cache: DiskCache | None = None,
    progress: ProgressFn | None = None,
    results_dir: Path | None = None,
    write: bool = True,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    backoff: "float | BackoffPolicy" = DEFAULT_BACKOFF,
) -> tuple[dict[str, tuple[list[str], list[list[object]]]], ExecutionReport]:
    """Run experiment drivers on the shared executor.

    Cells are deduplicated *across* the selected experiments before
    dispatch.  Each experiment's table is then assembled in its declared
    cell order and (by default) persisted via
    :func:`repro.eval.report.write_results`.  Returns
    ``({name: (headers, rows)}, report)``.

    Degraded mode: when cells fail despite the executor's retries, the
    experiments that needed them get a deterministic placeholder table
    (naming each failed cell, in sorted order) instead of a partial
    results file — their on-disk results are left untouched — and are
    listed in ``report.degraded``.  Experiments whose cells all
    succeeded are built and written normally.
    """
    from repro.eval.experiments import EXPERIMENT_SPECS, bench_scale
    from repro.eval.report import write_results

    names = list(names)
    scale = scale or bench_scale()
    per_experiment, _unique = plan_cells(names, scale)
    all_cells = [
        cell for cells in per_experiment.values() for cell in cells
    ]
    results, report = execute_cells(
        all_cells, jobs=jobs, cache=cache, progress=progress,
        timeout=timeout, retries=retries, backoff=backoff,
    )

    tables: dict[str, tuple[list[str], list[list[object]]]] = {}
    for name in names:
        spec = EXPERIMENT_SPECS[name]

        failed_labels = sorted({
            report.failures[cell.key()].label
            for cell in per_experiment[name]
            if cell.key() in report.failures
        })
        if failed_labels:
            report.degraded[name] = failed_labels
            headers = ["experiment", "status"]
            rows: list[list[object]] = [
                [name, f"DEGRADED: {len(failed_labels)} cell(s) failed"]
            ]
            rows.extend([name, f"failed: {label}"]
                        for label in failed_labels)
            tables[name] = (headers, rows)
            continue

        def lookup(cell: Cell) -> object:
            try:
                return results[cell.key()]
            except KeyError:
                raise MissingCellResult(cell.label) from None

        headers, rows = spec.build(lookup, scale)
        if write:
            write_results(spec.slug, spec.title(scale), headers, rows,
                          results_dir=results_dir)
        tables[name] = (headers, rows)
    return tables, report


def run_experiment(
    name: str,
    scale: str | None = None,
    jobs: int = 1,
    cache: DiskCache | None = None,
    progress: ProgressFn | None = None,
    results_dir: Path | None = None,
    write: bool = True,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    backoff: "float | BackoffPolicy" = DEFAULT_BACKOFF,
) -> tuple[list[str], list[list[object]]]:
    """Single-experiment convenience wrapper around :func:`run_experiments`."""
    tables, _report = run_experiments(
        [name], scale=scale, jobs=jobs, cache=cache, progress=progress,
        results_dir=results_dir, write=write,
        timeout=timeout, retries=retries, backoff=backoff,
    )
    return tables[name]


__all__ = [
    "CellEvent",
    "CellFailure",
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "ExecutionReport",
    "MissingCellResult",
    "dedup_cells",
    "execute_cells",
    "plan_cells",
    "run_experiment",
    "run_experiments",
]
