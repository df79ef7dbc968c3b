"""Expected results, derived from the oracle engine and stored per seed.

A timed run is correct only if every simulation it makes reproduces the
record the *oracle* engine (:mod:`repro.machine.executor`, the semantic
reference) produced for the same guest program, config and seed.  The
engine under test never writes a record, so a faster engine that changes
any simulated statistic shows up as a failure, not as a gain.

- Simulation suites keep one record per (program, config): output, exit
  code, retired count, total cycles and the per-category cycle breakdown.
- The cell grid keeps, per unique cell, a digest of the whole encoded
  result (:func:`repro.eval.cells.encode_result`) and the program's retired
  count, plus the experiments' built tables.

Records ship in ``perfbench/expected/`` for seeds 0-10.  Any other
seed is derived on first use, untimed, and kept in ``perfbench/.work/``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.eval.cells import Cell, encode_result
from repro.eval.runner import run_native
from repro.sdt.config import SDTConfig
from repro.sdt.vm import SDTRunResult, SDTVM
from repro.workloads import Workload

from perfbench.suites import FUEL, GridSuite, SimSuite, pin

HERE = Path(__file__).resolve().parent
STORED_DIR = HERE / "expected"
WORK_DIR = HERE / ".work"

#: Worker processes used to derive records.
ORACLE_JOBS = 2

#: Bumped whenever the record layout or digest changes.
FORMAT = 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_record(result: SDTRunResult) -> dict:
    """The fields a simulation must reproduce exactly."""
    return {
        "output": result.output,
        "exit_code": result.exit_code,
        "retired": result.retired,
        "total_cycles": result.total_cycles,
        "breakdown": dict(sorted(result.cycles.items())),
    }


def cell_digest(result: object) -> str:
    """Digest of a cell result's complete encoding.

    Tier-2 promotion counters are left out: they describe the engine, not
    the simulated machine, so every engine must match one digest.
    """
    payload = encode_result(result)
    payload["data"].get("stats", {}).pop("tier2", None)
    return digest(json.dumps(payload, sort_keys=True))


def sim_key(program: str, label: str) -> str:
    return f"{program}/{label}"


def _oracle_sim(workload: Workload, config: SDTConfig) -> dict:
    vm = SDTVM(workload.compile(), config=pin(config, engine="oracle"))
    return sim_record(vm.run(FUEL))


def _oracle_cell(cell: Cell) -> tuple[str, object, int]:
    oracle = Cell(kind=cell.kind, workload=cell.workload, scale=cell.scale,
                  fuel=cell.fuel, config=pin(cell.config, engine="oracle"))
    result = oracle.execute()
    native = run_native(cell.resolve(), cell.config.profile,
                        scale=cell.scale, fuel=cell.fuel, engine="oracle")
    return cell.key(), result, native.retired


def _pool() -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=ORACLE_JOBS,
        mp_context=multiprocessing.get_context("spawn"),
    )


def derive_sims(suite: SimSuite, seed: int) -> dict:
    workloads = suite.workloads(seed)
    configs = dict(suite.configs)
    with _pool() as pool:
        futures = {
            sim_key(program, label): pool.submit(
                _oracle_sim, workloads[program], configs[label])
            for program, label in suite.sims()
        }
        records = {key: future.result() for key, future in futures.items()}
    return {
        "programs": {name: digest(w.source) for name, w in workloads.items()},
        "records": records,
    }


def derive_grid(suite: GridSuite, seed: int) -> dict:
    requested, replacement = suite.plan(seed)
    unique = list({cell.key(): cell for cell in requested}.values())
    # longest cells first, so the two workers finish together
    unique.sort(key=lambda cell: cell.config.coherence == "none")
    with _pool() as pool:
        outcomes = list(pool.map(_oracle_cell, unique))
    results = {key: result for key, result, _retired in outcomes}
    return {
        "cells": {
            key: {"result": cell_digest(result), "retired": retired}
            for key, result, retired in outcomes
        },
        "tables": canonical(suite.build_tables(replacement, results)),
    }


def canonical(value):
    """JSON round trip, so fresh and stored values compare equal."""
    return json.loads(json.dumps(value))


def _file_name(suite: SimSuite | GridSuite, size: str, seed: int) -> str:
    return f"{suite.name}-{size}-seed{seed}.json"


def _covers(record: dict, suite: SimSuite | GridSuite, seed: int) -> bool:
    """Whether a stored record matches today's guests and cell set."""
    if record.get("format") != FORMAT:
        return False
    if isinstance(suite, SimSuite):
        sources = {name: digest(w.source)
                   for name, w in suite.workloads(seed).items()}
        wanted = {sim_key(program, label) for program, label in suite.sims()}
        return (record.get("programs") == sources
                and set(record.get("records", ())) == wanted)
    requested, _replacement = suite.plan(seed)
    return {cell.key() for cell in requested} <= set(record.get("cells", ()))


def find(suite: SimSuite | GridSuite, size: str, seed: int) -> Path | None:
    """Path of a stored record for this seed that still matches the guests."""
    name = _file_name(suite, size, seed)
    for directory in (STORED_DIR, WORK_DIR / "expected"):
        path = directory / name
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if _covers(record, suite, seed):
            return path
    return None


def ensure(suite: SimSuite | GridSuite, size: str, seed: int) -> Path:
    """Path of a valid record for this seed, deriving it if needed."""
    found = find(suite, size, seed)
    if found is not None:
        return found
    if isinstance(suite, SimSuite):
        record = derive_sims(suite, seed)
    else:
        record = derive_grid(suite, seed)
    record = {"format": FORMAT, "workload": suite.name, "size": size,
              "seed": seed, "engine": "oracle", **record}
    path = WORK_DIR / "expected" / _file_name(suite, size, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n")
    os.replace(tmp, path)
    return path
