"""The benchmark's workloads: which guest programs run under which configs.

Two kinds of workload:

- a *simulation suite* (``ib-dense``, ``loop-dense``): fixed guest programs,
  each run under fixed SDT configs, in this process, one after another;
- the *cell grid* (``grid-cold``): the deduplicated cell union of
  experiments E6, E7, E14 and E15, run by :func:`repro.eval.parallel.
  execute_cells` on a worker pool.

Every config pins ``engine``, ``faults`` and ``trace``, so the
``REPRO_ENGINE``, ``REPRO_FAULTS`` and ``REPRO_TRACE`` variables cannot
change what is measured.  ``size="test"`` shrinks each workload for the
benchmark's own tests; ``"full"`` is what ``run.py`` measures by default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.eval.cells import Cell
from repro.host.profile import X86_P4
from repro.sdt.config import SDTConfig
from repro.workloads import Workload, get_workload

from perfbench.seeds import reseed

SIZES = ("full", "test")

#: Run length cap handed to every simulation (the runner's default).
FUEL = 30_000_000


def pin(config: SDTConfig, engine: str = "threaded", trace=None) -> SDTConfig:
    """``config`` with engine, fault plan and tracing fixed explicitly."""
    return replace(config, engine=engine, faults=None, trace=trace)


def _headline_configs() -> dict[str, SDTConfig]:
    """The paper's four headline configurations on the P4-like host."""
    return {
        "reentry": SDTConfig(profile=X86_P4, ib="reentry"),
        "ibtc": SDTConfig(profile=X86_P4, ib="ibtc", ibtc_entries=4096,
                          ibtc_shared=True),
        "sieve": SDTConfig(profile=X86_P4, ib="sieve", sieve_buckets=512),
        "ibtc-fastret": SDTConfig(profile=X86_P4, ib="ibtc",
                                  ibtc_entries=4096, returns="fast"),
    }


#: Names of the per-config metrics (``ib.ns_per_dispatch.<name>``).
CONFIG_NAMES = tuple(_headline_configs())


def config_name(config: SDTConfig) -> str | None:
    """Which headline config ``config`` is, ignoring engine/faults/trace."""
    for name, headline in _headline_configs().items():
        if pin(headline).fingerprint() == pin(config).fingerprint():
            return name
    return None


@dataclass(frozen=True)
class SimSuite:
    """Guest programs x SDT configs, simulated in-process."""

    name: str
    scale: str
    programs: tuple[str, ...]
    configs: tuple[tuple[str, SDTConfig], ...]
    #: a run makes at least this many passes (fixes the tail percentile)
    min_passes: int

    def workloads(self, seed: int) -> dict[str, Workload]:
        return {
            program: reseed(get_workload(program, self.scale), seed)
            for program in self.programs
        }

    def sims(self) -> list[tuple[str, str]]:
        """``(program, config name)`` pairs in run order."""
        return [
            (program, label)
            for program in self.programs
            for label, _config in self.configs
        ]


@dataclass(frozen=True)
class GridSuite:
    """Experiment cells executed through the repo's parallel executor."""

    name: str
    scale: str
    experiments: tuple[str, ...]
    jobs: int
    min_passes: int
    #: restrict cells to these workload names (``None``: every cell)
    only: frozenset[str] | None = None

    def plan(self, seed: int, engine: str = "threaded",
             trace=None) -> tuple[list[Cell], dict[str, Cell]]:
        """Reseeded, pinned cells in declared order.

        Returns the requested cells (duplicates included, as the
        experiments declare them) and a map from each declared cell's own
        key to its reseeded replacement, which :meth:`build_tables` uses
        to hand the experiments' table builders their results.
        """
        from repro.eval.experiments import EXPERIMENT_SPECS

        requested: list[Cell] = []
        replacement: dict[str, Cell] = {}
        reseeded: dict[str, Workload] = {}
        for name in self.experiments:
            for cell in EXPERIMENT_SPECS[name].cells(self.scale):
                if self.only is not None and \
                        cell.workload_name not in self.only:
                    continue
                workload = reseeded.get(cell.workload_name)
                if workload is None:
                    workload = reseed(cell.resolve(), seed)
                    reseeded[cell.workload_name] = workload
                new = replace(
                    cell, workload=workload,
                    config=pin(cell.config, engine, trace)
                    if cell.config is not None else None,
                )
                requested.append(new)
                replacement[cell.key()] = new
        return requested, replacement

    def build_tables(self, replacement: dict[str, Cell],
                     results: dict[str, object]) -> dict[str, list]:
        """Each experiment's ``[headers, rows]`` from reseeded results.

        Only a full grid has whole tables; a filtered one returns ``{}``.
        """
        from repro.eval.experiments import EXPERIMENT_SPECS

        if self.only is not None:
            return {}

        def lookup(cell: Cell) -> object:
            return results[replacement[cell.key()].key()]

        tables = {}
        for name in self.experiments:
            headers, rows = EXPERIMENT_SPECS[name].build(lookup, self.scale)
            tables[name] = [headers, rows]
        return tables


def _sim_suite(name: str, size: str, programs: tuple[str, ...],
               configs: dict[str, SDTConfig], scale: str,
               min_passes: int) -> SimSuite:
    if size == "test":
        programs, scale, min_passes = programs[:2], "tiny", 1
    return SimSuite(
        name=name, scale=scale, programs=programs,
        configs=tuple((label, pin(cfg)) for label, cfg in configs.items()),
        min_passes=min_passes,
    )


def get_suite(name: str, size: str = "full") -> SimSuite | GridSuite:
    """The workload called ``name`` at ``size``."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    headline = _headline_configs()
    if name == "ib-dense":
        # >= 27 indirect branches per 1000 instructions
        return _sim_suite(
            name, size,
            ("parser_like", "twolf_like", "bzip2_like", "vortex_like",
             "perl_like"),
            headline, scale="small", min_passes=3,
        )
    if name == "loop-dense":
        # <= 10 indirect branches per 1000 instructions
        return _sim_suite(
            name, size, ("gzip_like", "gap_like", "mcf_like"),
            {"ibtc": headline["ibtc"]}, scale="small", min_passes=10,
        )
    if name == "grid-cold":
        only, min_passes = None, 2
        if size == "test":
            only, min_passes = frozenset({"perl_like", "smc_loop"}), 1
        return GridSuite(
            name=name, scale="tiny", experiments=("e6", "e7", "e14", "e15"),
            jobs=2, min_passes=min_passes, only=only,
        )
    raise KeyError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


WORKLOADS = ("ib-dense", "loop-dense", "grid-cold")
