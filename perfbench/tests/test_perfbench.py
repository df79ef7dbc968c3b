"""Tests of the benchmark itself, on shrunken (``--size test``) workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import expected, seeds
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.suites import WORKLOADS, get_suite
from repro.workloads import get_workload

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--size", "test", "--seconds", "0",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the contract file --------------------------------------------------------


def test_benchmark_json_matches_metric_table(benchmark_json):
    e2e = [(m["name"], m["unit"], m["better"], m["bound"])
           for m in benchmark_json["end_to_end"]]
    assert e2e == [tuple(row) for row in END_TO_END]
    layer = [(m["name"], m["unit"], m["better"])
             for m in benchmark_json["per_layer"]]
    assert layer == [tuple(row) for row in PER_LAYER]
    assert [w["name"] for w in benchmark_json["workloads"]] == \
        list(WORKLOADS)
    setup = next(m for m in benchmark_json["end_to_end"]
                 if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"]
                                 for m in benchmark_json["end_to_end"])


def test_layer_map_names_only_known_metrics():
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    known = {row[0] for row in END_TO_END + PER_LAYER}
    for layer in layers["layers"]:
        assert set(layer["metrics"]) <= known, layer["layer"]
        assert set(layer["moves"]) <= known, layer["layer"]
    assert layers["default_seed"] == seeds.DEFAULT_SEED


# -- seeds --------------------------------------------------------------------


def test_seed_zero_keeps_committed_inputs():
    workload = get_workload("parser_like", "tiny")
    assert seeds.reseed(workload, 0) == workload
    assert seeds.rng_state(0) == seeds.RNG_DEFAULT_STATE


def test_seeds_rewrite_rng_state():
    workload = get_workload("parser_like", "tiny")
    states = {seeds.rng_state(seed) for seed in range(1, 50)}
    assert len(states) == 49 and 0 not in states
    reseeded = seeds.reseed(workload, 7)
    assert f"int rng_state = {seeds.rng_state(7)};" in reseeded.source
    assert seeds.RNG_DECL not in reseeded.source


def test_seed_mapping_to_state_zero_is_rejected():
    # fmix32 is a bijection: exactly one seed lands on state 0
    bad = _inverse_fmix32(seeds.RNG_DEFAULT_STATE)
    assert seeds.fmix32(bad) == seeds.RNG_DEFAULT_STATE
    with pytest.raises(ValueError, match="state 0"):
        seeds.rng_state(bad)
    with pytest.raises(ValueError):
        seeds.rng_state(-1)


def _inverse_fmix32(value: int) -> int:
    """Invert MurmurHash3's finaliser (for the rejected-seed test)."""
    mask = 0xFFFF_FFFF

    def unshift(v: int, shift: int) -> int:
        out = v
        for _ in range(32 // shift + 1):
            out = v ^ (out >> shift)
        return out & mask

    value = unshift(value, 16)
    value = (value * pow(0xC2B2_AE35, -1, 1 << 32)) & mask
    value = unshift(value, 13)
    value = (value * pow(0x85EB_CA6B, -1, 1 << 32)) & mask
    return unshift(value, 16)


# -- every workload, end to end -----------------------------------------------


@pytest.fixture(scope="module")
def results() -> dict[tuple[str, str], dict]:
    """One run of every workload, untraced and traced."""
    return {
        (workload, trace): last_json(
            run_bench("--workload", workload, "--trace", trace))
        for workload in WORKLOADS for trace in ("0", "1")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(workload, trace, results,
                                           benchmark_json):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = benchmark_json["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for metric in table:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float | int)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layers_separate_as_designed(results):
    """Analysis and coherence work appears only on the grid."""
    layer = {
        workload: {k: v["value"]
                   for k, v in results[workload, "1"]["metrics"].items()}
        for workload in WORKLOADS
    }
    for workload in ("ib-dense", "loop-dense"):
        assert layer[workload]["analysis.targets_s"] == 0
        assert layer[workload]["coherence.code_writes"] == 0
    assert layer["grid-cold"]["analysis.targets_s"] > 0
    assert layer["grid-cold"]["coherence.code_writes"] > 0
    assert layer["grid-cold"]["coherence.fragments_invalidated"] > 0


@pytest.mark.parametrize("workload", ["ib-dense", "grid-cold"])
def test_corrupted_record_counts_as_failure(workload, tmp_path):
    suite = get_suite(workload, "test")
    record = json.loads(expected.ensure(suite, "test", 0).read_text())
    if workload == "grid-cold":
        victim = sorted(record["cells"])[0]
        record["cells"][victim]["result"] = "0" * 64
    else:
        victim = sorted(record["records"])[0]
        record["records"][victim]["total_cycles"] += 1
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(record))
    done = run_bench("--workload", workload, "--seed", "0",
                     "--expected", str(corrupted))
    result = last_json(done)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    detail = json.loads(done.stdout.strip().splitlines()[-2])["detail"]
    assert detail["failed_frac"] > 0
    assert "differs from the oracle record" in done.stderr


def test_stale_stored_record_is_passed_over(tmp_path, monkeypatch):
    suite = get_suite("loop-dense", "test")
    derived = expected.ensure(suite, "test", 0)
    stale = json.loads(derived.read_text())
    stale["format"] = expected.FORMAT - 1
    (tmp_path / derived.name).write_text(json.dumps(stale))
    monkeypatch.setattr(expected, "STORED_DIR", tmp_path)
    assert expected.ensure(suite, "test", 0) == derived


def test_span_self_time_within_inclusive_time(results):
    assert results["ib-dense", "1"]["correct"]  # that run wrote the spans
    path = expected.WORK_DIR / "spans-ib-dense-test.csv.gz"
    with gzip.open(path, "rt", newline="") as rows:
        spans = [
            {key: value if key == "name" else int(value)
             for key, value in row.items()}
            for row in csv.DictReader(rows)
        ]
    assert spans
    names = {span["name"] for span in spans}
    assert {"sdt.run", "ib.dispatch", "translator.translate",
            "sdt.reentry", "lang.compile"} <= names
    for span in spans:
        inclusive = span["end_ns"] - span["start_ns"]
        assert 0 <= span["self_ns"] <= inclusive
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ib-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _session_members(sid: int) -> list[str]:
    """``pid state command`` of every process in session ``sid`` (Linux).

    Zombies count: an orphan the run did not wait for lingers as one until
    init reaps it.
    """
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        # the command, in parentheses, may hold spaces: split after it
        command = text[text.index("(") + 1:text.rindex(")")]
        fields = text[text.rindex(")") + 2:].split()
        if int(fields[3]) == sid:
            members.append(f"{stat.parent.name} {fields[0]} {command}")
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(),
                    reason="needs /proc")
def test_leaves_no_process_behind(tmp_path):
    seed = 97   # not stored: the run derives the record on spawned workers
    suite = get_suite("ib-dense", "test")
    stale = expected.WORK_DIR / "expected" / expected._file_name(
        suite, "test", seed)
    stale.unlink(missing_ok=True)
    out, err = tmp_path / "out", tmp_path / "err"
    # files, not pipes: a descendant holding a pipe open would delay the
    # check until it ended
    with out.open("w") as stdout, err.open("w") as stderr:
        run = subprocess.Popen(
            [sys.executable, str(RUN), "--size", "test", "--seconds", "0",
             "--workload", "ib-dense", "--seed", str(seed), "--trace", "0"],
            cwd=ROOT, stdout=stdout, stderr=stderr, start_new_session=True,
        )
        run.wait(timeout=300)
    # the run leads a session of its own, whose id is the run's pid
    assert _session_members(run.pid) == []
    assert run.returncode == 0, err.read_text()
    assert json.loads(out.read_text().strip().splitlines()[-1])["correct"]
