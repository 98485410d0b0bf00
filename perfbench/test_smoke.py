"""Smoke tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once at reduced size (``size="smoke"``) through the same
``measure`` path the benchmark command uses, untraced and traced; the rest
checks names, units, the result-line schema, the seed contract and the
layer attribution.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from layers import LAYERS, layer_of, self_times  # noqa: E402
from workloads import WORKLOADS, pinned_reproducer, sweep_jobs  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _metric_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def _only_known_failures(report: dict) -> None:
    """The pinned reproducer is the one cell allowed to fail (it hangs)."""
    pinned = [c for c in report["failed_cells"] if "seed=1 faults(seed=2)" in c[0]]
    assert report["failed_cells"] == pinned, report["failed_cells"]
    assert all(why == ["incomplete"] for _, why in pinned)
    assert report["bad_replays"] == []
    assert report["correct"] is True


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reduced_pass(name, trace, tmp_path):
    report = run.measure(name, seed=3, seconds=0, trace=trace, size="smoke",
                         workdir=str(tmp_path))
    _only_known_failures(report)
    assert os.listdir(tmp_path) == []  # the sweep's cache is cleaned up
    line = run.result_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    json.loads(json.dumps(line))
    want = _metric_units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in line["metrics"].items()} == want
    values = [m["value"] for m in line["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values), line["metrics"]
    else:
        assert line["metrics"]["sim.events"]["value"] > 0
        assert line["metrics"]["sim.self_s"]["value"] > 0


def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"][:2] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = []
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
        names.append(w["name"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    layer_names = {f"{layer}.self_s" for layer in LAYERS + ("other",)}
    assert layer_names <= set(_metric_units("per_layer"))


def test_seed_changes_cells_but_not_the_reproducer():
    one, two = sweep_jobs(1), sweep_jobs(2)
    assert len(one) == len(two) == 41
    assert one != two
    pinned = pinned_reproducer()
    assert pinned in one and pinned in two
    assert one.index(pinned) == two.index(pinned)
    assert sweep_jobs(1) == one  # same seed, same cells
    cells = {WORKLOADS["adapt_scale"](s, "smoke").setup()[0][0] for s in range(4)}
    assert len(cells) > 1


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adapt_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_layer_of():
    assert layer_of("/x/src/repro/network/fairshare.py") == "network"
    assert layer_of("/x/src/repro/cli.py") == "other"
    assert layer_of("/x/src/repro/obs/spans.py") == "other"
    assert layer_of("~") is None
    assert layer_of("/usr/lib/python3/heapq.py") is None


def test_builtin_time_is_charged_to_the_calling_layer():
    from repro.harness.bench import allocator_scenario
    from repro.harness.profiling import profile_call
    from repro.network.fairshare import maxmin_rates

    flows, links = allocator_scenario(nflows=64, nlinks=8)
    _, stats = profile_call(lambda: [maxmin_rates(flows, links) for _ in range(20)])
    times = self_times(stats)
    total = sum(row[2] for row in stats.stats.values())
    assert sum(times.values()) == pytest.approx(total, rel=1e-9)
    # min/sorted/dict builtins called from fairshare count as network time.
    assert times["network"] > 0.9 * total
