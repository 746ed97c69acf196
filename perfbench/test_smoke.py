"""Smoke test of the benchmark at a tiny size.

Run with ``python3 -m pytest perfbench``.  Each workload runs in-process
with the sizes cut down, untraced and traced; the test checks that every
metric named in ``BENCHMARK.json`` is printed, that ``layers.json``
describes the same metrics, and that a wrong verdict injected into the
classifier raises the failure count.
"""

import contextlib
import io
import json
import os
import sys

import pytest

import run

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
with open(os.path.join(run.HERE, "layers.json"), encoding="utf-8") as fh:
    LAYER_MAP = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = {
    "CORPUS_BATCH": 3,
    "ORBIT_COUNT": 2,
    "ORBIT_SQUARES": (5, 5),
    "AFFINE_REPEATS": 2,
    "CATALOGS": run.CATALOGS[:2],
    "MONODROMY_SURFACES": run.MONODROMY_SURFACES[:1],
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(run, name, value)
    monkeypatch.syspath_prepend(run.SRC)
    yield
    for name in [m for m in sys.modules if m.startswith("squaretiled")]:
        del sys.modules[name]


def bench(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1]), out.getvalue()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(tiny, workload, trace):
    result, text = bench(workload, trace)
    section = "per_layer" if trace else "end_to_end"
    expected = {(m["name"], m["unit"]) for m in BENCHMARK[section]}
    assert {(name, m["unit"]) for name, m in result["metrics"].items()} \
        == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    for name, _ in expected:
        assert name in text
    assert result["correct"] and result["attempted"] >= 1


def test_layer_map_matches_benchmark():
    assert set(LAYER_MAP["workloads"]) == set(WORKLOADS)
    assert set(LAYER_MAP["per_layer"]) == \
        {m["name"] for m in BENCHMARK["per_layer"]}
    for entry in LAYER_MAP["per_layer"].values():
        assert set(entry["on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", ["corpus", "affine"])
def test_wrong_verdict_raises_failed(tiny, monkeypatch, workload):
    honest, _ = bench(workload, 0)

    def flipped(api, o):
        verdict = api.pipeline.classify_surface(o, direction_bound=3)
        status = ("TrivialForni" if verdict.status == run.CERTIFIED
                  else run.CERTIFIED)
        return api.pipeline.Verdict(status, (), o)

    monkeypatch.setattr(run, "classify", flipped)
    injected, text = bench(workload, 0)
    assert injected["failed"] > honest["failed"]
    assert not injected["correct"]
    assert "failed: " in text
