"""``scripts/bench.py`` alternates the two sides within every workload.

A gain is only claimed from pairs whose order alternates, so this runs
``run_pairs`` with a stand-in for ``run_one`` (no subprocess) and checks
the order each workload saw, then the wins ``compare`` counts.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_workload_alternates_which_side_runs_first(monkeypatch, capsys):
    bench = _bench()
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout, workload, seed))
        wall = 1.0 if checkout == "p" else 0.5
        metrics = {"wall_s": {"value": wall}}
        return {"workload": workload, "seed": seed, "result": {"metrics": metrics}}

    monkeypatch.setattr(bench, "run_one", fake_run)
    seeds = [11, 12, 13, 14, 15]
    pairs = bench.run_pairs({"parent": "p", "change": "c"}, seeds)
    capsys.readouterr()

    assert len(pairs) == len(seeds) * len(bench.WORKLOADS)
    for workload in bench.WORKLOADS:
        firsts = [p["first"] for p in pairs if p["workload"] == workload]
        assert firsts == ["parent", "change", "parent", "change", "parent"]
        ran = [c for c, w, _ in calls if w == workload]
        assert ran == ["p", "c", "c", "p", "p", "c", "c", "p", "p", "c"]

    lines = bench.compare(pairs, [{"name": "wall_s", "better": "lower", "bound": 0.25}])
    assert len(lines) == len(bench.WORKLOADS)
    assert all("-50.0%" in line and "wins 5/5" in line for line in lines)


def test_one_side_runs_alone(monkeypatch, capsys):
    bench = _bench()
    monkeypatch.setattr(bench, "run_one", lambda checkout, workload, seed: {"checkout": checkout})
    pairs = bench.run_pairs({"change": "c"}, [1, 2])
    capsys.readouterr()
    assert [p["first"] for p in pairs] == ["change"] * (2 * len(bench.WORKLOADS))
    assert all(set(p) == {"workload", "seed", "first", "change"} for p in pairs)
