"""Self-check of the benchmark harness on tiny horizons of the suite.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import child, run

SRC = run.ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Suite workloads shrunk to run in well under a second.  rotation-qq's cost
# sits in closure sampling, not in N, so its sample budget shrinks too.
# pullback-gf101 is left out: its degree-2^6 certificate costs seconds at
# any horizon that still has a progression.
TINY = {
    "tower-gf2t": {"N": 40},
    "rotation-qq": {"N": 16, "analysis": {"sample_budget": 16}},
    "cycle-gf101": {"N": 120},
}


def _reference_digest(experiment, tmp_path) -> str:
    """SHA-256 of the report a plain ``dml run`` writes, outside the harness."""
    doc = tmp_path / "experiment.json"
    out = tmp_path / "reference.json"
    doc.write_text(json.dumps(experiment))
    subprocess.run(
        [sys.executable, "-m", "dmlab.cli", "run", str(doc), "--out", str(out)],
        env={"PYTHONPATH": str(SRC)},
        check=True,
        timeout=60,
    )
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _tiny(name, tmp_path) -> dict:
    workload = copy.deepcopy(run.load_suite()[name])
    workload["name"] = f"selfcheck-{name}"
    workload["experiment"].update(TINY[name])
    workload["report_sha256"] = _reference_digest(workload["experiment"], tmp_path)
    return workload


@pytest.mark.parametrize("name", sorted(TINY))
def test_plain_and_traced_reports_match_the_reference(name, tmp_path):
    workload = _tiny(name, tmp_path)
    raw = run.measure(workload, seed=0, seconds=0, trace=True)
    assert (raw["attempted"], raw["failed"]) == (2, 0)
    result = run.summarize(raw, workload, trace=True)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.metric_specs(trace=True))


def test_tampered_digest_counts_as_failure(tmp_path):
    workload = _tiny("tower-gf2t", tmp_path)
    workload["report_sha256"] = "0" * 64
    raw = run.measure(workload, seed=0, seconds=0, trace=True)
    assert raw["attempted"] == raw["failed"] == 2
    assert run.summarize(raw, workload, trace=True)["correct"] is False


def test_plain_run_reports_every_end_to_end_metric(tmp_path):
    workload = _tiny("tower-gf2t", tmp_path)
    raw = run.measure(workload, seed=3, seconds=0, trace=False)
    assert len(raw["setup"]) == run.SETUP_PAIRS
    result = run.summarize(raw, workload, trace=False)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.metric_specs(trace=False))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_restores_every_binding():
    import dmlab.cli  # noqa: F401
    import dmlab.closures
    import dmlab.experiment
    import dmlab.fields

    def snapshot():
        owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "dmlab"]
        owners += [dmlab.fields.FieldValue, dmlab.multipoly.MultiPoly, dmlab.orbits.Morphism]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = snapshot()
    original = dmlab.closures.vanishing_ideal
    undo = child.install(child.Tracer())
    try:
        # functions are patched wherever they are bound, not only at home
        assert dmlab.closures.vanishing_ideal is not original
        assert dmlab.ideals.vanishing_ideal is not original
        assert dmlab.experiment.buchberger is not dmlab.ideals.buchberger
        assert "__mul__" in vars(dmlab.fields.FieldValue)
    finally:
        child.uninstall(undo)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_nested_spans_give_self_time():
    tracer = child.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, total, self_s = tracer.spans["outer"]
    assert calls == 1 and tracer.spans["inner"][0] == 3
    assert self_s == pytest.approx(total - tracer.spans["inner"][1])
    assert tracer.edges[("outer", "inner")][0] == 3
    assert tracer.edges[("", "outer")][0] == 1


def test_closure_stats_walk_derived_instances():
    def chain(modulus, offsets, stabilized=True):
        return {
            "modulus": str(modulus),
            "offsets": [{"offset": str(o), "stabilized": stabilized} for o in offsets],
        }

    derived = {"progressions": [{"closure_chain": chain(6, [3, 5], stabilized=False)}]}
    report = {
        "progressions": [
            {
                "closure_chain": chain(2, [0, 1]),
                "case_split": {"offsets": [{"derived": derived}, {"derived": None}]},
            },
            {"closure_chain": chain(6, [3])},
        ]
    }
    assert child.closure_stats(report) == {
        "closures.chain_entries": 5,
        "closures.distinct_keys": 4,
        "closures.unique_ratio": 0.8,
        "closures.unstabilized": 2,
    }
    assert child.closure_stats({})["closures.chain_entries"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower-gf2t", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
