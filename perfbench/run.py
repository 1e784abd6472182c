"""End-to-end benchmark of the dmlab pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``suite.json`` through ``dmlab.cli.main(["run",
...])`` as a closed loop: one client in one process runs one experiment
at a time, and each measurement is a fresh child process (``child.py``),
started one after another, so memory and set-up time belong to that
workload alone.

Timing is relative.  The program under test (``src/dmlab``) and a frozen
copy of the build the suite was recorded with (``baseline/dmlab``) run in
adjacent pairs, in an order the seed shuffles, and every pair yields the
ratio program time / baseline time.  A shared host's speed can drift by
tens of percent over tens of seconds (up to 40% on a 2-vCPU Xeon VM),
which moves raw wall times of one build run to run far beyond any useful
bound, while both halves of a pair see the same speed.  A ratio times
the baseline's recorded time (``baseline_run_s`` and ``baseline_setup_s``
in ``suite.json``) is the program's time in seconds at the speed the
suite was recorded at.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:

    run_s        one ``dml run`` (load, validate, pipeline, render, write):
                 median ratio over the run pairs that fit in S seconds,
                 times baseline_run_s
    setup_s      importing dmlab.cli and loading the workload file in a
                 fresh interpreter: median ratio over SETUP_PAIRS pairs,
                 times baseline_setup_s
    peak_rss_mb  largest peak resident memory of a program run child

With ``--trace 1`` it runs the same pairs, then one traced program run
that wraps each module's public functions from outside the package, and
reports the per-layer metrics: ``<module>.<function>.calls`` and
``.self_s`` (span minus child spans), pipeline stage times,
closure-chain counts read from the report, and ``trace.overhead_s``
(traced minus median untraced wall time).  The aggregated spans land in
``.perfbench/trace-<workload>-<seed>.json``.

Every program run, plain or traced, is checked against the report
SHA-256 in ``suite.json``; a run that raises, returns non-zero or writes
other bytes counts in ``failed``.  The stderr summary gives raw wall
medians and ``failed_frac``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline"
SETUP_PAIRS = 7
DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """A child process failed outright; no result can be reported."""


def load_suite() -> dict:
    return {w["name"]: w for w in json.loads((HERE / "suite.json").read_text())["workloads"]}


def metric_specs(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _child(args, src: Path, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("time budget exhausted before the next child")
    env = dict(os.environ, PYTHONPATH=str(src))
    # Set-up is measured as users see it, with bytecode cached.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child {args[0]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def measure(workload: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the raw measurements.

    Keys: ``attempted`` and ``failed`` (program runs), ``runs`` (program
    seconds, baseline seconds, program peak RSS in KiB per pair),
    ``setup`` (program seconds, baseline seconds per pair; plain mode
    only) and, when tracing, ``layers`` (traced metrics from the child).
    """
    deadline = time.monotonic() + DEADLINE_S
    rng = random.Random(seed)
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=outdir))
    builds = {"program": ROOT / "src", "baseline": BASELINE}

    def pair(args):
        order = list(builds)
        rng.shuffle(order)
        out = {b: _child(args, builds[b], deadline) for b in order}
        return out["program"], out["baseline"]

    try:
        experiment = workdir / f"{workload['name']}.json"
        experiment.write_text(json.dumps(workload["experiment"]))
        expected = workload["report_sha256"]
        raw = {"attempted": 0, "failed": 0, "runs": [], "setup": []}
        # One discarded pair first, so no measurement pays for compiling bytecode.
        pair(["setup", experiment])
        if not trace:
            for _ in range(SETUP_PAIRS):
                prog, base = pair(["setup", experiment])
                raw["setup"].append((prog["setup_s"], base["setup_s"]))
        pair_s = []
        start = time.monotonic()
        # Start another pair only while it is expected to end in time.
        while not pair_s or time.monotonic() - start + statistics.median(pair_s) <= seconds:
            began = time.monotonic()
            prog, base = pair(["run", experiment, workdir])
            pair_s.append(time.monotonic() - began)
            if base["sha256"] is None:
                raise HarnessError("the baseline build failed to write a report")
            raw["runs"].append((prog["run_s"], base["run_s"], prog["peak_rss_kb"]))
            raw["attempted"] += 1
            raw["failed"] += prog["sha256"] != expected
        if trace:
            trace_out = outdir / f"trace-{workload['name']}-{seed}.json"
            result = _child(["trace", experiment, workdir, trace_out], builds["program"], deadline)
            raw["layers"] = result["metrics"]
            raw["attempted"] += 1
            raw["failed"] += result["sha256"] != expected
        return raw
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _relative(pairs, baseline_s: float) -> float:
    """Median program/baseline ratio, in seconds of the baseline's record."""
    return statistics.median(p / b for p, b in pairs) * baseline_s


def summarize(raw: dict, workload: dict, trace: bool) -> dict:
    """The contract's result object from :func:`measure`'s output."""
    if trace:
        values = dict(raw["layers"])
        plain_s = statistics.median(p for p, _, _ in raw["runs"])
        values["trace.overhead_s"] = values["trace.run_s"] - plain_s
    else:
        values = {
            "run_s": _relative([(p, b) for p, b, _ in raw["runs"]], workload["baseline_run_s"]),
            "setup_s": _relative(raw["setup"], workload["baseline_setup_s"]),
            "peak_rss_mb": max(rss for _, _, rss in raw["runs"]) / 1024,
        }
    metrics = {}
    for name, unit in metric_specs(trace).items():
        if name not in values:
            raise HarnessError(f"no measurement for metric {name}")
        metrics[name] = {"value": values[name], "unit": unit}
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    suite = load_suite()
    if args.workload not in suite:
        print(f"unknown workload {args.workload!r}; have {', '.join(suite)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "dmlab" / "__init__.py").is_file():
        print(f"no dmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = suite[args.workload]
    try:
        raw = measure(workload, args.seed, args.seconds, bool(args.trace))
        result = summarize(raw, workload, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    prog = statistics.median(p for p, _, _ in raw["runs"])
    base = statistics.median(b for _, b, _ in raw["runs"])
    print(
        f"{args.workload}: wall median program {prog:.4f} s, baseline {base:.4f} s over "
        f"{len(raw['runs'])} pairs; failed_frac {raw['failed']}/{raw['attempted']}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
