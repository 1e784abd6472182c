"""One measurement of one workload, in a fresh interpreter.

    python3 perfbench/child.py setup EXPERIMENT
    python3 perfbench/child.py run EXPERIMENT WORKDIR
    python3 perfbench/child.py trace EXPERIMENT WORKDIR TRACE_OUT

Whichever ``dmlab`` is first on the path is measured: the program under
test or the frozen baseline.  ``setup`` times ``import dmlab.cli`` plus
``load_experiment``.  ``run`` times one ``dmlab.cli.main(["run",
EXPERIMENT, "--out", ...])``.  ``trace`` does the same with every traced
callable wrapped in a span recorder, writes the aggregated spans to
TRACE_OUT and derives the per-layer metrics.  Both runs report the
SHA-256 of the report, or null when ``main`` raised or returned
non-zero.  The last stdout line is one JSON object.

Only ``os``, ``sys`` and ``time`` are imported before the set-up clock
starts, so ``setup`` charges dmlab for every other module it pulls in.
"""

import os
import sys
import time

# Traced layers: (metric prefix, home module, attribute).  A dotted
# attribute is a method, patched once on its class; a plain one is a
# function, patched in every dmlab module that binds it, because
# ``experiment``, ``closures`` and ``cli`` import functions by name.
LAYERS = (
    ("fields.add", "dmlab.fields", "FieldValue.__add__"),
    ("fields.sub", "dmlab.fields", "FieldValue.__sub__"),
    ("fields.mul", "dmlab.fields", "FieldValue.__mul__"),
    ("fields.pow", "dmlab.fields", "FieldValue.__pow__"),
    ("fields.inverse", "dmlab.fields", "FieldValue.inverse"),
    ("multipoly.mul", "dmlab.multipoly", "MultiPoly.__mul__"),
    ("multipoly.evaluate", "dmlab.multipoly", "MultiPoly.evaluate"),
    ("multipoly.substitute", "dmlab.multipoly", "MultiPoly.substitute"),
    ("orbits.apply", "dmlab.orbits", "Morphism.apply"),
    ("orbits.return_set", "dmlab.orbits", "return_set"),
    ("density.window_density_max", "dmlab.density", "window_density_max"),
    ("density.detect_progressions", "dmlab.density", "detect_progressions"),
    ("ideals.buchberger", "dmlab.ideals", "buchberger"),
    ("ideals.normal_form", "dmlab.ideals", "normal_form"),
    ("ideals.vanishing_ideal", "dmlab.ideals", "vanishing_ideal"),
    ("closures.certify_invariant", "dmlab.closures", "certify_invariant"),
)

# Pipeline stage of each call ``run_experiment`` makes through the
# ``experiment`` module's own bindings.
STAGES = {
    "return_set": "return-set",
    "density_profile": "density-profile",
    "detect_progressions": "progression-detection",
    "buchberger": "closure-certification",
    "closure_chain": "closure-certification",
    "certify_invariant": "closure-certification",
    "refine_case_split": "closure-certification",
    "decompose_return_set": "decomposition",
}


class Tracer:
    """Spans kept in memory, aggregated as they close.

    ``spans[name]`` is [calls, inclusive seconds, self seconds], where
    self time is the span minus the spans opened inside it;
    ``edges[(caller, name)]`` is [calls, inclusive seconds], with caller
    "" for a span opened outside every other span.
    """

    def __init__(self):
        self.spans = {}
        self.edges = {}
        self.points = 0
        self._open = []

    def wrap(self, name, fn):
        import functools

        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges, clock = self._open, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[1]
                key = (caller[0] if caller else "", name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                if caller is not None:
                    caller[1] += elapsed

        return traced

    def count_points(self, fn):
        """Wrap vanishing_ideal so the points it is given are counted."""

        def counted(points, *args, **kwargs):
            self.points += len(points)
            return fn(points, *args, **kwargs)

        return counted


def install(tracer):
    """Replace every traced callable by its span wrapper; return the undo log."""
    import dmlab.cli  # noqa: F401  loads every dmlab module

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "dmlab"]
    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for name, home, attr in LAYERS:
        owner = sys.modules[home]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            swap(owner, attr, tracer.wrap(name, vars(owner)[attr]))
            continue
        original = vars(owner)[attr]
        inner = tracer.count_points(original) if name == "ideals.vanishing_ideal" else original
        wrapped = tracer.wrap(name, inner)
        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is original:
                    swap(module, bound, wrapped)

    experiment = sys.modules["dmlab.experiment"]
    for attr, stage in STAGES.items():
        swap(experiment, attr, tracer.wrap(f"experiment.{stage}", vars(experiment)[attr]))
    cli = sys.modules["dmlab.cli"]
    swap(cli, "load_experiment", tracer.wrap("experiment.load", vars(cli)["load_experiment"]))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def closure_stats(report) -> dict:
    """Closure-chain counts of a report, nested derived instances included.

    Entries are the (offset) rows of every ``closure_chain``; a key is
    (chain modulus, offset), so entries above distinct keys are closures
    the run computed more than once.
    """
    entries = 0
    unstabilized = 0
    keys = set()

    def walk(node):
        nonlocal entries, unstabilized
        if isinstance(node, dict):
            chain = node.get("closure_chain")
            if chain is not None:
                for row in chain["offsets"]:
                    entries += 1
                    unstabilized += not row["stabilized"]
                    keys.add((chain["modulus"], row["offset"]))
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(report)
    return {
        "closures.chain_entries": entries,
        "closures.distinct_keys": len(keys),
        "closures.unique_ratio": len(keys) / entries if entries else 0.0,
        "closures.unstabilized": unstabilized,
    }


def _run_once(main, experiment, out_path):
    """(seconds, report bytes or None on failure) for one ``dml run``."""
    start = time.perf_counter()
    try:
        code = main(["run", experiment, "--out", out_path])
    except Exception as exc:  # a raising run is a measured failure
        print(f"run raised {exc!r}", file=sys.stderr)
        code = None
    elapsed = time.perf_counter() - start
    data = None
    if code == 0 and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data = fh.read()
    if os.path.exists(out_path):
        os.remove(out_path)
    return elapsed, data


def _sha256(data):
    import hashlib

    return None if data is None else hashlib.sha256(data).hexdigest()


def setup(experiment) -> dict:
    start = time.perf_counter()
    import dmlab.cli

    dmlab.cli.load_experiment(experiment)
    return {"setup_s": time.perf_counter() - start}


def run(experiment, workdir) -> dict:
    import resource

    from dmlab.cli import main

    run_s, data = _run_once(main, experiment, os.path.join(workdir, "report.json"))
    return {
        "run_s": run_s,
        "sha256": _sha256(data),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def trace(experiment, workdir, trace_out) -> dict:
    import json

    import dmlab.cli

    tracer = Tracer()
    undo = install(tracer)
    try:
        run_s, data = _run_once(
            dmlab.cli.main, experiment, os.path.join(workdir, "traced-report.json")
        )
    finally:
        uninstall(undo)

    metrics = {"trace.run_s": run_s, "ideals.vanishing_ideal.points": tracer.points}
    for name, (calls, _, self_s) in tracer.spans.items():
        if not name.startswith("experiment."):
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
    accounted = tracer.spans["experiment.load"][1]
    for stage in dict.fromkeys(STAGES.values()):
        stage_s = tracer.spans[f"experiment.{stage}"][1]
        metrics[f"experiment.{stage}_s"] = stage_s
        accounted += stage_s
    # Everything in ``dml run`` outside loading and the five stages:
    # building the payload, serializing it and writing the file.
    metrics["experiment.render_s"] = run_s - accounted
    metrics.update(closure_stats(json.loads(data) if data is not None else {}))

    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "spans": {
                    n: {"calls": c, "total_s": t, "self_s": s}
                    for n, (c, t, s) in sorted(tracer.spans.items())
                },
                "edges": [
                    {"caller": caller, "callee": callee, "calls": c, "total_s": t}
                    for (caller, callee), (c, t) in sorted(tracer.edges.items())
                ],
                "metrics": metrics,
            },
            fh,
            indent=1,
        )
    return {"metrics": metrics, "sha256": _sha256(data)}


def main(argv) -> int:
    import json

    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        result = setup(*rest)
    elif mode == "run":
        result = run(*rest)
    elif mode == "trace":
        result = trace(*rest)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
