"""Experiment files, the analysis pipeline, and deterministic reports.

An experiment is a JSON document:

    {
      "field": "GF(2)(t)",            # "QQ", "GF(p)" or "GF(p)(t)"
      "vars":  ["x", "y"],            # distinct identifiers, "t" reserved
      "phi":   ["t*x", "(1-t)*y"],    # one component per variable
      "alpha": ["1", "1"],            # constant expressions
      "V":     ["x+y-1"],             # target variety generators
      "N":     1100,                  # iterate horizon, positive
      "analysis": { ... }             # optional tuning, see AnalysisParams
    }

The pipeline runs: return-set scan, window-density profile,
progression detection, per-progression closure chains with
periodicity certificates and case splits, and the final
progressions-plus-residual decomposition.  Reports are plain JSON
with stable key order, every numeric leaf rendered as a string (exact
rationals as "num/den"), and no timestamps or environment data, so a
rerun is byte-identical.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from functools import cache, cached_property
from itertools import compress, product
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .closures import (
    AnalysisParams,
    CASE_DEPTH_EXHAUSTED,
    CASE_IRREDUCIBILITY_UNVERIFIED,
    ClosureChain,
    PeriodicityCertificate,
    Session,
    SubInstance,
    SubProgression,
    _analyze,
    certify_invariant,
    closure_chain,
)
from .density import DensityProfile, Progression, density_profile
# Never called by name here: bound for perfbench/child.py's STAGES, which
# wraps them, and reached by run_experiment through globals().
from .closures import refine_case_split
from .density import decompose_return_set, detect_progressions
from .exprparse import ExprSyntaxError, parse_polynomial
from .fields import Field, _require_int
from .ideals import buchberger
from .orbits import Morphism, ReturnSet, return_set

__all__ = [
    "ExperimentError",
    "ExperimentSpec",
    "ReportDocument",
    "SchemaError",
    "StageError",
    "certify_report",
    "density_report",
    "experiment_from_dict",
    "load_experiment",
    "run_experiment",
]


class ExperimentError(ValueError):
    """Base for experiment-level failures."""


class SchemaError(ExperimentError):
    """The experiment document violates the input contract."""


class StageError(ExperimentError):
    """An analysis stage failed; the message names the stage."""


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_TOP_KEYS = {"field", "vars", "phi", "alpha", "V", "N", "analysis"}


class ExperimentSpec(NamedTuple):
    """Validated experiment: parsed objects plus the raw source strings."""

    field: Field
    field_source: str
    var_names: tuple
    phi_sources: tuple
    alpha_sources: tuple
    target_sources: tuple
    phi: Morphism
    start: tuple
    target_generators: tuple
    horizon: int
    analysis: AnalysisParams


def _schema(check, *args):
    """``check(*args)``, its ValueError raised as a SchemaError of the same text."""
    try:
        return check(*args)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _require_str_list(value, name: str):
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise SchemaError(f"{name} must be a list of strings")
    return value


def _parse_field(label) -> Field:
    if not isinstance(label, str):
        raise SchemaError("field must be a string")
    return _schema(Field.from_label, label)


def experiment_from_dict(doc) -> ExperimentSpec:
    """Validate a decoded experiment document against the schema."""
    if not isinstance(doc, dict):
        raise SchemaError("experiment document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown key {sorted(unknown)[0]!r}")
    for key in ("field", "vars", "phi", "alpha", "V", "N"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")

    field = _parse_field(doc["field"])
    var_names = _require_str_list(doc["vars"], "vars")
    if not var_names:
        raise SchemaError("vars must be nonempty")
    for name in var_names:
        if not _IDENT_RE.fullmatch(name):
            raise SchemaError(f"variable name {name!r} is not an identifier")
        if name == "t":
            raise SchemaError("reserved identifier 't' cannot be a variable")
    if len(set(var_names)) != len(var_names):
        raise SchemaError("variable names must be distinct")
    var_names = tuple(var_names)

    phi_sources = tuple(_require_str_list(doc["phi"], "phi"))
    if len(phi_sources) != len(var_names):
        raise SchemaError("phi needs exactly one component per variable")
    alpha_sources = tuple(_require_str_list(doc["alpha"], "alpha"))
    if len(alpha_sources) != len(var_names):
        raise SchemaError("alpha needs exactly one coordinate per variable")
    target_sources = tuple(_require_str_list(doc["V"], "V"))
    if not target_sources:
        raise SchemaError("V must be nonempty")
    horizon = _schema(_require_int, doc["N"], "N", 1)

    def parse_named(source, name):
        try:
            return parse_polynomial(source, var_names, field)
        except ExprSyntaxError as exc:
            raise SchemaError(f"{name}: {exc}") from exc

    components = [parse_named(s, f"phi[{i}]") for i, s in enumerate(phi_sources)]
    start = []
    for i, s in enumerate(alpha_sources):
        poly = parse_named(s, f"alpha[{i}]")
        if not poly.is_constant():
            raise SchemaError(f"alpha[{i}] must be a constant expression")
        start.append(poly.constant_value())
    targets = [parse_named(s, f"V[{i}]") for i, s in enumerate(target_sources)]

    analysis = _parse_analysis(doc.get("analysis"), horizon)
    return ExperimentSpec(
        field,
        doc["field"],
        var_names,
        phi_sources,
        alpha_sources,
        target_sources,
        Morphism(components),
        tuple(start),
        tuple(targets),
        horizon,
        analysis,
    )


def _parse_analysis(raw, horizon: int) -> AnalysisParams:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SchemaError("analysis must be an object")
    unknown = set(raw) - set(AnalysisParams._fields)
    if unknown:
        raise SchemaError(f"unknown analysis key {sorted(unknown)[0]!r}")
    if raw.get("a_max", 1) is None:  # the record derives a None a_max; a file may not
        raise SchemaError("a_max must be an integer")
    return _schema(AnalysisParams(**raw).resolved, horizon)


def load_experiment(path) -> ExperimentSpec:
    """Read and validate an experiment file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or an integer past the digit limit
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("not valid JSON: arrays or objects nested too deeply") from exc
    return experiment_from_dict(doc)


# ---------------------------------------------------------------------------
# Pipeline


class ReportDocument:
    """Finished analysis: the report tree plus the exact objects behind it.

    The tree keeps each index list as its :class:`ReturnSet`, which
    ``to_json`` writes straight from the membership table.  That text is
    the report's only plain form: ``payload`` parses it back on first
    read, so each index is a string and
    ``to_json() == json.dumps(payload, indent=2) + "\\n"``.
    """

    def __init__(self, tree, returns=None, profile=None, decomposition=None):
        self._tree = tree
        self.returns = returns
        self.profile = profile
        self.decomposition = decomposition

    @cached_property
    def payload(self):
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The payload as ``json.dumps(payload, indent=2)`` writes it, plus a
        newline; a leaf other than a string, a boolean, None or a
        ``ReturnSet`` raises TypeError, since every numeric leaf of a
        report is a string."""
        out: list = []
        _render(self._tree, 0, out)
        out.append("\n")
        return "".join(out)

    def returns_csv(self) -> str:
        rows = [f"{n},{flag}\n" for n, flag in enumerate(self.returns.flags)]
        return "n,in_V\n" + "".join(rows)

    def density_csv(self) -> str:
        lines = ["L,max_ratio"]
        for length, ratio in self.profile.entries:
            lines.append(f"{length},{ratio}")
        return "\n".join(lines) + "\n"


@cache
def _low_digits() -> tuple:
    """The strings 000..999, built the first time an index list passes 999;
    joining digit triples is about three times faster than 1000 f-strings."""
    return tuple(map("".join, product("0123456789", repeat=3)))


def _render_indices(flags: bytes, pad: str, out: list) -> None:
    # The members of a membership table as a JSON list of strings at the
    # indent ``pad``: one compress and one join per block of 1000 indices,
    # each index above 999 written as its block number then three digits.
    if 1 not in flags:
        out.append("[]")
        return
    sep = '",' + pad + '"'
    head = flags[:1000]
    blocks = [sep.join(map(str, compress(range(1000), head)))] if 1 in head else []
    for start in range(1000, len(flags), 1000):
        block = flags[start : start + 1000]
        if 1 in block:
            high = str(start // 1000)
            blocks.append(high + (sep + high).join(compress(_low_digits(), block)))
    out += ("[" + pad + '"', sep.join(blocks), '"' + pad[:-2] + "]")


def _render(value, depth: int, out: list) -> None:
    # Appends the pieces of json.dumps(value, indent=2) at this depth to out,
    # so the report is copied once, by the final join.
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, (dict, list)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        pad = "\n" + "  " * (depth + 1)
        sep = "{" + pad
        for k, v in value.items():
            out.append(f"{sep}{encode_basestring_ascii(k)}: ")
            sep = "," + pad
            _render(v, depth + 1, out)
        out.append(pad[:-2] + "}")
    elif isinstance(value, list):
        pad = "\n" + "  " * (depth + 1)
        sep = "[" + pad
        for v in value:
            out.append(sep)
            sep = "," + pad
            _render(v, depth + 1, out)
        out.append(pad[:-2] + "]")
    elif isinstance(value, ReturnSet):
        _render_indices(value.flags, "\n" + "  " * (depth + 1), out)
    else:
        raise TypeError(f"report leaves are str, bool, None or ReturnSet, not {type(value).__name__}")


@contextmanager
def _stage(name: str):
    try:
        yield
    except ExperimentError:
        raise
    except Exception as exc:
        raise StageError(f"{name} stage: {exc}") from exc


def _scan(spec: ExperimentSpec, cache=None):
    """The return-set and density-profile stages."""
    with _stage("return-set"):
        returns = return_set(
            spec.phi, spec.start, spec.target_generators, spec.horizon, cache
        )
    with _stage("density-profile"):
        profile = density_profile(returns, spec.analysis.window_lengths)
    return returns, profile


def run_experiment(spec: ExperimentSpec) -> ReportDocument:
    """Run the full pipeline as the root instance and assemble the report."""
    params = spec.analysis
    session = Session(spec.phi, spec.start, spec.horizon, params)
    # perfbench/child.py's STAGES wraps this module's names; _analyze reads them in globals().
    returns, profile = _scan(spec, session.cache)
    with _stage("closure-certification"):
        target_basis = buchberger(spec.target_generators, session.order)
        root, dec = _analyze(
            session, target_basis, returns, 1, 0, params.depth_limit, params, globals()
        )
    return ReportDocument(_build_payload(spec, profile, root), returns, profile, dec)


def density_report(spec: ExperimentSpec) -> ReportDocument:
    """Return set and density profile only, under the same stage guards."""
    returns, profile = _scan(spec)
    payload = {
        "experiment": _experiment_json(spec),
        "return_set": _return_set_json(returns),
        "density_profile": _profile_json(profile),
    }
    return ReportDocument(payload, returns, profile)


def certify_report(spec: ExperimentSpec, modulus: int, offset: int) -> ReportDocument:
    """Closure chain and certificate of one progression, without detection."""
    _schema(Progression, modulus, offset)
    with _stage("closure-certification"):
        session = Session(spec.phi, spec.start, spec.horizon, spec.analysis)
        chain = closure_chain(session, modulus, offset)
        certificate = session.certificate(chain, certify_invariant)
    payload = {
        "experiment": _experiment_json(spec),
        "progression": {"modulus": str(modulus), "offset": str(offset)},
        "closure_chain": _chain_json(chain, spec),
        "certificate": _certificate_json(certificate, spec),
    }
    return ReportDocument(payload)


# ---------------------------------------------------------------------------
# Report trees: every numeric leaf is a string, exact rationals as
# "num/den", and every index list the ReturnSet it lists; key order is
# fixed by construction.


def _experiment_json(spec: ExperimentSpec) -> dict:
    return {
        "field": spec.field_source,
        "vars": list(spec.var_names),
        "phi": list(spec.phi_sources),
        "alpha": list(spec.alpha_sources),
        "V": list(spec.target_sources),
        "N": str(spec.horizon),
    }


def _return_set_json(returns: ReturnSet) -> dict:
    return {
        "horizon": str(returns.horizon),
        "count": str(len(returns)),
        "indices": returns,
    }


def _profile_json(profile: DensityProfile) -> dict:
    return {
        "horizon": str(profile.horizon),
        "entries": [
            {"window": str(length), "max_ratio": str(ratio)}
            for length, ratio in profile.entries
        ],
    }


def _chain_json(chain: ClosureChain, spec: ExperimentSpec) -> dict:
    return {
        "modulus": str(chain.modulus),
        "degree_cap": str(chain.degree_cap),
        "dimension_nonincreasing": chain.dimension_nonincreasing,
        "offsets": [
            {
                "offset": str(e.offset),
                "dimension": str(e.dimension),
                "samples_used": str(e.samples_used),
                "stabilized": e.stabilized,
                "ideal": list(e.ideal.render(spec.var_names)),
            }
            for e in chain.entries
        ],
    }


def _certificate_json(cert: PeriodicityCertificate, spec: ExperimentSpec) -> dict:
    return {
        "modulus": str(cert.modulus),
        "invariant": cert.invariant,
        "witnesses": [
            {
                "generator": g.render(spec.var_names),
                "normal_form": nf.render(spec.var_names),
            }
            for g, nf in cert.witnesses
        ],
    }


def _progression_json(
    p: SubProgression, frame: dict, spec: ExperimentSpec, notes: list, prefix: str
) -> dict:
    """One progression at any depth; ``frame`` holds the caller's index keys.

    Appends the progression's diagnostics to ``notes``, each as
    "<prefix>progression (a, b): <note>", before its derived instances
    append theirs."""
    per_offset, merged = _codes(p)
    context = f"{prefix}progression ({p.modulus}, {p.offset})"
    if not p.certificate.invariant:
        notes.append(f"{context}: {_NOTES['certificate-failed']}")
    notes.extend(f"{context}: {_NOTES[code]}" for code in merged)
    return {
        "modulus": str(p.modulus),
        "offset": str(p.offset),
        **frame,
        "closure_chain": _chain_json(p.chain, spec),
        "certificate": _certificate_json(p.certificate, spec),
        "case_split": {
            "modulus": str(p.chain.modulus),
            "target_dimension": str(p.case_split.target_dimension),
            "flags": [_NOTES[code] for code in merged],
            "offsets": [
                {
                    "offset": str(e.offset),
                    "closure_dimension": str(e.dimension),
                    "intersection_dimension": str(c.intersection_dimension),
                    "intersection_ideal": list(c.intersection.render(spec.var_names)),
                    "case": c.case,
                    "flags": [_NOTES[code] for code in codes],
                    "derived": None if c.child is None else _subinstance_json(
                        c.child, spec, notes, f"{context}, derived offset {e.offset}, "
                    ),
                }
                for e, c, codes in zip(p.chain.entries, p.case_split.offsets, per_offset)
            ],
        },
    }


def _residual_json(instance: SubInstance) -> dict:
    return {
        "residual_count": str(len(instance.residual)),
        "residual_indices": instance.residual,
        "residual_profile": _profile_json(instance.residual_profile),
    }


def _subinstance_json(sub: SubInstance, spec: ExperimentSpec, notes: list, prefix: str) -> dict:
    return {
        "stride": str(sub.stride),
        "offset": str(sub.offset),
        "horizon": str(sub.returns.horizon),
        "return_count": str(len(sub.returns)),
        "return_indices": sub.returns,
        "progressions": [
            _progression_json(
                p,
                {
                    "orbit_modulus": str(p.chain.modulus),
                    "orbit_offset": str(p.chain.entries[0].offset),
                },
                spec,
                notes,
                prefix,
            )
            for p in sub.progressions
        ],
        **_residual_json(sub),
    }


# The sentence behind each code a report can conclude with.
_NOTES = {
    "certificate-failed": "periodicity certificate failed",
    "dimension-increase": "closure dimension increased along the chain",
    "unstabilized": "closure sampling did not stabilize within the sample budget",
    CASE_IRREDUCIBILITY_UNVERIFIED: (
        "equal dimensions but distinct ideals; irreducibility assumption unverified, "
        "keeping the empirical decomposition"
    ),
    CASE_DEPTH_EXHAUSTED: "recursion depth exhausted; keeping the empirical decomposition",
}


def _codes(p: SubProgression):
    """Each offset's codes (``unstabilized``, then an inconclusive case) and
    the progression's merged codes: ``dimension-increase`` first, then the
    offsets' codes in first-seen order."""
    per_offset = []
    for entry, case in zip(p.chain.entries, p.case_split.offsets):
        codes = [] if entry.stabilized else ["unstabilized"]
        if case.case in _NOTES:
            codes.append(case.case)
        per_offset.append(codes)
    merged = [] if p.chain.dimension_nonincreasing else ["dimension-increase"]
    merged.extend(dict.fromkeys(code for codes in per_offset for code in codes))
    return per_offset, merged


def _build_payload(spec: ExperimentSpec, profile: DensityProfile, root: SubInstance):
    params = spec.analysis
    header = _experiment_json(spec)
    header["analysis"] = dict(zip(params._fields, map(str, params)))
    header["analysis"]["window_lengths"] = list(map(str, params.window_lengths))
    notes: list = []  # filled by the progressions' render walk, parents first
    return {
        "experiment": header,
        "return_set": _return_set_json(root.returns),
        "density_profile": _profile_json(profile),
        "progressions": [
            _progression_json(
                p,
                {
                    "members_below_horizon": str(
                        Progression(p.modulus, p.offset).count_below(root.returns.horizon)
                    )
                },
                spec,
                notes,
                "",
            )
            for p in root.progressions
        ],
        "decomposition": {
            "progressions": [
                {"modulus": str(p.modulus), "offset": str(p.offset)}
                for p in root.progressions
            ],
            # decompose_return_set checked every member, so the covered
            # indices are exactly the returns outside the residual.
            "covered_count": str(len(root.returns) - len(root.residual)),
            **_residual_json(root),
        },
        "diagnostics": notes,
    }
