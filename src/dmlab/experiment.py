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
from dataclasses import dataclass
from fractions import Fraction

from .closures import (
    CaseSplitFragment,
    ClosureChain,
    PeriodicityCertificate,
    Session,
    SubInstance,
    certify_invariant,
    closure_chain,
    refine_case_split,
)
from .density import (
    Decomposition,
    DensityProfile,
    ceil_sqrt,
    decompose_return_set,
    default_window_schedule,
    density_profile,
    detect_progressions,
)
from .exprparse import ExprSyntaxError, parse_polynomial
from .fields import Field
from .ideals import ReducedGroebnerBasis, buchberger
from .multipoly import MonomialOrder
from .orbits import Morphism, ReturnSet, return_set

__all__ = [
    "AnalysisParams",
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


_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_FIELD_RE = re.compile(r"^GF\((\d+)\)(\(t\))?$")

_TOP_KEYS = {"field", "vars", "phi", "alpha", "V", "N", "analysis"}
_ANALYSIS_KEYS = {
    "a_max",
    "m_min",
    "tail_start",
    "degree_cap",
    "initial_samples",
    "sample_budget",
    "depth_limit",
    "window_lengths",
}


@dataclass(frozen=True)
class AnalysisParams:
    """Resolved tuning knobs for one experiment.

    Defaults: a_max = ceil(sqrt(N)), m_min = 5, tail_start = 0,
    degree_cap = 4, initial_samples = 4, sample_budget = 64,
    depth_limit = 3, window_lengths = the quarter-power schedule of N.
    """

    a_max: int
    m_min: int
    tail_start: int
    degree_cap: int
    initial_samples: int
    sample_budget: int
    depth_limit: int
    window_lengths: tuple


@dataclass(frozen=True)
class ExperimentSpec:
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
    order: MonomialOrder


def _require_int(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer")
    if value < minimum:
        raise SchemaError(f"{name} must be at least {minimum}")
    return value


def _require_str_list(value, name: str):
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise SchemaError(f"{name} must be a list of strings")
    return value


def _parse_field(label) -> Field:
    if not isinstance(label, str):
        raise SchemaError("field must be a string")
    if label == "QQ":
        return Field.rationals()
    m = _FIELD_RE.match(label)
    if not m:
        raise SchemaError(
            f"field must be 'QQ', 'GF(p)' or 'GF(p)(t)', got {label!r}"
        )
    try:
        p = int(m.group(1))
        return Field.rational_functions(p) if m.group(2) else Field.prime(p)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


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
        if not _IDENT_RE.match(name):
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
    horizon = _require_int(doc["N"], "N", 1)

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
    order = MonomialOrder.grevlex(len(var_names))
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
        order,
    )


def _parse_analysis(raw, horizon: int) -> AnalysisParams:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SchemaError("analysis must be an object")
    unknown = set(raw) - _ANALYSIS_KEYS
    if unknown:
        raise SchemaError(f"unknown analysis key {sorted(unknown)[0]!r}")
    a_max = _require_int(raw.get("a_max", ceil_sqrt(horizon)), "a_max", 1)
    m_min = _require_int(raw.get("m_min", 5), "m_min", 2)
    tail_start = _require_int(raw.get("tail_start", 0), "tail_start", 0)
    if tail_start >= horizon:
        raise SchemaError("tail_start must be below N")
    degree_cap = _require_int(raw.get("degree_cap", 4), "degree_cap", 1)
    initial_samples = _require_int(raw.get("initial_samples", 4), "initial_samples", 2)
    sample_budget = _require_int(
        raw.get("sample_budget", 64), "sample_budget", initial_samples
    )
    depth_limit = _require_int(raw.get("depth_limit", 3), "depth_limit", 0)
    lengths = raw.get("window_lengths")
    if lengths is None:
        window_lengths = default_window_schedule(horizon)
    else:
        if not isinstance(lengths, list) or not lengths:
            raise SchemaError("window_lengths must be a nonempty list of integers")
        out = []
        for l in lengths:
            l = _require_int(l, "window_lengths entry", 1)
            if l > horizon:
                raise SchemaError("window_lengths entries must not exceed N")
            out.append(l)
        window_lengths = tuple(sorted(set(out)))
    return AnalysisParams(
        a_max,
        m_min,
        tail_start,
        degree_cap,
        initial_samples,
        sample_budget,
        depth_limit,
        window_lengths,
    )


def load_experiment(path) -> ExperimentSpec:
    """Read and validate an experiment file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return experiment_from_dict(doc)


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class _ProgressionAnalysis:
    modulus: int
    offset: int
    chain: ClosureChain
    certificate: PeriodicityCertificate
    case_split: CaseSplitFragment


class ReportDocument:
    """Finished analysis: JSON payload plus the exact objects behind it."""

    def __init__(self, payload, returns=None, profile=None, decomposition=None):
        self.payload = payload
        self.returns = returns
        self.profile = profile
        self.decomposition = decomposition

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2) + "\n"

    def returns_csv(self) -> str:
        lines = ["n,in_V"]
        for n in range(self.returns.horizon):
            lines.append(f"{n},{1 if n in self.returns else 0}")
        return "\n".join(lines) + "\n"

    def density_csv(self) -> str:
        lines = ["L,max_ratio"]
        for length, ratio in self.profile.entries:
            lines.append(f"{length},{ratio}")
        return "\n".join(lines) + "\n"


def _stage(name: str):
    class _StageGuard:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if isinstance(exc, Exception) and not isinstance(exc, ExperimentError):
                raise StageError(f"{name} stage: {exc}") from exc
            return False

    return _StageGuard()


def _session(spec: ExperimentSpec) -> Session:
    params = spec.analysis
    return Session(
        spec.phi,
        spec.start,
        spec.horizon,
        params.m_min,
        params.degree_cap,
        params.initial_samples,
        params.sample_budget,
        params.depth_limit,
    )


def _scan(spec: ExperimentSpec, cache=None):
    """The return-set and density-profile stages."""
    with _stage("return-set"):
        returns = return_set(
            spec.phi, spec.start, spec.target_generators, spec.horizon, cache
        )
    with _stage("density-profile"):
        profile = density_profile(returns, spec.analysis.window_lengths)
    return returns, profile


def _certified_chain(session: Session, modulus: int, offset: int):
    """Closure chain of one progression and its base offset's certificate."""
    chain = closure_chain(session, modulus, offset)
    certificate = certify_invariant(chain.entry_for(offset).ideal, session.phi, modulus)
    return chain, certificate


def run_experiment(spec: ExperimentSpec) -> ReportDocument:
    """Run the full pipeline and assemble the deterministic report."""
    params = spec.analysis
    session = _session(spec)
    returns, profile = _scan(spec, session.cache)
    with _stage("progression-detection"):
        progressions = detect_progressions(
            returns, params.a_max, params.m_min, params.tail_start
        )
    with _stage("closure-certification"):
        target_basis = buchberger(spec.target_generators, spec.order)
        analyses = []
        for prog in progressions:
            chain, certificate = _certified_chain(session, prog.modulus, prog.offset)
            fragment = refine_case_split(session, target_basis, chain)
            analyses.append(
                _ProgressionAnalysis(
                    prog.modulus, prog.offset, chain, certificate, fragment
                )
            )
    with _stage("decomposition"):
        decomposition = decompose_return_set(
            returns, progressions, params.window_lengths
        )

    payload = _build_payload(spec, returns, profile, analyses, decomposition)
    return ReportDocument(payload, returns, profile, decomposition)


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
    with _stage("closure-certification"):
        chain, certificate = _certified_chain(_session(spec), modulus, offset)
    payload = {
        "experiment": _experiment_json(spec),
        "progression": {"modulus": str(modulus), "offset": str(offset)},
        "closure_chain": _chain_json(chain, spec),
        "certificate": _certificate_json(certificate, spec),
    }
    return ReportDocument(payload)


# ---------------------------------------------------------------------------
# Report rendering: every numeric leaf is a string, exact rationals as
# "num/den"; key order is fixed by construction.


def _frac(value: Fraction) -> str:
    return str(value)


def _ints(values) -> list:
    return [str(v) for v in values]


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
        "indices": _ints(returns.indices),
    }


def _profile_json(profile: DensityProfile) -> dict:
    return {
        "horizon": str(profile.horizon),
        "entries": [
            {"window": str(length), "max_ratio": _frac(ratio)}
            for length, ratio in profile.entries
        ],
    }


def _basis_json(basis: ReducedGroebnerBasis, spec: ExperimentSpec) -> list:
    return list(basis.render(spec.var_names))


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
                "ideal": _basis_json(e.ideal, spec),
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
                "generator": g.render(spec.var_names, spec.order),
                "normal_form": nf.render(spec.var_names, spec.order),
            }
            for g, nf in cert.witnesses
        ],
    }


def _subinstance_json(sub: SubInstance, spec: ExperimentSpec) -> dict:
    return {
        "stride": str(sub.stride),
        "offset": str(sub.offset),
        "horizon": str(sub.horizon),
        "return_count": str(len(sub.returns)),
        "return_indices": _ints(sub.returns.indices),
        "progressions": [
            {
                "modulus": str(p.modulus),
                "offset": str(p.offset),
                "orbit_modulus": str(p.orbit_modulus),
                "orbit_offset": str(p.orbit_offset),
                "closure_chain": _chain_json(p.chain, spec),
                "certificate": _certificate_json(p.certificate, spec),
                "case_split": _fragment_json(p.case_split, spec),
            }
            for p in sub.progressions
        ],
        "residual_count": str(len(sub.residual)),
        "residual_indices": _ints(sub.residual.indices),
        "residual_profile": _profile_json(sub.residual_profile),
    }


def _fragment_json(fragment: CaseSplitFragment, spec: ExperimentSpec) -> dict:
    return {
        "modulus": str(fragment.modulus),
        "target_dimension": str(fragment.target_dimension),
        "flags": list(fragment.flags),
        "offsets": [
            {
                "offset": str(c.offset),
                "closure_dimension": str(c.closure_dimension),
                "intersection_dimension": str(c.intersection_dimension),
                "intersection_ideal": _basis_json(c.intersection, spec),
                "case": c.case,
                "flags": list(c.flags),
                "derived": None if c.child is None else _subinstance_json(c.child, spec),
            }
            for c in fragment.offsets
        ],
    }


def _collect_diagnostics(analyses) -> list:
    notes = []

    def walk_fragment(fragment, context):
        for flag in fragment.flags:
            notes.append(f"{context}: {flag}")
        for case in fragment.offsets:
            if case.child is not None:
                for p in case.child.progressions:
                    sub_ctx = (
                        f"{context}, derived offset {case.offset}, "
                        f"progression ({p.modulus}, {p.offset})"
                    )
                    if not p.certificate.invariant:
                        notes.append(f"{sub_ctx}: periodicity certificate failed")
                    walk_fragment(p.case_split, sub_ctx)

    for a in analyses:
        context = f"progression ({a.modulus}, {a.offset})"
        if not a.certificate.invariant:
            notes.append(f"{context}: periodicity certificate failed")
        walk_fragment(a.case_split, context)
    return notes


def _build_payload(spec, returns, profile, analyses, decomposition: Decomposition):
    params = spec.analysis
    covered = decomposition.covered()
    header = _experiment_json(spec)
    header["analysis"] = {
        "a_max": str(params.a_max),
        "m_min": str(params.m_min),
        "tail_start": str(params.tail_start),
        "degree_cap": str(params.degree_cap),
        "initial_samples": str(params.initial_samples),
        "sample_budget": str(params.sample_budget),
        "depth_limit": str(params.depth_limit),
        "window_lengths": _ints(params.window_lengths),
    }
    payload = {
        "experiment": header,
        "return_set": _return_set_json(returns),
        "density_profile": _profile_json(profile),
        "progressions": [
            {
                "modulus": str(a.modulus),
                "offset": str(a.offset),
                "members_below_horizon": str(
                    len(range(a.offset, spec.horizon, a.modulus))
                ),
                "closure_chain": _chain_json(a.chain, spec),
                "certificate": _certificate_json(a.certificate, spec),
                "case_split": _fragment_json(a.case_split, spec),
            }
            for a in analyses
        ],
        "decomposition": {
            "progressions": [
                {"modulus": str(p.modulus), "offset": str(p.offset)}
                for p in decomposition.progressions
            ],
            "covered_count": str(len(covered)),
            "residual_count": str(len(decomposition.residual)),
            "residual_indices": _ints(decomposition.residual.indices),
            "residual_profile": _profile_json(decomposition.residual_profile),
        },
        "diagnostics": _collect_diagnostics(analyses),
    }
    return payload
