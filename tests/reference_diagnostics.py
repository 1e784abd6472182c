"""Reference diagnostics walk over the analysis tree.

This is the separate pass the report layer ran before diagnostics were
gathered by the render walk: ``_collect_diagnostics`` recursed over the
progressions a second time and decided each progression's codes again
through ``_codes``.  Tests compare the report's ``diagnostics`` list
against it; it is not part of the library.
"""

from dmlab.experiment import _NOTES


def _codes(p):
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


def _collect_diagnostics(progressions, prefix: str = ""):
    """(context, code) for every progression, derived ones after their parent's."""
    for p in progressions:
        context = f"{prefix}progression ({p.modulus}, {p.offset})"
        if not p.certificate.invariant:
            yield context, "certificate-failed"
        yield from ((context, code) for code in _codes(p)[1])
        for entry, case in zip(p.chain.entries, p.case_split.offsets):
            if case.child is not None:
                yield from _collect_diagnostics(
                    case.child.progressions,
                    f"{context}, derived offset {entry.offset}, ",
                )


def reference_diagnostics(progressions) -> list:
    """The report's ``diagnostics`` list for these top-level progressions."""
    return [
        f"{context}: {_NOTES[code]}"
        for context, code in _collect_diagnostics(progressions)
    ]
