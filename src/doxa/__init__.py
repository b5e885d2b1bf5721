"""Doxastic-logic toolkit: parse belief formulas, decide satisfiability and
validity by tableau under selectable logic profiles, extract self-verified
countermodels, and cross-check verdicts against a brute-force oracle.

The belief operator ``B[a]`` quantifies universally over an agent's
doxastic alternatives; the compatibility operator ``C[a]`` is its
existential dual.  Profiles select the frame class and the introspection
strength: ``kd`` (seriality only), ``hstar`` (seriality plus a weak
introspection witness), ``hintikka`` (seriality plus transitivity), and
``kd45`` (seriality, transitivity and euclideanness).
"""

from __future__ import annotations

import importlib

#: The module that defines each public name, and the one list of those
#: names: ``__all__`` is derived from it.  ``__getattr__`` (PEP 562)
#: imports the module on the name's first use, so that ``import doxa``
#: loads no submodule and a process loads only the modules it runs.
_MODULE_OF = {
    name: module
    for module, names in {
        "corpus": "CorpusEntry CorpusResult CorpusRow load_corpus run_corpus run_entry",
        "formula": "Agent And Atom Bel Comp Formula Iff Implies Not Or agents atoms desugar"
        " modal_depth neg node_count render subformula_closure subformulas",
        "models": "InternalVerificationError LabeledModelSystem LogicProfile ModelSystem"
        " PROFILES_BY_STRENGTH Violation check_frame check_model_set evaluate"
        " labeled_from_json_dict labeled_to_json_dict model_from_json_dict model_to_json_dict",
        "oracle": "MAX_BUDGET_WORLDS REFERENCE_COUNTS EnumerationBudget enumerate_models sat_upto",
        "parser": "ParseError SourceSpan format_parse_error parse",
        "tableau": "ProofStep RULES SatVerdict TableauStats UnsatVerdict ValidityVerdict decide"
        " decide_sat decide_valid render_trace trace_to_json_dict verdict_to_json_dict",
    }.items()
    for name in names.split()
}


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]
