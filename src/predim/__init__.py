"""predim: exact predimension calculus on finite relational structures.

Rational-weighted predimensions with optional matroid components,
self-sufficient (strong) subsets, free and thrifty amalgamation, generic-model
approximation with richness audits, the induced pregeometry, and mu-bounded
collapse.

`import predim` loads no submodule: each public name below is imported from
its module on first access (PEP 562) and then kept here, so a program pays
only for the layers it uses.
"""

import importlib

# public name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "structures": "Embedding FinStructure Signature StructureError find_embeddings",
        "predimension": """FreeOracle LinearOracle MatroidOracle PredimensionSpec SpecError
            UniformOracle delta oracle_by_name""",
        "canonical": "canonical_code code_over_base pair_code",
        "strongsets": """StrongReport brute_closure brute_force_is_strong closure in_class
            is_strong strong_verdict""",
        "amalgams": "AmalgamError AmalgamResult free_amalgam",
        "extensions": "ExtensionClass classify_extension enumerate_extensions linear_extension_palette",
        "geometry": "GeometryError check_exchange dim gcl require_geometric",
        "builder": """BlockedRecord BuilderError DischargeRecord GenericApprox RichnessReport
            audit_richness build_generic free_extend obligation_met resume""",
        "collapse": """DEFAULT_MU BiminimalError MuError MuFunction MuReport ThriftyError
            ThriftyOutcome biminimal_base build_collapsed count_independent_copies
            enumerate_minimal_extensions in_class_mu mu_violations thrifty_step""",
        "audits": """AuditResult audit_amalgamation audit_dim_additivity audit_exchange
            audit_oracle_equivalence audit_strong_laws audit_submodularity structure_source""",
        "textio": """ParseError format_fraction format_ids parse_map parse_mu parse_spec
            parse_structure report_text serialize_map serialize_mu serialize_spec
            serialize_structure""",
    }.items()
    for name in names.split()
}

# every submodule but `cli` is an attribute too, loaded on first access
_SUBMODULES = {*_SOURCE.values(), "richness", "sampling"}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """The public `name`, imported from its submodule and kept here."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SOURCE.keys() | _SUBMODULES)
