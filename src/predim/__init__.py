"""predim: exact predimension calculus on finite relational structures.

Rational-weighted predimensions with optional matroid components,
self-sufficient (strong) subsets, free and thrifty amalgamation, generic-model
approximation with richness audits, the induced pregeometry, and mu-bounded
collapse.
"""

from .structures import (
    Embedding,
    FinStructure,
    Signature,
    StructureError,
    find_embeddings,
)
from .predimension import (
    FreeOracle,
    LinearOracle,
    MatroidOracle,
    PredimensionSpec,
    SpecError,
    UniformOracle,
    delta,
    oracle_by_name,
)
from .canonical import canonical_code, code_over_base, pair_code
from .strongsets import (
    StrongReport,
    brute_closure,
    brute_force_is_strong,
    closure,
    in_class,
    is_strong,
    strong_verdict,
)
from .amalgams import AmalgamError, AmalgamResult, free_amalgam
from .extensions import (
    ExtensionClass,
    classify_extension,
    enumerate_extensions,
    linear_extension_palette,
)
from .geometry import GeometryError, check_exchange, dim, gcl, require_geometric
from .builder import (
    BlockedRecord,
    BuilderError,
    DischargeRecord,
    GenericApprox,
    RichnessReport,
    audit_richness,
    build_generic,
    free_extend,
    obligation_met,
    resume,
)
from .collapse import (
    DEFAULT_MU,
    BiminimalError,
    MuError,
    MuFunction,
    MuReport,
    ThriftyError,
    ThriftyOutcome,
    biminimal_base,
    build_collapsed,
    count_independent_copies,
    enumerate_minimal_extensions,
    in_class_mu,
    mu_violations,
    thrifty_step,
)
from .audits import (
    AuditResult,
    audit_amalgamation,
    audit_dim_additivity,
    audit_exchange,
    audit_oracle_equivalence,
    audit_strong_laws,
    audit_submodularity,
    structure_source,
)
from .textio import (
    ParseError,
    format_fraction,
    format_ids,
    parse_map,
    parse_mu,
    parse_spec,
    parse_structure,
    report_text,
    serialize_map,
    serialize_mu,
    serialize_spec,
    serialize_structure,
)

__version__ = "0.1.0"
