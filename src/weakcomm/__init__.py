"""weakcomm: weak-commutativity doubles of finitely presented groups,
coset enumeration, and exact group-ring trace audits."""

from .words import Word, commutator, free_reduce
from .presentations import (
    GeneratorMap,
    Presentation,
    PresentationError,
    PresentationSyntaxError,
    UndeclaredGeneratorError,
    direct_power,
    parse_presentation,
    parse_word,
    presentation_to_text,
    word_to_text,
)
from .smith import IntegerMatrix, SmithForm, abelianization, is_perfect, smith_normal_form
from .todd_coxeter import (
    CosetTable,
    EnumerationLimits,
    LimitExceeded,
    closure_audit,
    dump_table,
    enumerate_cosets,
    standardize,
    word_image,
)
from .finite_groups import (
    FiniteGroup,
    FiniteHom,
    Subgroup,
    center,
    conjugacy_classes,
    derived_subgroup,
    kernel_and_image,
    normal_closure,
    realize,
    subgroup_generated,
)
from .sidki import (
    DoubleData,
    KernelAnalysis,
    TorsionReport,
    analyze_double_kernel,
    canonical_maps,
    double_presentation,
    identity_witness,
    subgroup_families,
    torsion_probe,
)
from .carriers import (
    BaumslagSolitarCarrier,
    ConjugacyUnsupportedError,
    FiniteCarrier,
    FreeAbelianCarrier,
    FreeCarrier,
)
from .group_rings import (
    ClassFunction,
    RingElement,
    RingMatrix,
    TraceReport,
    epsilon,
    hattori_stallings,
    identity_matrix,
    is_idempotent,
    kappa,
    monomial,
    pushforward,
    ring_one,
    ring_zero,
    torsion_idempotent,
    trace_audit,
)

__version__ = "0.1.0"
