"""Natural weak factorisation systems on finite presheaf categories.

The package factors a map of finite presheaves against a generating set of
arrows, either by plain iteration of the one-step construction or by the
free sequence that collapses redundant cells with coequalizers at every
successor stage. Converged runs yield algebra structures and lifting tables;
factorisation rules given in closed form can be checked against the full
battery of (co)monad and distributivity laws.
"""

from .algebras import (
    AlgebraStructure,
    BijectionReport,
    LiftingTable,
    algebra_from_fillers,
    check_bijection,
    enumerate_algebra_structures,
    enumerate_lifting_tables,
    extract_algebra,
    fillers_from_algebra,
    validate_algebra,
    validate_table,
)
from .arrows import ArrowObj, GeneratingSet, Square, as_arrow, generating_squares
from .catalog import (
    UnknownCatalogKey,
    get_category,
    get_gens,
    horn_inclusion,
    representable,
    simplex_truncation,
    terminal_category,
    terminal_presheaf,
)
from .colimits import (
    Cocone,
    attach,
    chain_colimit,
    coequalizer,
    coproduct,
    induce,
    initial,
    pushout,
    quotient,
)
from .core import (
    EngineError,
    FinCategory,
    IncompatibleInput,
    InternalCheckFailed,
    Morphism,
    Presheaf,
    PresheafMap,
    compose_maps,
    composite_equals,
    enumerate_maps,
    identity_map,
    inverse_map,
    is_injective,
    is_iso,
    is_surjective,
    maps_equal,
    presheaf,
    validate,
)
from .jsonio import InputError, validate_certificate
from .laws import LawCheck, LawReport, check_laws, evaluate_rule, exhaustive_arrows, sample_arrows
from .onestep import OneStepFactorization, build_onestep, onestep_on_square
from .rules import (
    MUTANT_COUNT,
    FactorizationRule,
    FactorTriple,
    RuleAlgebra,
    RuleCoalgebra,
    canonical_lift,
    cograph_rule,
    compose_coalgebras,
    graph_rule,
    interchange,
    mutant_rule,
    odot_product,
    tensor_product,
    trivial_left_rule,
    trivial_right_rule,
)
from .sequence import (
    FREE,
    PLAIN,
    ComparisonReport,
    OrdinalBudget,
    SequenceState,
    Stage,
    build_comparison,
    run_free,
    run_plain,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
