"""finalg: a finite universal-algebra workbench.

Stage sets of the free-algebra chain over finite sets, finite algebras
and term evaluation, natural identities in Yoneda form, equation arrows
and the two-way conversion between the two, free algebras in varieties
by congruence saturation, and free-monad machinery (level maps,
Eilenberg-Moore checks, algebras for a two-arrow diagram of monads).
"""

from .algebras import FinAlgebra, enumerate_algebras, evaluate, is_morphism
from .core import (
    FinMap,
    FinSet,
    Partition,
    coproduct,
    enumerate_maps,
    quotient,
)
from .equations import (
    EquationArrow,
    equation_to_identity,
    identity_to_equation,
    roundtrip_class_equal,
    satisfies_equation,
)
from .errors import FinalgError, ParseError, ResourceLimitError, ValidationError
from .functors import Signature, apply_map, apply_obj
from .identities import (
    NaturalIdentity,
    NaturalTerm,
    bundle,
    canonical_vars,
    equivalent_upto,
    from_sigma,
    raise_arity,
    satisfies,
)
from .monadic import (
    PowersetMonadInstance,
    check_monad_map,
    dalg_check,
    em_satisfies,
    em_structures,
    equi_check,
    mu_flatten,
    powerset_instance,
    rho_level,
    variety_vs_dalg,
)
from .terms import (
    Node,
    Stage,
    Term,
    Var,
    format_term,
    iota,
    q_node,
    stage,
    stage_map,
    substitute,
    w_embed,
    y_inject,
)
from .variety import (
    CongruenceState,
    Stabilized,
    Unstabilized,
    check_universal_property,
    saturate,
    word_equal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
