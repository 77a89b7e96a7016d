"""Equation arrows and their two-way conversion with natural identities.

An equation arrow over a variable set X at arity n is a surjection out
of stage n, represented losslessly as a partition of the stage set (in
finite sets the regular epis are exactly the surjections).  An algebra
satisfies the arrow when every evaluation map out of the stage is
constant on every block, i.e. factors through the quotient.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .algebras import FinAlgebra, compile_term
from .core import FinSet, Partition, count_maps, quotient
from .errors import ValidationError
from .functors import Signature
from .identities import (
    ClassComparison,
    NaturalIdentity,
    NaturalTerm,
    canonical_vars,
    equivalent_upto,
)
from .terms import Var, stage, substitute, variables


@dataclass(frozen=True, eq=True)
class EquationArrow:
    """A quotient of stage ``arity`` over ``var_object``, block by block."""

    sig: Signature
    var_object: FinSet
    arity: int
    part: Partition

    def __post_init__(self):
        expected = stage(self.sig, self.var_object, self.arity).terms
        if self.part.base != expected:
            raise ValidationError("partition base is not the full stage set")

    __hash__ = None


def satisfies_equation(alg: FinAlgebra, eq: EquationArrow) -> bool:
    """Whether every assignment's evaluation map is constant on every block.

    The assignments are bounded first, as ``enumerate_maps`` bounds them.
    A block's terms read only the variables occurring in them, so each
    block is checked over the assignments of those variables alone."""
    if alg.sig != eq.sig:
        raise ValidationError("signature mismatch between algebra and equation")
    names = eq.var_object.elements
    count_maps(len(names), len(alg.carrier))
    flat, n = alg.flat, len(alg.carrier)
    for block in eq.part.blocks:
        if len(block) == 1:
            continue
        used = frozenset().union(*map(variables, block))
        block_names = [v for v in names if v in used]
        first, *rest = [compile_term(eq.sig, t, block_names) for t in block]
        for values in itertools.product(range(n), repeat=len(block_names)):
            value = first(flat, n, values)
            if any(g(flat, n, values) != value for g in rest):
                return False
    return True


def identity_to_equation(ident: NaturalIdentity, x: FinSet) -> EquationArrow:
    """The coequalizer of the two transformation components at ``x``:
    merge every substitution instance of lhs with the matching instance
    of rhs, then close to an equivalence on the stage set."""
    st = stage(ident.sig, x, ident.arity)
    pairs = []
    for i, k in enumerate(ident.domain):
        names = canonical_vars(k)
        left, right = ident.lhs.data[i], ident.rhs.data[i]
        for images in itertools.product(x.elements, repeat=k):
            g = {v: Var(a) for v, a in zip(names, images)}
            pairs.append((substitute(left, g), substitute(right, g)))
    return EquationArrow(ident.sig, x, ident.arity, quotient(st.terms, pairs))


def equation_to_identity(eq: EquationArrow) -> NaturalIdentity:
    """Read the arrow back as a natural identity over hom(|X|, -): one
    component per off-diagonal kernel pair ``(s, t)`` of the quotient,
    read off the blocks with ``s`` before ``t`` in its block, ordered by
    the stage position of ``s`` and then of ``t``.

    Diagonal pairs and the reverse of each pair are left out; both are
    satisfaction-neutral.
    """
    names = canonical_vars(len(eq.var_object))
    renaming = {a: Var(v) for a, v in zip(eq.var_object.elements, names)}
    pairs = [(s, t) for block in eq.part.blocks
             for i, s in enumerate(block) for t in block[i + 1:]]
    # Each s lies in one block, whose atoms are in stage order, so a stable
    # sort on s alone leaves each s's partners in stage order too.
    pairs.sort(key=lambda pair: eq.part.base.position[pair[0]])
    domain = (len(eq.var_object),) * len(pairs)
    lhs = NaturalTerm(eq.sig, domain, eq.arity, tuple(substitute(s, renaming) for s, _ in pairs))
    rhs = NaturalTerm(eq.sig, domain, eq.arity, tuple(substitute(t, renaming) for _, t in pairs))
    return NaturalIdentity(lhs, rhs)


@dataclass(frozen=True)
class RoundtripReport:
    """Per-variable-object outcome of the conversion round trip."""

    outcomes: tuple[tuple[int, ClassComparison], ...]

    @property
    def equal(self) -> bool:
        return all(cmp.equal for _, cmp in self.outcomes)

    def __bool__(self) -> bool:
        return self.equal


def roundtrip_class_equal(
    ident: NaturalIdentity, x_sizes: Sequence[int], max_size: int
) -> RoundtripReport:
    """Convert identity → equation arrow → identity for each variable-object
    size and compare the satisfied classes over carriers ≤ max_size.

    No sizes, a negative one, or a ``max_size`` below 1 is refused before
    any stage is built."""
    x_sizes = tuple(x_sizes)
    if not x_sizes:
        raise ValidationError("round trip needs at least one variable-object size")
    for size in x_sizes:
        if size < 0:
            raise ValidationError(f"negative variable-object size {size}")
    if max_size < 1:
        raise ValidationError("max size must be at least 1")
    outcomes = []
    for size in x_sizes:
        x = FinSet(tuple(f"x{i + 1}" for i in range(size)))
        arrow = identity_to_equation(ident, x)
        back = equation_to_identity(arrow)
        outcomes.append((size, equivalent_upto(ident, back, max_size)))
    return RoundtripReport(tuple(outcomes))
