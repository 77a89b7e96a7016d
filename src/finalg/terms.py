"""Terms over a signature and the stage sets of the free-algebra chain.

Stage n over a variable set X is the set of all terms of height ≤ n;
stage 0 is the variables alone.  The connecting maps of the chain are
the variable embedding ``iota``, the node constructor ``q_node``, the
stage inclusions ``w_embed``, and the one-step injection ``y_inject``.
In this finite-set instantiation all connecting maps are injections, so
stages are literally nested sets of terms and ``w_embed`` is inclusion:
stage n is built from the cached stage n-1's own terms and the nodes of
height exactly n over them, so it holds stage n-1's term objects.  The
new nodes all sort after stage n-1, so only they are sorted, by size,
operation and their children's positions in stage n-1.

A term's hash is fixed at construction: a :class:`Var`'s from its name,
a :class:`Node`'s from its operation and its children's stored hashes,
so hashing a term (and every dict or set lookup keyed on one) costs O(1)
and never recurses, however deep the term.  Equality stays structural.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Mapping

from .core import FinMap, FinSet, atom_key
from .errors import ResourceLimitError, ValidationError
from .functors import Signature, apply_obj

# Stage sets are refused beyond this many terms unless the caller
# overrides the bound explicitly.
MAX_STAGE_SIZE = 1_000_000

# Terms are at most this high: the parser refuses deeper input and
# ``stage`` refuses higher indices.  The term functions (structural
# equality, sort keys, evaluation) recurse per level; at 256 levels they
# exceed Python's default recursion limit.
MAX_TERM_DEPTH = 128


class Term:
    """Base class; a term is either a :class:`Var` or a :class:`Node`."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: object

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    height = 0
    size = 1

    def sort_key(self):
        return (0, 1, (0, atom_key(self.name)))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class Node(Term):
    op: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "_hash", hash((self.op, self.args)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def height(self) -> int:
        return 1 + max((a.height for a in self.args), default=0)

    @cached_property
    def size(self) -> int:
        return 1 + sum(a.size for a in self.args)

    @cached_property
    def _key(self):
        return (self.height, self.size, (1, self.op, tuple(a.sort_key() for a in self.args)))

    def sort_key(self):
        return self._key

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"Node({self.op!r}, [{inner}])"


def variables(t: Term) -> frozenset:
    """The set of variable atoms occurring in ``t``."""
    match t:
        case Var(name):
            return frozenset((name,))
        case Node(_, args):
            out: frozenset = frozenset()
            for a in args:
                out |= variables(a)
            return out
    raise ValidationError(f"not a term: {t!r}")


def substitute(t: Term, mapping: Mapping[object, Term]) -> Term:
    """Replace every variable by the term it is mapped to."""
    match t:
        case Var(name):
            try:
                return mapping[name]
            except KeyError:
                raise ValidationError(f"unbound variable {name!r}") from None
        case Node(op, args):
            return Node(op, tuple(substitute(a, mapping) for a in args))
    raise ValidationError(f"not a term: {t!r}")


def relabel(t: Term, f: Mapping[object, object]) -> Term:
    """Rename variables by ``f``, preserving the tree shape: substitution
    of ``Var(f[a])`` for each variable ``a``, refused as ``substitute``
    refuses an unbound variable or a value that is not a term."""
    return substitute(t, {a: Var(b) for a, b in f.items()})


def format_term(t: Term) -> str:
    """Render a term in the textual syntax: variables bare, ops ``name(...)``."""
    match t:
        case Var(name):
            return str(name)
        case Node(op, args):
            return f"{op}({','.join(format_term(a) for a in args)})"
    raise ValidationError(f"not a term: {t!r}")


def check_term(sig: Signature, t: Term) -> None:
    """Validate arities of every node against the signature."""
    match t:
        case Var(_):
            return
        case Node(op, args):
            if sig.arity(op) != len(args):
                raise ValidationError(
                    f"operation {op!r} applied to {len(args)} arguments, arity is {sig.arity(op)}"
                )
            for a in args:
                check_term(sig, a)
            return
    raise ValidationError(f"not a term: {t!r}")


@dataclass(frozen=True)
class Stage:
    """Stage n of the chain: all terms over ``sig`` and ``x`` of height ≤ n."""

    sig: Signature
    x: FinSet
    n: int
    terms: FinSet


def iter_stage_sizes(sig: Signature, x: FinSet) -> Iterator[int]:
    """Stage cardinalities 0, 1, 2, ... via |S_{k+1}| = Σ_σ |S_k|^{ar(σ)} + |x|.

    The sizes grow doubly exponentially, so a caller with a bound compares
    each size with it as it comes, before asking for the next."""
    size = len(x)
    while True:
        yield size
        size = sum(size**arity for _, arity in sig) + len(x)


# One call caches at most 2 * (MAX_TERM_DEPTH + 1) stages (the two chains
# ``stage_map`` walks), and the bound stops growth for the process's life.
@lru_cache(maxsize=512)
def _stage_terms(sig: Signature, x: FinSet, n: int) -> FinSet:
    if n == 0:
        return FinSet(tuple(Var(a) for a in x))
    prev = _stage_terms(sig, x, n - 1)
    position = prev.position
    # Every node of height n sorts after every term of stage n-1, and two
    # of them compare by size, operation and then their children, whose
    # order is their order in stage n-1.
    new = []
    for name, arity in sig:
        for args in itertools.product(prev.elements, repeat=arity):
            if 1 + max((a.height for a in args), default=0) == n:
                new.append((1 + sum([a.size for a in args]), name,
                            tuple([position[a] for a in args]), args))
    new.sort(key=lambda entry: entry[:3])
    return FinSet._trusted(prev.elements + tuple([Node(name, args) for _, name, _, args in new]))


def _stage_bounds(sig: Signature, x: FinSet, n: int, max_size: int = MAX_STAGE_SIZE) -> None:
    """Refuse stage ``n`` over ``x`` as ``stage`` does, from the sizes alone:
    when a size up to stage ``n`` exceeds ``max_size``, and then when ``n``
    exceeds ``MAX_TERM_DEPTH``."""
    if n < 0:
        raise ValidationError("negative stage index")
    for k, size in zip(range(n + 1), iter_stage_sizes(sig, x)):
        if size > max_size:
            raise ResourceLimitError(f"stage {k} over {len(x)} variables", size, max_size)
    if n > MAX_TERM_DEPTH:
        raise ResourceLimitError(f"term height of stage {n}", n, MAX_TERM_DEPTH)


def stage(sig: Signature, x: FinSet, n: int, max_size: int = MAX_STAGE_SIZE) -> Stage:
    """Build stage ``n`` over variable set ``x``, once ``_stage_bounds``
    admits it."""
    _stage_bounds(sig, x, n, max_size)
    return Stage(sig, x, n, _stage_terms(sig, x, n))


def iota(st: Stage) -> FinMap:
    """The variable embedding X → stage n."""
    return FinMap(st.x, st.terms, {a: Var(a) for a in st.x})


def q_node(sig: Signature, x: FinSet, n: int) -> FinMap:
    """The node constructor F(stage n) → stage n+1, sending a tuple to its node."""
    src = apply_obj(sig, stage(sig, x, n).terms)
    dst = stage(sig, x, n + 1).terms
    return FinMap(src, dst, {(name, args): Node(name, args) for (name, args) in src})


def w_embed(st_m: Stage, n: int) -> FinMap:
    """The inclusion stage m ⊆ stage n for m ≤ n."""
    if n < st_m.n:
        raise ValidationError(f"cannot embed stage {st_m.n} into lower stage {n}")
    dst = stage(st_m.sig, st_m.x, n).terms
    return FinMap(st_m.terms, dst, {t: t for t in st_m.terms})


def y_inject(sig: Signature, x: FinSet, n: int) -> FinMap:
    """The one-step injection F(X) → stage n (n ≥ 1): a tuple of variables
    becomes its height-1 node, included into stage n."""
    if n < 1:
        raise ValidationError("y_inject needs stage index ≥ 1")
    src = apply_obj(sig, x)
    dst = stage(sig, x, n).terms
    table = {
        (name, args): Node(name, tuple(Var(a) for a in args)) for (name, args) in src
    }
    return FinMap(src, dst, table)


def stage_map(sig: Signature, f: FinMap, n: int) -> FinMap:
    """Functorial action of stage n on a variable map: relabel variables."""
    src = stage(sig, f.dom, n).terms
    dst = stage(sig, f.cod, n).terms
    return FinMap(src, dst, {t: relabel(t, f.table) for t in src})
