"""Terms over a signature and the stage sets of the free-algebra chain.

Stage n over a variable set X is the set of all terms of height ≤ n, a
:class:`FinSet`; stage 0 is the variables alone.  The connecting maps of
the chain are the variable embedding ``iota``, the node constructor
``q_node``, the stage inclusions ``w_embed``, and the one-step injection
``y_inject``; each takes the signature, X and the stage indices, as
``stage_map`` takes the signature, a variable map and the index.
In this finite-set instantiation all connecting maps are injections, so
stages are literally nested sets of terms and ``w_embed`` is inclusion:
stage n is the cached stage n-1's own term objects, then the nodes of
height exactly n over them.

The canonical term order, of every stage and of a saturation run's ids,
is defined here alone: by height, then size; variables first, by name;
two nodes of one height and size by operation name, then children left
to right.  Over children in this order, ``nodes_in_order`` takes the
operations in name order and each one's tuples in ``itertools.product``
order, then sorts stably by size alone, which orders the nodes of one
height.  ``check_id_order`` checks the order on ids.

A term's hash is fixed at construction: a :class:`Var`'s from its name,
a :class:`Node`'s from its operation and its children's stored hashes,
so hashing a term (and every dict or set lookup keyed on one) costs O(1)
and never recurses, however deep the term.  Equality stays structural.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

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


def iter_stage_sizes(sig: Signature, x: FinSet) -> Iterator[int]:
    """Stage cardinalities 0, 1, 2, ... via |S_{k+1}| = Σ_σ |S_k|^{ar(σ)} + |x|.

    The sizes grow doubly exponentially, so a caller with a bound compares
    each size with it as it comes, before asking for the next."""
    size = len(x)
    while True:
        yield size
        size = sum(size**arity for _, arity in sig) + len(x)


def nodes_in_order(sig: Signature, sizes: Sequence[int], *columns: Sequence) -> list[tuple]:
    """Every node of ``sig`` over the children ``columns`` name, position by
    position, as ``(children's size, (op, tuple of the first column), ...)``,
    in the order of the module docstring; ``sizes`` holds each child's size."""
    new: list[tuple] = []
    for name, arity in sorted(sig):
        op = itertools.repeat(name)
        new += zip(map(sum, itertools.product(sizes, repeat=arity)),
                   *[zip(op, itertools.product(column, repeat=arity)) for column in columns])
    new.sort(key=itemgetter(0))
    return new


def check_id_order(ops: Sequence, node_args: Sequence, n: int) -> None:
    """Refuse, sorting nothing, ids 0..n-1 that are not variables, or a later
    id that is not a node over lower ids above the previous id's node in
    height, size, operation and child ids, as its term must be."""
    height, size, last = [0] * n, [1] * n, ()
    for i, args in enumerate(node_args):
        if i < n:
            ordered = ops[i] is None and args is None
        else:
            ordered = type(ops[i]) is str and args is not None and all(0 <= c < i for c in args)
            if ordered:
                key = (1 + max([height[c] for c in args], default=0),
                       1 + sum([size[c] for c in args]), ops[i], args)
                ordered, last = last < key, key
                height.append(key[0])
                size.append(key[1])
        if not ordered:
            raise ValidationError(f"id {i} is out of canonical term order")


# One call caches at most 2 * (MAX_TERM_DEPTH + 1) stages (the two chains
# ``stage_map`` walks), and the bound stops growth for the process's life.
@lru_cache(maxsize=512)
def _stage_terms(sig: Signature, x: FinSet, n: int) -> FinSet:
    if n == 0:
        # ``x`` is in canonical order, and so are its variables.
        return FinSet._trusted(tuple([Var(a) for a in x]))
    prev = _stage_terms(sig, x, n - 1).elements
    new = [Node(*node) for _, node in nodes_in_order(sig, [t.size for t in prev], prev)
           if 1 + max([a.height for a in node[1]], default=0) == n]
    return FinSet._trusted(prev + tuple(new))


def _stage_bounds(sig: Signature, x: FinSet, n: int, max_size: int = MAX_STAGE_SIZE) -> None:
    """Refuse stage ``n`` over ``x`` as ``stage`` does, from the sizes alone:
    when a size up to stage ``min(n, MAX_TERM_DEPTH)`` exceeds ``max_size``,
    and then when ``n`` exceeds ``MAX_TERM_DEPTH``.  So the walk is at most
    ``MAX_TERM_DEPTH + 1`` sizes long, whatever ``n`` is."""
    if n < 0:
        raise ValidationError("negative stage index")
    for k, size in zip(range(min(n, MAX_TERM_DEPTH) + 1), iter_stage_sizes(sig, x)):
        if size > max_size:
            raise ResourceLimitError(f"stage {k} over {len(x)} variables", size, max_size)
    if n > MAX_TERM_DEPTH:
        raise ResourceLimitError(f"term height of stage {n}", n, MAX_TERM_DEPTH)


def generators(n: int) -> FinSet:
    """The variable set ``x1..xn``, which is stage 0: refused, before it is
    built, above the bound every stage has."""
    if n > MAX_STAGE_SIZE:
        raise ResourceLimitError(f"stage 0 over {n} variables", n, MAX_STAGE_SIZE)
    return FinSet(tuple(f"x{i + 1}" for i in range(n)))


def stage(sig: Signature, x: FinSet, n: int, max_size: int = MAX_STAGE_SIZE) -> FinSet:
    """Stage ``n`` over variable set ``x``: the set of all terms over ``sig``
    and ``x`` of height ≤ n, in stage order, once ``_stage_bounds`` admits
    it."""
    _stage_bounds(sig, x, n, max_size)
    return _stage_terms(sig, x, n)


def iota(sig: Signature, x: FinSet, n: int) -> FinMap:
    """The variable embedding X → stage n."""
    return FinMap(x, stage(sig, x, n), {a: Var(a) for a in x})


def q_node(sig: Signature, x: FinSet, n: int) -> FinMap:
    """The node constructor F(stage n) → stage n+1, sending a tuple to its node."""
    src = apply_obj(sig, stage(sig, x, n))
    dst = stage(sig, x, n + 1)
    return FinMap(src, dst, {(name, args): Node(name, args) for (name, args) in src})


def w_embed(sig: Signature, x: FinSet, m: int, n: int) -> FinMap:
    """The inclusion stage m ⊆ stage n over ``x``, refused when n < m."""
    if n < m:
        raise ValidationError(f"cannot embed stage {m} into lower stage {n}")
    src = stage(sig, x, m)
    return FinMap(src, stage(sig, x, n), {t: t for t in src})


def y_inject(sig: Signature, x: FinSet, n: int) -> FinMap:
    """The one-step injection F(X) → stage n (n ≥ 1): a tuple of variables
    becomes its height-1 node, included into stage n."""
    if n < 1:
        raise ValidationError("y_inject needs stage index ≥ 1")
    src = apply_obj(sig, x)
    dst = stage(sig, x, n)
    table = {
        (name, args): Node(name, tuple(Var(a) for a in args)) for (name, args) in src
    }
    return FinMap(src, dst, table)


def stage_map(sig: Signature, f: FinMap, n: int) -> FinMap:
    """Functorial action of stage n on a variable map: relabel variables."""
    src = stage(sig, f.dom, n)
    dst = stage(sig, f.cod, n)
    return FinMap(src, dst, {t: relabel(t, f.table) for t in src})
