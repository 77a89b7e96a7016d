"""Finite algebras over a signature: evaluation, morphisms, enumeration.

An algebra is a finite carrier plus one total operation table per
symbol; equivalently a single structure map F(A) → A, available as a
derived view.  A term is evaluated by compiling it once into nested
closures (``compile_term``) that fold it through the tables, with its
variables resolved to positions in a value tuple; the fold depends only
on the term, so it is independent of the stage a term is viewed in.
Callers that evaluate one term under many assignments compile it once:
``identities.violation`` runs each identity's sides, compiled once, over
the assignments in ``itertools.product`` order and reports the first
failure.

``FinAlgebra(...)`` checks that every table is total with values in the
carrier and that no table names an unknown operation.
``FinAlgebra._trusted`` checks nothing; its callers are
``enumerate_algebras`` and ``_orbit_representatives``, whose tables are
total by construction, and the declaration parser, which has already
checked each table and reported any fault with its position.  Algebras
built from other values (a quotient, an Eilenberg-Moore structure) go
through the checked constructor.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterator, Mapping, Sequence

from .core import MAX_ENUMERATION, FinMap, FinSet, bounded_power
from .errors import ValidationError
from .functors import SigF, Signature, apply_obj
from .terms import Node, Term, Var


class FinAlgebra:
    """Finite carrier plus a total operation table per symbol, keyed in
    signature order."""

    __slots__ = ("sig", "carrier", "tables")

    def __init__(self, sig: Signature, carrier: FinSet, tables: Mapping[str, Mapping]):
        for name, arity in sig:
            if name not in tables:
                raise ValidationError(f"missing table for {name!r}")
            table = tables[name]
            for args in itertools.product(carrier.elements, repeat=arity):
                if args not in table:
                    raise ValidationError(f"table for {name!r} missing tuple {args!r}")
                if table[args] not in carrier:
                    raise ValidationError(
                        f"table for {name!r} maps {args!r} outside the carrier"
                    )
        extra = set(tables) - set(sig.names())
        if extra:
            raise ValidationError(f"table for unknown operation {sorted(extra)[0]!r}")
        self.sig = sig
        self.carrier = carrier
        self.tables = {name: dict(tables[name]) for name, _ in sig}

    @classmethod
    def _trusted(cls, sig: Signature, carrier: FinSet, tables: dict) -> "FinAlgebra":
        """The algebra of ``tables``, which must be total, within the carrier
        and keyed in signature order; they are kept, not copied."""
        alg = object.__new__(cls)
        alg.sig = sig
        alg.carrier = carrier
        alg.tables = tables
        return alg

    def structure_map(self) -> FinMap:
        """The single structure map F(A) → A over the signature functor."""
        dom = apply_obj(SigF(self.sig), self.carrier)
        return FinMap(
            dom, self.carrier, {(name, args): self.tables[name][args] for (name, args) in dom}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinAlgebra)
            and self.sig == other.sig
            and self.carrier == other.carrier
            and self.tables == other.tables
        )

    def __hash__(self):
        items = tuple(
            (name, tuple(sorted(table.items(), key=repr)))
            for name, table in self.tables.items()
        )
        return hash((self.sig, self.carrier, items))

    def __repr__(self) -> str:
        return f"FinAlgebra({self.sig.names()}, carrier={len(self.carrier)})"


Compiled = Callable[[Mapping[str, Mapping], Sequence], object]


def compile_term(t: Term, names: Sequence) -> Compiled:
    """Compile ``t`` into ``f(tables, values)``, the fold of ``t`` through
    ``tables`` with variable ``names[j]`` bound to ``values[j]``.

    Variables are resolved to positions here; a variable outside ``names``
    is refused now, not when the closure runs.
    """
    return _compile(t, {name: j for j, name in enumerate(names)})


def _compile(t: Term, index: Mapping) -> Compiled:
    if type(t) is Var:
        try:
            j = index[t.name]
        except KeyError:
            raise ValidationError(f"unbound variable {t.name!r}") from None
        return lambda tables, values: values[j]
    if type(t) is not Node:
        raise ValidationError(f"not a term: {t!r}")
    op, args = t.op, t.args
    if len(args) == 2:
        f, g = _compile(args[0], index), _compile(args[1], index)
        return lambda tables, values: tables[op][(f(tables, values), g(tables, values))]
    if len(args) == 1:
        f = _compile(args[0], index)
        return lambda tables, values: tables[op][(f(tables, values),)]
    if not args:
        return lambda tables, values: tables[op][()]
    subs = [_compile(a, index) for a in args]
    return lambda tables, values: tables[op][tuple([f(tables, values) for f in subs])]


def evaluate(alg: FinAlgebra, t: Term, binding: Mapping):
    """Fold a term through the algebra's tables under a variable binding."""
    f = compile_term(t, tuple(binding))
    try:
        return f(alg.tables, tuple(binding.values()))
    except KeyError as exc:
        op = exc.args[0]
        if type(op) is str and op not in alg.tables:
            raise ValidationError(f"unknown operation {op!r}") from None
        raise


def is_morphism(src: FinAlgebra, dst: FinAlgebra, h: FinMap) -> bool:
    """Whether ``h`` commutes with every operation table on every tuple."""
    if src.sig != dst.sig:
        raise ValidationError("signature mismatch")
    if h.dom != src.carrier or h.cod != dst.carrier:
        raise ValidationError("carrier mismatch")
    table = h.table
    for name, arity in src.sig:
        s_table, d_table = src.tables[name], dst.tables[name]
        for args in itertools.product(src.carrier.elements, repeat=arity):
            if table[s_table[args]] != d_table[tuple(table[a] for a in args)]:
                return False
    return True


def count_algebras(sig: Signature, carrier: FinSet, max_count: int = MAX_ENUMERATION) -> int:
    """The number Π_σ |A|^(|A|^ar(σ)) of algebras on the carrier, or a
    :class:`ResourceLimitError` when it exceeds ``max_count``."""
    n = len(carrier)
    cells = sum(n**arity for _, arity in sig)
    return bounded_power("algebra enumeration", n, cells, max_count)


def enumerate_algebras(
    sig: Signature, carrier: FinSet, max_count: int = MAX_ENUMERATION
) -> Iterator[FinAlgebra]:
    """All algebras on the carrier, exactly once, in canonical table order."""
    count_algebras(sig, carrier, max_count)
    keys_per_op = [
        (name, list(itertools.product(carrier.elements, repeat=arity)))
        for name, arity in sig
    ]
    images_per_op = [
        itertools.product(carrier.elements, repeat=len(keys)) for _, keys in keys_per_op
    ]
    for choice in itertools.product(*images_per_op):
        tables = {
            name: dict(zip(keys, images))
            for (name, keys), images in zip(keys_per_op, choice)
        }
        yield FinAlgebra._trusted(sig, carrier, tables)


def _orbit_representatives(sig: Signature, carrier: FinSet) -> Iterator[tuple[int, FinAlgebra]]:
    """The lex-least member of each isomorphism orbit of algebras on the
    carrier, as ``(rank, algebra)`` in the order of ``enumerate_algebras``;
    ``rank`` is the algebra's position in that enumeration.

    An algebra is the vector of its table cells, laid out as
    ``enumerate_algebras`` lays them out, with values as carrier
    positions.  A carrier permutation p sends it to the vector whose cell
    at key p(a) holds p of the cell at key a.  The walk fills the cells in
    order, one iterative depth-first pass (a 1-point carrier has one cell
    per operation, however many there are), and drops a prefix, with every
    completion, when a permutation maps each completion to a smaller one:
    - when a cell's value exceeds the least value named by no key or value
      before it, swapping the two does (SEM's least-number heuristic);
    - when a permutation maps the known part of the prefix to a smaller
      one (orderly generation, Read 1978).  Each permutation's action on
      cell indices is tabulated once.
    Once an operation has positive arity, every element is named by some
    key and every permutation is tried; otherwise the first rule alone is
    exact.  The caller bounds the count first (``count_algebras``), which
    keeps a carrier with a positive-arity operation at 7 points or fewer.
    """
    n, elems = len(carrier), carrier.elements
    cell_of, layout = {}, []  # layout per operation: name, first cell, end cell, keys
    for name, arity in sig:
        start = len(cell_of)
        for key in itertools.product(range(n), repeat=arity):
            cell_of[name, key] = len(cell_of)
        layout.append((name, start, len(cell_of), list(itertools.product(elems, repeat=arity))))
    cells = len(cell_of)
    named = [max(key, default=-1) for _, key in cell_of]  # greatest position a key names
    # Per permutation p other than the identity: p, and per cell the cell
    # at the key that p sends to this cell's key.
    actions = []
    if any(arity for _, arity in sig):
        for p in itertools.islice(itertools.permutations(range(n)), 1, None):
            inverse = sorted(range(n), key=p.__getitem__)
            source = [cell_of[name, tuple(inverse[b] for b in key)] for name, key in cell_of]
            actions.append((p, source, 0))

    def build(vector):
        values = [elems[x] for x in vector]
        tables = {name: dict(zip(op_keys, values[start:end]))
                  for name, start, end, op_keys in layout}
        rank = 0
        for x in vector:
            rank = rank * n + x
        return rank, FinAlgebra._trusted(sig, carrier, tables)

    if cells == 0:
        yield build(())
        return

    vector = [-1] * cells

    def undecided(parent, known):
        """The permutations of ``parent`` whose image of the first ``known``
        cells is not yet greater, each with the cell where the comparison
        waits for an unknown value; None once an image is smaller."""
        out = []
        for p, source, j in parent:
            while j < known and source[j] < known:
                image, value = p[vector[source[j]]], vector[j]
                if image != value:
                    break
                j += 1
            else:
                out.append((p, source, j))
                continue
            if image < value:
                return None
        return out

    # Per cell j: the greatest position named by a key up to j or a value
    # before j, and the permutations still undecided on the cells before j.
    high, live = named[:1] + [0] * (cells - 1), [actions] + [None] * (cells - 1)
    j = 0
    while j >= 0:
        vector[j] += 1
        if vector[j] > high[j] + 1 or vector[j] == n:
            vector[j] = -1
            j -= 1
            continue
        pending = undecided(live[j], j + 1)
        if pending is None:
            continue
        if j + 1 == cells:
            yield build(vector)
            continue
        j += 1
        high[j] = max(high[j - 1], vector[j - 1], named[j])
        live[j] = pending
