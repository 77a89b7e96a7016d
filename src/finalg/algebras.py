"""Finite algebras over a signature: evaluation, morphisms, enumeration.

An algebra is a finite carrier plus one total operation table per
symbol; equivalently a single structure map F(A) → A, whose atoms
``(name, args)`` the tables already index.  The tables are stored flat:
per operation, in signature order, a tuple of carrier *positions*
(indices into ``carrier.elements``), whose cell ``i`` holds the image of
the ``i``-th argument tuple of
``itertools.product(carrier.elements, repeat=arity)``.
On an ``n``-point carrier the arguments at positions ``a1..ak`` sit in
cell ``(..(a1·n + a2)·n ..)·n + ak``, mixed radix with stride ``n``, as in
the cell arrays of the finite model finders SEM and Mace4.  An
enumerated algebra's flat tables are the ``itertools.product`` tuple
itself.  ``FinAlgebra.tables``, the ``{name: {args: value}}`` view of
elements, is built from them on first access, for printing, witnesses
and callers outside the evaluator.

A term is evaluated by compiling it once into nested closures
(``compile_term``) that fold it on positions through the flat tables,
with its operations resolved to their index in the signature and its
variables to positions in a value tuple; the stride is an argument, so
one compiled term serves every carrier size, and the fold depends only
on the term, so it is independent of the stage a term is viewed in.
A binary node reads a variable child in place; any other node folds
its children's closures into its cell index in a loop.
Values are mapped between carrier elements and positions only where a
caller passes elements in or takes them out.  The bounded-carrier
check of an identity, which evaluates the same terms under every
assignment, runs code generated once per identity instead
(``identities.NaturalIdentity.check``); its emitter resolves
operations and variables with ``compile_term``'s helper, ``_resolve``,
and so refuses the same terms.

``FinAlgebra(...)`` checks that every table is total with values in the
carrier and that no table names an unknown operation, then stores the
tables flat.  ``FinAlgebra._trusted`` takes flat tables and checks
nothing; its callers are ``enumerate_algebras``,
``_orbit_representatives`` and ``variety.saturate``'s quotient, whose
tables are total by construction (the quotient's are checked by
``variety.audit_derivations``), and the declaration parser, which has
already checked each table, reported any fault with its position, and
flattens it with ``_flatten_tables``.  Algebras built from other values
(a caller's tables, an Eilenberg-Moore structure) go through the
checked constructor.
"""
from __future__ import annotations

import itertools
from functools import partial
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from .core import MAX_ENUMERATION, FinMap, FinSet, bounded_power
from .errors import ValidationError
from .functors import Signature
from .terms import Node, Term, Var

Flat = tuple[tuple[int, ...], ...]


class FinAlgebra:
    """Finite carrier plus a total operation table per symbol, stored as
    flat tables of carrier positions in signature order."""

    __slots__ = ("sig", "carrier", "flat", "_tables")

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
        self.flat = _flatten_tables(sig, carrier, tables)
        self._tables = None

    @classmethod
    def _trusted(cls, sig: Signature, carrier: FinSet, flat: Flat) -> "FinAlgebra":
        """The algebra of the flat tables ``flat``, which must hold one
        table per operation in signature order, each with a position for
        every argument tuple; they are kept, not copied."""
        alg = object.__new__(cls)
        alg.sig = sig
        alg.carrier = carrier
        alg.flat = flat
        alg._tables = None
        return alg

    @property
    def tables(self) -> Mapping[str, Mapping[tuple, object]]:
        """The operation tables as read-only ``{name: {args: value}}``
        mappings of carrier elements, in signature order, built from the
        flat tables on first access."""
        if self._tables is None:
            self._tables = self._table_view()
        return self._tables

    def _table_view(self) -> Mapping[str, Mapping[tuple, object]]:
        elems = self.carrier.elements
        view = {}
        for (name, arity), cells in zip(self.sig, self.flat):
            keys = itertools.product(elems, repeat=arity)
            view[name] = MappingProxyType({args: elems[p] for args, p in zip(keys, cells)})
        return MappingProxyType(view)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinAlgebra)
            and self.sig == other.sig
            and self.carrier == other.carrier
            and self.flat == other.flat
        )

    def __hash__(self):
        return hash((self.sig, self.carrier, self.flat))

    def __repr__(self) -> str:
        return f"FinAlgebra({self.sig.names()}, carrier={len(self.carrier)})"


def _flatten_tables(sig: Signature, carrier: FinSet, tables: Mapping[str, Mapping]) -> Flat:
    """The flat tables of ``tables``, which must be total with values in
    the carrier."""
    elems, position = carrier.elements, carrier.position
    flat = []
    for name, arity in sig:
        table = tables[name]
        flat.append(tuple([position[table[args]]
                           for args in itertools.product(elems, repeat=arity)]))
    return tuple(flat)


Compiled = Callable[[Flat, int, Sequence[int]], int]


def compile_term(sig: Signature, t: Term, names: Sequence) -> Compiled:
    """Compile ``t`` into ``f(flat, n, positions)``, the position of the
    fold of ``t`` through the flat tables ``flat`` of ``sig`` over an
    ``n``-point carrier, with variable ``names[j]`` bound to the element
    at ``positions[j]``.

    Operations are resolved to their index in ``sig`` and variables to
    their index in ``names`` here: an unknown operation, a node with the
    wrong number of arguments or a variable outside ``names`` is refused
    now, not when the closure runs.
    """
    return _compile(t, sig.index, {name: j for j, name in enumerate(names)})


def _resolve(t: Term, ops: Mapping, index: Mapping) -> tuple[int, tuple | None]:
    """``(j, None)`` for a variable with ``index[name] = j``, or ``(i, args)``
    for a node whose operation has index ``i`` in ``ops`` (``Signature.index``).
    A non-term, an unbound variable, an unknown operation and a node with
    the wrong number of arguments are refused."""
    if type(t) is Var:
        return _position(t, index), None
    if type(t) is not Node:
        raise ValidationError(f"not a term: {t!r}")
    try:
        i, arity = ops[t.op]
    except KeyError:
        raise ValidationError(f"unknown operation {t.op!r}") from None
    if len(t.args) != arity:
        raise ValidationError(
            f"operation {t.op!r} applied to {len(t.args)} arguments, arity is {arity}"
        )
    return i, t.args


def _position(v: Var, index: Mapping) -> int:
    try:
        return index[v.name]
    except KeyError:
        raise ValidationError(f"unbound variable {v.name!r}") from None


def _compile(t: Term, ops: Mapping, index: Mapping) -> Compiled:
    i, args = _resolve(t, ops, index)
    if args is None:
        return lambda flat, n, values: values[i]
    arity = len(args)
    # A variable child is read in place rather than through a closure call.
    if arity == 2:
        a, b = args
        if type(a) is Var and type(b) is Var:
            j, k = _position(a, index), _position(b, index)
            return lambda flat, n, values: flat[i][values[j] * n + values[k]]
        if type(b) is Var:
            f, k = _compile(a, ops, index), _position(b, index)
            return lambda flat, n, values: flat[i][f(flat, n, values) * n + values[k]]
        if type(a) is Var:
            j, g = _position(a, index), _compile(b, ops, index)
            return lambda flat, n, values: flat[i][values[j] * n + g(flat, n, values)]
        f, g = _compile(a, ops, index), _compile(b, ops, index)
        return lambda flat, n, values: flat[i][f(flat, n, values) * n + g(flat, n, values)]
    subs = [_compile(a, ops, index) for a in args]

    def fold(flat, n, values):
        cell = 0
        for f in subs:
            cell = cell * n + f(flat, n, values)
        return flat[i][cell]

    return fold


def evaluate(alg: FinAlgebra, t: Term, binding: Mapping):
    """Fold a term through the algebra's tables under a variable binding,
    whose values must lie in the carrier."""
    f = compile_term(alg.sig, t, tuple(binding))
    elems, position = alg.carrier.elements, alg.carrier.position
    values = []
    for name, value in binding.items():
        if value not in position:
            raise ValidationError(f"value {value!r} of {name!r} not in the carrier")
        values.append(position[value])
    return elems[f(alg.flat, len(elems), values)]


def is_morphism(src: FinAlgebra, dst: FinAlgebra, h: FinMap) -> bool:
    """Whether ``h`` commutes with every operation table on every tuple."""
    if src.sig != dst.sig:
        raise ValidationError("signature mismatch")
    if h.dom != src.carrier or h.cod != dst.carrier:
        raise ValidationError("carrier mismatch")
    position = dst.carrier.position
    image = [position[h.table[a]] for a in src.carrier.elements]
    n = len(dst.carrier)
    for (_, arity), s_cells, d_cells in zip(src.sig, src.flat, dst.flat):
        for args, value in zip(itertools.product(image, repeat=arity), s_cells):
            cell = 0
            for a in args:
                cell = cell * n + a
            if image[value] != d_cells[cell]:
                return False
    return True


def count_algebras(sig: Signature, n: int, max_count: int = MAX_ENUMERATION) -> int:
    """The number Π_σ n^(n^ar(σ)) of algebras on a carrier of ``n`` atoms,
    or a :class:`ResourceLimitError` when it exceeds ``max_count``; so a
    caller can refuse a carrier before it builds one."""
    cells = sum(n**arity for _, arity in sig)
    return bounded_power("algebra enumeration", n, cells, max_count)


def enumerate_algebras(
    sig: Signature, carrier: FinSet, max_count: int = MAX_ENUMERATION
) -> Iterator[FinAlgebra]:
    """All algebras on the carrier, exactly once, in canonical table order;
    each one's flat tables are the ``itertools.product`` tuple itself.

    Raises :class:`ResourceLimitError` at the call, before any algebra is
    built, when there are more than ``max_count`` of them."""
    n = len(carrier)
    count_algebras(sig, n, max_count)
    cells_per_op = [itertools.product(range(n), repeat=n**arity) for _, arity in sig]
    return map(partial(FinAlgebra._trusted, sig, carrier), itertools.product(*cells_per_op))


def _orbit_representatives(sig: Signature, carrier: FinSet) -> Iterator[tuple[int, FinAlgebra]]:
    """The lex-least member of each isomorphism orbit of algebras on the
    carrier, as ``(rank, algebra)`` in the order of ``enumerate_algebras``;
    ``rank`` is the algebra's position in that enumeration.

    An algebra is the vector of its flat tables' cells, laid end to end
    in signature order, and each representative's flat tables are slices
    of that vector.  A carrier permutation p sends it to the vector whose cell
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
    n = len(carrier)
    cell_of, layout = {}, []  # layout per operation: first cell, end cell
    for name, arity in sig:
        start = len(cell_of)
        for key in itertools.product(range(n), repeat=arity):
            cell_of[name, key] = len(cell_of)
        layout.append((start, len(cell_of)))
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
        flat = tuple([tuple(vector[start:end]) for start, end in layout])
        rank = 0
        for x in vector:
            rank = rank * n + x
        return rank, FinAlgebra._trusted(sig, carrier, flat)

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
