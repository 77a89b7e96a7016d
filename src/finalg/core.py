"""Finite sets, maps, coproducts, and quotients.

The rest of the package is built on these primitives.  All values are
immutable after construction, and every collection iterates in the
canonical atom order, so identical inputs always produce identical
output, including across runs.

Atoms are opaque labels: ints, strings, tuples of atoms, or any object
exposing a ``sort_key()`` method (terms do).  Mixed kinds are ordered
by kind rank first, so heterogeneous sets still sort deterministically.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import ResourceLimitError, ValidationError, at_least

# The map and algebra enumerators refuse to start beyond this many items.
MAX_ENUMERATION = 1_000_000


def atom_key(atom):
    """Total-order key for atoms of mixed kinds."""
    sort_key = getattr(atom, "sort_key", None)
    if sort_key is not None:
        return (3, sort_key())
    if isinstance(atom, tuple):
        return (2, tuple(atom_key(a) for a in atom))
    if isinstance(atom, str):
        return (1, atom)
    if isinstance(atom, int) and not isinstance(atom, bool):
        return (0, atom)
    raise ValidationError(f"unsupported atom kind: {atom!r}")


@dataclass(frozen=True)
class FinSet:
    """A finite set: distinct atoms kept in canonical order.

    ``position`` is the read-only map from each atom to its index in
    ``elements``; membership tests read it."""

    elements: tuple = ()
    position: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(sorted(self.elements, key=atom_key))
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValidationError(f"duplicate atom: {a!r}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "position", MappingProxyType(dict(zip(elems, itertools.count()))))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __contains__(self, atom) -> bool:
        return atom in self.position

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.elements)
        return f"FinSet({{{inner}}})"


class FinMap:
    """A total map between finite sets, tabulated atom by atom.

    The constructor checks that the table is total on ``dom`` with every
    image in ``cod``, and copies it in ``dom`` order.  ``_trusted`` checks
    and copies nothing; only ``enumerate_maps``, whose tables are total by
    construction, calls it.  Every other map, the chain's connecting maps
    included, goes through the checked constructor.
    """

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: FinSet, cod: FinSet, table: Mapping):
        missing = [a for a in dom if a not in table]
        if missing:
            raise ValidationError(f"map not total, missing {missing[0]!r}")
        cleaned = {}
        for a in dom:
            image = table[a]
            if image not in cod:
                raise ValidationError(f"image {image!r} of {a!r} not in codomain")
            cleaned[a] = image
        self.dom = dom
        self.cod = cod
        self.table = cleaned

    @classmethod
    def _trusted(cls, dom: FinSet, cod: FinSet, table: dict) -> "FinMap":
        """The map of ``table``, which must be keyed by ``dom`` in its order
        with images in ``cod``; the table is kept, not copied."""
        f = object.__new__(cls)
        f.dom = dom
        f.cod = cod
        f.table = table
        return f

    def __call__(self, atom):
        try:
            return self.table[atom]
        except KeyError:
            raise ValidationError(f"{atom!r} not in domain") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.dom, self.cod, tuple(self.table[a] for a in self.dom)))

    def __repr__(self) -> str:
        entries = ", ".join(f"{a!r}->{b!r}" for a, b in self.table.items())
        return f"FinMap({entries})"


class Partition:
    """A partition of a finite set; each block is keyed by its least atom."""

    __slots__ = ("base", "blocks")

    def __init__(self, base: FinSet, blocks: Iterable[Iterable]):
        canon = []
        seen = set()
        for block in blocks:
            items = tuple(sorted(block, key=atom_key))
            if not items:
                raise ValidationError("empty block")
            for a in items:
                if a not in base:
                    raise ValidationError(f"block atom {a!r} not in base")
                if a in seen:
                    raise ValidationError(f"atom {a!r} in two blocks")
                seen.add(a)
            canon.append(items)
        if len(seen) != len(base):
            raise ValidationError("blocks do not cover the base set")
        canon.sort(key=lambda items: atom_key(items[0]))
        self.base = base
        self.blocks = tuple(canon)

    def representatives(self) -> FinSet:
        return FinSet(tuple(items[0] for items in self.blocks))

    def projection(self) -> FinMap:
        return FinMap(self.base, self.representatives(),
                      {a: items[0] for items in self.blocks for a in items})

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.base == other.base
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.base, self.blocks))

    def __repr__(self) -> str:
        return f"Partition({len(self.blocks)} blocks of {len(self.base)})"


def coproduct(a: FinSet, b: FinSet) -> tuple[FinSet, FinMap, FinMap]:
    """Disjoint union with tagged atoms ``(0, x)`` / ``(1, y)`` and its injections."""
    total = FinSet(tuple((0, x) for x in a) + tuple((1, y) for y in b))
    inl = FinMap(a, total, {x: (0, x) for x in a})
    inr = FinMap(b, total, {y: (1, y) for y in b})
    return total, inl, inr


def quotient(base: FinSet, pairs: Iterable[tuple]) -> tuple[Partition, FinMap]:
    """Finest partition of ``base`` merging every given pair, with its projection.

    The projection sends each atom to the least atom of its block, so it
    coequalizes the two coordinates of every pair.
    """
    parent = {a: a for a in base}

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for s, t in pairs:
        if s not in base:
            raise ValidationError(f"pair atom {s!r} not in base")
        if t not in base:
            raise ValidationError(f"pair atom {t!r} not in base")
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rt] = rs

    groups: dict = {}
    for a in base:
        groups.setdefault(find(a), []).append(a)
    part = Partition(base, groups.values())
    return part, part.projection()


def kernel_pair(proj: FinMap) -> list[tuple]:
    """All ordered pairs of domain atoms with equal image (diagonal included)."""
    fibers: dict = {}
    for a in proj.dom:
        fibers.setdefault(proj.table[a], []).append(a)
    pairs = []
    for a in proj.dom:
        for b in fibers[proj.table[a]]:
            pairs.append((a, b))
    return pairs


def bounded_power(what: str, base: int, exp: int, limit: int) -> int:
    """``base ** exp``, or :class:`ResourceLimitError` for ``what`` when it
    exceeds ``limit``.  Once its lower bound ``2 ** bits`` is past both
    ``limit`` and ``2 ** 65536``, the power is refused and never built."""
    bits = (base.bit_length() - 1) * exp
    if bits > max(1 << 16, limit.bit_length()):
        raise ResourceLimitError(what, at_least(bits), limit)
    total = base ** exp
    if total > limit:
        raise ResourceLimitError(what, total, limit)
    return total


def count_maps(dom_size: int, cod_size: int) -> int:
    """``cod_size ** dom_size``, the number of maps; refused above ``MAX_ENUMERATION``."""
    return bounded_power(f"map enumeration from {dom_size} into {cod_size} atoms",
                         cod_size, dom_size, MAX_ENUMERATION)


def enumerate_maps(a: FinSet, b: FinSet) -> Iterator[FinMap]:
    """All |b|^|a| total maps a → b, each exactly once, in canonical order.

    Raises :class:`ResourceLimitError` at the call, before any map is
    built, when there are more than ``MAX_ENUMERATION`` of them.
    """
    count_maps(len(a), len(b))
    elems = a.elements
    return (
        FinMap._trusted(a, b, dict(zip(elems, images)))
        for images in itertools.product(b.elements, repeat=len(elems))
    )
