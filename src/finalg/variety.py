"""Free algebras in a variety by congruence saturation over the term chain.

The engine walks the free-algebra chain depth by depth.  At each depth
it extends the registered term universe with every operation node over
the current class representatives, merges every substitution instance
of the defining identities that fits within the depth, and closes under
operation congruence (union-find with a node-signature index, as in
congruence-closure / equality-saturation engines).  Because every term
of height ≤ d is congruent to a node over minimal representatives, the
registered universe represents every class of the full stage set while
staying exponentially smaller.

The engine keeps one term store and one class record.  ``nodes``, the
hashcons of its terms, maps ``(op, child ids)`` to the id of the node
with exactly those children (the generators are ids 0..|x|-1), so
identity instances and frontier nodes are built on integer ids and a
``Term`` is made only for a new node.  The keys of ``rep`` are exactly
the live union-find roots, each mapped to the id of its class's least
term.  One pass over ``nodes`` reads the operation tables off these; it
decides stabilization and fills the state.  The derivation audit replays
the recorded identity instances over the same universe in a fresh
engine and compares each term's least class member with the result's.

Saturation stabilizes at depth d when the roots after depth d-1 still
name distinct classes after depth d and those are all the classes (the
images of the earlier roots are always among the current roots, so
equal counts make the map a bijection), and every operation table over
the classes is total; the quotient then carries a finite algebra and
the variable embedding becomes the unit of the free algebra.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .algebras import FinAlgebra, is_morphism
from .core import FinMap, FinSet, Partition, enumerate_maps
from .errors import ResourceLimitError, ValidationError
from .functors import Signature
from .identities import NaturalIdentity, canonical_vars, satisfies_all
from .terms import Node, Term, Var

MAX_UNIVERSE = 500_000


def _occurrence_depths(t: Term, depth: int = 0, acc: Optional[dict] = None) -> dict:
    """Deepest occurrence of each variable, measured from the root.

    The height of t[g] is max(t.height, max_v(occ_v + height(g(v)))), so
    these depths turn the fits-in-stage test into a per-variable bound.
    """
    if acc is None:
        acc = {}
    match t:
        case Var(name):
            acc[name] = max(acc.get(name, 0), depth)
        case Node(_, args):
            for a in args:
                _occurrence_depths(a, depth + 1, acc)
        case _:
            raise ValidationError(f"not a term: {t!r}")
    return acc


class _Engine:
    """Union-find over registered terms with congruence closure; ``nodes``
    (the one term store) is keyed on exact child ids, ``sig_table`` on
    child roots, and ``rep`` maps each root to its least term's id."""

    def __init__(self, x: FinSet):
        self.terms: list[Term] = []
        self.parent: list[int] = []
        self.rank: list[int] = []
        self.rep: dict[int, int] = {}
        self.node_args: list[Optional[tuple[int, ...]]] = []
        self.node_op: list[Optional[str]] = []
        self.nodes: dict[tuple, int] = {}
        self.sig_table: dict[tuple, int] = {}
        self.parents: dict[int, list[int]] = {}
        self.pending: deque[tuple[int, int]] = deque()
        self.instance_log: list[tuple] = []
        self.merge_count = 0
        for a in x:
            self._add(Var(a), None)

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def least(self, i: int) -> Term:
        """The least term of the class of id ``i``."""
        return self.terms[self.rep[self.find(i)]]

    def node(self, op: str, arg_ids: tuple[int, ...]) -> int:
        """The id of the node ``op`` over the registered ``arg_ids``; its
        term is built only when the node is new."""
        nid = self.nodes.get((op, arg_ids))
        if nid is None:
            nid = self._add(Node(op, tuple(self.terms[a] for a in arg_ids)), arg_ids)
        return nid

    def instantiate(self, side: Term, g: dict) -> int:
        """The id of ``side`` with each variable replaced by the term of its
        bound id in ``g``."""
        if isinstance(side, Node):
            return self.node(side.op, tuple(self.instantiate(a, g) for a in side.args))
        return g[side.name]

    def _add(self, t: Term, arg_ids: Optional[tuple[int, ...]]) -> int:
        tid = len(self.terms)
        self.terms.append(t)
        self.parent.append(tid)
        self.rank.append(0)
        self.rep[tid] = tid
        self.node_args.append(arg_ids)
        self.node_op.append(t.op if arg_ids is not None else None)
        if arg_ids is not None:
            self.nodes[(t.op, arg_ids)] = tid
            key = (t.op, tuple(self.find(a) for a in arg_ids))
            other = self.sig_table.get(key)
            if other is None:
                self.sig_table[key] = tid
            elif self.find(other) != tid:
                self.pending.append((other, tid))
            for root in set(key[1]):
                self.parents.setdefault(root, []).append(tid)
        return tid

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        elif self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.parent[rb] = ra
        self.merge_count += 1
        rep = self.rep
        if self.terms[rep[rb]].sort_key() < self.terms[rep[ra]].sort_key():
            rep[ra] = rep[rb]
        del rep[rb]
        moved = self.parents.pop(rb, [])
        for nid in moved:
            key = (self.node_op[nid], tuple(self.find(x) for x in self.node_args[nid]))
            other = self.sig_table.get(key)
            if other is None:
                self.sig_table[key] = nid
            elif self.find(other) != self.find(nid):
                self.pending.append((other, nid))
        self.parents.setdefault(ra, []).extend(moved)
        return True

    def drain(self) -> None:
        while self.pending:
            self.union(*self.pending.popleft())

    def least_ids(self) -> list[int]:
        """The id of each class's least term, in canonical term order."""
        terms = self.terms
        return sorted(self.rep.values(), key=lambda i: terms[i].sort_key())


@dataclass(frozen=True)
class CongruenceState:
    """Snapshot of a saturation run: the registered universe, its classes,
    the induced partial operation tables on class representatives, the
    class count per processed depth, and the applied identity instances."""

    sig: Signature
    x: FinSet
    depth: int
    universe: FinSet
    classes: Partition
    op_tables: dict
    class_counts: tuple[int, ...]
    instance_pairs: tuple[tuple[Term, Term], ...]


@dataclass(frozen=True)
class Stabilized:
    algebra: FinAlgebra
    unit: FinMap
    at_depth: int
    state: CongruenceState


@dataclass(frozen=True)
class Unstabilized:
    state: CongruenceState
    depth_bound: int


FreeAlgebraResult = Union[Stabilized, Unstabilized]


def _flatten(ids: Iterable[NaturalIdentity], sig: Signature) -> list[tuple]:
    """One entry per identity component: used variables in canonical order,
    per-variable occurrence-depth offsets, the two data terms, and the
    height of the ground skeleton."""
    components = []
    comp_id = 0
    for ident in ids:
        if ident.sig != sig:
            raise ValidationError("identity signature differs from presentation")
        for c, k in enumerate(ident.domain):
            left, right = ident.lhs.data[c], ident.rhs.data[c]
            occ_l = _occurrence_depths(left)
            occ_r = _occurrence_depths(right)
            used = tuple(v for v in canonical_vars(k) if v in occ_l or v in occ_r)
            offsets = {v: max(occ_l.get(v, 0), occ_r.get(v, 0)) for v in used}
            components.append(
                (comp_id, used, offsets, left, right, max(left.height, right.height))
            )
            comp_id += 1
    return components


def _op_tables(engine: _Engine, sig: Signature) -> dict:
    """Each operation's table on the least terms of the classes: every
    registered node sends the classes of its children to its own class."""
    tables: dict = {name: {} for name, _ in sig}
    least = engine.least
    for (op, arg_ids), nid in engine.nodes.items():
        tables[op][tuple(least(a) for a in arg_ids)] = least(nid)
    return tables


def _extract_state(engine: _Engine, sig: Signature, x: FinSet, depth: int,
                   counts: list[int], op_tables: dict) -> CongruenceState:
    groups: dict[int, list[Term]] = {}
    for i, t in enumerate(engine.terms):
        groups.setdefault(engine.find(i), []).append(t)
    universe = FinSet(tuple(engine.terms))
    return CongruenceState(
        sig, x, depth, universe, Partition(universe, groups.values()), op_tables,
        tuple(counts), tuple(engine.instance_log),
    )


def saturate(
    sig: Signature,
    ids: Sequence[NaturalIdentity],
    x: FinSet,
    depth_bound: int,
    max_universe: int = MAX_UNIVERSE,
) -> FreeAlgebraResult:
    """Search for the free algebra on ``x`` in the variety presented by ``ids``.

    Returns :class:`Stabilized` with the quotient algebra and its unit, or
    :class:`Unstabilized` with the last state if ``depth_bound`` depths did
    not suffice.
    """
    if depth_bound < 1:
        raise ValidationError("depth bound must be at least 1")
    components = _flatten(ids, sig)
    engine = _Engine(x)
    counts: list[int] = []
    prev_roots = set(engine.rep)
    applied: set = set()

    for depth in range(1, depth_bound + 1):
        frontier = engine.least_ids()
        for name, arity in sig:
            for arg_ids in itertools.product(frontier, repeat=arity):
                engine.node(name, arg_ids)
        if len(engine.terms) > max_universe:
            raise ResourceLimitError("saturation universe", len(engine.terms), max_universe)
        engine.drain()

        while True:
            merges_before = engine.merge_count
            terms_before = len(engine.terms)
            reps = [(tid, engine.terms[tid].height) for tid in engine.least_ids()]
            for comp_id, used, offsets, left, right, ground in components:
                if ground > depth:
                    continue
                pools = [
                    [tid for tid, height in reps if height + offsets[v] <= depth]
                    for v in used
                ]
                for images in itertools.product(*pools):
                    key = (comp_id, images)
                    if key in applied:
                        continue
                    applied.add(key)
                    g = dict(zip(used, images))
                    a, b = engine.instantiate(left, g), engine.instantiate(right, g)
                    if engine.union(a, b):
                        engine.instance_log.append((engine.terms[a], engine.terms[b]))
                engine.drain()
            if len(engine.terms) > max_universe:
                raise ResourceLimitError(
                    "saturation universe", len(engine.terms), max_universe
                )
            if engine.merge_count == merges_before and len(engine.terms) == terms_before:
                break

        counts.append(len(engine.rep))
        if len(prev_roots) == len({engine.find(r) for r in prev_roots}) == len(engine.rep):
            tables = _op_tables(engine, sig)
            if all(len(tables[name]) == len(engine.rep) ** arity for name, arity in sig):
                state = _extract_state(engine, sig, x, depth, counts, tables)
                carrier = FinSet(tuple(engine.terms[i] for i in engine.rep.values()))
                algebra = FinAlgebra(sig, carrier, tables)
                unit = FinMap(x, carrier, {a: engine.least(i) for i, a in enumerate(x)})
                return Stabilized(algebra, unit, depth, state)
        prev_roots = set(engine.rep)

    state = _extract_state(engine, sig, x, depth_bound, counts, _op_tables(engine, sig))
    return Unstabilized(state, depth_bound)


def _state_of(res: FreeAlgebraResult) -> CongruenceState:
    if isinstance(res, (Stabilized, Unstabilized)):
        return res.state
    raise ValidationError(f"not a saturation result: {res!r}")


def word_equal(res, t1: Term, t2: Term) -> bool:
    """Whether two terms denote the same element of the (partial) quotient.

    A stabilized state's operation tables are total on its classes, so
    normalizing through them resolves every term there."""
    state = _state_of(res)

    def normalize(t: Term) -> Term:
        match t:
            case Var(_):
                if t not in state.classes.base:
                    raise ValidationError(f"variable {t!r} outside the generators")
                return state.classes.rep(t)
            case Node(op, args):
                reps = tuple(normalize(a) for a in args)
                found = state.op_tables[op].get(reps)
                if found is None:
                    raise ValidationError(
                        f"term not resolvable at depth {state.depth}: {t!r}"
                    )
                return found
        raise ValidationError(f"not a term: {t!r}")

    return normalize(t1) == normalize(t2)


def audit_derivations(res) -> bool:
    """Replay the recorded identity instances through a fresh congruence
    closure over the same universe and compare the classes.

    Every universe term's least class member in the replay must be its
    representative in the result; over the same universe that is equality
    of the two partitions, and it certifies that every merge the engine
    performed is derivable from an identity instance plus
    congruence/transitivity steps.
    """
    state = _state_of(res)
    if state.classes.base != state.universe:
        return False
    engine = _Engine(state.x)
    ids = {t: i for i, t in enumerate(engine.terms)}
    for t in state.universe:
        if t not in ids:
            ids[t] = engine._add(t, tuple(ids[a] for a in t.args))
    engine.drain()
    for a, b in state.instance_pairs:
        if a not in ids or b not in ids:
            return False
        engine.union(ids[a], ids[b])
        engine.drain()
    return all(engine.least(ids[t]) == state.classes.rep(t) for t in state.universe)


def extension_count(res: Stabilized, target: FinAlgebra, f: FinMap) -> int:
    """How many algebra morphisms out of the free algebra extend ``f``."""
    free = res.algebra
    count = 0
    for h in enumerate_maps(free.carrier, target.carrier):
        if all(h.table[res.unit.table[a]] == f.table[a] for a in res.unit.dom):
            if is_morphism(free, target, h):
                count += 1
    return count


def universal_property_witness(
    res: Stabilized, ids: Sequence[NaturalIdentity], target: FinAlgebra
) -> Optional[tuple[FinMap, int]]:
    """The first assignment of the generators into ``target`` that does not
    extend to exactly one algebra morphism from the free algebra, with its
    number of extensions, or None when every assignment does."""
    if not isinstance(res, Stabilized):
        raise ValidationError("universal property requires a stabilized result")
    if not satisfies_all(target, ids):
        raise ValidationError("target algebra is outside the variety")
    for f in enumerate_maps(res.unit.dom, target.carrier):
        count = extension_count(res, target, f)
        if count != 1:
            return f, count
    return None


def check_universal_property(
    res: Stabilized, ids: Sequence[NaturalIdentity], target: FinAlgebra
) -> bool:
    """Whether every assignment of the generators into ``target`` extends to
    exactly one algebra morphism from the free algebra."""
    return universal_property_witness(res, ids, target) is None
