"""Free algebras in a variety by congruence saturation over the term chain.

The engine walks the free-algebra chain depth by depth.  At each depth
it extends the registered term universe with every operation node over
the current class representatives, merges every substitution instance
of the defining identities that fits within the depth, and closes under
operation congruence (class labels and a node-signature index, as in
congruence-closure / equality-saturation engines).  Because every term
of height ≤ d is congruent to a node over minimal representatives, the
registered universe represents every class of the full stage set while
staying exponentially smaller.

The engine keeps one term store and one class record.  ``nodes``, the
hashcons of its terms, maps ``(op, child ids)`` to the id of the node
with exactly those children (the generators are ids 0..|x|-1), so
identity instances and frontier nodes are built on integer ids.  Each
identity component's instance pass is generated once as straight-line
code and ``exec``'d (``_PassSource``, held by ``_generated_pass``, a
bounded cache keyed by the component's data): one ``for`` per variable,
then per node of the sides one step, which takes the node of its
operation with exactly its children, or else, as egg's ``add``
canonicalizes an e-node's children before its hashcons lookup (Willsey
et al., POPL 2021), the node ``sig_table`` files under the roots of
those children: in ``saturate`` one exists (the argument is at
``_instance_passes``).  The walk that emits the steps records each
variable's deepest occurrence, which bounds the height of its images.

Only the frontier registers nodes, a whole depth at once
(``_Engine.register_depth``), and filing one never retires it, which
that method checks.  At depth d it registers each operation over each
tuple of least ids that ``nodes`` does not hold.  The least ids are
among the previous frontier's, over which it built every operation, and
the nodes it registered, so by induction the tuple holds a node of
height d-1 and the new node has height d.  A node filed under the same
operation and child roots would be this depth's node over the same least
ids, which ``nodes`` holds, or an older one, lower than d, whose child
in the class of that least id of height d-1 is lower than the class's
least; but terms are ordered by height first.  Each depth orders its
new nodes as a stage's are, with ``terms.nodes_in_order``, so by
induction ids are in canonical term order, and the engine keeps only
each id's height and size: an instance pool, the roots of height at
most the depth less a variable's offset, is a prefix of the sorted
roots.  The pool's roots of a lower height are a prefix of it too, those
the previous depth's pool held, so a pass reads past that prefix only:
each instance is tried once, at the first depth it fits in, as
semi-naive evaluation applies a rule only to tuples with a new fact
(egglog, Zhang et al., "Better Together: Unifying Datalog and Equality
Saturation", PLDI 2023).

``root`` names each id's class by one of its ids, and the keys of ``rep``
are exactly the live roots, each mapped to its class's lowest id.
``parents`` holds, per id, the list of parent nodes of that root's
class.  A union keeps the root with the longer list (Downey, Sethi &
Tarjan, 1980), relabels the other's ids and marks the nodes it moves
dirty; a drain files each dirty node again once
per round, after that round's pending unions, as egg's deferred rebuild
does (Willsey et al., "egg: Fast and Extensible Equality Saturation",
POPL 2021).  As egg's rebuild also does, a node whose operation and
child roots another node holds when a drain files it again is retired:
the two have the same child classes from then on, so it is never filed
again and a union drops it from the parent list it moves.  Congruence
closure is confluent, so neither which root survives nor the filing
order changes ``rep`` or the classes after any drain; they change only
which congruence unions are logged, and in what order.

Every union the engine performs goes into a log with its reason: an
identity instance, given as ``(component, images, left_steps,
right_steps)``, the component, the ids bound to its variables and the
ids each side's steps took, in post-order, or a congruence step between
two nodes of one operation whose children were already joined
(proof-producing congruence closure, after Nieuwenhuis & Oliveras, "Fast
congruence closure and extensions", 2007).  A step's id is a node of the
step's operation whose children are its slots' registers or in their
classes when the union is logged, so each side is a proof by congruence
from the classes of that moment.  The result's :class:`CongruenceState`
keeps the engine's plain arrays and that log: each id's operation and
child ids, not its term.  It builds a term the first time it is read,
once per id, and the canonical universe and partition only when they are
first read.  The state stores no operation table: a stabilized run
reads each cell of its algebra, as a carrier position, off the frontier
node over the carrier ids, and builds only the carrier's terms.
``audit_derivations`` checks this certificate with its own class labels
and no engine code.  Once it has shown that every carrier term folds to
itself under the unit, a morphism extending an assignment can only be
the fold of each carrier term under it, so the universal property is
checked by that fold alone, and refused for a result whose unit does not
generate.

Saturation stabilizes at depth d when the classes before depth d are
still distinct after it and are all the classes, which ``saturate``
decides by a count of ids, and the quotient satisfies the identities.
Every class then holds one id of depth d's frontier, which built every
operation over itself, so every operation table over the classes is
total.  An instance is applied only once it fits in the depth, so such
a quotient can still break an identity; one that keeps them all is in
the variety, generated by the variable embedding, and merged only what
the identities derive, so it is the free algebra with that embedding as
its unit.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

from .algebras import FinAlgebra, compile_term, is_morphism
from .core import MAX_ENUMERATION, FinMap, FinSet, Partition, enumerate_maps
from .errors import ResourceLimitError, ValidationError
from .functors import Signature
from .identities import _MAX_NESTING, NaturalIdentity, canonical_vars, satisfies_all
from .terms import (MAX_TERM_DEPTH, Node, Term, Var, check_id_order, check_term,
                    nodes_in_order, variables)

MAX_UNIVERSE = 500_000

# The reason logged for a union between two nodes of one operation whose
# children were already joined; an identity instance logs
# ``(component, images, left_steps, right_steps)`` instead.
CONGRUENCE = "congruence"


class _Engine:
    """Class labels over registered ids with congruence closure; an id is its
    operation ``ops[i]`` (None for a generator) over the ids
    ``node_args[i]``, and the engine builds no ``Node``.  ``nodes`` (the
    one term store) is keyed on exact child ids, ``sig_table`` on child
    roots, ``rep`` maps each root to its class's lowest id, and
    ``union_log`` holds every union with its reason.  Ids are in
    canonical term order, and ``height`` and ``size`` hold each id's
    term's height (the depth that registered it) and size.  An instance
    pass (``_PassSource``) takes for each step a node ``nodes`` or else
    ``sig_table`` holds, and only the frontier registers nodes, a depth at
    a time, through ``register_depth``.

    ``root`` holds each id's class root and ``members`` each live root's ids,
    or None when it is alone.  A union relabels the ids of the root with the
    shorter parent list, not of the smaller class, so the O(n log n) bound of
    union by size (Tarjan & van Leeuwen, JACM 1984) is measured, not proved:
    at most 2.93 relabels per id over ``tools/digest.py``'s cases.
    ``parents`` holds, per id, the parent nodes of that root's class, and
    ``retired`` flags, per id, a node whose operation and child roots a
    drain's filing found held by another node in ``sig_table`` (egg's parent
    deduplication, Willsey et al., POPL 2021); such a node is never filed
    again.  A union moves the live parent nodes of the root it merges away
    onto the surviving root, dropping the retired ones, and marks them
    ``dirty``; ``drain`` files each dirty node again once per round, after
    the round's pending unions, so a node is not filed again for every
    child class that merges."""

    def __init__(self, x: FinSet):
        self.ops: list[Optional[str]] = [None] * len(x)
        self.height: list[int] = [0] * len(x)
        self.size: list[int] = [1] * len(x)
        self.root: list[int] = list(range(len(x)))
        self.members: list[Optional[list[int]]] = [None] * len(x)
        self.rep: dict[int, int] = {i: i for i in self.root}
        self.node_args: list[Optional[tuple[int, ...]]] = [None] * len(x)
        self.nodes: dict[tuple, int] = {}
        self.sig_table: dict[tuple, int] = {}
        self.parents: list[Sequence[int]] = [()] * len(x)
        self.retired = bytearray(len(x))
        self.pending: deque[tuple[int, int]] = deque()
        self.dirty: list[int] = []
        self.union_log: list[tuple[int, int, object]] = []

    def register_depth(self, depth: int, frontier: Sequence[int], sig: Signature) -> None:
        """Register, as the next ids, every operation of ``sig`` over every
        tuple of the ascending ids ``frontier`` that ``nodes`` does not hold,
        all of height ``depth``, in the order ``terms.nodes_in_order`` gives
        over the frontier's ids and roots (their ``nodes`` and ``sig_table``
        keys); file each, extending each array and table once, and add it to
        the parent list of each of its distinct child roots.  Filing never
        retires a frontier node (see the module docstring), so this raises
        unless ``sig_table`` grew by one entry per node."""
        root, nodes = self.root, self.nodes
        new = [entry for entry in nodes_in_order(
            sig, [self.size[a] for a in frontier], frontier, [root[a] for a in frontier])
            if entry[1] not in nodes]
        first, count = len(self.ops), len(new)
        # One int object per new id, shared by every array and table.
        ids = list(range(first, first + count))
        self.ops += [key[0] for _, key, _ in new]
        self.node_args += [key[1] for _, key, _ in new]
        self.height += itertools.repeat(depth, count)
        self.size += [size + 1 for size, _, _ in new]
        self.root += ids
        self.members += itertools.repeat(None, count)
        self.parents += itertools.repeat((), count)
        self.retired += bytes(count)
        self.rep.update(zip(ids, ids))
        nodes.update(zip([key for _, key, _ in new], ids))
        filed = len(self.sig_table) + count
        self.sig_table.update(zip([sig_key for _, _, sig_key in new], ids))
        if len(self.sig_table) != filed:
            raise AssertionError(f"filing retired a frontier node of depth {depth}")
        parents = self.parents
        for nid, (_, _, (_, key_roots)) in zip(ids, new):
            for root in key_roots:
                held = parents[root]
                if not held:
                    parents[root] = [nid]
                elif held[-1] != nid:
                    held.append(nid)

    def _file(self, nid: int) -> None:
        """File node ``nid`` in ``sig_table`` under its operation and child
        roots; when another node holds them, retire ``nid`` and queue a
        congruence with that node if in another class."""
        root = self.root
        roots = tuple([root[a] for a in self.node_args[nid]])
        other = self.sig_table.setdefault((self.ops[nid], roots), nid)
        if other != nid:
            self.retired[nid] = 1
            if root[other] != root[nid]:
                self.pending.append((other, nid))

    def union(self, a: int, b: int, reason) -> None:
        """Join the classes of ``a`` and ``b``, logging ``reason`` when they
        were distinct; the root with fewer parent nodes is merged away: its
        ids are relabelled and join the kept root's members, and its live
        parent nodes are marked dirty and join the kept root's list, its
        retired ones dropped."""
        root = self.root
        ra, rb = root[a], root[b]
        if ra == rb:
            return
        parents, members = self.parents, self.members
        if len(parents[ra]) < len(parents[rb]):
            ra, rb = rb, ra
        moved, members[rb] = members[rb] or (rb,), None
        for i in moved:
            root[i] = ra
        members[ra] = kept = members[ra] or [ra]
        kept += moved
        self.union_log.append((a, b, reason))
        rep = self.rep
        if rep[rb] < rep[ra]:
            rep[ra] = rep[rb]
        del rep[rb]
        moved, parents[rb] = parents[rb], ()
        if moved:
            # The kept root's list is at least as long, so it is a list, not ().
            retired = self.retired
            moved = [p for p in moved if not retired[p]]
            self.dirty.extend(moved)
            parents[ra].extend(moved)

    def drain(self) -> None:
        """Close under congruence: union the pending pairs, then file each
        dirty node again once, until neither is left."""
        pending, union, file = self.pending, self.union, self._file
        while pending or self.dirty:
            while pending:
                a, b = pending.popleft()
                union(a, b, CONGRUENCE)
            dirty, self.dirty = self.dirty, []
            for nid in dict.fromkeys(dirty):
                file(nid)

    def least_ids(self) -> list[int]:
        """The classes' least ids, in increasing (canonical term) order."""
        return sorted(self.rep.values())


@dataclass(frozen=True)
class CongruenceState:
    """What a saturation run leaves: its certificate, and nothing else.

    The certificate is ids and operations.  The generators are ids
    0..|x|-1, with ``ops[i]`` and ``node_args[i]`` None, and every other
    id is the node of operation ``ops[i]`` over the ids ``node_args[i]``,
    each lower than ``i``.  ``term(i)`` builds the term an id names the
    first time it is read and keeps it, so every reader of a state shares
    one term object per id.  Ids are in term order: ``terms``, in id order,
    is sorted, and ``least[i]`` is the lowest id of ``i``'s class.  Each
    ``union_log`` entry ``(a, b, reason)`` joined the classes of ``a`` and
    ``b``; its reason is ``CONGRUENCE``, or ``(component, images,
    left_steps, right_steps)`` for an instance of the identity component
    with that index, the components of all identities numbered in order,
    its used variables bound in canonical order to the ids ``images``.
    The steps are the ids each side's nodes resolved to, in post-order,
    left to right: each a node over its slots' ids or ids of their
    classes, and the last, or the image of a side that is a variable,
    ``a`` for the left side and ``b`` for the right.  ``class_counts``
    holds the class count after each of the ``depth`` processed depths.
    An operation's table on the classes is read off the arrays: each
    node sends its children's classes to its own.

    ``terms``, ``universe``, ``classes`` and ``instance_pairs`` are read
    off these arrays on first access and kept.
    """

    sig: Signature
    x: FinSet
    identities: tuple[NaturalIdentity, ...]
    depth: int
    ops: tuple[Optional[str], ...]
    node_args: tuple[Optional[tuple[int, ...]], ...]
    least: tuple[int, ...]
    union_log: tuple[tuple[int, int, object], ...]
    class_counts: tuple[int, ...]

    @cached_property
    def _built(self) -> list[Optional[Term]]:
        """The one term cache of this state: per id, its term once built."""
        return [None] * len(self.ops)

    def term(self, i: int) -> Term:
        """The term id ``i`` names: built once, from its children's terms,
        with an explicit stack rather than recursion, and kept; a child id
        not below its node is refused, or the stack would never empty."""
        built = self._built
        if built[i] is not None:
            return built[i]
        ops, kids, names = self.ops, self.node_args, self.x.elements
        stack = [i]
        while stack:
            j = stack[-1]
            # Two parents may both push a child; the second finds it built.
            if built[j] is None:
                args = kids[j]
                if args is None:
                    built[j] = Var(names[j])
                else:
                    if args and not 0 <= min(args) <= max(args) < j:
                        raise ValidationError(f"id {j} has a child not below it: {args!r}")
                    missing = [c for c in args if built[c] is None]
                    if missing:
                        stack.extend(missing)
                        continue
                    built[j] = Node(ops[j], tuple([built[c] for c in args]))
            stack.pop()
        return built[i]

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        """Every id's term, in id order."""
        term = self.term
        return tuple([term(i) for i in range(len(self.ops))])

    @cached_property
    def _table(self) -> dict[tuple, int]:
        """Each node's operation and child classes, to its own class."""
        ops, kids, least = self.ops, self.node_args, self.least
        return {(ops[i], tuple([least[c] for c in kids[i]])): least[i]
                for i in range(len(self.x), len(ops))}

    @cached_property
    def universe(self) -> FinSet:
        """The registered terms as a canonical set, their ids' order checked."""
        check_id_order(self.ops, self.node_args, len(self.x))
        return FinSet._trusted(self.terms)

    @cached_property
    def classes(self) -> Partition:
        """The classes of the registered terms as a canonical partition."""
        groups: dict[int, list[Term]] = {}
        for t, c in zip(self.terms, self.least):
            groups.setdefault(c, []).append(t)
        return Partition(self.universe, groups.values())

    @cached_property
    def instance_pairs(self) -> tuple[tuple[Term, Term], ...]:
        """For each identity instance that merged classes, in the order of
        the merges, the terms of the nodes its two sides resolved to, each
        congruent to the literal instance side when the union was made."""
        term = self.term
        return tuple(
            (term(a), term(b)) for a, b, reason in self.union_log if reason != CONGRUENCE
        )


@dataclass(frozen=True)
class Stabilized:
    algebra: FinAlgebra
    unit: FinMap
    state: CongruenceState


@dataclass(frozen=True)
class Unstabilized:
    state: CongruenceState


FreeAlgebraResult = Union[Stabilized, Unstabilized]


def _components(ids: Iterable[NaturalIdentity], sig: Signature) -> list[tuple]:
    """One entry per identity component, in order, from ``_generated_pass``:
    ``(deepest, ground, run, ops)``."""
    components = []
    for ident in ids:
        if ident.sig != sig:
            raise ValidationError("identity signature differs from presentation")
        for k, left, right in zip(ident.domain, ident.lhs.data, ident.rhs.data):
            components.append(_generated_pass(k, left, right))
    return components


def _tuple(items: Sequence[str]) -> str:
    """The text of a tuple display of the names ``items``."""
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


class _PassSource:
    """The text of ``run(pools, olds, engine, comp, ops)``, the instance pass
    of the identity component ``left = right`` over the canonical variables
    of ``k`` at one depth, with ``deepest``, the used variables in
    canonical order, each mapped to the depth of its deepest occurrence in
    either side, and ``ops``, the operations the text reads as ``oI``.

    ``pools[i]`` holds, in id order, the least ids variable ``i`` may be
    bound to, and its first ``olds[i]`` are those it was bound to at the
    previous depth.  One ``for`` per variable walks ``itertools.product``
    order, leaving out each tuple whose every image is old: while every
    outer image is old, a loop reads its pool's old ids ``OI`` and then its
    new ids ``NI``, and the innermost loop only the new ones.  Past
    ``_MAX_NESTING`` loops, one ``product`` loop binds the remaining
    variables and skips a tuple whose images are each at most their pool's
    last old id ``mI``.  Innermost, per node of the sides in post-order,
    one step takes the node with exactly its children, else the node
    ``sig_table`` files under their roots, and when the sides' ids lie in
    distinct classes the pass joins them with the reason ``(comp, images,
    left_steps, right_steps)``.

    The text holds only integers and fixed local names: the parameters,
    ``get``, ``filed``, ``root``, ``union``, ``product``, ``oI``, the pools
    ``PI`` and old counts ``nI``, ``OI``, ``NI``, ``mI``, the images ``aI``
    and the node ids ``xK``.  Operation names reach it only through
    ``ops``."""

    def __init__(self, k: int, left: Term, right: Term):
        occurring = variables(left) | variables(right)
        self.deepest = {v: 0 for v in canonical_vars(k) if v in occurring}
        self.image = {v: f"a{i}" for i, v in enumerate(self.deepest)}
        self.ops: dict[str, int] = {}
        self.steps: list[str] = []
        sides = ([], [])
        a, b = self.side(left, 0, sides[0]), self.side(right, 0, sides[1])
        body = self.steps + [
            f"if root[{a}] != root[{b}]:",
            f"    union({a}, {b}, (comp, {_tuple(list(self.image.values()))}, "
            f"{_tuple(sides[0])}, {_tuple(sides[1])}))",
        ]
        used = len(self.deepest)
        cut = used if used <= _MAX_NESTING else _MAX_NESTING - 1
        lines = ["def run(pools, olds, engine, comp, ops):",
                 "    get, filed, root, union = "
                 "engine.nodes.get, engine.sig_table, engine.root, engine.union"]
        if self.ops:
            lines.append(f"    {''.join(f'o{i}, ' for i in range(len(self.ops)))}= ops")
        if used:
            lines.append(f"    {''.join(f'P{i}, ' for i in range(used))}= pools")
            lines.append(f"    {''.join(f'n{i}, ' for i in range(used))}= olds")
            lines += [f"    O{i}, N{i} = P{i}[:n{i}], P{i}[n{i}:]" for i in range(cut)]
            lines += [f"    m{i} = P{i}[n{i} - 1] if n{i} else -1" for i in range(cut, used)]
        self.loops(lines, body, 0, cut, used, True, "    ")
        self.text = "\n".join(lines) + "\n"

    def side(self, t: Term, depth: int, taken: list) -> str:
        """The name of ``t``'s id, ``t`` at ``depth`` below its side's root.
        Appends the names of its nodes' ids to ``taken`` in post-order, left
        to right, and raises each variable's ``deepest`` entry to the depth
        of its deepest occurrence: the height of side[g] is max(side.height,
        max_v(deepest_v + height(g(v)))), so these depths turn the
        fits-in-stage test into a per-variable bound."""
        if not isinstance(t, Node):
            self.deepest[t.name] = max(self.deepest[t.name], depth)
            return self.image[t.name]
        args = [self.side(a, depth + 1, taken) for a in t.args]
        op, name = f"o{self.ops.setdefault(t.op, len(self.ops))}", f"x{len(self.steps) // 2}"
        roots = _tuple([f"root[{a}]" for a in args])
        self.steps += [f"{name} = get(({op}, {_tuple(args)}))",
                       f"if {name} is None: {name} = filed[({op}, {roots})]"]
        taken.append(name)
        return name

    def loops(self, lines: list, body: list, i: int, cut: int, k: int, old: bool,
              pad: str) -> None:
        """Append the loops of variables ``i`` on, ``old`` when every outer
        image is old, and ``body`` innermost."""
        if i == cut:
            if i < k:
                lines.append(f"{pad}for {', '.join(f'a{j}' for j in range(i, k))} in "
                             f"product({', '.join(f'P{j}' for j in range(i, k))}):")
                pad += "    "
                if old:
                    lines.append(
                        f"{pad}if {' and '.join(f'a{j} <= m{j}' for j in range(i, k))}: continue")
            lines += [pad + line for line in body]
        elif old:
            if i < k - 1:
                lines.append(f"{pad}for a{i} in O{i}:")
                self.loops(lines, body, i + 1, cut, k, True, pad + "    ")
            lines.append(f"{pad}for a{i} in N{i}:")
            self.loops(lines, body, i + 1, cut, k, False, pad + "    ")
        else:
            lines.append(f"{pad}for a{i} in P{i}:")
            self.loops(lines, body, i + 1, cut, k, False, pad + "    ")


# Generated instance passes by component data, so a presentation saturated
# again reuses them; bounded for the process's life.
@lru_cache(maxsize=256)
def _generated_pass(k: int, left: Term, right: Term) -> tuple:
    """``(deepest, ground, run, ops)`` for the identity component ``left =
    right`` over the canonical variables of ``k``: ``deepest`` pairs its
    used variables, in canonical order, with their deepest occurrence,
    ``ground`` is the height of the taller side, and ``run`` is its
    ``_PassSource`` pass, which reads the operations ``ops``."""
    src = _PassSource(k, left, right)
    namespace = {"__builtins__": {}, "product": itertools.product}
    exec(compile(src.text, "<instance pass>", "exec"), namespace)
    return (tuple(src.deepest.items()), max(left.height, right.height), namespace["run"],
            tuple(src.ops))


def _instance_passes(ids: Sequence[NaturalIdentity], sig: Signature) -> Callable:
    """``apply(engine, depth)``, the instance pass of one saturation run at
    each depth: per identity component, in order, the generated pass over
    the instances that fit in the depth and no earlier depth applied, then
    a drain.  ``saturate`` makes its passes only through this.

    A pool holds the least ids whose height plus the variable's offset is
    at most the depth.  Ids are in canonical term order, so the ids of
    height at most h are a prefix of the ids, and of each pool, and a
    class's least id was its least id since it was registered.  So a
    tuple whose every image is no higher than depth - 1 less its offset was
    in the previous depth's pools, applied there if the component was,
    and a tuple with a higher image was in no earlier pool: each instance
    is tried once, at the first depth it fits in, and in product order.
    A component with no variables is applied once, at its first depth.

    Every step finds its node, so no pass registers one and the
    universe check bounds the depth.  After the frontier every term of
    height < depth lies in an old class, one that held a frontier id, and
    the frontier built every operation over the old classes.  A proper
    subterm of an instance side has height < depth, so every step's
    children lie in old classes and it finds its node in ``sig_table``.
    A union keeps one of its two roots, and the old one against a class
    this depth made, which has no parent nodes, so those keys hold until
    the next drain.  The exact ``nodes`` lookup comes first and stays:
    taking the ``sig_table`` holder in its place hands later steps other
    ids, and the instance's unions then merge other ids in the middle of
    a pass, so a later step's key is not filed yet (with every step through
    ``sig_table`` alone, the test
    ``test_universal_property_by_generation_matches_enumeration`` raises
    ``KeyError: ('m', (30, 0))``).

    One pass per depth applies every instance the depth can: no pass
    registers a node, and a union keeps one of the two classes' least
    ids, so during the pass the least ids only shrink, with their heights,
    and a second pass would read pools within these ones."""
    components = _components(ids, sig)

    def apply(engine: _Engine, depth: int) -> None:
        reps, height = engine.least_ids(), engine.height

        def count(h: int) -> int:
            """The number of roots no higher than ``h``."""
            return bisect_left(reps, bisect_right(height, h))

        for comp, (deepest, ground, run, ops) in enumerate(components):
            ran = depth > max(ground, 1)  # the component's pass ran at depth - 1
            if ground > depth or ran and not deepest:
                continue
            pools = [reps[:count(depth - o)] for _, o in deepest]
            if (instances := math.prod(map(len, pools))) > MAX_ENUMERATION:
                what = f"instances of identity component {comp} at depth {depth}"
                raise ResourceLimitError(what, instances, MAX_ENUMERATION)
            olds = [count(depth - 1 - o) if ran else 0 for _, o in deepest]
            run(pools, olds, engine, comp, ops)
            engine.drain()

    return apply


def _state(engine: _Engine, sig: Signature, x: FinSet, ids: Sequence[NaturalIdentity],
           depth: int, counts: list[int]) -> CongruenceState:
    """The engine's arrays and log as a state, each id's class named by its
    lowest id; it builds no term."""
    least = tuple(map(engine.rep.__getitem__, engine.root))
    return CongruenceState(
        sig, x, tuple(ids), depth, tuple(engine.ops), tuple(engine.node_args), least,
        tuple(engine.union_log), tuple(counts),
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
    not suffice.  Depth d registers terms of height d, so a ``depth_bound``
    above ``MAX_TERM_DEPTH`` is refused before anything is built, as
    ``stage`` refuses a stage that high.
    """
    if depth_bound < 1:
        raise ValidationError("depth bound must be at least 1")
    if depth_bound > MAX_TERM_DEPTH:
        raise ResourceLimitError(
            f"term height of depth {depth_bound}", depth_bound, MAX_TERM_DEPTH)
    instance_pass = _instance_passes(ids, sig)
    engine = _Engine(x)
    nodes, root, rep = engine.nodes, engine.root, engine.rep
    counts: list[int] = []

    for depth in range(1, depth_bound + 1):
        frontier = engine.least_ids()
        # The frontier adds every node over it that is not registered yet;
        # the registered ones are counted only when the plain bound is over.
        needed = len(engine.ops) + sum(len(frontier) ** arity for _, arity in sig)
        if needed > max_universe:
            inside = set(frontier)
            needed -= sum(all(a in inside for a in arg_ids) for _, arg_ids in nodes)
            if needed > max_universe:
                raise ResourceLimitError("saturation universe", needed, max_universe)
        first = len(engine.ops)
        engine.register_depth(depth, frontier, sig)
        instance_pass(engine, depth)

        counts.append(len(rep))
        # The frontier holds one id per old class (a class before this
        # depth), and classes only merge.  When every least id is older than
        # this depth's nodes, every class holds an old id, so it contains an
        # old class, and equal counts mean exactly one: no two old classes
        # merged (``default`` passes a run with no class).  Each least id is
        # then its old class's, a frontier id, and ``nodes`` holds each
        # operation over those, as the frontier built what it lacked: a cell
        # is that node's class's position.  An instance too high for this
        # depth may not be applied yet.
        if len(rep) == len(frontier) and max(rep.values(), default=-1) < first:
            position = {c: j for j, c in enumerate(frontier)}
            flat = tuple([tuple([position[rep[root[nodes[(name, args)]]]]
                                 for args in itertools.product(frontier, repeat=arity)])
                          for name, arity in sig])
            points = FinSet._trusted(tuple(range(len(frontier))))
            if satisfies_all(FinAlgebra._trusted(sig, points, flat), ids):
                state = _state(engine, sig, x, ids, depth, counts)
                term, least = state.term, state.least
                # Least ids ascend, so their terms are in canonical order.
                carrier = FinSet._trusted(tuple([term(c) for c in frontier]))
                unit = FinMap(x, carrier, {a: term(least[i]) for i, a in enumerate(x)})
                return Stabilized(FinAlgebra._trusted(sig, carrier, flat), unit, state)

    return Unstabilized(_state(engine, sig, x, ids, depth_bound, counts))


def _state_of(res: FreeAlgebraResult) -> CongruenceState:
    if isinstance(res, (Stabilized, Unstabilized)):
        return res.state
    raise ValidationError(f"not a saturation result: {res!r}")


def word_equal(res, t1: Term, t2: Term) -> bool:
    """Whether two terms denote the same element of the (partial) quotient.

    Both terms are checked against the signature first, then normalized
    to class ids through the table each node gives: its operation over its
    children's classes to its own class, built once per state.  A
    stabilized state's table is total on its classes, so this resolves
    every well-formed term there."""
    state = _state_of(res)
    check_term(state.sig, t1)
    check_term(state.sig, t2)
    table, least = state._table, state.least

    def normalize(t: Term) -> int:
        if type(t) is Var:
            if t.name not in state.x:
                raise ValidationError(f"variable {t!r} outside the generators")
            return least[state.x.position[t.name]]
        found = table.get((t.op, tuple([normalize(a) for a in t.args])))
        if found is None:
            raise ValidationError(f"term not resolvable at depth {state.depth}: {t!r}")
        return found

    return normalize(t1) == normalize(t2)


def audit_derivations(res) -> bool:
    """Check the certificate a saturation result carries, with its own
    class labels and none of the engine's code.

    The certificate is ids and operations: it checks that the first ids
    are the generators, with no operation and no children, and that each
    other id is an operation of the signature over as many children as its
    arity, each registered before it, so the term the state builds for an
    id when it is first read is well formed; that each logged union is
    justified when it is replayed: for an identity reason, each side of
    the recorded component, compiled here, is replayed over the recorded
    images and steps, each step id a node of the step's operation whose
    children are its slots' registers or in their replayed classes, no
    step id left over, and the side ending in its logged id; a congruence
    reason joins two nodes of one operation whose children are already
    joined; that the replayed classes are the claimed ones, each named by
    its lowest member; that the classes are closed under congruence: nodes
    of one operation over the same child classes lie in one class; and
    that ``class_counts`` holds one count per depth of ``depth``, the last
    the number of classes.  An unstabilized result reads no term.  For a
    stabilized result it also checks that the algebra's tables hold
    exactly the closure's entries on the terms of the classes' least ids,
    the only terms it reads, that the carrier is the set of those terms,
    the unit sends each generator to its class, the algebra satisfies
    every identity, and every carrier term folds to itself under the
    unit, so the unit generates the algebra.
    """
    state = _state_of(res)
    try:
        return _certified(res, state)
    except (IndexError, KeyError, TypeError, ValueError):
        return False


def _certified(res, state: CongruenceState) -> bool:
    ops, kids, least = state.ops, state.node_args, state.least
    n, gens, arity = len(ops), state.x.elements, dict(state.sig)
    if not len(kids) == len(least) == n >= len(gens):
        return False
    if any(ops[i] is not None or kids[i] is not None for i in range(len(gens))):
        return False
    for i in range(len(gens), n):
        args = kids[i]
        if arity.get(ops[i]) != len(args) or args and not 0 <= min(args) <= max(args) < i:
            return False

    def compiled(t: Term, slot: dict, steps: list) -> int:
        """Append ``t``'s nodes to ``steps`` in post-order as ``(op, slots)``
        and return the register of its value."""
        if type(t) is Var:
            return slot[t.name]
        slots = tuple([compiled(a, slot, steps) for a in t.args])
        steps.append((t.op, slots))
        return len(slot) + len(steps) - 1

    sides = []
    for ident in state.identities:
        if ident.sig != state.sig:
            return False
        for k, left, right in zip(ident.domain, ident.lhs.data, ident.rhs.data):
            occurring = variables(left) | variables(right)
            slot = {v: i for i, v in enumerate(v for v in canonical_vars(k) if v in occurring)}
            left_steps, right_steps = [], []
            sides.append((len(slot), (left_steps, compiled(left, slot, left_steps)),
                          (right_steps, compiled(right, slot, right_steps))))

    # Each id's class label, and each label's ids once it has more than one.
    label, group = list(range(n)), [None] * n
    ids = range(n)

    def replayed(side: tuple, images: tuple, built: tuple, end: int) -> bool:
        """Whether the ids ``built`` replay the steps of ``side`` over
        ``images``, ending in ``end``: each is a node of its step's
        operation whose children are in the classes of its slots' registers.
        A negative id is refused, since a list reads it from the end."""
        steps, out = side
        if len(built) != len(steps):
            return False
        regs = [*images, *built]
        for (op, slots), nid in zip(steps, built):
            if nid < 0 or ops[nid] != op:
                return False
            for c, s in zip(kids[nid], slots):
                if c != regs[s] and label[c] != label[regs[s]]:
                    return False
        return regs[out] == end

    for a, b, reason in state.union_log:
        if a not in ids or b not in ids:
            return False
        if reason == CONGRUENCE:
            if kids[a] is None or kids[b] is None or ops[a] != ops[b]:
                return False
            for p, q in zip(kids[a], kids[b]):
                if label[p] != label[q]:
                    return False
        else:
            comp, images, left_built, right_built = reason
            if comp not in range(len(sides)) or not all(i in ids for i in images):
                return False
            used, left, right = sides[comp]
            if len(images) != used or not (
                replayed(left, images, left_built, a) and replayed(right, images, right_built, b)
            ):
                return False
        la, lb = label[a], label[b]
        if la != lb:
            # Relabel the smaller class, so each id is relabelled O(log n) times.
            kept, moved = group[la] or [la], group[lb] or (lb,)
            if len(kept) < len(moved):
                la, lb, kept, moved = lb, la, moved, kept
            for i in moved:
                label[i] = la
            kept += moved
            group[la], group[lb] = kept, None

    claimed: dict[int, int] = {}
    for i in ids:
        if not 0 <= least[i] <= i or claimed.setdefault(label[i], least[i]) != least[i]:
            return False
    reps = set(claimed.values())
    if len(reps) != len(claimed) or any(least[c] != c for c in reps):
        return False
    if len(state.class_counts) != state.depth or state.class_counts[-1] != len(reps):
        return False

    closure: dict[tuple, int] = {}
    for i in range(len(gens), n):
        key = (ops[i], tuple([least[c] for c in kids[i]]))
        if closure.setdefault(key, least[i]) != least[i]:
            return False
    if not isinstance(res, Stabilized):
        return True
    # Every id's term is its operation over its children's, by the checks
    # above and by construction; only the least ids' terms are read.
    term = {c: state.term(c) for c in reps}
    algebra, unit = res.algebra, res.unit
    if sum(len(table) for table in algebra.tables.values()) != len(closure):
        return False
    for (op, args), c in closure.items():
        if algebra.tables[op][tuple([term[a] for a in args])] != term[c]:
            return False
    return (
        algebra.sig == state.sig
        and set(algebra.carrier) == set(term.values())
        and unit.dom == state.x
        and all(unit.table[a] == term[least[i]] for i, a in enumerate(gens))
        and satisfies_all(algebra, state.identities)
        and _unit_folds(res) is not None
    )


def _unit_folds(res: Stabilized) -> Optional[list]:
    """Per carrier term, in carrier order, its fold compiled over the
    generators, when every carrier term folds to itself under the unit
    (the unit generates the algebra); None when one does not."""
    algebra, names = res.algebra, res.unit.dom.elements
    carrier = algebra.carrier.elements
    folds = [compile_term(algebra.sig, t, names) for t in carrier]
    position = algebra.carrier.position
    unit = [position[res.unit.table[a]] for a in names]
    if all(fold(algebra.flat, len(carrier), unit) == j for j, fold in enumerate(folds)):
        return folds
    return None


def universal_property_witness(
    res: Stabilized, ids: Sequence[NaturalIdentity], target: FinAlgebra
) -> Optional[tuple[FinMap, int]]:
    """The first assignment of the generators into ``target`` that does not
    extend to exactly one algebra morphism from the free algebra, with its
    number of extensions, or None when every assignment does.

    The unit must generate the free algebra: every carrier term folds to
    itself under it.  A morphism h with h∘unit = f then sends each carrier
    term t to h(fold of t under the unit) = fold of t under f, so ``f``
    has one extension when that fold is a morphism extending it, and none
    when it is not."""
    if not isinstance(res, Stabilized):
        raise ValidationError("universal property requires a stabilized result")
    if not satisfies_all(target, ids):
        raise ValidationError("target algebra is outside the variety")
    folds = _unit_folds(res)
    if folds is None:
        raise ValidationError("the unit does not generate the algebra")
    free, gens, unit = res.algebra, res.unit.dom, res.unit.table
    if free.sig != target.sig:
        raise ValidationError("signature mismatch")
    elems, position = target.carrier.elements, target.carrier.position
    flat, n = target.flat, len(elems)
    for f in enumerate_maps(gens, target.carrier):
        values = [position[f.table[a]] for a in gens]
        h = FinMap(free.carrier, target.carrier,
                   {t: elems[fold(flat, n, values)] for t, fold in zip(free.carrier, folds)})
        if any(h.table[unit[a]] != f.table[a] for a in gens) or not is_morphism(free, target, h):
            return f, 0
    return None


def check_universal_property(
    res: Stabilized, ids: Sequence[NaturalIdentity], target: FinAlgebra
) -> bool:
    """Whether every assignment of the generators into ``target`` extends to
    exactly one algebra morphism from the free algebra."""
    return universal_property_witness(res, ids, target) is None
