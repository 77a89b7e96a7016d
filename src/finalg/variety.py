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
identity instances and frontier nodes are built on integer ids.  Each
identity component is prepared once: one walk per side compiles it into
a post-order list of steps over registers that start with the images of
the component's variables, and records each variable's deepest
occurrence, which bounds the height of its images.  An instance runs
those lists, each step taking the node of its operation with exactly the
children in its slots, or else, as egg's ``add`` canonicalizes an
e-node's children before its hashcons lookup (Willsey et al., POPL
2021), the node ``sig_table`` files under the roots of those children:
in ``saturate`` one exists (the argument is at the instance loop).

Only the frontier registers nodes, and filing one never retires it.  At
depth d it registers each operation over each tuple of least ids that
``nodes`` does not hold.  The least ids are among the previous
frontier's, over which it built every operation, and the nodes it
registered, so by induction the tuple holds a node of height d-1 and the
new node has height d.  A node filed under the same operation and child
roots would be this depth's node over the same least ids, which
``nodes`` holds, or an older one, lower than d, whose child in the class
of that least id of height d-1 is lower than the class's least; but
terms are ordered by height first.  Each depth registers its new nodes
by size, operation and child ids, as ``terms._stage_terms`` orders a
stage's, so by induction ids are in canonical term order, and the engine
keeps only each id's height and size: an instance pool, the roots of
height at most the depth less a variable's offset, is a prefix of the
sorted roots, and a depth's one instance pass sorts only the roots no
higher than the depth less the least offset.  The keys of ``rep`` are
exactly the live union-find roots, each mapped to its class's lowest id.
``parents`` holds, per id, the list of parent nodes of that root's class.  A union
keeps the root with the longer list (Downey, Sethi & Tarjan, 1980) and
marks the nodes it moves dirty; a drain files each dirty node again once
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
reads each cell of its algebra off the frontier node over the carrier
ids, and builds only the carrier's terms.
``audit_derivations`` checks this certificate with its own union-find
and no engine code.  Once it has shown that every carrier term folds to
itself under the unit, a morphism extending an assignment can only be
the fold of each carrier term under it, so the universal property is
checked by that fold alone, and refused for a result whose unit does not
generate.

Saturation stabilizes at depth d when the roots after depth d-1 still
name distinct classes after depth d, those are all the classes (the
images of the earlier roots are always among the current roots, so
equal counts make the map a bijection), and the quotient satisfies the
identities.  Every class then holds one id of depth d's frontier, which
built every operation over itself, so every operation table over the
classes is total.  An instance is applied only once it fits in the
depth, so such a quotient can still break an identity; one that keeps
them all is in the variety, generated by the variable embedding, and
merged only what the identities derive, so it is the free algebra with
that embedding as its unit.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .algebras import FinAlgebra, compile_term, is_morphism
from .core import MAX_ENUMERATION, FinMap, FinSet, Partition, enumerate_maps
from .errors import ResourceLimitError, ValidationError
from .functors import Signature
from .identities import NaturalIdentity, canonical_vars, satisfies_all
from .terms import MAX_TERM_DEPTH, Node, Term, Var, check_term, variables

MAX_UNIVERSE = 500_000

# The reason logged for a union between two nodes of one operation whose
# children were already joined; an identity instance logs
# ``(component, images, left_steps, right_steps)`` instead.
CONGRUENCE = "congruence"


class _Engine:
    """Union-find over registered ids with congruence closure; an id is its
    operation ``ops[i]`` (None for a generator) over the ids
    ``node_args[i]``, and the engine builds no ``Node``.  ``nodes`` (the
    one term store) is keyed on exact child ids, ``sig_table`` on child
    roots, ``rep`` maps each root to its class's lowest id, and
    ``union_log`` holds every union with its reason.  Ids are in
    canonical term order, and ``height`` and ``size`` hold each id's
    term's height (the depth that registered it) and size.  ``build``
    runs a side compiled by ``_compile_side``, taking a node ``nodes`` or
    else ``sig_table`` holds for each step, and only the frontier
    registers nodes, through ``_register``.

    ``parents`` holds, per id, the parent nodes of that root's class, and
    ``retired`` flags, per id, a node whose operation and child roots a
    drain's filing found held by another node in ``sig_table`` (egg's parent
    deduplication, Willsey et al., POPL 2021); such a node is never filed
    again.  A union moves the live parent nodes of the root it merges away
    onto the surviving root, dropping the retired ones, and marks them
    ``dirty``; ``drain`` files each dirty node again once per round, after
    the round's pending unions, so a node is not filed again for every
    child class that merges.  ``least_ids`` given a height sorts only the
    roots whose least term is no higher, the prefix an instance pass's
    pools read."""

    def __init__(self, x: FinSet):
        self.ops: list[Optional[str]] = [None] * len(x)
        self.height: list[int] = [0] * len(x)
        self.size: list[int] = [1] * len(x)
        self.parent: list[int] = list(range(len(x)))
        self.rep: dict[int, int] = {i: i for i in self.parent}
        self.node_args: list[Optional[tuple[int, ...]]] = [None] * len(x)
        self.nodes: dict[tuple, int] = {}
        self.sig_table: dict[tuple, int] = {}
        self.parents: list[Sequence[int]] = [()] * len(x)
        self.retired = bytearray(len(x))
        self.pending: deque[tuple[int, int]] = deque()
        self.dirty: list[int] = []
        self.union_log: list[tuple[int, int, object]] = []

    def find(self, i: int) -> int:
        parent = self.parent
        root = parent[i]
        if root == i or parent[root] == root:
            return root
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def build(self, side: tuple, images: tuple[int, ...]) -> list[int]:
        """The registers of a side compiled by ``_compile_side``, its variables
        bound to the ids ``images``: the images, then per step the id of a
        node of the step's operation over the ids in its slots, or over ids
        of their classes.  A step takes the node with exactly those children
        if there is one, else the node ``sig_table`` files under their roots;
        it registers nothing, and raises ``KeyError`` when neither exists.

        The exact ``nodes`` lookup comes first and stays.  Taking the
        ``sig_table`` holder in place of the exact node hands later steps
        other ids, and the instance's unions then merge other ids in the
        middle of a pass, so a later step's key is not filed yet: with
        every step built through ``sig_table`` alone, the test
        ``test_universal_property_by_generation_matches_enumeration``
        raises ``KeyError: ('m', (30, 0))``.  With the exact lookup first,
        no step finds its exact node while its ``sig_table`` key is
        missing, over a free_variety round, ``tests/test_variety.py``, the
        CLI goldens and ``tests/test_acceptance.py``."""
        steps, _ = side
        regs = list(images)
        nodes, filed, find = self.nodes, self.sig_table, self.find
        for op, slots in steps:
            args = tuple([regs[s] for s in slots])
            nid = nodes.get((op, args))
            if nid is None:
                nid = filed[(op, tuple([find(a) for a in args]))]
            regs.append(nid)
        return regs

    def _register(self, height: int, size: int, op: str, arg_ids: tuple[int, ...]) -> None:
        """Register the node ``op`` over ``arg_ids``, which ``nodes`` does not
        hold, as the next id: record its operation, height and size, file it
        (the frontier never registers a node that filing retires), and add it
        to the parent list of each of its distinct child roots."""
        nid = len(self.ops)
        self.ops.append(op)
        self.height.append(height)
        self.size.append(size)
        self.parent.append(nid)
        self.rep[nid] = nid
        self.node_args.append(arg_ids)
        self.parents.append(())
        self.retired.append(0)
        self.nodes[(op, arg_ids)] = nid
        parents = self.parents
        for root in self._file(nid):
            filed = parents[root]
            if not filed:
                parents[root] = [nid]
            elif filed[-1] != nid:
                filed.append(nid)

    def _file(self, nid: int) -> tuple[int, ...]:
        """File node ``nid`` in ``sig_table`` under its operation and child
        roots and return those roots; when another node holds them, retire
        ``nid`` and queue a congruence with that node if in another class."""
        find = self.find
        roots = tuple([find(a) for a in self.node_args[nid]])
        other = self.sig_table.setdefault((self.ops[nid], roots), nid)
        if other != nid:
            self.retired[nid] = 1
            if find(other) != find(nid):
                self.pending.append((other, nid))
        return roots

    def union(self, a: int, b: int, reason) -> None:
        """Join the classes of ``a`` and ``b``, logging ``reason`` when they
        were distinct; the root with fewer parent nodes is merged away, and
        its live parent nodes are marked dirty and join the kept root's
        list, its retired ones dropped."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        parents = self.parents
        if len(parents[ra]) < len(parents[rb]):
            ra, rb = rb, ra
        self.parent[rb] = ra
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

    def least_ids(self, height: Optional[int] = None) -> list[int]:
        """The ids of the classes' least terms, in increasing (canonical term)
        order; with ``height``, only those no higher, which are a prefix of
        the full order, since terms are ordered by height first."""
        ids = self.rep.values()
        if height is not None:
            ids = [i for i in ids if self.height[i] <= height]
        return sorted(ids)


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
        with an explicit stack rather than recursion, and kept."""
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
    def universe(self) -> FinSet:
        """The registered terms as a canonical set."""
        return FinSet(self.terms)

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
    """One entry per identity component, in order: ``(deepest, left,
    right, ground)``.  ``deepest`` maps the component's used variables, in
    canonical order, to their deepest occurrence in either side, ``left``
    and ``right`` are the sides compiled over those variables by
    ``_compile_side``, and ``ground`` is the height of the taller side."""
    components = []
    for ident in ids:
        if ident.sig != sig:
            raise ValidationError("identity signature differs from presentation")
        for k, left, right in zip(ident.domain, ident.lhs.data, ident.rhs.data):
            occurring = variables(left) | variables(right)
            deepest = {v: 0 for v in canonical_vars(k) if v in occurring}
            components.append((deepest, _compile_side(left, deepest),
                               _compile_side(right, deepest), max(left.height, right.height)))
    return components


def _compile_side(side: Term, deepest: dict) -> tuple:
    """``side`` as ``(steps, out)``: its nodes in post-order, left to right,
    each step ``(op, slots)`` reading the registers at ``slots`` and writing
    the next one, and the register of the side's value.  The registers
    start with the images of the variables of ``deepest``, in its order.

    The same walk raises each variable's entry in ``deepest`` to the depth
    of its deepest occurrence, measured from the root.  The height of
    side[g] is max(side.height, max_v(deepest_v + height(g(v)))), so these
    depths turn the fits-in-stage test into a per-variable bound."""
    slot = {v: i for i, v in enumerate(deepest)}
    steps: list[tuple[str, tuple[int, ...]]] = []

    def walk(t: Term, depth: int) -> int:
        if not isinstance(t, Node):
            deepest[t.name] = max(deepest[t.name], depth)
            return slot[t.name]
        slots = tuple([walk(a, depth + 1) for a in t.args])
        steps.append((t.op, slots))
        return len(slot) + len(steps) - 1

    out = walk(side, 0)
    return tuple(steps), out


def _state(engine: _Engine, sig: Signature, x: FinSet, ids: Sequence[NaturalIdentity],
           depth: int, counts: list[int]) -> CongruenceState:
    """The engine's arrays and log as a state, each id's class named by its
    lowest id; it builds no term."""
    rep, find = engine.rep, engine.find
    least = tuple([rep[find(i)] for i in range(len(engine.ops))])
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
    components = _components(ids, sig)
    # A pool holds the roots of height at most depth - offset, so no pool
    # reads a root higher than depth - (the least offset).
    least_offset = min((o for deepest, *_ in components for o in deepest.values()), default=0)
    engine = _Engine(x)
    sizes, build, find, nodes = engine.size, engine.build, engine.find, engine.nodes
    counts: list[int] = []
    prev_roots = set(engine.rep)
    applied: set = set()

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
        # The new nodes, all of height ``depth``, in canonical term order.
        for size, name, args in sorted(
            (sum([sizes[a] for a in args]) + 1, name, args) for name, arity in sig
            for args in itertools.product(frontier, repeat=arity) if (name, args) not in nodes
        ):
            engine._register(depth, size, name, args)
        engine.drain()

        # ``build`` finds every step's node, so the check above bounds
        # the universe.  After the frontier every term of height < depth lies
        # in an old class, one that held a frontier id, and the frontier
        # built every operation over the old classes.  A proper subterm of
        # an instance side has height < depth, so every step's children lie
        # in old classes and it finds its node in ``sig_table``.  A union
        # keeps one of its two roots, and the old one against a class this
        # depth made, which has no parent nodes, so those keys hold until
        # the next drain.
        #
        # One pass per depth applies every instance the depth can: ``build``
        # registers nothing, and a union keeps one of the two classes' least
        # ids, so during the pass the least ids only shrink, with their
        # heights.  A second pass would read pools within these ones, whose
        # every tuple is already in ``applied``.
        reps = [(tid, engine.height[tid]) for tid in engine.least_ids(depth - least_offset)]
        for comp_id, (deepest, left, right, ground) in enumerate(components):
            if ground > depth:
                continue
            pools = [
                [tid for tid, height in reps if height + offset <= depth]
                for offset in deepest.values()
            ]
            if (instances := math.prod(map(len, pools))) > MAX_ENUMERATION:
                what = f"instances of identity component {comp_id} at depth {depth}"
                raise ResourceLimitError(what, instances, MAX_ENUMERATION)
            for images in itertools.product(*pools):
                key = (comp_id, images)
                if key in applied:
                    continue
                applied.add(key)
                left_regs, right_regs = build(left, images), build(right, images)
                a, b = left_regs[left[1]], right_regs[right[1]]
                if find(a) != find(b):
                    k = len(images)
                    engine.union(a, b, (comp_id, images,
                                        tuple(left_regs[k:]), tuple(right_regs[k:])))
            engine.drain()

        counts.append(len(engine.rep))
        if len(prev_roots) == len({engine.find(r) for r in prev_roots}) == len(engine.rep):
            # No two old classes merged and every class holds one.  This
            # depth's nodes are higher than every old id, so each class's
            # least id is its old class's, a frontier id, and the frontier
            # built, or found in ``nodes``, each operation over each tuple of
            # those: a table cell is that node's class.  An instance too high
            # for this depth may not be applied yet.
            state = _state(engine, sig, x, ids, depth, counts)
            least, term = state.least, {i: state.term(i) for i in engine.least_ids()}
            carrier = FinSet(tuple(term.values()))
            tables = {name: {tuple([term[c] for c in args]): term[least[nodes[(name, args)]]]
                             for args in itertools.product(term, repeat=arity)}
                      for name, arity in sig}
            algebra = FinAlgebra(sig, carrier, tables)
            if satisfies_all(algebra, ids):
                unit = FinMap(x, carrier, {a: term[least[i]] for i, a in enumerate(x)})
                return Stabilized(algebra, unit, state)
        prev_roots = set(engine.rep)

    return Unstabilized(_state(engine, sig, x, ids, depth_bound, counts))


def _state_of(res: FreeAlgebraResult) -> CongruenceState:
    if isinstance(res, (Stabilized, Unstabilized)):
        return res.state
    raise ValidationError(f"not a saturation result: {res!r}")


def word_equal(res, t1: Term, t2: Term) -> bool:
    """Whether two terms denote the same element of the (partial) quotient.

    Both terms are checked against the signature first, then normalized
    to class ids through the table each node gives: its operation over its
    children's classes to its own class.  A stabilized state's table is
    total on its classes, so this resolves every well-formed term there."""
    state = _state_of(res)
    check_term(state.sig, t1)
    check_term(state.sig, t2)
    ops, kids, least = state.ops, state.node_args, state.least
    table = {(ops[i], tuple([least[c] for c in kids[i]])): least[i]
             for i in range(len(state.x), len(ops))}

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
    """Check the certificate a saturation result carries, with a plain
    union-find and none of the engine's code.

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

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ids = range(n)

    def replayed(side: tuple, images: tuple, built: tuple, end: int) -> bool:
        """Whether the ids ``built`` replay the steps of ``side`` over
        ``images``, ending in ``end``: each is a node of its step's
        operation whose children are in the classes of its slots' registers."""
        steps, out = side
        if len(built) != len(steps):
            return False
        regs = [*images, *built]
        for (op, slots), nid in zip(steps, built):
            if nid not in ids or kids[nid] is None or ops[nid] != op:
                return False
            for c, s in zip(kids[nid], slots):
                if c != regs[s] and find(c) != find(regs[s]):
                    return False
        return regs[out] == end

    for a, b, reason in state.union_log:
        if a not in ids or b not in ids:
            return False
        if reason == CONGRUENCE:
            if kids[a] is None or kids[b] is None or ops[a] != ops[b] or any(
                find(p) != find(q) for p, q in zip(kids[a], kids[b])
            ):
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
        parent[find(b)] = find(a)

    claimed: dict[int, int] = {}
    for i in ids:
        if not 0 <= least[i] <= i or claimed.setdefault(find(i), least[i]) != least[i]:
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
