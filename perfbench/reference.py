"""Reference answers that do not come from finalg.

The answer table (``corpus/answers.json``) holds every expected size,
count and verdict together with its source.  This module adds what the
benchmark computes on its own: the closed forms the table cites, the
stage-size recurrence, an evaluator over plain operation tables, and
word-problem normal forms for each presentation of the corpus.  Terms
coming out of finalg are read only through their public fields (a
variable has ``name``, a node has ``op`` and ``args``) and converted to
plain tuples first, so nothing here calls into the program under test.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"


def load_answers() -> dict:
    with open(CORPUS / "answers.json", encoding="utf-8") as handle:
        return json.load(handle)


# Closed forms cited by the answer table, keyed by the table's "formula".
FORMULAS = {
    "2^g-1": lambda g: 2**g - 1,
    "2^g": lambda g: 2**g,
    "g^2": lambda g: g * g,
    "g": lambda g: g,
    "n^(n^2)": lambda n: n ** (n * n),
    "n^(n(n+1)/2)": lambda n: n ** (n * (n + 1) // 2),
    "n^(n^2-n)": lambda n: n ** (n * n - n),
    "n^(n(n-1)/2)": lambda n: n ** (n * (n - 1) // 2),
    "1": lambda n: 1,
    "n!": math.factorial,
    "g(g-1)/2": lambda g: g * (g - 1) // 2,
    "sum_{s<=n} s^(s^2)": lambda n: sum(s ** (s * s) for s in range(1, n + 1)),
}


def stage_sizes(arities: list[int], generators: int, upto: int) -> list[int]:
    """|S_0| = g and |S_{k+1}| = g + sum over operations of |S_k|^arity."""
    sizes = [generators]
    for _ in range(upto):
        sizes.append(generators + sum(sizes[-1] ** a for a in arities))
    return sizes


# ---------------------------------------------------------------------------
# Plain terms: ("v", name) for a variable, (op, child, ...) for a node.


def plain(term, memo: dict | None = None):
    """Convert a finalg term to a plain tuple tree."""
    if memo is not None:
        found = memo.get(id(term))
        if found is not None:
            return found
    if hasattr(term, "name"):
        out = ("v", term.name)
    else:
        out = (term.op,) + tuple(plain(a, memo) for a in term.args)
    if memo is not None:
        memo[id(term)] = out
    return out


def evaluate(tables: dict, term, binding: dict):
    """Fold a plain term through operation tables keyed by argument tuples."""
    if term[0] == "v":
        return binding[term[1]]
    return tables[term[0]][tuple(evaluate(tables, a, binding) for a in term[1:])]


def holds(tables: dict, carrier, lhs, rhs) -> bool:
    """Whether the plain identity lhs = rhs holds under every assignment."""
    names = sorted(variables(lhs) | variables(rhs))
    for values in itertools.product(carrier, repeat=len(names)):
        binding = dict(zip(names, values))
        if evaluate(tables, lhs, binding) != evaluate(tables, rhs, binding):
            return False
    return True


def variables(term) -> set:
    if term[0] == "v":
        return {term[1]}
    out: set = set()
    for a in term[1:]:
        out |= variables(a)
    return out


def leaves(term) -> tuple:
    """The generator word of a term, nullary operations dropped."""
    if term[0] == "v":
        return (term[1],)
    return tuple(x for a in term[1:] for x in leaves(a))


# ---------------------------------------------------------------------------
# Word-problem normal forms: two terms are equal in the free algebra of the
# presentation iff their normal forms are equal.


def band_normal_form(word: tuple):
    """Green-Rees normal form of a word in the free band: content, the
    longest prefix missing one letter of the content and that letter, and
    the mirror-image suffix data, recursively."""
    if not word:
        return ()
    content = frozenset(word)
    seen: set = set()
    for i, letter in enumerate(word):
        seen.add(letter)
        if len(seen) == len(content):
            prefix, first = word[:i], letter
            break
    seen = set()
    for i in range(len(word) - 1, -1, -1):
        seen.add(word[i])
        if len(seen) == len(content):
            suffix, last = word[i + 1:], word[i]
            break
    return (content, band_normal_form(prefix), first, last, band_normal_form(suffix))


def _lattice_table(term, generators: tuple) -> tuple:
    """Truth table of a join/meet term over 0/1 assignments: distributive
    lattice terms are equal in the free lattice iff these agree."""
    tables = {
        "j": {(a, b): max(a, b) for a in (0, 1) for b in (0, 1)},
        "k": {(a, b): min(a, b) for a in (0, 1) for b in (0, 1)},
    }
    return tuple(
        evaluate(tables, term, dict(zip(generators, bits)))
        for bits in itertools.product((0, 1), repeat=len(generators))
    )


def _odd(word: tuple) -> frozenset:
    return frozenset(a for a in set(word) if word.count(a) % 2)


NORMAL_FORMS = {
    "Semilattice": lambda t, g: frozenset(leaves(t)),
    "SemilatticeUnit": lambda t, g: frozenset(leaves(t)),
    "BoolGroup": lambda t, g: _odd(leaves(t)),
    "RectBand": lambda t, g: (leaves(t)[0], leaves(t)[-1]),
    "LeftZero": lambda t, g: leaves(t)[0],
    "Band": lambda t, g: band_normal_form(leaves(t)),
    "Semigroup": lambda t, g: leaves(t),
    "MonoidPres": lambda t, g: leaves(t),
    "CommSemigroup": lambda t, g: tuple(sorted(leaves(t))),
    "CommMonoid": lambda t, g: tuple(sorted(leaves(t))),
    "DistLat": _lattice_table,
}


def check_free_algebra(presentation: str, generators: tuple, carrier, tables, unit) -> str:
    """Check a stabilized free algebra against the normal forms.

    ``carrier`` lists finalg terms, ``tables`` maps op -> {args: term} and
    ``unit`` maps generator -> term.  Returns "" or a description of the
    first mismatch.
    """
    nf = NORMAL_FORMS[presentation]
    memo: dict = {}

    def form(term):
        return nf(plain(term, memo), generators)

    if len({form(t) for t in carrier}) != len(carrier):
        return "two carrier elements share a normal form"
    for a in generators:
        if form(unit[a]) != nf(("v", a), generators):
            return f"unit sends {a} to the wrong element"
    for op, table in tables.items():
        for args, image in table.items():
            composite = (op,) + tuple(plain(x, memo) for x in args)
            if nf(composite, generators) != form(image):
                return f"table {op} is wrong at an argument tuple"
    return ""


def check_classes(presentation: str, generators: tuple, blocks) -> str:
    """Check that a partial quotient is sound: no block merges terms that
    differ in the free algebra.  Blocks of equal terms may stay apart at a
    depth bound, since their proof can need deeper identity instances.
    Returns "" or the first mismatch."""
    nf = NORMAL_FORMS[presentation]
    memo: dict = {}
    for block in blocks:
        if len({nf(plain(t, memo), generators) for t in block}) != 1:
            return "a class merges terms that differ in the free algebra"
    return ""
