"""A small declaration language for signatures, identities, algebras, and
presentations.

Grammar (``#`` starts a comment; newlines are ordinary whitespace; names
must be declared before use)::

    signature NAME { op NAME : ARITY ... }
    vars NAME ...
    identity NAME over SIG : TERM = TERM
    algebra NAME over SIG { carrier { ATOM ... } op NAME { (ATOMS) -> ATOM ... } }
    presentation NAME = SIG with IDENTITY ...

An arity is an ASCII numeral no larger than ``MAX_ARITY``.  Terms are
written ``op(arg,...)`` with nullary operations as ``op()`` and variables
bare, nested at most ``MAX_TERM_DEPTH`` deep.  Atoms in algebra blocks
are bare identifiers or numerals, kept verbatim as strings.

The tokenizer makes one pass per line with a single compiled pattern whose
last alternative catches any other character and refuses it, and yields
plain ``(text, line, col)`` tuples; the parser walks that list by index
up to an end sentinel.  Every error is a :class:`ParseError` with the
1-based line and column of the token at fault.  An algebra block is
checked as it is read (atoms in the carrier, every tuple mapped once,
every operation given a table), so the parser flattens the tables and
builds the algebra with ``FinAlgebra._trusted``; nothing is checked
twice.
"""
from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass, field

from .algebras import FinAlgebra, _flatten_tables
from .core import FinSet
from .errors import ParseError, ValidationError
from .functors import Signature
from .identities import NaturalIdentity, from_sigma
from .terms import MAX_TERM_DEPTH, Node, Term, Var, variables

# An operation takes at most this many arguments.  The largest arity in use
# is 3; at 16 a table over two atoms already has 65536 rows, and stage 1
# over two generators 65538 terms.
MAX_ARITY = 16

KEYWORDS = {
    "signature",
    "vars",
    "identity",
    "algebra",
    "presentation",
    "op",
    "over",
    "carrier",
    "with",
}

# One compiled pass classifies every token: punctuation, names and numerals
# match the plain alternatives, and any other non-space character lands in
# the one group, which refuses it.  Numerals keep ``\d`` (any Unicode
# decimal digit), which ``int`` reads too.
_TOKEN = re.compile(r"->|[{}():=,]|[A-Za-z_][A-Za-z0-9_]*|\d+|(\S)")
_PUNCT = frozenset(("->", "{", "}", "(", ")", ":", "=", ","))
_NAME_START = frozenset(string.ascii_letters + "_")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    r"""The tokens of ``text`` as ``(text, line, col)``, both 1-based.

    Lines are those of ``str.splitlines`` and ``#`` comments end at the
    line's end, so positions count ``\r\n``, ``\x0c`` and ``\u2028`` as
    line breaks.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN.finditer(line.split("#", 1)[0]):
            if match.lastindex:
                raise ParseError(
                    f"unexpected character {match.group()!r}", lineno, match.start() + 1
                )
            out.append((match.group(), lineno, match.start() + 1))
    return out


@dataclass(frozen=True)
class IdentityDecl:
    name: str
    sig_name: str
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class AlgebraDecl:
    name: str
    sig_name: str
    algebra: FinAlgebra


@dataclass(frozen=True)
class PresentationDecl:
    name: str
    sig_name: str
    identity_names: tuple[str, ...]


def _declared(table, kind: str, name: str):
    """The declaration ``name`` in one of a model's tables, or a refusal."""
    if name not in table:
        raise ValidationError(f"unknown {kind} {name!r}")
    return table[name]


@dataclass(eq=True)
class SpecModel:
    """Everything a declaration file defines, resolved and validated.

    Each declared identity is built into a :class:`NaturalIdentity` on its
    first request and the same object is returned after that.  The memo is
    private to the model, takes no part in equality or ``repr``, and is
    keyed on what the identity is built from (its declaration, signature
    and the model's variables), never the name, so replacing any of them
    builds the identity again.  A build that would leave it with more
    entries than there are declared identities clears it first, since
    only entries of replaced data can fill it.
    """

    signatures: dict = field(default_factory=dict)
    vars: tuple = ()
    identities: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    presentations: dict = field(default_factory=dict)
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _build(self, name: str) -> tuple[FinSet, NaturalIdentity]:
        """The declared variables that identity ``name`` reads, and its
        natural identity over them."""
        decl = _declared(self.identities, "identity", name)
        sig = self.signatures[decl.sig_name]
        key = (decl, sig, self.vars)
        entry = self._built.get(key)
        if entry is None:
            if len(self._built) >= len(self.identities):
                self._built.clear()
            used = variables(decl.lhs) | variables(decl.rhs)
            ivars = FinSet(tuple(v for v in self.vars if v in used))
            entry = self._built[key] = (ivars, from_sigma(sig, decl.lhs, decl.rhs, ivars))
        return entry

    def identity_vars(self, name: str) -> FinSet:
        return self._build(name)[0]

    def natural_identity(self, name: str) -> NaturalIdentity:
        return self._build(name)[1]

    def presentation_identities(self, name: str) -> list[NaturalIdentity]:
        decl = _declared(self.presentations, "presentation", name)
        return [self.natural_identity(n) for n in decl.identity_names]


class _Parser:
    """Recursive descent over the token list, which ends in a sentinel.

    The sentinel ``("", line, col)`` repeats the last token's position
    (line 1, col 1 for no tokens): looking ahead needs no bounds check, and
    consuming past the input reports ``unexpected end of input`` there.
    """

    def __init__(self, text: str):
        toks = _tokenize(text)
        _, line, col = toks[-1] if toks else ("", 1, 1)
        self.end = len(toks)
        toks.append(("", line, col))
        self.toks = toks
        self.pos = 0

    def _at_end(self) -> bool:
        return self.pos == self.end

    def _peek(self) -> str:
        """The next token's text; ``""`` at the end."""
        return self.toks[self.pos][0]

    def _next(self) -> tuple[str, int, int]:
        tok = self.toks[self.pos]
        if self.pos == self.end:
            raise ParseError("unexpected end of input", tok[1], tok[2])
        self.pos += 1
        return tok

    def _expect(self, text: str) -> tuple[str, int, int]:
        tok = self._next()
        if tok[0] != text:
            raise ParseError(f"expected {text!r}, found {tok[0]!r}", tok[1], tok[2])
        return tok

    def _name(self, what: str) -> tuple[str, int, int]:
        """The next token as a name; ``what`` carries its article ("an identity")."""
        tok = self._next()
        text, line, col = tok
        if text in KEYWORDS:
            raise ParseError(f"keyword {text!r} cannot name {what}", line, col)
        if text[0] not in _NAME_START:
            raise ParseError(f"expected {what} name, found {text!r}", line, col)
        return tok

    def _atom(self) -> tuple[str, int, int]:
        tok = self._next()
        text, line, col = tok
        if text in KEYWORDS or text in _PUNCT:
            raise ParseError(f"expected an atom, found {text!r}", line, col)
        return tok

    def parse(self) -> SpecModel:
        model = SpecModel()
        while not self._at_end():
            keyword, line, col = self._next()
            declare = _DECLARATIONS.get(keyword)
            if declare is None:
                raise ParseError(f"expected a declaration, found {keyword!r}", line, col)
            declare(self, model)
        return model

    def _signature(self, model: SpecModel) -> None:
        name, line, col = self._name("a signature")
        if name in model.signatures:
            raise ParseError(f"signature {name!r} already defined", line, col)
        self._expect("{")
        ops = []
        while self._peek() != "}":
            self._expect("op")
            op, op_line, op_col = self._name("an operation")
            self._expect(":")
            arity, line, col = self._next()
            if not (arity.isascii() and arity.isdigit()):
                raise ParseError(f"expected an arity, found {arity!r}", line, col)
            digits = arity.lstrip("0") or "0"
            if len(digits) > len(str(MAX_ARITY)) or int(digits) > MAX_ARITY:
                raise ParseError(f"arity larger than {MAX_ARITY}", line, col)
            if any(existing == op for existing, _ in ops):
                raise ParseError(f"operation {op!r} already defined", op_line, op_col)
            ops.append((op, int(digits)))
        self._expect("}")
        model.signatures[name] = Signature(tuple(ops))

    def _vars(self, model: SpecModel) -> None:
        names = []
        while not self._at_end() and self._peek() not in KEYWORDS:
            names.append(self._name("a variable")[0])
        if not names:
            _, line, col = self.toks[self.pos - 1]
            raise ParseError("vars declaration names no variables", line, col)
        merged = list(model.vars)
        for n in names:
            if n not in merged:
                merged.append(n)
        model.vars = tuple(merged)

    def _sig_ref(self, model: SpecModel) -> str:
        name, line, col = self._name("a signature")
        if name not in model.signatures:
            raise ParseError(f"unknown signature {name!r}", line, col)
        return name

    def _term(self, model: SpecModel, sig: Signature, depth: int = 0) -> Term:
        head, line, col = self._next()
        if head in KEYWORDS or head[0] not in _NAME_START:
            raise ParseError(f"expected a term, found {head!r}", line, col)
        if self._peek() != "(":
            if head not in model.vars:
                raise ParseError(f"unknown variable {head!r}", line, col)
            return Var(head)
        if depth == MAX_TERM_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels", line, col)
        self.pos += 1
        args = []
        if self._peek() != ")":
            args.append(self._term(model, sig, depth + 1))
            while self._peek() == ",":
                self.pos += 1
                args.append(self._term(model, sig, depth + 1))
        self._expect(")")
        if head not in sig:
            raise ParseError(f"unknown operation {head!r}", line, col)
        arity = sig.arity(head)
        if arity != len(args):
            raise ParseError(
                f"operation {head!r} takes {arity} arguments, got {len(args)}", line, col
            )
        return Node(head, tuple(args))

    def _identity(self, model: SpecModel) -> None:
        name, line, col = self._name("an identity")
        if name in model.identities:
            raise ParseError(f"identity {name!r} already defined", line, col)
        self._expect("over")
        sig_name = self._sig_ref(model)
        self._expect(":")
        sig = model.signatures[sig_name]
        lhs = self._term(model, sig)
        self._expect("=")
        rhs = self._term(model, sig)
        model.identities[name] = IdentityDecl(name, sig_name, lhs, rhs)

    def _algebra(self, model: SpecModel) -> None:
        name, line, col = self._name("an algebra")
        if name in model.algebras:
            raise ParseError(f"algebra {name!r} already defined", line, col)
        self._expect("over")
        sig_name = self._sig_ref(model)
        sig = model.signatures[sig_name]
        self._expect("{")
        self._expect("carrier")
        self._expect("{")
        atoms = []
        while self._peek() != "}":
            atom, line, col = self._atom()
            if atom in atoms:
                raise ParseError(f"duplicate carrier atom {atom!r}", line, col)
            atoms.append(atom)
        self._expect("}")
        carrier = FinSet(tuple(atoms))
        tables: dict = {}
        while self._peek() != "}":
            self._expect("op")
            op, line, col = self._name("an operation")
            if op not in sig:
                raise ParseError(f"unknown operation {op!r}", line, col)
            if op in tables:
                raise ParseError(f"table for {op!r} already given", line, col)
            arity = sig.arity(op)
            self._expect("{")
            table: dict = {}
            while self._peek() != "}":
                _, line, col = self._expect("(")
                args = []
                if self._peek() != ")":
                    args.append(self._atom()[0])
                    while self._peek() == ",":
                        self.pos += 1
                        args.append(self._atom()[0])
                self._expect(")")
                self._expect("->")
                value, value_line, value_col = self._atom()
                if len(args) != arity:
                    raise ParseError(
                        f"tuple of length {len(args)} for {op!r} of arity {arity}", line, col
                    )
                for a in args:
                    if a not in carrier:
                        raise ParseError(f"atom {a!r} not in carrier", line, col)
                if value not in carrier:
                    raise ParseError(f"atom {value!r} not in carrier", value_line, value_col)
                key = tuple(args)
                if key in table:
                    raise ParseError(f"tuple ({','.join(args)}) already mapped", line, col)
                table[key] = value
            _, line, col = self._expect("}")
            for combo in itertools.product(atoms, repeat=arity):
                if combo not in table:
                    raise ParseError(
                        f"table for {op!r} missing tuple ({','.join(combo)})", line, col
                    )
            tables[op] = table
        _, line, col = self._expect("}")
        for op_name, _ in sig:
            if op_name not in tables:
                raise ParseError(
                    f"algebra {name!r} missing table for {op_name!r}", line, col
                )
        algebra = FinAlgebra._trusted(sig, carrier, _flatten_tables(sig, carrier, tables))
        model.algebras[name] = AlgebraDecl(name, sig_name, algebra)

    def _presentation(self, model: SpecModel) -> None:
        name, line, col = self._name("a presentation")
        if name in model.presentations:
            raise ParseError(f"presentation {name!r} already defined", line, col)
        self._expect("=")
        sig_name = self._sig_ref(model)
        self._expect("with")
        idents = []
        while not self._at_end() and self._peek() not in KEYWORDS:
            ident, line, col = self._name("an identity")
            if ident not in model.identities:
                raise ParseError(f"unknown identity {ident!r}", line, col)
            if model.identities[ident].sig_name != sig_name:
                raise ParseError(
                    f"identity {ident!r} is over a different signature", line, col
                )
            idents.append(ident)
        if not idents:
            _, line, col = self.toks[self.pos - 1]
            raise ParseError("presentation lists no identities", line, col)
        model.presentations[name] = PresentationDecl(name, sig_name, tuple(idents))


_DECLARATIONS = {
    "signature": _Parser._signature,
    "vars": _Parser._vars,
    "identity": _Parser._identity,
    "algebra": _Parser._algebra,
    "presentation": _Parser._presentation,
}


def parse_spec(text: str) -> SpecModel:
    """Parse and validate a declaration file; raises :class:`ParseError`."""
    return _Parser(text).parse()


def parse_term(model: SpecModel, sig_name: str, text: str) -> Term:
    """Parse one term over a declared signature and the model's variables.

    Raises :class:`ParseError` with positions within ``text``, also when
    tokens follow the term.
    """
    if sig_name not in model.signatures:
        raise ValidationError(f"unknown signature {sig_name!r}")
    parser = _Parser(text)
    term = parser._term(model, model.signatures[sig_name])
    if not parser._at_end():
        extra, line, col = parser._next()
        raise ParseError(f"unexpected {extra!r} after the term", line, col)
    return term
