"""A small declaration language for signatures, identities, algebras, and
presentations.

Grammar (``#`` starts a comment; newlines are ordinary whitespace; names
must be declared before use)::

    signature NAME { op NAME : ARITY ... }
    vars NAME ...
    identity NAME over SIG : TERM = TERM
    algebra NAME over SIG { carrier { ATOM ... } op NAME { (ATOMS) -> ATOM ... } }
    presentation NAME = SIG with IDENTITY ...

Terms are written ``op(arg,...)`` with nullary operations as ``op()``
and variables bare, nested at most ``MAX_TERM_DEPTH`` deep.  Atoms in
algebra blocks are bare identifiers or numerals, kept verbatim as
strings.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .algebras import FinAlgebra
from .core import FinSet
from .errors import ParseError, ValidationError
from .functors import Signature
from .identities import NaturalIdentity, from_sigma
from .terms import MAX_TERM_DEPTH, Node, Term, Var, variables

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

_TOKEN = re.compile(r"->|[A-Za-z_][A-Za-z0-9_]*|\d+|[{}():=,]|\S")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in _TOKEN.finditer(body):
            tok = match.group()
            if tok not in {"->", "{", "}", "(", ")", ":", "=", ","} and not re.fullmatch(
                r"[A-Za-z_][A-Za-z0-9_]*|\d+", tok
            ):
                raise ParseError(f"unexpected character {tok!r}", lineno, match.start() + 1)
            out.append(_Tok(tok, lineno, match.start() + 1))
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


@dataclass(eq=True)
class SpecModel:
    """Everything a declaration file defines, resolved and validated."""

    signatures: dict = field(default_factory=dict)
    vars: tuple = ()
    identities: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    presentations: dict = field(default_factory=dict)

    def identity_vars(self, name: str) -> FinSet:
        decl = self.identities[name]
        used = variables(decl.lhs) | variables(decl.rhs)
        return FinSet(tuple(v for v in self.vars if v in used))

    def natural_identity(self, name: str) -> NaturalIdentity:
        decl = self.identities[name]
        sig = self.signatures[decl.sig_name]
        return from_sigma(sig, decl.lhs, decl.rhs, self.identity_vars(name))

    def presentation_identities(self, name: str) -> list[NaturalIdentity]:
        decl = self.presentations[name]
        return [self.natural_identity(n) for n in decl.identity_names]


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def _at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def _peek(self) -> _Tok:
        if self._at_end():
            last = self.toks[-1] if self.toks else _Tok("", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        return self.toks[self.pos]

    def _next(self) -> _Tok:
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Tok:
        tok = self._next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def _name(self, what: str) -> _Tok:
        tok = self._next()
        if tok.text in KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} cannot name a {what}", tok.line, tok.col)
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok.text):
            raise ParseError(f"expected a {what} name, found {tok.text!r}", tok.line, tok.col)
        return tok

    def _atom(self) -> _Tok:
        tok = self._next()
        if tok.text in KEYWORDS or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|\d+", tok.text):
            raise ParseError(f"expected an atom, found {tok.text!r}", tok.line, tok.col)
        return tok

    def parse(self) -> SpecModel:
        model = SpecModel()
        while not self._at_end():
            tok = self._next()
            if tok.text == "signature":
                self._signature(model)
            elif tok.text == "vars":
                self._vars(model)
            elif tok.text == "identity":
                self._identity(model)
            elif tok.text == "algebra":
                self._algebra(model)
            elif tok.text == "presentation":
                self._presentation(model)
            else:
                raise ParseError(f"expected a declaration, found {tok.text!r}", tok.line, tok.col)
        return model

    def _signature(self, model: SpecModel) -> None:
        name = self._name("signature")
        if name.text in model.signatures:
            raise ParseError(f"signature {name.text!r} already defined", name.line, name.col)
        self._expect("{")
        ops = []
        while self._peek().text != "}":
            self._expect("op")
            op = self._name("operation")
            self._expect(":")
            arity = self._next()
            if not arity.text.isdigit():
                raise ParseError(
                    f"expected an arity, found {arity.text!r}", arity.line, arity.col
                )
            if any(existing == op.text for existing, _ in ops):
                raise ParseError(f"operation {op.text!r} already defined", op.line, op.col)
            ops.append((op.text, int(arity.text)))
        self._expect("}")
        model.signatures[name.text] = Signature(tuple(ops))

    def _vars(self, model: SpecModel) -> None:
        names = []
        while not self._at_end() and self.toks[self.pos].text not in KEYWORDS:
            names.append(self._name("variable").text)
        if not names:
            tok = self.toks[self.pos - 1]
            raise ParseError("vars declaration names no variables", tok.line, tok.col)
        merged = list(model.vars)
        for n in names:
            if n not in merged:
                merged.append(n)
        model.vars = tuple(merged)

    def _sig_ref(self, model: SpecModel) -> str:
        tok = self._name("signature")
        if tok.text not in model.signatures:
            raise ParseError(f"unknown signature {tok.text!r}", tok.line, tok.col)
        return tok.text

    def _term(self, model: SpecModel, sig: Signature, depth: int = 0) -> Term:
        head = self._next()
        if head.text in KEYWORDS or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", head.text):
            raise ParseError(f"expected a term, found {head.text!r}", head.line, head.col)
        if not self._at_end() and self._peek().text == "(":
            if depth == MAX_TERM_DEPTH:
                raise ParseError(
                    f"term nested deeper than {MAX_TERM_DEPTH} levels", head.line, head.col
                )
            self._expect("(")
            args = []
            if self._peek().text != ")":
                args.append(self._term(model, sig, depth + 1))
                while self._peek().text == ",":
                    self._next()
                    args.append(self._term(model, sig, depth + 1))
            self._expect(")")
            if head.text not in sig:
                raise ParseError(f"unknown operation {head.text!r}", head.line, head.col)
            if sig.arity(head.text) != len(args):
                raise ParseError(
                    f"operation {head.text!r} takes {sig.arity(head.text)} arguments, got {len(args)}",
                    head.line,
                    head.col,
                )
            return Node(head.text, tuple(args))
        if head.text not in model.vars:
            raise ParseError(f"unknown variable {head.text!r}", head.line, head.col)
        return Var(head.text)

    def _identity(self, model: SpecModel) -> None:
        name = self._name("identity")
        if name.text in model.identities:
            raise ParseError(f"identity {name.text!r} already defined", name.line, name.col)
        self._expect("over")
        sig_name = self._sig_ref(model)
        self._expect(":")
        sig = model.signatures[sig_name]
        lhs = self._term(model, sig)
        self._expect("=")
        rhs = self._term(model, sig)
        model.identities[name.text] = IdentityDecl(name.text, sig_name, lhs, rhs)

    def _algebra(self, model: SpecModel) -> None:
        name = self._name("algebra")
        if name.text in model.algebras:
            raise ParseError(f"algebra {name.text!r} already defined", name.line, name.col)
        self._expect("over")
        sig_name = self._sig_ref(model)
        sig = model.signatures[sig_name]
        self._expect("{")
        self._expect("carrier")
        self._expect("{")
        atoms = []
        while self._peek().text != "}":
            tok = self._atom()
            if tok.text in atoms:
                raise ParseError(f"duplicate carrier atom {tok.text!r}", tok.line, tok.col)
            atoms.append(tok.text)
        self._expect("}")
        carrier = FinSet(tuple(atoms))
        tables: dict = {}
        while self._peek().text != "}":
            self._expect("op")
            op = self._name("operation")
            if op.text not in sig:
                raise ParseError(f"unknown operation {op.text!r}", op.line, op.col)
            if op.text in tables:
                raise ParseError(f"table for {op.text!r} already given", op.line, op.col)
            arity = sig.arity(op.text)
            self._expect("{")
            table: dict = {}
            while self._peek().text != "}":
                lp = self._expect("(")
                args = []
                if self._peek().text != ")":
                    args.append(self._atom().text)
                    while self._peek().text == ",":
                        self._next()
                        args.append(self._atom().text)
                self._expect(")")
                self._expect("->")
                value = self._atom()
                if len(args) != arity:
                    raise ParseError(
                        f"tuple of length {len(args)} for {op.text!r} of arity {arity}",
                        lp.line,
                        lp.col,
                    )
                for a in args:
                    if a not in carrier:
                        raise ParseError(f"atom {a!r} not in carrier", lp.line, lp.col)
                if value.text not in carrier:
                    raise ParseError(
                        f"atom {value.text!r} not in carrier", value.line, value.col
                    )
                key = tuple(args)
                if key in table:
                    raise ParseError(
                        f"tuple ({','.join(args)}) already mapped", lp.line, lp.col
                    )
                table[key] = value.text
            close = self._expect("}")
            for combo in itertools.product(atoms, repeat=arity):
                if tuple(combo) not in table:
                    raise ParseError(
                        f"table for {op.text!r} missing tuple ({','.join(combo)})",
                        close.line,
                        close.col,
                    )
            tables[op.text] = table
        close = self._expect("}")
        for op_name, _ in sig:
            if op_name not in tables:
                raise ParseError(
                    f"algebra {name.text!r} missing table for {op_name!r}",
                    close.line,
                    close.col,
                )
        model.algebras[name.text] = AlgebraDecl(
            name.text, sig_name, FinAlgebra(sig, carrier, tables)
        )

    def _presentation(self, model: SpecModel) -> None:
        name = self._name("presentation")
        if name.text in model.presentations:
            raise ParseError(
                f"presentation {name.text!r} already defined", name.line, name.col
            )
        self._expect("=")
        sig_name = self._sig_ref(model)
        self._expect("with")
        idents = []
        while not self._at_end() and self.toks[self.pos].text not in KEYWORDS:
            tok = self._name("identity")
            if tok.text not in model.identities:
                raise ParseError(f"unknown identity {tok.text!r}", tok.line, tok.col)
            if model.identities[tok.text].sig_name != sig_name:
                raise ParseError(
                    f"identity {tok.text!r} is over a different signature", tok.line, tok.col
                )
            idents.append(tok.text)
        if not idents:
            tok = self.toks[self.pos - 1]
            raise ParseError("presentation lists no identities", tok.line, tok.col)
        model.presentations[name.text] = PresentationDecl(name.text, sig_name, tuple(idents))


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
        tok = parser._peek()
        raise ParseError(f"unexpected {tok.text!r} after the term", tok.line, tok.col)
    return term
