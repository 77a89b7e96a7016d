"""Command-line surface tying the modules together.

Every report is deterministic, line-oriented ``key: value`` text on
stdout; diagnostics go to stderr.  Exit codes: 0 when the requested
property holds (or the computation succeeded), 1 when a checked
property fails, 2 for usage, parse, or resource-limit errors.  On exit
1, ``check`` in identity mode, ``uprop``, ``rho-chain``, ``equi`` and
``dalg-check`` print a witness; ``check --equation-generators``,
``convert roundtrip`` and an unstabilized ``free`` print only their
verdict or report.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import sys
from types import MappingProxyType
from typing import Optional, Sequence, TextIO

from . import variety as variety_mod
from .algebras import count_algebras, enumerate_algebras, evaluate
from .core import MAX_ENUMERATION, FinSet, bounded_power, count_maps
from .dsl import SpecModel, _declared, parse_spec, parse_term
from .equations import (
    equation_to_identity,
    identity_to_equation,
    roundtrip_class_equal,
    satisfies_equation,
)
from .errors import FinalgError, ParseError, ResourceLimitError, ValidationError
from .identities import satisfies, violation
from .monadic import (
    check_monad_map,
    dalg_violation,
    em_structures,
    equi_check,
    powerset_instance,
)
from .terms import (
    MAX_STAGE_SIZE,
    MAX_TERM_DEPTH,
    _stage_bounds,
    format_term,
    generators,
    iter_stage_sizes,
    stage,
)

# ``chain`` refuses to print a stage size above this (the sizes grow doubly
# exponentially, so each step past it would cost more than the last).
MAX_PRINTED_STAGE_SIZE = 10**30


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _non_negative(text: str) -> int:
    """The argparse type of every size, bound, generator and level argument."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


@functools.lru_cache(maxsize=8)
def _parse(text: str) -> SpecModel:
    """The model of one declaration text, shared by every call that reads
    it, so its tables are read-only views.  A text that does not parse
    raises each time, since an exception is not a cache entry."""
    model = parse_spec(text)
    for table in ("signatures", "identities", "algebras", "presentations"):
        setattr(model, table, MappingProxyType(getattr(model, table)))
    return model


def _load(path: str) -> SpecModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except ValueError as exc:  # bytes that are not UTF-8, or a NUL in the path
        raise ValidationError(f"cannot read {path!r}: {exc}") from None
    return _parse(text)


def _format_subset(s: tuple) -> str:
    return "{" + ",".join(str(a) for a in s) + "}"


def _cmd_chain(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    sig = _declared(model.signatures, "signature", args.signature)
    x = generators(args.generators)
    sizes = []
    for k, size in zip(range(min(args.upto, MAX_TERM_DEPTH) + 1), iter_stage_sizes(sig, x)):
        if size > MAX_PRINTED_STAGE_SIZE:
            raise ResourceLimitError(f"printed size of stage {k}", size, MAX_PRINTED_STAGE_SIZE)
        sizes.append(size)
    if args.upto > MAX_TERM_DEPTH:  # as ``stage`` refuses it
        raise ResourceLimitError(f"term height of stage {args.upto}", args.upto, MAX_TERM_DEPTH)
    print("sizes: " + " ".join(str(s) for s in sizes), file=out)
    if args.terms:
        for t in stage(sig, x, args.upto, args.max_stage_size):
            print(f"term: {format_term(t)}", file=out)
    return 0


def _cmd_eval(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    decl = _declared(model.algebras, "algebra", args.algebra)
    term = parse_term(model, decl.sig_name, args.term)
    binding = {}
    if args.assign:
        for piece in args.assign.split(","):
            if "=" not in piece:
                raise ValidationError(f"bad assignment {piece!r}, expected var=atom")
            var, value = piece.split("=", 1)
            var, value = var.strip(), value.strip()
            if var not in model.vars:
                raise ValidationError(f"undeclared variable {var!r}")
            if var in binding:
                raise ValidationError(f"variable {var!r} assigned twice")
            if value not in decl.algebra.carrier:
                raise ValidationError(f"atom {value!r} not in the carrier")
            binding[var] = value
    value = evaluate(decl.algebra, term, binding)
    print(f"value: {value}", file=out)
    return 0


def _cmd_check(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    alg = _declared(model.algebras, "algebra", args.algebra).algebra
    ident = model.natural_identity(args.identity)
    if args.equation_generators is not None:
        x = generators(args.equation_generators)
        # Both demands are known from N and the carrier, so they are refused
        # before the stage and its quotient are built, in the order the
        # conversion and then ``satisfies_equation`` would refuse them.
        _stage_bounds(ident.sig, x, ident.arity)
        if alg.sig == ident.sig:
            count_maps(len(x), len(alg.carrier))
        arrow = identity_to_equation(ident, x)
        ok = satisfies_equation(alg, arrow)
        print("mode: equation", file=out)
        print(f"satisfies: {'true' if ok else 'false'}", file=out)
        return 0 if ok else 1
    witness = violation(alg, ident)
    print("mode: identity", file=out)
    print(f"satisfies: {'true' if witness is None else 'false'}", file=out)
    if witness is not None:
        component, values = witness
        pairs = " ".join(f"{n}={v}" for n, v in zip(model.identity_vars(args.identity), values))
        print(f"witness-component: {component}", file=out)
        print(f"witness-assignment: {pairs}", file=out)
        return 1
    return 0


def _cmd_enumerate(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    sig = _declared(model.signatures, "signature", args.signature)
    # Both demands are known from the size, so they are refused before the
    # carrier is built: its algebras as ``enumerate_algebras`` counts them,
    # then the carrier itself, which bounds a signature with no operations.
    count_algebras(sig, args.size, args.max_count)
    if args.size > MAX_ENUMERATION:
        raise ResourceLimitError(f"carrier of {args.size} atoms", args.size, MAX_ENUMERATION)
    carrier = FinSet(tuple(str(i) for i in range(args.size)))
    idents = [model.natural_identity(name) for name in args.identity or []]
    count = 0
    for alg in enumerate_algebras(sig, carrier, args.max_count):
        if all(satisfies(alg, ident) for ident in idents):
            count += 1
            if args.print_tables:
                cells = []
                for op, arity in sig:
                    for combo in itertools.product(carrier.elements, repeat=arity):
                        cells.append(f"{op}({','.join(combo)})={alg.tables[op][combo]}")
                print("algebra: " + " ".join(cells), file=out)
    print(f"count: {count}", file=out)
    return 0


def _cmd_convert(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    ident = model.natural_identity(args.identity)
    x = generators(args.generators)
    if args.mode == "to-equation":
        arrow = identity_to_equation(ident, x)
        print(f"generators: {args.generators}", file=out)
        print(f"arity: {arrow.arity}", file=out)
        print(f"stage-size: {len(arrow.part.base)}", file=out)
        print(f"blocks: {len(arrow.part)}", file=out)
        for block in arrow.part.blocks:
            print("block: " + " ".join(format_term(t) for t in block), file=out)
        return 0
    if args.mode == "to-identity":
        back = equation_to_identity(identity_to_equation(ident, x))
        print(f"components: {len(back.domain)}", file=out)
        for left, right in zip(back.lhs.data, back.rhs.data):
            print(f"component: {format_term(left)} = {format_term(right)}", file=out)
        return 0
    report = roundtrip_class_equal(ident, [args.generators], args.max_size)
    for size, cmp in report.outcomes:
        print(f"x-size {size}: {'equal' if cmp.equal else 'different'}", file=out)
        print(f"checked {size}: {cmp.checked}", file=out)
    print(f"equal: {'true' if report.equal else 'false'}", file=out)
    return 0 if report.equal else 1


def _saturate_presentation(args: argparse.Namespace, model: SpecModel):
    """The presentation's signature and identities, and its saturation on
    ``--generators`` generators."""
    decl = _declared(model.presentations, "presentation", args.presentation)
    sig = model.signatures[decl.sig_name]
    ids = model.presentation_identities(args.presentation)
    x = generators(args.generators)
    return sig, ids, variety_mod.saturate(sig, ids, x, args.max_depth, args.max_universe)


def _cmd_free(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    sig, _, result = _saturate_presentation(args, model)
    counts = "class-counts: " + " ".join(str(c) for c in result.state.class_counts)
    if isinstance(result, variety_mod.Stabilized):
        print("status: stabilized", file=out)
        print(f"at-depth: {result.state.depth}", file=out)
        print(counts, file=out)
        print(f"carrier: {len(result.algebra.carrier)}", file=out)
        for t in result.algebra.carrier:
            print(f"element: {format_term(t)}", file=out)
        for a in result.unit.dom:
            print(f"unit: {a} -> {format_term(result.unit.table[a])}", file=out)
        for op, arity in sig:
            for combo in itertools.product(result.algebra.carrier.elements, repeat=arity):
                image = result.algebra.tables[op][combo]
                rendered = ",".join(format_term(t) for t in combo)
                print(f"table {op}: ({rendered}) -> {format_term(image)}", file=out)
        return 0
    print("status: unstabilized", file=out)
    print(f"depth-bound: {result.state.depth}", file=out)
    print(counts, file=out)
    print(f"universe-size: {len(result.state.node_args)}", file=out)
    return 1


def _cmd_uprop(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    _, ids, result = _saturate_presentation(args, model)
    if not isinstance(result, variety_mod.Stabilized):
        raise ValidationError("saturation did not stabilize; cannot test freeness")
    target = _declared(model.algebras, "algebra", args.target).algebra
    witness = variety_mod.universal_property_witness(result, ids, target)
    print(f"assignments: {len(target.carrier) ** args.generators}", file=out)
    print(f"unique-extensions: {'true' if witness is None else 'false'}", file=out)
    if witness is not None:
        f, count = witness
        pairs = " ".join(f"{a}={f.table[a]}" for a in f.dom)
        print(f"witness-assignment: {pairs}", file=out)
        print(f"witness-extensions: {count}", file=out)
        return 1
    return 0


def _cmd_rho_chain(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    ident = model.natural_identity(args.identity)
    source = ident.lhs if args.side == "lhs" else ident.rhs
    report = check_monad_map(source, args.bound, generators(args.generators))
    print(f"checked: {report.checked}", file=out)
    print(f"holds: {'true' if report.holds else 'false'}", file=out)
    if not report.holds:
        kind, where, elem = report.failures[0]
        print(f"witness: {kind} at {where} on {format_term(elem)}", file=out)
        return 1
    return 0


def _cmd_equi(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    ident = model.natural_identity(args.identity)
    cmp = equi_check(ident, args.level, args.max_size)
    print(f"checked: {cmp.checked}", file=out)
    print(f"equivalent: {'true' if cmp.equal else 'false'}", file=out)
    if not cmp.equal:
        print(f"witness-carrier: {len(cmp.witness.carrier)}", file=out)
        return 1
    return 0


def _cmd_em_check(args: argparse.Namespace, model: Optional[SpecModel], out: TextIO) -> int:
    # Both counts are bounded before any subset is built.
    subsets = bounded_power(f"subsets of {args.size} atoms", 2, args.size, MAX_ENUMERATION)
    candidates = count_maps(subsets, args.size)
    base = FinSet(tuple(str(i) for i in range(args.size)))
    m = powerset_instance(base)
    valid = em_structures(m)
    print(f"base-size: {args.size}", file=out)
    print(f"candidates: {candidates}", file=out)
    print(f"valid: {len(valid)}", file=out)
    for alpha in valid:
        cells = " ".join(
            f"{_format_subset(s)}->{alpha.table[s]}" for s in m.object
        )
        print(f"structure: {cells}", file=out)
    return 0


def _cmd_dalg_check(args: argparse.Namespace, model: SpecModel, out: TextIO) -> int:
    ident = model.natural_identity(args.identity)
    alg = _declared(model.algebras, "algebra", args.algebra).algebra
    witness = dalg_violation(alg, ident, args.bound)
    print(f"compatible: {'true' if witness is None else 'false'}", file=out)
    if witness is not None:
        print(f"witness: {format_term(witness)}", file=out)
        return 1
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves no state on it: every call gets a fresh namespace, every
    default is immutable, and ``append`` starts a new list on each call.
    """
    parser = _Parser(prog="finalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_spec=True):
        p = sub.add_parser(name)
        p.set_defaults(func=func, needs_spec=needs_spec)
        if needs_spec:
            p.add_argument("--spec", required=True, help="declaration file")
        return p

    p = add("chain", _cmd_chain)
    p.add_argument("--signature", required=True)
    p.add_argument("--generators", type=_non_negative, required=True)
    p.add_argument("--upto", type=_non_negative, required=True)
    p.add_argument("--terms", action="store_true")
    p.add_argument("--max-stage-size", type=_non_negative, default=MAX_STAGE_SIZE)

    p = add("eval", _cmd_eval)
    p.add_argument("--algebra", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--assign", default="")

    p = add("check", _cmd_check)
    p.add_argument("--algebra", required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--equation-generators", type=_non_negative, default=None)

    p = add("enumerate", _cmd_enumerate)
    p.add_argument("--signature", required=True)
    p.add_argument("--size", type=_non_negative, required=True)
    p.add_argument("--identity", action="append")
    p.add_argument("--print-tables", action="store_true")
    p.add_argument("--max-count", type=_non_negative, default=MAX_ENUMERATION)

    p = add("convert", _cmd_convert)
    p.add_argument("mode", choices=["to-equation", "to-identity", "roundtrip"])
    p.add_argument("--identity", required=True)
    p.add_argument("--generators", type=_non_negative, required=True)
    p.add_argument("--max-size", type=_non_negative, default=2)

    p = add("free", _cmd_free)
    p.add_argument("--presentation", required=True)
    p.add_argument("--generators", type=_non_negative, required=True)
    p.add_argument("--max-depth", type=_non_negative, required=True)
    p.add_argument("--max-universe", type=_non_negative, default=variety_mod.MAX_UNIVERSE)

    p = add("uprop", _cmd_uprop)
    p.add_argument("--presentation", required=True)
    p.add_argument("--generators", type=_non_negative, required=True)
    p.add_argument("--max-depth", type=_non_negative, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--max-universe", type=_non_negative, default=variety_mod.MAX_UNIVERSE)

    p = add("rho-chain", _cmd_rho_chain)
    p.add_argument("--identity", required=True)
    p.add_argument("--side", choices=["lhs", "rhs"], default="lhs")
    p.add_argument("--bound", type=_non_negative, required=True)
    p.add_argument("--generators", type=_non_negative, default=2)

    p = add("equi", _cmd_equi)
    p.add_argument("--identity", required=True)
    p.add_argument("--level", type=_non_negative, required=True)
    p.add_argument("--max-size", type=_non_negative, required=True)

    p = add("em-check", _cmd_em_check, needs_spec=False)
    p.add_argument("--size", type=_non_negative, default=2)

    p = add("dalg-check", _cmd_dalg_check)
    p.add_argument("--identity", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--bound", type=_non_negative, required=True)

    parser.commands = sub.choices
    return parser


def run(argv: Sequence[str], out: TextIO = None, err: TextIO = None) -> int:
    """Entry point; returns the process exit code instead of exiting.

    The arguments are parsed once: after a known command word they go
    straight to that command's parser, which is what the top-level parser
    would hand them to; no words, ``-h``/``--help`` and an unknown word go
    to the top-level parser, for its help and its messages.

    The declaration file is read on every call and each distinct text is
    parsed once per process: ``_parse`` keeps the last few models, keyed on
    the text, never the path or the modification time.  A model builds each
    identity it is asked for once and keeps it, so every call that reads
    the same text after the first reuses the identities built before.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    argv = list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        with contextlib.redirect_stdout(out):
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        model = _load(args.spec) if args.needs_spec else None
        return args.func(args, model, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=err)
        return 2
    except (FinalgError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> None:
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
