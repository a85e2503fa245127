"""Parser for the OUN-style notation: token stream → document AST.

The document AST is deliberately dumb — names, not resolved objects; the
elaborator (:mod:`repro.oun.elaborate`) resolves names against declared
sorts/objects and builds core :class:`~repro.core.specification.Specification`
values.

Concrete syntax (see also ``examples/oun_notation.py``)::

    object o
    sort Objects = Obj \\ { o }

    specification Write {
      objects o
      method OW, CW, W(Data)
      alphabet {
        <x, o, OW>   where x : Objects;
        <x, o, CW>   where x : Objects;
        <x, o, W(_)> where x : Objects;
      }
      traces prs "[[<x,o,OW> <x,o,W(_)>* <x,o,CW>] . x : Objects]*"
    }

Trace constraints::

    constraint := conj ('or' conj)*          -- 'or' binds loosest
    conj       := neg ('and' neg)*
    neg        := 'not' neg | prim
    prim       := 'true' | '(' constraint ')'
               | 'prs' STRING                -- embedded regex
               | 'forall' IDENT ':' IDENT '.' prim
               | 'only' IDENT                -- h/x = h
               | linear                      -- e.g.  #OW - #CW <= 1
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import NESTING_MESSAGE, OUNSyntaxError, ReproError
from repro.oun.lexer import Token, tokenize

__all__ = [
    "parse_document",
    "Document",
    "SpecDecl",
    "SortDecl",
    "AlphabetEntry",
    "MethodDecl",
    "CompositionDecl",
    "Assertion",
    "CTrue",
    "CPrs",
    "CForall",
    "COnly",
    "CLinear",
    "CAnd",
    "COr",
    "CNot",
]


# ----------------------------------------------------------------------
# document AST
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SortDecl:
    name: str
    base: str
    removed: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class MethodDecl:
    name: str
    arg_sorts: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class AlphabetEntry:
    caller: str
    callee: str
    method: str
    args: tuple[str, ...] | None  # None: declared without parentheses
    bindings: tuple[tuple[str, str], ...]  # (var, sort name)


class Constraint:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class CTrue(Constraint):
    pass


@dataclass(frozen=True, slots=True)
class CPrs(Constraint):
    regex_text: str


@dataclass(frozen=True, slots=True)
class CForall(Constraint):
    var: str
    sort: str
    body: Constraint


@dataclass(frozen=True, slots=True)
class COnly(Constraint):
    name: str


@dataclass(frozen=True, slots=True)
class CLinear(Constraint):
    terms: tuple[tuple[str, int], ...]  # (method, weight)
    op: str  # normalised: <=, <, >=, >, ==, !=
    rhs: int


@dataclass(frozen=True, slots=True)
class CAnd(Constraint):
    parts: tuple[Constraint, ...]


@dataclass(frozen=True, slots=True)
class COr(Constraint):
    parts: tuple[Constraint, ...]


@dataclass(frozen=True, slots=True)
class CNot(Constraint):
    part: Constraint


@dataclass(frozen=True, slots=True)
class SpecDecl:
    name: str
    objects: tuple[str, ...]
    methods: tuple[MethodDecl, ...]
    alphabet: tuple[AlphabetEntry, ...]
    traces: Constraint


@dataclass(frozen=True, slots=True)
class CompositionDecl:
    """``composition Name = A || B || …`` — a named composition."""

    name: str
    parts: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Assertion:
    """``assert A refines B`` / ``assert A equals B`` — a document claim.

    ``negated`` records ``assert not …`` (the paper's own negative claims,
    e.g. "RW does not refine Read2", are first-class this way).
    """

    kind: str  # "refines" | "equals"
    left: str
    right: str
    negated: bool
    line: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class Document:
    objects: tuple[str, ...]
    sorts: tuple[SortDecl, ...]
    specifications: tuple[SpecDecl, ...]
    compositions: tuple[CompositionDecl, ...] = ()
    assertions: tuple[Assertion, ...] = ()


# ----------------------------------------------------------------------
# the parser
# ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, message: str, tok: Token | None = None) -> OUNSyntaxError:
        t = tok or self.peek()
        return OUNSyntaxError(message, t.line, t.column)

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise self.error(f"expected {kind!r}, found {t}", t)
        return t

    def keyword(self, word: str) -> Token:
        t = self.next()
        if t.kind != "ident" or t.text != word:
            raise self.error(f"expected keyword {word!r}, found {t}", t)
        return t

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    # -- document --------------------------------------------------------

    def document(self) -> Document:
        objects: list[str] = []
        sorts: list[SortDecl] = []
        specs: list[SpecDecl] = []
        comps: list[CompositionDecl] = []
        asserts: list[Assertion] = []
        while self.peek().kind != "eof":
            if self.at_keyword("object"):
                self.next()
                objects.append(self.expect("ident").text)
                while self.peek().kind == ",":
                    self.next()
                    objects.append(self.expect("ident").text)
            elif self.at_keyword("sort"):
                sorts.append(self.sort_decl())
            elif self.at_keyword("specification"):
                specs.append(self.spec_decl())
            elif self.at_keyword("composition"):
                comps.append(self.composition_decl())
            elif self.at_keyword("assert"):
                asserts.append(self.assertion())
            else:
                raise self.error(
                    f"expected 'object', 'sort', 'specification', "
                    f"'composition', or 'assert', found {self.peek()}"
                )
        return Document(
            tuple(objects), tuple(sorts), tuple(specs), tuple(comps),
            tuple(asserts),
        )

    def composition_decl(self) -> CompositionDecl:
        self.keyword("composition")
        name = self.expect("ident").text
        self.expect("=")
        parts = [self.expect("ident").text]
        while self.peek().kind == "|":
            self.next()
            self.expect("|")
            parts.append(self.expect("ident").text)
        if len(parts) < 2:
            raise self.error("composition needs at least two parts (A || B)")
        return CompositionDecl(name, tuple(parts))

    def assertion(self) -> Assertion:
        tok = self.keyword("assert")
        negated = False
        if self.at_keyword("not"):
            self.next()
            negated = True
        left = self.expect("ident").text
        kw = self.expect("ident")
        if kw.text not in ("refines", "equals"):
            raise self.error(
                f"expected 'refines' or 'equals', found {kw}", kw
            )
        right = self.expect("ident").text
        return Assertion(kw.text, left, right, negated, tok.line)

    def sort_decl(self) -> SortDecl:
        self.keyword("sort")
        name = self.expect("ident").text
        self.expect("=")
        base = self.expect("ident").text
        removed: list[str] = []
        if self.peek().kind == "\\":
            self.next()
            self.expect("{")
            removed.append(self.expect("ident").text)
            while self.peek().kind == ",":
                self.next()
                removed.append(self.expect("ident").text)
            self.expect("}")
        return SortDecl(name, base, tuple(removed))

    # -- specification -----------------------------------------------------

    def spec_decl(self) -> SpecDecl:
        self.keyword("specification")
        name = self.expect("ident").text
        self.expect("{")
        objects: list[str] = []
        methods: list[MethodDecl] = []
        entries: list[AlphabetEntry] = []
        traces: Constraint = CTrue()
        saw_alphabet = False
        while self.peek().kind != "}":
            if self.at_keyword("objects"):
                self.next()
                objects.append(self.expect("ident").text)
                while self.peek().kind == ",":
                    self.next()
                    objects.append(self.expect("ident").text)
            elif self.at_keyword("method"):
                self.next()
                methods.append(self.method_sig())
                while self.peek().kind == ",":
                    self.next()
                    methods.append(self.method_sig())
            elif self.at_keyword("alphabet"):
                self.next()
                saw_alphabet = True
                self.expect("{")
                while self.peek().kind != "}":
                    entries.append(self.alphabet_entry())
                self.expect("}")
            elif self.at_keyword("traces"):
                self.next()
                traces = self.constraint()
            else:
                raise self.error(
                    f"expected 'objects', 'method', 'alphabet', or 'traces', "
                    f"found {self.peek()}"
                )
        self.expect("}")
        if not objects:
            raise self.error(f"specification {name!r} declares no objects")
        if not saw_alphabet:
            raise self.error(f"specification {name!r} declares no alphabet")
        return SpecDecl(name, tuple(objects), tuple(methods), tuple(entries), traces)

    def method_sig(self) -> MethodDecl:
        name = self.expect("ident").text
        args: list[str] = []
        if self.peek().kind == "(":
            self.next()
            if self.peek().kind != ")":
                args.append(self.expect("ident").text)
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.expect("ident").text)
            self.expect(")")
        return MethodDecl(name, tuple(args))

    def alphabet_entry(self) -> AlphabetEntry:
        self.expect("<")
        caller = self.expect("ident").text
        self.expect(",")
        callee = self.expect("ident").text
        self.expect(",")
        method = self.expect("ident").text
        args: tuple[str, ...] | None = None
        if self.peek().kind == "(":
            self.next()
            got: list[str] = []
            if self.peek().kind != ")":
                got.append(self.position_name())
                while self.peek().kind == ",":
                    self.next()
                    got.append(self.position_name())
            self.expect(")")
            args = tuple(got)
        self.expect(">")
        bindings: list[tuple[str, str]] = []
        if self.at_keyword("where"):
            self.next()
            bindings.append(self.binding())
            while self.peek().kind == ",":
                self.next()
                bindings.append(self.binding())
        if self.peek().kind == ";":
            self.next()
        return AlphabetEntry(caller, callee, method, args, tuple(bindings))

    def position_name(self) -> str:
        t = self.next()
        if t.kind == "_":
            return "_"
        if t.kind == "ident":
            return t.text
        raise self.error(f"expected a position name or '_', found {t}", t)

    def binding(self) -> tuple[str, str]:
        var = self.expect("ident").text
        self.expect(":")
        sort = self.expect("ident").text
        return (var, sort)

    # -- constraints ----------------------------------------------------------

    def constraint(self) -> Constraint:
        parts = [self.conj()]
        while self.at_keyword("or"):
            self.next()
            parts.append(self.conj())
        return parts[0] if len(parts) == 1 else COr(tuple(parts))

    def conj(self) -> Constraint:
        parts = [self.neg()]
        while self.at_keyword("and"):
            self.next()
            parts.append(self.neg())
        return parts[0] if len(parts) == 1 else CAnd(tuple(parts))

    def neg(self) -> Constraint:
        if self.at_keyword("not"):
            self.next()
            return CNot(self.neg())
        return self.prim()

    def prim(self) -> Constraint:
        t = self.peek()
        if self.at_keyword("true"):
            self.next()
            return CTrue()
        if t.kind == "(":
            self.next()
            inner = self.constraint()
            self.expect(")")
            return inner
        if self.at_keyword("prs"):
            self.next()
            s = self.expect("string")
            return CPrs(s.text)
        if self.at_keyword("forall"):
            self.next()
            var = self.expect("ident").text
            self.expect(":")
            sort = self.expect("ident").text
            self.expect(".")
            return CForall(var, sort, self.prim())
        if self.at_keyword("only"):
            self.next()
            return COnly(self.expect("ident").text)
        if t.kind == "#":
            return self.linear()
        raise self.error(f"expected a trace constraint, found {t}", t)

    def linear(self) -> Constraint:
        terms: list[tuple[str, int]] = []
        sign = 1
        while True:
            self.expect("#")
            method = self.expect("ident").text
            terms.append((method, sign))
            t = self.peek()
            if t.kind == "+":
                sign = 1
                self.next()
            elif t.kind == "-":
                sign = -1
                self.next()
            else:
                break
        t = self.next()
        ops = {"<=": "<=", ">=": ">=", "<": "<", ">": ">", "=": "==", "!=": "!="}
        if t.kind not in ops:
            raise self.error(f"expected a comparison operator, found {t}", t)
        op = ops[t.kind]
        neg_rhs = False
        if self.peek().kind == "-":
            self.next()
            neg_rhs = True
        rhs_tok = self.expect("int")
        rhs = int(rhs_tok.text) * (-1 if neg_rhs else 1)
        return CLinear(tuple(terms), op, rhs)


def parse_document(text: str) -> Document:
    """Parse an OUN document into its AST.

    The parser recurses once per nesting level, so a document nested
    past the interpreter's recursion limit is a :class:`ReproError`.
    """
    p = _Parser(text)
    try:
        return p.document()
    except RecursionError:
        raise ReproError(NESTING_MESSAGE) from None
