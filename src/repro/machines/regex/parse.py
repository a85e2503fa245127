"""Concrete text syntax for trace regular expressions.

The syntax mirrors the paper's notation, ASCII-fied::

    [ <x,o,OW> <x,o,W(_)>* <x,o,CW> ] . x : Objects
    [ OW [W | R]* CW  |  OR R* CR ]*

Grammar::

    regex   := concat ('|' concat)*
    concat  := postfix+
    postfix := primary ('*' | '+' | '?')*
    primary := '<' pos ',' pos ',' call '>'      -- event template
             | IDENT                             -- bare method (any event)
             | '[' regex ']' binder?
    binder  := '.' IDENT ':' IDENT               -- the paper's '• x ∈ S'
    call    := IDENT ('(' pos (',' pos)* ')')?
    pos     := IDENT | '_'

Identifier resolution:

* a ``pos`` identifier resolves to a concrete value or a sort from the
  ``symbols`` table; unknown identifiers become variables, which must be
  bound by a trailing ``binder`` or appear in ``free_vars``;
* ``_`` in an argument position is "any value of the declared parameter
  sort" and requires the method to appear in ``methods``;
* a ``binder`` sort name must resolve to a sort in ``symbols``.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass

from repro.core.errors import NESTING_MESSAGE, RegexError
from repro.core.sorts import Sort
from repro.core.values import Value

from repro.machines.regex.ast import (
    Alt,
    Atom,
    Bind,
    EventTemplate,
    Opt,
    Plus,
    Position,
    Regex,
    Seq,
    Star,
    Var,
    alt,
    seq,
)

__all__ = ["parse_regex"]

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_']*)|(?P<punct>[<>()\[\],|*+?.:_]))"
)


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # "ident" | punctuation char | "eof"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    out: list[_Tok] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            if text[i:].strip() == "":
                break
            raise RegexError(f"unexpected character {text[i]!r} at offset {i}")
        if m.group("ident"):
            out.append(_Tok("ident", m.group("ident"), m.start("ident")))
        else:
            p = m.group("punct")
            out.append(_Tok(p, p, m.start("punct")))
        i = m.end()
    out.append(_Tok("eof", "", len(text)))
    return out


class _Parser:
    def __init__(
        self,
        text: str,
        symbols: dict[str, "Value | Sort"],
        methods: dict[str, tuple[Sort, ...]],
        free_vars: dict[str, Sort],
    ) -> None:
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.symbols = symbols
        self.methods = methods
        self.free_vars = free_vars
        self.used_vars: set[str] = set()
        self.bound_vars: set[str] = set()

    # -- token plumbing --------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise RegexError(
                f"expected {kind!r} but found {t.text or 'end of input'!r} "
                f"at offset {t.pos}"
            )
        return t

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Regex:
        r = self.regex()
        t = self.peek()
        if t.kind != "eof":
            raise RegexError(f"trailing input {t.text!r} at offset {t.pos}")
        unresolved = self.used_vars - self.bound_vars - set(self.free_vars)
        if unresolved:
            names = ", ".join(sorted(unresolved))
            raise RegexError(
                f"unresolved identifier(s) {names}: not a symbol, not a bound "
                f"variable, and not a declared free variable"
            )
        return r

    def regex(self) -> Regex:
        parts = [self.concat()]
        while self.peek().kind == "|":
            self.next()
            parts.append(self.concat())
        return alt(*parts)

    _PRIMARY_START = {"<", "[", "ident"}

    def concat(self) -> Regex:
        parts = [self.postfix()]
        while self.peek().kind in self._PRIMARY_START:
            parts.append(self.postfix())
        return seq(*parts)

    def postfix(self) -> Regex:
        r = self.primary()
        while self.peek().kind in ("*", "+", "?"):
            op = self.next().kind
            if op == "*":
                r = Star(r)
            elif op == "+":
                r = Plus(r)
            else:
                r = Opt(r)
        return r

    def primary(self) -> Regex:
        t = self.peek()
        if t.kind == "<":
            return self.template_atom()
        if t.kind == "ident":
            self.next()
            return Atom(
                EventTemplate(Sort.base("Obj"), Sort.base("Obj"), t.text, None)
            )
        if t.kind == "[":
            self.next()
            body = self.regex()
            self.expect("]")
            if self.peek().kind == ".":
                self.next()
                var_tok = self.expect("ident")
                self.expect(":")
                sort_tok = self.expect("ident")
                sort = self.symbols.get(sort_tok.text)
                if not isinstance(sort, Sort):
                    raise RegexError(
                        f"binder sort {sort_tok.text!r} at offset {sort_tok.pos} "
                        f"does not name a sort"
                    )
                self.bound_vars.add(var_tok.text)
                return Bind(Var(var_tok.text), sort, body)
            return body
        raise RegexError(
            f"expected an atom or group but found {t.text or 'end of input'!r} "
            f"at offset {t.pos}"
        )

    def template_atom(self) -> Regex:
        self.expect("<")
        caller = self.position(None)
        self.expect(",")
        callee = self.position(None)
        self.expect(",")
        name_tok = self.expect("ident")
        method = name_tok.text
        args: list[Position] = []
        has_args = False
        if self.peek().kind == "(":
            has_args = True
            self.next()
            if self.peek().kind != ")":
                args.append(self.position((method, 0)))
                k = 1
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.position((method, k)))
                    k += 1
            self.expect(")")
        self.expect(">")
        sig = self.methods.get(method)
        if has_args and sig is not None and len(args) != len(sig):
            raise RegexError(
                f"method {method!r} declared with {len(sig)} parameter(s) "
                f"but used with {len(args)}"
            )
        if not has_args and sig:
            raise RegexError(
                f"method {method!r} declared with {len(sig)} parameter(s) "
                f"but used with none; write {method}({', '.join('_' * len(sig))})"
            )
        return Atom(EventTemplate(caller, callee, method, tuple(args)))

    def position(self, arg_slot: tuple[str, int] | None) -> Position:
        t = self.next()
        if t.kind == "_":
            if arg_slot is None:
                raise RegexError(
                    f"wildcard '_' is only allowed in argument positions "
                    f"(offset {t.pos})"
                )
            method, index = arg_slot
            sig = self.methods.get(method)
            if sig is None or index >= len(sig):
                raise RegexError(
                    f"wildcard argument of undeclared method {method!r} "
                    f"(offset {t.pos}); declare its parameter sorts"
                )
            return sig[index]
        if t.kind != "ident":
            raise RegexError(
                f"expected a position but found {t.text!r} at offset {t.pos}"
            )
        if t.text in self.symbols:
            return self.symbols[t.text]
        self.used_vars.add(t.text)
        return Var(t.text)


def parse_regex(
    text: str,
    symbols: dict[str, "Value | Sort"] | None = None,
    methods: dict[str, tuple[Sort, ...]] | None = None,
    free_vars: dict[str, Sort] | None = None,
) -> Regex:
    """Parse the concrete regex syntax (see module docstring).

    ``symbols`` maps identifiers to concrete values or sorts; ``methods``
    maps method names to their parameter sorts (needed for ``_`` wildcards
    and arity checking); ``free_vars`` declares externally-bound variables.
    """
    p = _Parser(text, dict(symbols or {}), dict(methods or {}), dict(free_vars or {}))
    try:
        return p.parse()
    except RecursionError:  # one frame per group level
        raise RegexError(NESTING_MESSAGE) from None
