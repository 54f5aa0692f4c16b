"""Concrete syntax for timed CCS programs.

A program is a sequence of definitions:

    Handshake = a.0 | 'a.0;          // a named process, usable as a root
    Clock(a)  = 'a.Clock(a);         // a parameterized definition, callable

    proc  :=  par
    par   :=  sum { "|" sum }
    sum   :=  pre { "+" pre }
    pre   :=  "0" | act "." pre | "new" name "." pre
           |  "{" proc "}" "else" pre
           |  IDENT "(" [names] ")" | "(" proc ")" | macro
    act   :=  name | "'" name | "tau" | "tick"
    macro :=  "Omega" | "emit" "(" name ")"
           |  "present" name "{" proc "}" "else" "{" proc "}"
           |  "(" proc "(+)" proc ")"

Names are lowercase ([a-z][a-zA-Z0-9_]*), identifiers are capitalized;
comments run from // to end of line.  Machine names (#1, #2, ...) and
the generated identifier #Omega are accepted back on input so printed
terms reparse.  The derived forms are expanded while parsing: tau and
(+) via the restricted-handshake encoding with a per-parse supply of
fresh names, tick via else_next, Omega and emit via generated
definitions.  The expanded tree uses only the seven core constructors.

The lexer is one regular expression with a named group per token
class.  A term is read by one loop over an explicit stack of open
groups, not by recursion, so the depth of a term is bounded by memory,
not by the interpreter's stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .terms import (
    EMIT_IDENT,
    KEYWORDS,
    NIL,
    OMEGA_IDENT,
    Call,
    DefTable,
    ElseNext,
    NameSupply,
    Par,
    Prefix,
    Process,
    Restrict,
    Sum,
    _rebuild,
    ensure_builtins,
    internal_choice,
    make_tau,
    make_tick,
)

__all__ = ["ParseError", "ParseResult", "parse", "parse_proc"]


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int) -> None:
        super().__init__(msg)
        self.msg = msg
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return "line %d, column %d: %s" % (self.line, self.col, self.msg)


class _Tok(NamedTuple):
    type: str
    text: str
    line: int
    col: int


# The tokens, one named group per class, tried in order.  Words are
# ASCII only, and a 0 is a token of its own even right before letters.
_TOKEN = re.compile(
    r"(?P<nl>\n)|(?P<skip>[ \t\r]+|//.*)|(?P<punct>\(\+\)|[(){}.+|=;,'])"
    r"|(?P<zero>0)|(?P<machine>#[A-Za-z0-9_]*)|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<stray>.)"
)


def _lex(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "nl":
            line, start = line + 1, m.end()
            continue
        col = m.start() - start + 1
        if kind == "word":
            kind = text if text in KEYWORDS else "ident" if text[0].isupper() else "name"
        elif kind == "punct":
            kind = text
        elif kind == "machine":
            if text[1:].isdigit():
                kind = "name"
            elif text[1:2].isupper():
                kind = "ident"
            else:
                raise ParseError("bad machine token %r" % text, line, col)
        elif kind == "stray":
            raise ParseError("stray character %r" % text, line, col)
        if kind != "skip":
            toks.append(_Tok(kind, text, line, col))
    # a trailing comment takes no columns, so the end sits at its start;
    # every // left on the last line is inside that comment
    end = src.find("//", start)
    toks.append(_Tok("eof", "", line, (len(src) if end < 0 else end) - start + 1))
    return toks


@dataclass
class ParseResult:
    """Definitions plus the named processes of a program, in file order."""

    defs: DefTable
    processes: list[tuple[str, Process]]

    def names(self) -> list[str]:
        return [name for name, _ in self.processes]

    def process(self, name: str) -> Process:
        """Resolve a selector: a named process, or a nullary definition."""
        for n, p in self.processes:
            if n == name:
                return p
        if name in self.defs and not self.defs.lookup(name).params:
            return Call(name, ())
        raise KeyError("no process named %s" % name)


# what a pending head makes of the term it prefixes; tau draws a name
_WRAP = {
    "name": lambda a, p: Prefix("in", a, p),
    "'": lambda a, p: Prefix("out", a, p),
    "new": Restrict,
    "tick": lambda a, p: make_tick(p),
    "{": ElseNext,
}


class _Parser:
    def __init__(self, toks: list[_Tok]) -> None:
        self.toks = toks
        self.pos = 0
        self.defs = DefTable()
        self.named: dict[str, Process] = {}
        self.order: list[str] = []
        self.calls: list[tuple[str, int, _Tok]] = []
        self.supply = NameSupply(
            avoid={t.text for t in toks if t.type == "name" and t.text.startswith("#")}
        )

    # token plumbing

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, type_: str, what: str | None = None) -> _Tok:
        t = self.peek()
        if t.type != type_:
            want = what or "'%s'" % type_
            got = "end of input" if t.type == "eof" else "'%s'" % t.text
            raise ParseError("expected %s, found %s" % (want, got), t.line, t.col)
        return self.next()

    # grammar

    def program(self) -> ParseResult:
        while self.peek().type != "eof":
            self.definition()
        self.resolve_calls()
        return ParseResult(self.defs, [(n, self.named[n]) for n in self.order])

    def definition(self) -> None:
        head = self.expect("ident", "a definition (identifier)")
        ident, line, col = head.text, head.line, head.col
        if ident.startswith("#"):
            raise ParseError(
                "identifier %s is reserved for generated definitions" % ident, line, col
            )
        params = None
        if self.peek().type == "(":
            self.next()
            params = self.name_list()
            self.expect(")")
        self.expect("=")
        body = self.term()
        self.expect(";")
        if ident in self.named or (params is None and ident in self.defs):
            raise ParseError("duplicate definition of %s" % ident, line, col)
        if params is None:
            self.named[ident] = body
            self.order.append(ident)
        elif len(set(params)) != len(params):
            raise ParseError("repeated parameter in definition of %s" % ident, line, col)
        else:
            try:
                self.defs.define(ident, tuple(params), body)
            except ValueError as e:
                raise ParseError(str(e), line, col) from None

    def name_list(self) -> list[str]:
        names: list[str] = []
        if self.peek().type == "name":
            names.append(self.next().text)
            while self.peek().type == ",":
                self.next()
                names.append(self.expect("name", "a name").text)
        return names

    def term(self) -> Process:
        """A whole term, read by one loop over a stack of open groups.

        A frame is (kind, held, heads, pars, sums), one per open group:
        the whole term, "(", the right operand of "(+)", the braces of
        {P} else, and present's two braces.  `heads` are the pending
        prefixes of the prefix-level term being read, as (token type,
        name or term) pairs, `pars` the finished operands of |, `sums`
        the operands of the current +, and `held` what the group keeps
        for its closing: (+)'s left operand, present's name and branch.
        """
        frames = [("term", None, [], [], [])]
        while True:
            heads = frames[-1][2]
            t = self.next()
            kind = t.type
            if kind in ("name", "'", "new", "tau", "tick"):
                a = t.text
                if kind == "'" or kind == "new":
                    a = self.expect("name", "a name").text
                self.expect(".")
                heads.append((kind, a))
                continue
            if kind == "(" or kind == "{":
                frames.append((kind, None, [], [], []))
                continue
            if kind == "present":
                a = self.expect("name", "a name").text
                self.expect("{")
                frames.append((kind, a, [], [], []))
                continue
            p = self.atom(t)
            # p is a finished prefix-level term: it takes its group's
            # heads, innermost first, and each group that ends with it
            # closes into a term of the group around it
            while True:
                kind, held, heads, pars, sums = frames[-1]
                while heads:
                    head, a = heads.pop()
                    if head == "tau":
                        p = make_tau(p, self.supply.fresh())
                    else:
                        p = _WRAP[head](a, p)
                sums.append(p)
                after = self.peek().type
                if after != "+":
                    pars.append(_rebuild(sums, Sum))
                    sums.clear()
                if after == "+" or after == "|":
                    self.next()
                    break
                q = _rebuild(pars, Par)
                if kind == "term":
                    return q
                if kind == "(" and after == "(+)":
                    self.next()
                    frames[-1] = ("(+)", q, [], [], [])
                    break
                self.expect(")" if kind == "(" or kind == "(+)" else "}")
                frames.pop()
                if kind == "{":
                    self.expect("else")
                    frames[-1][2].append(("{", q))
                    break
                if kind == "present":
                    self.expect("else")
                    self.expect("{")
                    frames.append(("present-else", (held, q), [], [], []))
                    break
                if kind == "(":
                    p = q
                elif kind == "(+)":
                    p = internal_choice(held, q, self.supply)
                else:
                    p = ElseNext(Prefix("in", held[0], held[1]), q)

    def atom(self, t: _Tok) -> Process:
        """The term a token starts that takes no operand: 0, Omega,
        emit(a) or a call."""
        if t.type == "zero":
            return NIL
        if t.type == "Omega":
            ensure_builtins(self.defs, omega=True)
            return Call(OMEGA_IDENT, ())
        if t.type == "emit":
            self.expect("(")
            a = self.expect("name", "a name").text
            self.expect(")")
            ensure_builtins(self.defs, emit=True)
            return Call(EMIT_IDENT, (a,))
        if t.type == "ident":
            self.expect("(")
            args = self.name_list()
            close = self.expect(")")
            self.calls.append((t.text, len(args), close))
            return Call(t.text, tuple(args))
        raise ParseError("expected a process", t.line, t.col)

    def resolve_calls(self) -> None:
        for ident, nargs, tok in self.calls:
            if ident not in self.defs:
                why = "unbound process identifier %s"
                if ident in self.named:
                    why = (
                        "%s is a named process, not a parameterized definition;"
                        " give it a parameter list to make it callable"
                    )
                raise ParseError(why % ident, tok.line, tok.col)
            want = len(self.defs.lookup(ident).params)
            if want != nargs:
                why = "%s takes %d argument(s), got %d" % (ident, want, nargs)
                raise ParseError(why, tok.line, tok.col)


def parse(src: str) -> ParseResult:
    """Parse a program: definitions first, every call site resolved."""
    return _Parser(_lex(src)).program()


def parse_proc(
    src: str, defs: DefTable | None = None
) -> tuple[Process, DefTable]:
    """Parse a single process given an optional definition table.

    Returns the term and the table, the latter extended with any
    generated definitions the term's derived forms need.
    """
    parser = _Parser(_lex(src))
    if defs is not None:
        parser.defs = defs.copy()
    p = parser.term()
    parser.expect("eof", "end of input")
    parser.resolve_calls()
    return p, parser.defs
