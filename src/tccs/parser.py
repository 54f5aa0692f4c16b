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
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class _Tok:
    type: str
    text: str
    line: int
    col: int


_PUNCT = {"(", ")", "{", "}", ".", "+", "|", "=", ";", ","}
# names and identifiers are ASCII only; str.isalpha would admit any
# Unicode letter
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_WORD = _LETTERS | frozenset("0123456789_")


def _lex(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src.startswith("(+)", i):
            toks.append(_Tok("(+)", "(+)", line, col))
            i += 3
            col += 3
            continue
        if c in _PUNCT:
            toks.append(_Tok(c, c, line, col))
            i += 1
            col += 1
            continue
        if c == "'":
            toks.append(_Tok("'", c, line, col))
            i += 1
            col += 1
            continue
        if c == "0":
            toks.append(_Tok("zero", c, line, col))
            i += 1
            col += 1
            continue
        if c == "#":
            j = i + 1
            while j < n and src[j] in _WORD:
                j += 1
            word = src[i:j]
            if len(word) > 1 and word[1:].isdigit():
                toks.append(_Tok("name", word, line, col))
            elif len(word) > 1 and word[1].isupper():
                toks.append(_Tok("ident", word, line, col))
            else:
                raise ParseError("bad machine token %r" % word, line, col)
            col += j - i
            i = j
            continue
        if c in _LETTERS:
            j = i
            while j < n and src[j] in _WORD:
                j += 1
            word = src[i:j]
            if word in KEYWORDS:
                toks.append(_Tok(word, word, line, col))
            elif word[0].isupper():
                toks.append(_Tok("ident", word, line, col))
            else:
                toks.append(_Tok("name", word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError("stray character %r" % c, line, col)
    toks.append(_Tok("eof", "", line, col))
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

    def fail(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    # grammar

    def program(self) -> ParseResult:
        while self.peek().type != "eof":
            self.definition()
        self.resolve_calls()
        return ParseResult(self.defs, [(n, self.named[n]) for n in self.order])

    def definition(self) -> None:
        head = self.expect("ident", "a definition (identifier)")
        if head.text.startswith("#"):
            raise ParseError(
                "identifier %s is reserved for generated definitions" % head.text,
                head.line,
                head.col,
            )
        if self.peek().type == "(":
            self.next()
            params = self.name_list()
            self.expect(")")
            self.expect("=")
            body = self.proc()
            self.expect(";")
            if head.text in self.named:
                raise ParseError(
                    "duplicate definition of %s" % head.text, head.line, head.col
                )
            if len(set(params)) != len(params):
                raise ParseError(
                    "repeated parameter in definition of %s" % head.text,
                    head.line,
                    head.col,
                )
            try:
                self.defs.define(head.text, tuple(params), body)
            except ValueError as e:
                raise ParseError(str(e), head.line, head.col) from None
        else:
            self.expect("=")
            body = self.proc()
            self.expect(";")
            if head.text in self.named or head.text in self.defs:
                raise ParseError(
                    "duplicate definition of %s" % head.text, head.line, head.col
                )
            self.named[head.text] = body
            self.order.append(head.text)

    def name_list(self) -> list[str]:
        names: list[str] = []
        if self.peek().type == "name":
            names.append(self.next().text)
            while self.peek().type == ",":
                self.next()
                names.append(self.expect("name", "a name").text)
        return names

    def proc(self) -> Process:
        return self.par()

    def par(self) -> Process:
        p = self.sum()
        while self.peek().type == "|":
            self.next()
            p = Par(p, self.sum())
        return p

    def sum(self) -> Process:
        p = self.pre()
        while self.peek().type == "+":
            self.next()
            p = Sum(p, self.pre())
        return p

    def pre(self) -> Process:
        t = self.peek()
        if t.type == "zero":
            self.next()
            return NIL
        if t.type == "name":
            self.next()
            self.expect(".")
            return Prefix("in", t.text, self.pre())
        if t.type == "'":
            self.next()
            a = self.expect("name", "a name").text
            self.expect(".")
            return Prefix("out", a, self.pre())
        if t.type == "tau":
            self.next()
            self.expect(".")
            return make_tau(self.pre(), self.supply.fresh())
        if t.type == "tick":
            self.next()
            self.expect(".")
            return make_tick(self.pre())
        if t.type == "new":
            self.next()
            a = self.expect("name", "a name").text
            self.expect(".")
            return Restrict(a, self.pre())
        if t.type == "{":
            self.next()
            now = self.proc()
            self.expect("}")
            self.expect("else")
            return ElseNext(now, self.pre())
        if t.type == "Omega":
            self.next()
            ensure_builtins(self.defs, omega=True)
            return Call(OMEGA_IDENT, ())
        if t.type == "emit":
            self.next()
            self.expect("(")
            a = self.expect("name", "a name").text
            self.expect(")")
            ensure_builtins(self.defs, emit=True)
            return Call(EMIT_IDENT, (a,))
        if t.type == "present":
            self.next()
            a = self.expect("name", "a name").text
            self.expect("{")
            now = self.proc()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            later = self.proc()
            self.expect("}")
            return ElseNext(Prefix("in", a, now), later)
        if t.type == "ident":
            self.next()
            self.expect("(")
            args = self.name_list()
            close = self.expect(")")
            self.calls.append((t.text, len(args), close))
            return Call(t.text, tuple(args))
        if t.type == "(":
            self.next()
            p = self.proc()
            if self.peek().type == "(+)":
                self.next()
                q = self.proc()
                self.expect(")")
                return internal_choice(p, q, self.supply)
            self.expect(")")
            return p
        raise self.fail("expected a process")

    def resolve_calls(self) -> None:
        for ident, nargs, tok in self.calls:
            if ident not in self.defs:
                if ident in self.named:
                    raise ParseError(
                        "%s is a named process, not a parameterized definition;"
                        " give it a parameter list to make it callable" % ident,
                        tok.line,
                        tok.col,
                    )
                raise ParseError(
                    "unbound process identifier %s" % ident, tok.line, tok.col
                )
            want = len(self.defs.lookup(ident).params)
            if want != nargs:
                raise ParseError(
                    "%s takes %d argument(s), got %d" % (ident, want, nargs),
                    tok.line,
                    tok.col,
                )


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
    p = parser.proc()
    parser.expect("eof", "end of input")
    parser.resolve_calls()
    return p, parser.defs
