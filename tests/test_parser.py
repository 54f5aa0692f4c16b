"""Concrete syntax: grammar coverage, macro expansion, error positions."""

import random

import pytest

from tccs import ParseError, parse, parse_proc, pretty
from tccs.generate import random_sl_program, random_term
from tccs.terms import (
    NIL,
    Call,
    ElseNext,
    Par,
    Prefix,
    Restrict,
    Sum,
)


def test_direct_grammar_reading():
    p, _ = parse_proc("a.0 | 'a.0")
    assert p == Par(Prefix("in", "a", NIL), Prefix("out", "a", NIL))


def test_precedence_prefix_over_sum_over_composition():
    p, _ = parse_proc("a.b.0 + c.0 | d.0")
    assert p == Par(
        Sum(
            Prefix("in", "a", Prefix("in", "b", NIL)),
            Prefix("in", "c", NIL),
        ),
        Prefix("in", "d", NIL),
    )


def test_binders_stop_at_prefix_level():
    # the body of new and of an else branch is a prefix-level term, so
    # composition and sum to the right stay outside; parentheses widen
    p, _ = parse_proc("new a. a.0 | 'a.0")
    assert p == Par(
        Restrict("a", Prefix("in", "a", NIL)), Prefix("out", "a", NIL)
    )
    q, _ = parse_proc("{0} else a.0 + b.0")
    assert q == Sum(ElseNext(NIL, Prefix("in", "a", NIL)), Prefix("in", "b", NIL))
    r, _ = parse_proc("new a. (a.0 | 'a.0)")
    assert r == Restrict(
        "a", Par(Prefix("in", "a", NIL), Prefix("out", "a", NIL))
    )
    s, _ = parse_proc("new a. b.c.'a.0")
    assert s == Restrict(
        "a",
        Prefix("in", "b", Prefix("in", "c", Prefix("out", "a", NIL))),
    )


def test_internal_step_macro_expands_to_its_encoding():
    p, _ = parse_proc("tau.0")
    assert p == Restrict(
        "#1", Par(Prefix("in", "#1", NIL), Prefix("out", "#1", NIL))
    )


def test_tick_macro_is_an_empty_instant():
    p, _ = parse_proc("tick.a.0")
    assert p == ElseNext(NIL, Prefix("in", "a", NIL))


def test_omega_macro_defines_the_diverging_process():
    p, defs = parse_proc("Omega")
    assert p == Call("#Omega")
    body = defs.lookup("#Omega").body
    assert body == Restrict(
        "#1", Par(Prefix("in", "#1", Call("#Omega")), Prefix("out", "#1", NIL))
    )


def test_emit_macro_generates_the_persistent_signal_equation():
    p, defs = parse_proc("emit(a)")
    assert p == Call("emit", ("a",))
    assert defs.lookup("emit").body == ElseNext(
        Prefix("out", "a", Call("emit", ("a",))), NIL
    )


def test_present_macro_is_an_else_next_over_an_input():
    p, _ = parse_proc("present a {b.0} else {c.0}")
    assert p == ElseNext(
        Prefix("in", "a", Prefix("in", "b", NIL)), Prefix("in", "c", NIL)
    )


def test_internal_choice_macro_offers_two_internal_steps():
    p, _ = parse_proc("(a.0 (+) b.0)")
    assert isinstance(p, Sum)
    assert p.parts == (
        Restrict(
            "#1",
            Par(Prefix("in", "#1", Prefix("in", "a", NIL)), Prefix("out", "#1", NIL)),
        ),
        Restrict(
            "#2",
            Par(Prefix("in", "#2", Prefix("in", "b", NIL)), Prefix("out", "#2", NIL)),
        ),
    )


def test_program_names_and_order():
    res = parse("A(a) = a.A(a);\nB() = 0;\nP = A(b);\nQ = 0;\n")
    assert res.names() == ["P", "Q"]
    assert res.process("P") == Call("A", ("b",))
    # a nullary definition resolves as a process; a parameterized or
    # unknown one does not
    assert res.process("B") == Call("B", ())
    for missing in ("A", "R"):
        with pytest.raises(KeyError):
            res.process(missing)


def test_comments_and_stdin_friendly_whitespace():
    res = parse("// leading note\nP = a.0; // trailing\n\n")
    assert res.names() == ["P"]


@pytest.mark.parametrize(
    "src, line, col, fragment",
    [
        ("P = a..0;", 1, 7, "expected a process"),
        ("P = a.0", 1, 8, "expected ';'"),
        ("Q = B();", 1, 7, "unbound process identifier B"),
        ("A(a) = a.0; P = A(a, b);", 1, 23, "takes 1 argument(s), got 2"),
        ("A = 0; A = 0;", 1, 8, "duplicate definition of A"),
        ("A(a) = b.0;", 1, 1, "free name(s) b not among its parameters"),
        ("P = (a.0;", 1, 9, "expected ')'"),
        ("P = 'tau.0;", 1, 6, "expected a name"),
        ("x", 1, 1, "expected a definition"),
        ("P = a.0;\nQ = b\u00e9.0;", 2, 6, "stray character"),
        ("P = #x.0;", 1, 5, "bad machine token"),
        ("#Foo = 0;", 1, 1, "is reserved for generated definitions"),
        ("A = 0; A(a) = a.0;", 1, 8, "duplicate definition of A"),
        ("A(a, a) = a.0;", 1, 1, "repeated parameter"),
        ("P = 0; Q = P();", 1, 14, "is a named process, not a parameterized definition"),
        ("P = #;", 1, 5, "bad machine token"),
        ("P = 1a.0;", 1, 5, "stray character '1'"),
        ("P = _a.0;", 1, 5, "stray character '_'"),
        # the end of input after a trailing comment sits at its start
        ("P = a.0 // no semicolon", 1, 9, "expected ';'"),
        # a carriage return is a column, only a newline starts a line
        ("P = a.0;\r\nQ = b.0\r\n", 3, 1, "expected ';'"),
        ("P =\ta.0\t?;", 1, 9, "stray character '?'"),
        # 0 is a token of its own even right before letters
        ("P = 0a.0;", 1, 6, "found 'a'"),
        ("P = (a.0 (+) b.0;", 1, 17, "expected ')'"),
    ],
)
def test_errors_carry_position_and_cause(src, line, col, fragment):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert err.value.line == line
    assert err.value.col == col
    assert fragment in str(err.value)


def test_bare_identifier_is_not_a_call():
    # calls are always written with parentheses; a bare identifier in
    # process position is a syntax error, not an implicit call
    with pytest.raises(ParseError):
        parse("A() = 0; P = A;")


def test_round_trip_of_a_mixed_program():
    src = "Hand(x, y) = x.'y.Hand(x, y);\nP = new c. (Hand(a, c) | {c.0} else Omega);\n"
    res = parse(src)
    p = res.process("P")
    q, _ = parse_proc(pretty(p), defs=res.defs)
    assert q == p


@pytest.mark.parametrize(
    "src, printed",
    [
        (
            "tau.(a.0 (+) tau.b.0)",
            "new #4. (#4.(new #2. (#2.a.0 | '#2.0) + new #3. (#3.new #1."
            " (#1.b.0 | '#1.0) | '#3.0)) | '#4.0)",
        ),
        (
            "tau.{tau.0} else tau.0",
            "new #3. (#3.{new #1. (#1.0 | '#1.0)} else new #2. (#2.0 | '#2.0)"
            " | '#3.0)",
        ),
    ],
)
def test_nested_macros_draw_fresh_names_innermost_first(src, printed):
    # a derived form takes its fresh names once its operands are read,
    # so inner macros are numbered before the ones around them
    assert pretty(parse_proc(src)[0]) == printed


def test_printed_random_terms_reparse_to_the_same_node():
    for seed in range(200):
        rng = random.Random(seed)
        p, defs = (random_term if seed % 2 else random_sl_program)(rng)
        assert parse_proc(pretty(p), defs)[0] is p, seed


def test_a_deep_chain_parses_without_recursion():
    p = parse("P = %s0;" % ("a." * 3000)).process("P")
    depth = 0
    while isinstance(p, Prefix):
        p = p.cont
        depth += 1
    assert depth == 3000 and p is NIL
