"""Syntax-level laws: printing, canonical forms, renaming, classification."""

import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import canonical, halves
from tccs import (
    DefTable,
    NameSupply,
    canonicalize,
    classify,
    parse_proc,
    pretty,
    substitute,
)
from tccs.generate import GenConfig, random_ccs_term, random_sl_program, random_term
from tccs.lts import step
from tccs.terms import (
    NIL,
    Call,
    ElseNext,
    Label,
    Par,
    Prefix,
    Process,
    Restrict,
    Sum,
    _table,
    all_names,
    inp,
    internal_choice,
    make_tau,
    out,
)

CFG = GenConfig(depth=4, max_defs=2)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_pretty_parse_round_trip(seed):
    p, defs = random_term(random.Random(seed), CFG)
    q, _ = parse_proc(pretty(p), defs=defs)
    assert q is p
    assert pickle.loads(pickle.dumps(p)) is p


def _printed(p, level=0):
    # the printer written recursively: 0 composition, 1 sum, 2 prefix
    match p:
        case Prefix(pol, a, k):
            text = "%s%s.%s" % ("" if pol == "in" else "'", a, _printed(k, 2))
        case Sum() | Par():
            sep, inner = (" + ", 2) if type(p) is Sum else (" | ", 1)
            text = sep.join(
                [_printed(p.parts[0], inner - 1)]
                + [_printed(q, inner) for q in p.parts[1:]]
            )
        case Restrict(a, b):
            text = "new %s. %s" % (a, _printed(b, 2))
        case ElseNext(n, l):
            text = "{%s} else %s" % (_printed(n, 0), _printed(l, 2))
        case Call(ident, args):
            text = "%s(%s)" % (ident, ", ".join(args))
        case _:
            text = "0"
    if (level >= 2 and type(p) is Sum) or (level >= 1 and type(p) is Par):
        return "(%s)" % text
    return text


def test_pretty_matches_a_recursive_printer_on_fresh_terms():
    # names no other test uses, so nearly every node is built afresh;
    # each node has its text from its constructor, before any `pretty`
    for seed in range(300):
        cfg = GenConfig(depth=5, max_defs=2, names=("f%da" % seed, "f%db" % seed))
        p, _ = random_term(random.Random(seed), cfg)
        for q in _subterms(p):
            assert q._text == _printed(q)
        assert pretty(p) == _printed(p)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_pretty_is_stable_after_reparse(seed):
    p, defs = random_term(random.Random(seed), CFG)
    text = pretty(p)
    q, _ = parse_proc(text, defs=defs)
    assert pretty(q) == text


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_canonicalize_idempotent(seed):
    p, _ = random_term(random.Random(seed), CFG)
    c = canonicalize(p)
    assert canonicalize(c) is c


def _subterms(p):
    # a nest splits as the binary tree leaning left it stands for, so
    # its partial nests are subterms too
    out, stack = [], [p]
    while stack:
        q = stack.pop()
        out.append(q)
        if isinstance(q, (Sum, Par)):
            stack.extend(halves(q))
        else:
            stack.extend(
                getattr(q, f) for f in q.__match_args__
                if isinstance(getattr(q, f), Process)
            )
    return out


def _agrees_with_the_reference(*terms):
    # in order, so that earlier terms fill the slots later ones meet
    for t in terms:
        for s in _subterms(t) + _subterms(canonicalize(t)):
            assert canonicalize(s) is canonical(s), pretty(s)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_cached_canonical_forms_match_the_uncached_reference(seed):
    p, _ = random_term(random.Random(seed), CFG)
    _agrees_with_the_reference(p, *(Restrict(a, p) for a in sorted(p.free)))


def test_a_canonicalized_subterm_renamed_under_a_binder():
    a, b = Prefix("in", "a", NIL), Prefix("out", "b", NIL)
    _agrees_with_the_reference(Par(a, b), Restrict("a", Par(a, b)))
    _agrees_with_the_reference(a, b, Restrict("b", Sum(b, a)))
    # shadowing, by a user name and by a machine name kept by its binder
    _agrees_with_the_reference(Restrict("a", Restrict("a", a)))
    _agrees_with_the_reference(Restrict("a", Par(a, Restrict("a", a))))
    m2, y = Prefix("in", "#2", NIL), Prefix("in", "y", NIL)
    deep = Restrict("#2", Par(m2, Restrict("y", Par(y, Restrict("#2", Par(m2, y))))))
    _agrees_with_the_reference(deep)
    assert pretty(canonicalize(deep)) == (
        "new #1. (#1.0 | new #1. (#1.0 | new #2. (#1.0 | #2.0)))"
    )
    # an already canonical body, met again under an outer binder
    c = canonicalize(Restrict("a", Par(a, b)))
    assert pretty(c) == "new #1. (#1.0 | 'b.0)"
    _agrees_with_the_reference(c, Restrict("b", Par(c, Prefix("in", "b", NIL))))


def test_dropped_terms_leave_the_intern_table():
    # Without the cyclic collector, only terms that no cycle holds are
    # freed when their last reference goes.
    gc.collect()
    gc.disable()
    try:
        before = len(_table)
        rng = random.Random(7)
        batch = []
        for _ in range(200):
            p, defs = random_term(rng, CFG)
            c = canonicalize(p)
            batch.append((p, c, pretty(c), step(c, defs)))
        assert len(_table) > before
        del batch, p, c, defs
        assert len(_table) == before
    finally:
        gc.enable()


def test_labels_are_interned():
    a = Label("in", "a")
    assert a is inp("a")
    assert a.co() is out("a") and out("a").co() is a
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a
    assert a != out("a") and {a, inp("a"), out("a")} == {a, out("a")}


def test_dropped_labels_leave_the_intern_table():
    # The table holds labels weakly: names minted per query must not
    # pile up in it.
    gc.collect()
    gc.disable()
    try:
        before = len(_table)
        batch = [Label(("in", "out")[k % 2], "dropped%d" % k) for k in range(200)]
        assert len(_table) == before + 200
        del batch
        assert len(_table) == before
    finally:
        gc.enable()


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_canonicalize_preserves_strong_steps(seed):
    p, defs = random_term(random.Random(seed), CFG)
    want = {(lab, canonicalize(t)) for lab, t in step(p, defs)}
    got = {(lab, canonicalize(t)) for lab, t in step(canonicalize(p), defs)}
    assert got == want


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_substitute_identity_and_free_names(seed):
    p, _ = random_term(random.Random(seed), CFG)
    assert substitute(p, {n: n for n in p.free}) == p
    mapping = {n: n + n for n in p.free}
    assert substitute(p, mapping).free == frozenset(
        mapping.get(n, n) for n in p.free
    )


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_substitute_swap_is_an_involution_up_to_canonical_form(seed):
    p, _ = random_term(random.Random(seed), CFG)
    swap = {"a": "b", "b": "a"}
    back = substitute(substitute(p, swap), swap)
    assert canonicalize(back) == canonicalize(p)


def test_substitute_avoids_capture():
    # renaming b to a must not let the binder a capture it
    p = Restrict("a", Prefix("in", "b", Prefix("out", "a", NIL)))
    q = substitute(p, {"b": "a"})
    assert q.name != "a"
    assert q.body == Prefix("in", "a", Prefix("out", q.name, NIL))


def test_wide_nests_substitute_and_copy_as_one_node():
    # each nest is one node, so renaming and copying take no frame per
    # operand
    wide_par, _ = parse_proc(" | ".join(["a.0"] * 1500))
    wide_sum, _ = parse_proc(" + ".join(["a.0"] * 3000))
    for p in (wide_par, wide_sum):
        q = substitute(p, {"a": "b"})
        assert q.free == {"b"} and q.parts == (Prefix("in", "b", NIL),) * len(p.parts)
    assert pickle.loads(pickle.dumps(wide_sum)) is wide_sum
    assert copy.deepcopy(wide_sum) is wide_sum


def test_a_nest_is_one_node_over_its_operands():
    a, b, c = (Prefix("in", x, NIL) for x in "abc")
    assert Sum(Sum(a, b), c) is Sum(a, b, c)
    assert Sum(a, Sum(b, c)).parts == (a, Sum(b, c))
    with pytest.raises(TypeError):
        Par(a)


def test_labels_check_their_kind_and_name():
    for kind, name, message in (
        ("in", None, "communication label needs a name"),
        ("tau", "a", "tau carries no name"),
        ("send", "a", "bad label kind 'send'"),
    ):
        with pytest.raises(ValueError, match=message):
            Label(kind, name)


def test_canonical_forms_commute_drop_units_and_dead_binders():
    a, b = Prefix("in", "a", NIL), Prefix("in", "b", NIL)
    assert canonicalize(Sum(b, a)) == canonicalize(Sum(a, b))
    assert canonicalize(Par(b, Par(a, NIL))) == canonicalize(Par(a, b))
    assert canonicalize(Par(NIL, NIL)) == NIL
    assert canonicalize(Restrict("c", Par(a, b))) == canonicalize(Par(a, b))
    assert canonicalize(Restrict("a", a)) == Restrict("#1", Prefix("in", "#1", NIL))


def test_name_supply_skips_avoided_and_never_repeats():
    supply = NameSupply(avoid={"#1", "#3"})
    drawn = [supply.fresh() for _ in range(4)]
    assert drawn == ["#2", "#4", "#5", "#6"]


def test_make_tau_rejects_a_name_free_in_the_continuation():
    with pytest.raises(ValueError):
        make_tau(Prefix("in", "a", NIL), "a")


def test_internal_choice_offers_both_branches_internally():
    a, b = Prefix("in", "a", NIL), Prefix("in", "b", NIL)
    p = internal_choice(a, b, NameSupply(avoid=all_names(Sum(a, b))))
    moves = {(lab.kind, canonicalize(t)) for lab, t in step(p, DefTable())}
    assert moves == {("tau", a), ("tau", b)}


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_classify_matches_the_generators(seed):
    rng = random.Random(seed)
    p, defs = random_ccs_term(rng, CFG)
    assert classify(p, defs).is_ccs
    q, qdefs = random_sl_program(rng, CFG)
    assert classify(q, qdefs).is_sl
