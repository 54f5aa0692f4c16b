"""Predicates over graphs: implications among them, oracle agreement."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    Oracle, enumeration_kit, hand_built, ring_program, small_terms
)
from tccs import (
    BoundExceeded,
    analysis,
    build_lts,
    facts,
    facts_line,
    inp,
    parse,
    parse_proc,
)
from tccs.generate import GenConfig, random_reactive_term, random_term
from tccs.terms import TAU, TICK, _table, out

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _graph(src: str, bound: int = 10000):
    p, defs = parse_proc(src)
    return build_lts([p], defs, bound=bound)


def test_choice_with_a_diverging_peer():
    lts = _graph("(a.0 + b.0) | 'a.Omega")
    line = facts_line(lts, lts.roots[0])
    assert "converge=false ctxconv=true diverge=true" in line


def test_loop_that_can_settle_diverges_and_converges():
    res = parse("D() = tau.D() + tau.0;\nP = D();\n")
    lts = build_lts([res.process("P")], res.defs)
    f = facts(lts, lts.roots[0])
    assert f.may_converge and f.may_diverge and not f.stable


def test_never_stable_means_no_barbs():
    lts = _graph("a.0 | Omega")
    f = facts(lts, lts.roots[0])
    assert not f.may_converge
    assert f.barbs == frozenset()


def test_barbs_render_inputs_before_outputs():
    lts = _graph("b.0 + 'a.0 + a.0")
    line = facts_line(lts, lts.roots[0])
    assert "barbs={a,b,'a}" in line


def test_facts_line_exact_shape():
    lts = _graph("a.0")
    assert facts_line(lts, lts.roots[0]) == (
        "stable=true converge=true ctxconv=true diverge=false "
        "reactive=true barbs={a}"
    )


def test_reactivity_sees_through_visible_actions():
    lts = _graph("a.Omega")
    f = facts(lts, lts.roots[0])
    assert f.stable and f.may_converge and not f.reactive_root


def test_a_dropped_analysed_graph_frees_its_terms():
    # Without the cyclic collector, only a graph that no cycle holds is
    # freed when its last reference goes, and its terms with it.
    gc.collect()
    gc.disable()
    try:
        before = len(_table)
        res = parse("C(x, y) = x.tau.'y.C(x, y);\nR = C(u, v) | C(v, u);\n")
        lts = build_lts([res.process("R")], res.defs)
        an = analysis(lts)
        an.sweep, an.weak_masks(inp("u"))
        refs = [weakref.ref(t) for t in lts.terms]
        del res, lts, an
        assert [r for r in refs if r() is not None] == []
        assert len(_table) == before
    finally:
        gc.enable()


def test_truncated_graph_refused():
    p, defs = parse_proc("Omega | a.b.c.d.0")
    lts = build_lts([p], defs, bound=3)
    with pytest.raises(BoundExceeded):
        analysis(lts)


@given(seeds)
@settings(max_examples=120, deadline=None)
def test_implications_between_the_predicates(seed):
    p, defs = random_term(random.Random(seed), GenConfig(depth=5, max_defs=3))
    lts = build_lts([p], defs, bound=1500)
    if lts.truncated:
        return
    a = analysis(lts)
    for s in range(len(lts)):
        if lts.stable[s]:
            assert a.may_converge[s]
        if a.may_converge[s]:
            assert a.ctx_converge[s]
        if not a.ctx_converge[s]:
            # a finite graph with no settled state in reach must loop
            assert a.may_diverge[s]
    root = lts.roots[0]
    if a.reactive[root]:
        assert not a.may_diverge[root]


def _assert_agrees_with_the_reference(lts):
    a = analysis(lts)
    orc = Oracle(lts)
    for s in range(len(lts)):
        assert lts.stable[s] == orc.stable[s]
        assert a.may_converge[s] == orc.conv[s]
        assert a.ctx_converge[s] == orc.ctx[s]
        assert a.may_diverge[s] == orc.div[s]
        assert a.barbs[s] == orc.barbs[s]
        assert a.reactive[s] == orc.reactive(s)
    n = len(lts)

    def states(mask):
        return {j for j in range(n) if mask >> j & 1}

    labels = {lab for out in lts.succ for lab, _ in out}
    for s in range(n):
        assert states(a.tau_closure[s]) == orc.tau_star[s]
        for lab in labels:
            assert states(a.weak_masks(lab)[s]) == orc.weak(s, lab)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_facts_agree_with_the_reference(seed):
    p, defs = random_term(random.Random(seed), GenConfig(depth=4, max_defs=3))
    lts = build_lts([p], defs, bound=800)
    if lts.truncated:
        return
    _assert_agrees_with_the_reference(lts)


def test_facts_agree_with_the_reference_on_the_pool():
    # Every term up to two operators over the kit's atoms, on one graph:
    # loops with and without exits, behind and beside prefixes, which
    # small random terms rarely combine.
    atoms, defs = enumeration_kit()
    lts = build_lts(small_terms(("a",), 2, atoms), defs)
    assert len(lts) == 808
    _assert_agrees_with_the_reference(lts)


def _hand_built(rng):
    """A graph of 3-9 states with random tau, a and 'a edges, tau
    self-loops and cycles among them, and one tick edge from each state
    without a tau edge, as the semantics has it."""
    n = rng.randint(3, 9)
    edges = []
    for i in range(n):
        mine = [
            (i, lab, j)
            for lab, p in ((TAU, 0.3), (inp("a"), 0.2), (out("a"), 0.2))
            for j in range(n)
            if rng.random() < p
        ]
        if all(lab is not TAU for _, lab, _ in mine):
            mine.append((i, TICK, rng.randrange(n)))
        edges += mine
    return hand_built(n, edges)


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_facts_agree_with_the_reference_on_hand_built_graphs(seed):
    # Random terms rarely close a tau cycle through several states, and
    # the weak masks are folded over exactly those components.
    _assert_agrees_with_the_reference(_hand_built(random.Random(seed)))


@pytest.mark.parametrize("k", [3, 4])
def test_facts_agree_with_the_reference_on_the_ring(k):
    res = parse(ring_program(k))
    _assert_agrees_with_the_reference(
        build_lts([res.process("R")], res.defs)
    )


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_generated_reactive_terms_are_reactive(seed):
    p, defs = random_reactive_term(
        random.Random(seed), GenConfig(depth=5, max_defs=0)
    )
    lts = build_lts([p], defs, bound=1500)
    if lts.truncated:
        return
    f = facts(lts, lts.roots[0])
    assert f.reactive_root
