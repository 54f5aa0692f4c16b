"""Predicates over graphs: implications among them, oracle agreement."""

import gc
import random
import tracemalloc
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
from tccs.analyses import _sccs
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
        q = an.quotient(lts)[0]
        analysis(q).sweep
        refs = [weakref.ref(t) for t in lts.terms]
        del res, lts, an, q
        assert [r for r in refs if r() is not None] == []
        assert len(_table) == before
    finally:
        gc.enable()


def test_sccs_are_the_mutual_reachability_classes_in_emission_order():
    # against a naive partition, on graphs with self-loops and repeated
    # edges: every component is emitted after each component it reaches
    loops = repeats = 0
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        succ = [
            [rng.randrange(n) for _ in range(rng.randint(0, 4))] for _ in range(n)
        ]
        loops += sum(v in out for v, out in enumerate(succ))
        repeats += sum(len(set(out)) < len(out) for out in succ)
        reach = []
        for v in range(n):
            seen, stack = {v}, [v]
            while stack:
                for w in succ[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach.append(seen)
        comp, comps = _sccs(succ)
        assert sorted(v for members in comps for v in members) == list(range(n))
        assert {frozenset(members) for members in comps} == {
            frozenset(w for w in reach[v] if v in reach[w]) for v in range(n)
        }
        assert all(comp[v] == c for c, members in enumerate(comps) for v in members)
        assert all(comp[w] <= comp[v] for v in range(n) for w in reach[v])
    assert loops and repeats


def test_the_deferred_sweep_is_the_all_edge_emission_order_and_predecessors():
    # on random labelled graphs with self-loops and repeated edges:
    # derived on first read only, then kept; so are the weak tables,
    # tau's among them, which any other label's fold reads first
    labels = (TAU, TICK, inp("a"), out("a"))
    loops = repeats = 0
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        edges = [
            (v, rng.choice(labels), rng.randrange(n))
            for v in range(n)
            for _ in range(rng.randint(0, 4))
        ]
        succ = [[j for i, _, j in edges if i == v] for v in range(n)]
        loops += sum(v in out for v, out in enumerate(succ))
        repeats += sum(len(set(out)) < len(out) for out in succ)
        lts = hand_built(n, edges)
        an = analysis(lts)
        assert an._sweep is None and an._weak == {}
        order, pred = an.sweep
        assert an.sweep is an._sweep
        assert order == [v for members in _sccs(succ)[1] for v in members]
        assert [{v for v in range(n) if m >> v & 1} for m in pred] == [
            {i for i, _, j in edges if j == w} for w in range(n)
        ]
        lab = rng.choice(labels[1:])
        an.weak_masks(lab)
        assert list(an._weak) == [TAU, lab]
        tau = an.weak_masks(TAU)
        assert an.weak_masks(TAU) is tau is an._weak[TAU]
        assert [{v for v in range(n) if m >> v & 1} for m in tau] == (
            Oracle(lts).tau_star
        )
    assert loops and repeats


def test_the_quotient_has_a_node_per_tau_component_and_its_edges_once():
    # {0, 1} is a tau cycle, 2 one through its self-loop, 3, 4 and 5 no
    # tau cycle; a visible edge inside a component stays, as a self-loop
    a, b = inp("a"), inp("b")
    lts = hand_built(6, [
        (0, TAU, 1), (0, a, 2), (1, TAU, 0), (1, TAU, 0), (1, a, 2),
        (1, a, 0), (2, TAU, 2), (2, TAU, 3), (3, TICK, 3), (4, TAU, 3),
        (4, b, 5), (5, TICK, 4),
    ])
    an = analysis(lts)
    assert an._quotient is None
    q, c = an.quotient(lts)
    assert an.quotient(lts)[0] is q and c is an._tau[1]
    assert c[0] == c[1] and len(set(c)) == len(q) == 5
    assert q.succ[c[0]] == ((TAU, c[0]), (a, c[2]), (a, c[0]))
    assert q.succ[c[2]] == ((TAU, c[2]), (TAU, c[3]))
    assert q.succ[c[3]] == ((TICK, c[3]),)
    assert q.succ[c[4]] == ((TAU, c[3]), (b, c[5]))
    assert q.succ[c[5]] == ((TICK, c[4]),)
    assert [q.terms[c[v]] for v in (0, 2, 3, 4, 5)] == [
        lts.terms[v] for v in (0, 2, 3, 4, 5)
    ]
    assert q.roots == (c[0],) and not q.truncated
    assert all(q.index[t] == k for k, t in enumerate(q.terms))


def test_the_quotient_has_its_members_facts():
    # Every table is constant on a tau component, so a quotient node
    # must read what its members read.
    for seed in range(1000):
        lts = _hand_built(random.Random(seed))
        an = analysis(lts)
        q, comp = an.quotient(lts)
        aq = analysis(q)
        for v, c in enumerate(comp):
            assert aq.facts(c) == an.facts(v)


def test_analysis_memory_grows_with_the_components_not_with_n_squared():
    # ring of 6: 8192 states in 266 tau components.  A tau table holds
    # one value per component, shared by its members; a seed per state,
    # n ints of up to n bits, would peak near 8 MB.  No weak table, the
    # tau closure included, is built before its first read.
    res = parse(ring_program(6))
    lts = build_lts([res.process("R")], res.defs)
    assert len(lts) == 8192 and not lts.truncated
    tracemalloc.start()
    try:
        analysis(lts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


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
        assert states(a.weak_masks(TAU)[s]) == orc.tau_star[s]
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


def test_facts_agree_with_the_reference_past_a_tick_edge():
    # A tail that only a tick edge enters: some states of a random graph
    # get an edge into a stable state t whose one edge ticks into u,
    # which diverges on a tau self-loop or settles by ticking to itself.
    # The backward searches must cross the tick edge.
    cut = settled = 0
    for seed in range(400):
        rng = random.Random(seed)
        base = _hand_built(rng)
        n = len(base)
        t, u = n, n + 1
        edges = [(i, lab, j) for i, out in enumerate(base.succ) for lab, j in out]
        # a tau edge only from a state that has one, so that every tick
        # edge still leaves a stable state
        edges += [
            (i, rng.choice((inp("a"), out("a")) + (() if base.stable[i] else (TAU,))), t)
            for i in range(n)
            if rng.random() < 0.3
        ]
        edges.append((t, TICK, u))
        diverges = rng.random() < 0.5
        edges.append((u, TAU, u) if diverges else (u, TICK, u))
        lts = hand_built(n + 2, edges)
        _assert_agrees_with_the_reference(lts)
        a = analysis(lts)
        if diverges:
            assert not a.reactive[t] and not a.may_diverge[t]
            # states that lose reactivity through the tick edge alone
            orc = Oracle(base)
            cut += sum(not a.reactive[v] and orc.reactive(v) for v in range(n))
        else:
            assert a.reactive[u] and a.ctx_converge[u]
            settled += 1
    assert cut and settled


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
