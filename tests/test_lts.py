"""Transition graphs: hand-checked shapes, laws, bounds, exports."""

import random

import pytest
import tccs.lts
from hypothesis import given, settings, strategies as st

from oracles import canonical, halves, ring_program, whole_step
from tccs import (
    DefTable,
    build_lts,
    parse,
    parse_proc,
    pretty,
    step,
    substitute,
    verify_lts_laws,
)
from tccs.lts import Lts, commitments, to_dot, to_json
from tccs.terms import (
    NIL,
    TAU,
    TICK,
    Call,
    ElseNext,
    Label,
    Par,
    Prefix,
    Process,
    Restrict,
    Sum,
    canonicalize,
    inp,
    out,
)
from tccs.generate import GenConfig, random_pair, random_sl_program, random_term

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _graph(src: str, bound: int = 10000):
    p, defs = parse_proc(src)
    return build_lts([p], defs, bound=bound)


def _edge_set(lts):
    return {(i, str(lab), j) for i, lab, j in lts.edges()}


def test_single_prefix_graph():
    lts = _graph("a.0")
    assert len(lts) == 2
    root = lts.roots[0]
    zero = lts.state_of(parse_proc("0")[0])
    assert _edge_set(lts) == {
        (root, "a", zero),
        (root, "tick", root),
        (zero, "tick", zero),
    }
    assert lts.stable[root] and lts.stable[zero]
    assert lts.commit[root] == frozenset({inp("a")})
    assert lts.commit[zero] == frozenset()


def test_synchronization_produces_tau_and_blocks_tick():
    lts = _graph("a.0 | 'a.0")
    root = lts.roots[0]
    labs = {str(lab) for lab, _ in lts.succ[root]}
    assert "tau" in labs and "tick" not in labs
    assert not lts.stable[root]
    assert lts.commit[root] is None


def test_restriction_filters_communication():
    lts = _graph("new a. a.0")
    root = lts.roots[0]
    assert {(i, s, j) for i, s, j in _edge_set(lts) if i == root} == {
        (root, "tick", root)
    }


def test_diverging_call_unfolds_with_tau():
    lts = _graph("Omega")
    assert len(lts) == 2
    assert all(lab == TAU for _, lab, _ in lts.edges())
    assert not any(lts.stable[s] for s in range(len(lts)))


def test_else_next_runs_now_and_switches_on_tick():
    lts = _graph("{a.0} else b.0")
    root = lts.roots[0]
    out_edges = {(str(lab), pretty(lts.terms[j])) for lab, j in lts.succ[root]}
    assert out_edges == {("a", "0"), ("tick", "b.0")}


def test_tick_is_deterministic_everywhere():
    lts = _graph("({a.0} else b.0) | ({0} else c.0 + d.0)")
    for s in range(len(lts)):
        ticks = [j for lab, j in lts.succ[s] if lab == TICK]
        assert len(ticks) <= 1


def test_state_and_index_round_trip():
    lts = _graph("a.b.0 + b.a.0")
    for i in range(len(lts)):
        assert lts.state_of(lts.terms[i]) == i


def test_bound_truncates_and_flags():
    p, defs = parse_proc("Omega | a.b.c.0")
    lts = build_lts([p], defs, bound=3)
    assert lts.truncated
    assert len(lts) <= 3


def test_verify_laws_reports_injected_tick_violations():
    lts = _graph("a.0")
    root = lts.roots[0]
    # duplicate the tick edge to a different target: determinism breaks
    succ = list(lts.succ)
    zero = next(j for lab, j in succ[root] if lab == inp("a"))
    broken = Lts(
        lts.defs,
        lts.roots,
        lts.terms,
        lts.index,
        [
            tuple(edges) + ((TICK, 1 - root),) if i == root else tuple(edges)
            for i, edges in enumerate(succ)
        ],
        False,
    )
    assert any("tick" in line for line in verify_lts_laws(broken))
    # a tau self-loop at the root: the tick sits beside a tau, and the
    # rules' commitment sits on a state the edges make unstable
    looped = [
        out_ + ((TAU, root),) if i == root else out_
        for i, out_ in enumerate(succ)
    ]
    broken = Lts(lts.defs, lts.roots, lts.terms, lts.index, looped, False)
    assert verify_lts_laws(broken) == [
        "state %d (a.0): tick present=True but tau present=True" % root,
        "state %d (a.0): commitment {a} but stable=False" % root,
    ]
    # the root's tick retargeted to 0: an untimed term leaves itself
    retick = [
        tuple((lab, zero if lab is TICK else j) for lab, j in out_)
        if i == root
        else out_
        for i, out_ in enumerate(succ)
    ]
    broken = Lts(lts.defs, lts.roots, lts.terms, lts.index, retick, False)
    assert verify_lts_laws(broken) == [
        "state %d (a.0): ticks to %d instead of itself" % (root, zero)
    ]


def test_verify_laws_checks_the_edges_against_the_rules():
    # The graph's commitments are read off its edges, so only the
    # rule-based commitments of the term can catch an edge too many.
    lts = _graph("a.0")
    root = lts.roots[0]
    zero = next(j for lab, j in lts.succ[root] if lab == inp("a"))
    succ = [
        out_ + ((inp("b"), zero),) if i == root else out_
        for i, out_ in enumerate(lts.succ)
    ]
    broken = Lts(lts.defs, lts.roots, lts.terms, lts.index, succ, False)
    assert broken.stable[root] and inp("b") in broken.commit[root]
    assert verify_lts_laws(broken) == [
        "state %d (a.0): commits {a} but offers {a, b}" % root
    ]


def test_wide_nests_commit_and_keep_the_laws():
    # a sum or composition is one node, so neither the commitment rules
    # nor the laws walk a frame per operand
    wide_par = " | ".join(["a.0"] * 1500)
    wide_sum = " + ".join(["a.0"] * 3000)
    par, defs = parse_proc(wide_par)
    assert commitments(par, defs) == {inp("a")}
    assert commitments(parse_proc(wide_par + " | 'a.0")[0], defs) is None
    # the bare composition's graph has 1501 states; restricted, it has one
    for src, want in ((wide_sum, {inp("a")}), ("new a. (%s)" % wide_par, set())):
        p, defs = parse_proc(src)
        assert commitments(p, defs) == want
        lts = build_lts([p], defs)
        assert not lts.truncated and verify_lts_laws(lts) == []


def _unfolds_as_the_reference(ident, args, defs):
    d = defs.lookup(ident)
    want = canonical(substitute(d.body, dict(zip(d.params, args))))
    assert step(Call(ident, args), defs) == [(TAU, want)]


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_call_unfolding_agrees_with_substitution(seed):
    rng = random.Random(seed)
    _, defs = random_term(rng, GenConfig(depth=5, max_defs=3))
    names = ["a", "b", "c", "d", "#1", "#2"]
    for ident, d in sorted(defs.entries.items()):
        args = tuple(rng.choice(names) for _ in d.params)
        _unfolds_as_the_reference(ident, args, defs)


def test_call_unfolding_hand_cases():
    res = parse(
        "D(a) = new b. (a.b.0 | 'b.0);\n"
        "T(x) = tau.x.0;\n"
        "E(x, y) = x.0 | 'y.0;\n"
    )
    defs = res.defs
    # a binder named like the argument
    _unfolds_as_the_reference("D", ("b",), defs)
    assert pretty(step(Call("D", ("b",)), defs)[0][1]) == "new #1. ('#1.0 | b.#1.0)"
    # a machine-name argument meets the body's own tau binder
    _unfolds_as_the_reference("T", ("#1",), defs)
    p = canonicalize(Restrict("a", Call("T", ("a",))))
    assert pretty(p) == "new #1. T(#1)"
    body = defs.lookup("T").body
    want = canonical(Restrict("a", substitute(body, {"x": "a"})))
    assert step(p, defs) == [(TAU, want)]
    # a non-injective call: the unfolding and the synchronization it
    # makes possible
    _unfolds_as_the_reference("E", ("a", "a"), defs)
    lts = build_lts([Call("E", ("a", "a"))], defs)
    assert verify_lts_laws(lts) == []
    assert sum(lab == TAU for _, lab, _ in lts.edges()) == 2


@given(seeds)
@settings(max_examples=120, deadline=None)
def test_laws_hold_on_random_terms(seed):
    p, defs = random_term(random.Random(seed), GenConfig(depth=5, max_defs=3))
    lts = build_lts([p], defs, bound=2000)
    if lts.truncated:
        return
    assert verify_lts_laws(lts) == []


def _assert_step_agrees_with_edges(lts):
    # `step` without a memo against the edges `build_lts` stored with one
    for s in range(len(lts)):
        direct = {
            (lab, canonicalize(t)) for lab, t in step(lts.terms[s], lts.defs)
        }
        stored = {(lab, lts.terms[j]) for lab, j in lts.succ[s]}
        assert direct == stored


@given(seeds)
@settings(max_examples=120, deadline=None)
def test_step_agrees_with_graph_edges(seed):
    rng = random.Random(seed)
    p, defs = random_term(rng, GenConfig(depth=4, max_defs=2))
    q, r, pair_defs = random_pair(rng, GenConfig(depth=3, max_defs=2))
    for lts in (
        build_lts([p], defs, bound=2000),
        build_lts([q, r], pair_defs, bound=2000),
    ):
        if not lts.truncated:
            _assert_step_agrees_with_edges(lts)


def test_a_memoized_component_gets_no_tick_of_its_own():
    # The stable sum S is expanded first and ticks; it is also a
    # component of the second root, which synchronizes and so must not
    # tick.  Were the tick stored into the moves of S, it would.
    s, defs = parse_proc("a.0 + b.0")
    r, _ = parse_proc("(a.0 + b.0) | 'a.0")
    lts = build_lts([s, r], defs)
    assert (TICK, lts.roots[0]) in lts.succ[lts.roots[0]]
    assert all(lab is not TICK for lab, _ in lts.succ[lts.roots[1]])
    _assert_step_agrees_with_edges(lts)
    assert verify_lts_laws(lts) == []


def test_build_lts_calls_the_module_step_once_per_state(monkeypatch):
    res = parse("C(x, y) = x.tau.'y.C(x, y);\nR = C(u, v) | C(v, u);\n")
    p = res.process("R")
    plain = build_lts([p], res.defs)
    calls = []
    real = tccs.lts.step

    def counted(q, *args):
        calls.append(q)
        return real(q, *args)

    monkeypatch.setattr(tccs.lts, "step", counted)
    lts = build_lts([p], res.defs)
    assert calls == lts.terms == plain.terms
    assert lts.succ == plain.succ and lts.roots == plain.roots


def _assert_component_path_matches(roots, defs, bound):
    lts = build_lts(roots, defs, bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tccs.lts, "step", lambda q, defs, memo: whole_step(q, defs))
        ref = build_lts(roots, defs, bound)
    assert lts.terms == ref.terms and lts.succ == ref.succ
    assert lts.roots == ref.roots and lts.truncated == ref.truncated
    assert all(canonicalize(t) is t for t in lts.terms)
    return lts


def test_compositions_step_by_component_as_whole_terms_do():
    # graphs, edge order and canonical states equal those of the
    # binary-rule reference, which steps every state as a whole term
    for k in (3, 4):
        res = parse(ring_program(k))
        p, defs = res.process("R"), res.defs
        assert len(_assert_component_path_matches([p], defs, 10000)) == 2 * 4**k
    # equal components move alike and synchronize with each other
    for src in (
        "a.0 | a.0 | 'a.0 | 'a.0",
        "b.0 | a.b.0 | a.b.0 | 'a.0 | 'b.0",
        "(a.0 + 'a.0) | (a.0 + 'a.0) | c.0",
        # compositions nested under another node
        "new a. (a.0 | 'a.0 | a.0) | b.0",
        "c.0 + (a.0 | 'a.0)",
        "{a.0 | 'a.0} else b.0",
    ):
        p, defs = parse_proc(src)
        _assert_component_path_matches([p], defs, 10000)
    # terms built by constructors, over names no other term uses
    def act(pol, a, k=NIL):
        return Prefix(pol, a, k)

    shapes = (
        lambda x, y, z: Par(
            act("in", x), act("out", x, act("in", y)), act("out", y), act("in", x)
        ),
        lambda x, y, z: Par(
            act("out", z, act("in", x)),
            Restrict(x, Par(act("out", x, act("out", y)), act("in", x), act("in", x))),
            act("in", z, act("in", y)),
            act("in", z),
        ),
        lambda x, y, z: Sum(
            act("in", z), Par(act("out", y), act("in", y, act("out", x)), act("in", x))
        ),
        lambda x, y, z: ElseNext(
            Par(act("in", x, act("in", z)), act("out", x), act("out", z)), act("in", y)
        ),
    )
    for k, shape in enumerate(shapes):
        p = shape(*("unprinted_%s%d" % (a, k) for a in "xyz"))
        _assert_component_path_matches([p], DefTable(), 10000)
    # the `pairs` benchmark population: 400 untruncated pairs
    configs = (
        GenConfig(depth=4, max_defs=2, allow_else=False),
        GenConfig(depth=4, max_defs=2),
    )
    rng = random.Random(1)
    kept = 0
    while kept < 400:
        p, q, defs = random_pair(rng, configs[kept % 2])
        kept += not _assert_component_path_matches([p, q], defs, 200).truncated
    # seeded pairs under bounds small enough that some graphs truncate
    truncated = 0
    for seed in range(2000):
        p, q, defs = random_pair(random.Random(seed), GenConfig(depth=4, max_defs=2))
        lts = _assert_component_path_matches([p, q], defs, 10 + seed % 40)
        truncated += lts.truncated
    assert 0 < truncated < 2000


def _subterms(p):
    seen = {p}
    stack = [p]
    while stack:
        q = stack.pop()
        yield q
        # a nest splits as the binary tree leaning left it stands for
        if isinstance(q, (Sum, Par)):
            subs = halves(q)
        else:
            subs = [getattr(q, f) for f in q.__match_args__]
        for sub in subs:
            if isinstance(sub, Process) and sub not in seen:
                seen.add(sub)
                stack.append(sub)


def test_step_on_any_term_agrees_with_stepping_it_whole():
    # `step` canonicalizes first, so also a subterm that is not in
    # canonical form, such as an unsorted composition, an alpha-variant
    # or a composition under a sum, steps as the binary-rule reference
    count = 0
    for seed in range(300):
        for draw in (random_term, random_sl_program):
            p, defs = draw(random.Random(seed), GenConfig(depth=4, max_defs=2))
            for q in _subterms(p):
                assert step(q, defs) == whole_step(q, defs)
                count += canonicalize(q) is not q
    assert count > 500


def test_verify_laws_reports_a_state_not_in_canonical_form():
    lts = _graph("a.0 | b.0")
    root = lts.roots[0]
    swapped = parse_proc("b.0 | a.0")[0]
    assert canonicalize(swapped) is lts.terms[root] is not swapped
    terms = [swapped if i == root else t for i, t in enumerate(lts.terms)]
    broken = Lts(lts.defs, lts.roots, terms, lts.index, lts.succ, False)
    assert verify_lts_laws(broken) == [
        "state %d (b.0 | a.0): not in canonical form" % root
    ]


def test_json_export_shape():
    lts = _graph("a.0")
    doc = to_json(lts)
    assert set(doc) == {"states", "edges", "roots", "truncated"}
    assert doc["roots"] == [lts.roots[0]]
    assert {"id", "term", "stable", "commit"} <= set(doc["states"][0])
    assert all(
        len(e) == 3 and isinstance(e[1], str) for e in doc["edges"]
    )
    assert [0, "a", 1] in doc["edges"]


def test_dot_export_mentions_every_state():
    lts = _graph("a.b.0")
    text = to_dot(lts)
    assert text.startswith("digraph")
    for i in range(len(lts)):
        assert "%d [label=" % i in text
