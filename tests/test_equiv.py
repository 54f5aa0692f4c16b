"""The four games: goldens, certificates, oracle agreement, falsifier."""

import functools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import tccs.equiv
from oracles import CONV_CCS, Oracle, hand_built, ring_program
from tccs import (
    BoundExceeded,
    analysis,
    build_lts,
    check,
    check_ccs_equivalently,
    check_states,
    explain,
    falsify_with_context,
    largest_bisimulation,
    parse,
    parse_proc,
    weak,
)
from tccs.equiv import (
    CONV, CONV_DIV, MODES, USUAL, USUAL_UNTIMED, _classes, _cone, _eliminate
)
from tccs.generate import GenConfig, random_pair, related_pair
from tccs.terms import TAU, TICK, Label, canonicalize, inp

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _pair(src_p: str, src_q: str):
    p, defs = parse_proc(src_p)
    q, defs = parse_proc(src_q, defs=defs)
    return p, q, defs


def _related(src_p, src_q, mode):
    p, q, defs = _pair(src_p, src_q)
    return check(p, q, mode, defs).related


# ---------------------------------------------------------------------------
# golden pairs


def test_absorption_of_a_diverging_peer():
    assert _related("a.0 | Omega", "Omega", CONV)
    assert not _related("a.0 | Omega", "Omega", USUAL)


def test_inert_versus_diverging():
    assert not _related("0", "Omega", CONV)
    assert not _related("0", "Omega", USUAL)
    assert _related("0", "Omega", USUAL_UNTIMED)


def test_inert_versus_one_internal_step():
    assert _related("0", "tau.0", CONV)
    assert not _related("{0} else b.0", "{tau.0} else b.0", CONV)


def test_divergence_sensitivity_splits_the_settling_loop():
    res = parse("D() = tau.D() + tau.0;\nP = D();\nZ = 0;\n")
    p, z = res.process("P"), res.process("Z")
    assert check(z, p, CONV, res.defs).related
    assert not check(z, p, CONV_DIV, res.defs).related


def test_branching_is_not_absorbed_under_composition():
    left = "(a.(b.0 + c.0)) | 'a.(d.0 + Omega)"
    right = "(a.b.0 + a.c.0) | 'a.(d.0 + Omega)"
    assert not _related(left, right, CONV)


# ---------------------------------------------------------------------------
# weak transitions


def test_weak_closures_on_one_internal_step():
    p, defs = parse_proc("tau.0")
    lts = build_lts([p], defs)
    root = lts.roots[0]
    zero = lts.state_of(parse_proc("0")[0])
    assert weak(lts, TAU) >= {(root, root), (root, zero), (zero, zero)}
    assert (root, zero) in weak(lts, TICK)
    q, qdefs = parse_proc("tau.a.0")
    lts2 = build_lts([q], qdefs)
    assert (
        lts2.roots[0],
        lts2.state_of(parse_proc("0")[0]),
    ) in weak(lts2, inp("a"))


def test_weak_refuses_truncated_graphs():
    p, defs = parse_proc("Omega | a.b.c.0")
    lts = build_lts([p], defs, bound=3)
    with pytest.raises(BoundExceeded):
        weak(lts, TAU)


# ---------------------------------------------------------------------------
# certificates


def _respond(orc, t, clause, lab, dst):
    """The reference's weak responses of t to a challenge -lab-> dst."""
    if clause in ("red-tau",) or (clause == "usual-mu" and lab == TAU):
        resp = orc.tau_star[t]
    elif lab == TICK:
        resp = orc.weak(t, lab)
    elif clause == "lab":
        resp = set(orc.weak(t, lab))
        if not orc.ctx[dst]:
            resp = resp | orc.tau_star[t]
    else:
        resp = orc.weak(t, lab)
    return resp


def _replay(verdict, lts, mode):
    """Walk the certificate and re-check every removal."""
    orc = Oracle(lts)
    n = len(lts)
    rel = {(s, t) for s in range(n) for t in range(n)}
    respond = functools.partial(_respond, orc)

    for entry in verdict.certificate:
        s, t = entry.pair
        assert (s, t) in rel, "entry for a pair already gone"
        if entry.challenge is None:
            assert entry.round == 0
            if entry.clause == "diverge":
                assert orc.div[s] != orc.div[t]
            else:
                assert entry.clause == "converge"
                assert orc.conv[s] != orc.conv[t]
        else:
            src, lab, dst = entry.challenge
            assert src == s
            assert (lab, dst) in [(l, j) for l, j in lts.succ[s]]
            if entry.clause == "lab":
                assert orc.ctx[s]
            resp = respond(t, entry.clause, lab, dst)
            assert not any((dst, u) in rel for u in resp), (
                "recorded challenge still has a response"
            )
            assert 1 <= entry.round <= verdict.rounds
        rel.discard((s, t))
        rel.discard((t, s))
    return rel


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_certificate_replays_for_every_mode(seed):
    rng = random.Random(seed)
    p, q, defs = random_pair(rng, GenConfig(depth=3, max_defs=2))
    u, w, udefs = random_pair(
        rng, GenConfig(depth=3, max_defs=2, allow_else=False)
    )
    deciders = [
        lambda mode=mode: check(p, q, mode, defs, bound=400)
        for mode in (USUAL, CONV, CONV_DIV)
    ] + [
        lambda: check(u, w, USUAL_UNTIMED, udefs, bound=400),
        lambda: check_ccs_equivalently(u, w, udefs, bound=400),
    ]
    for decide in deciders:
        try:
            verdict = decide()
        except BoundExceeded:
            continue
        survivors = _replay(verdict, verdict.lts, verdict.mode)
        roots = tuple(verdict.roots)
        assert verdict.related == (roots in survivors)
        if not verdict.related:
            assert any(
                set(e.pair) == set(roots) for e in verdict.certificate
            )
            assert _reached_from_the_root(verdict) == len(verdict.certificate)
        else:
            assert verdict.certificate == []


def _reached_from_the_root(verdict):
    """How many entries the root entry reaches through failing responses,
    taking the responses from the reference."""
    orc = Oracle(verdict.lts)
    cert = verdict.certificate
    where = {frozenset(e.pair): i for i, e in enumerate(cert)}
    todo = [where[frozenset(verdict.roots)]]
    seen = set(todo)
    while todo:
        e = cert[todo.pop()]
        if e.challenge is None:
            continue
        _, lab, dst = e.challenge
        for u in _respond(orc, e.pair[1], e.clause, lab, dst):
            i = where[frozenset((dst, u))]
            if i not in seen:
                seen.add(i)
                todo.append(i)
    return len(seen)


def test_identity_pairs_always_survive():
    p, q, defs = _pair("a.Omega + b.0", "{tau.0} else c.0")
    lts = build_lts([p, q], defs)
    for mode in MODES:
        rel = largest_bisimulation(lts, mode)
        for i in range(len(lts)):
            assert (i, i) in rel


def test_check_states_matches_check():
    p, q, defs = _pair("a.0 + b.0", "a.0")
    lts = build_lts([p, q], defs)
    v1 = check_states(lts, lts.roots[0], lts.roots[1], CONV)
    v2 = check(p, q, CONV, defs)
    assert v1.related == v2.related == False
    assert v1.certificate == v2.certificate


# ---------------------------------------------------------------------------
# the elimination rounds


def test_chain_rounds_do_not_grow_with_its_length():
    # Successor-first rows meet every pair after the pairs it leads to,
    # so one sweep settles a chain and a second finds nothing; a sweep
    # in state order needed one per prefix.
    n = 120
    res = parse("P = %s;\nQ = tau.%s;\nR = %s;\n" % (
        "a." * n + "0", "a." * n + "0", "a." * (n - 1) + "0"
    ))
    p = res.process("P")
    for mode in (CONV, USUAL):
        v = check(p, res.process("Q"), mode, res.defs)
        assert v.related
        assert v.rounds <= 3
        v = check(p, res.process("R"), mode, res.defs)
        assert not v.related
        assert v.roots not in _replay(v, v.lts, mode)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_relations_are_equivalences(seed):
    rng = random.Random(seed)
    timed = random_pair(rng, GenConfig(depth=3, max_defs=2))
    untimed = random_pair(
        rng, GenConfig(depth=3, max_defs=2, allow_else=False)
    )
    for (p, q, defs), modes in (
        (timed, (USUAL, CONV, CONV_DIV)),
        (untimed, MODES + (CONV_CCS,)),
    ):
        lts = build_lts([p, q], defs, bound=150)
        if lts.truncated:
            continue
        for mode in modes:
            pairs = largest_bisimulation(lts, mode).pairs
            rows = {}
            for i, j in pairs:
                rows.setdefault(i, set()).add(j)
            assert all((i, i) in pairs for i in range(len(lts)))
            for i, j in pairs:
                assert (j, i) in pairs
                assert rows[j] <= rows[i]


def test_a_self_loop_rechecks_its_own_row():
    # Rows go 0, 4, 2, 3, 5, 1.  Round 1 removes (2, 5); round 2 visits
    # (2, 1) before it removes (2, 3).  Then only the self-loop
    # 2 -a-> 2 reads the changed row 2 on behalf of (2, 1), whose
    # answers 1 =a=> 5 and 1 =a=> 3 are both gone: state 2 must count
    # among its own predecessors, or (2, 1) survives.  The check stops
    # in round 3, where the root falls.
    a, b = inp("a"), inp("b")
    lts = hand_built(6, [
        (1, a, 5), (2, a, 2), (2, a, 5), (3, a, 2), (5, b, 4), (5, TAU, 3),
    ])
    assert set(largest_bisimulation(lts, USUAL).pairs) == Oracle(lts).gfp(USUAL)
    v = check_states(lts, 2, 1, USUAL)
    assert not v.related
    assert v.rounds == 3
    assert (2, 1) not in _replay(v, lts, USUAL)


# ---------------------------------------------------------------------------
# deciding one pair


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_check_states_agrees_with_the_full_relation(seed):
    # the roots and a few other pairs, each decided on its own closure
    rng = random.Random(seed)
    timed = random_pair(rng, GenConfig(depth=3, max_defs=2))
    untimed = random_pair(
        rng, GenConfig(depth=3, max_defs=2, allow_else=False)
    )
    for (p, q, defs), modes in (
        (timed, (USUAL, CONV, CONV_DIV)),
        (untimed, MODES + (CONV_CCS,)),
    ):
        lts = build_lts([p, q], defs, bound=120)
        if lts.truncated:
            continue
        orc = Oracle(lts)
        an = analysis(lts)
        n = len(lts)
        pairs = [lts.roots]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
        for mode in modes:
            gfp = orc.gfp(mode)
            full = largest_bisimulation(lts, mode)
            _, log, _, table = _eliminate(lts, an, mode)
            start = {
                s: {t for t in range(n) if orc.admissible(mode, s, t)}
                for s in range(n)
            }
            for s, t in pairs:
                v = check_states(lts, s, t, mode)
                assert v.related == ((s, t) in full) == ((s, t) in gfp)
                if v.related:
                    assert v.certificate == []
                    continue
                assert (s, t) not in _replay(v, lts, mode)
                assert _reached_from_the_root(v) == len(v.certificate)
                first = orc.respects(mode, s, t, start) and orc.respects(
                    mode, t, s, start
                )
                if first and v.certificate[-1].round == 1:
                    # The root survived its first visit and fell in the
                    # first sweep, which meets the closure's pairs in
                    # the full sweep's order, each against the same
                    # rows: the same removals, so the same cone.  A
                    # later round can visit a pair later than the full
                    # loop does, whose other removals make more pairs
                    # hot.
                    assert v.certificate == _cone(log, table, (s, t), an, mode)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_a_ring_root_falls_on_its_first_visit(k):
    # State 0 offers the token 'a and state 1 is the ring without it,
    # which can never output a: the root falls against the full
    # relation before any other pair is visited.
    res = parse(ring_program(k))
    lts = build_lts([res.process("R")], res.defs)
    assert len(lts) == 2 * 4**k
    for mode in (USUAL, CONV):
        v = check_states(lts, 0, 1, mode)
        assert not v.related
        assert v.rounds == 1
        assert len(v.certificate) == 1
        assert v.certificate[0].challenge == (0, Label("out", "a"), 1)


# ---------------------------------------------------------------------------
# agreement with the reference and among the modes


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_relations_agree_with_the_reference(seed):
    rng = random.Random(seed)
    p, q, defs = random_pair(rng, GenConfig(depth=3, max_defs=2))
    lts = build_lts([p, q], defs, bound=120)
    if lts.truncated:
        return
    orc = Oracle(lts)
    n = len(lts)
    for mode in (USUAL, CONV, CONV_DIV):
        rel = largest_bisimulation(lts, mode)
        assert "pairs" not in vars(rel)
        assert set(rel.pairs) == orc.gfp(mode)
        for s in range(n):
            for t in range(n):
                assert ((s, t) in rel) == ((s, t) in rel.pairs)
        assert (n, 0) not in rel and (-1, 0) not in rel


def test_classes_refuse_rows_that_are_not_an_equivalence():
    # symmetric and reflexive, but 0 ~ 1 ~ 2 without 0 ~ 2
    with pytest.raises(AssertionError):
        _classes([0b011, 0b111, 0b110])
    assert _classes([0b101, 0b010, 0b101]) == [0, 1, 0]


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_mode_inclusions_on_random_graphs(seed):
    rng = random.Random(seed)
    p, q, defs = random_pair(rng, GenConfig(depth=3, max_defs=2))
    lts = build_lts([p, q], defs, bound=150)
    if lts.truncated:
        return
    usual = largest_bisimulation(lts, USUAL).pairs
    conv = largest_bisimulation(lts, CONV).pairs
    conv_div = largest_bisimulation(lts, CONV_DIV).pairs
    assert usual <= conv
    assert conv_div <= conv


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_untimed_decision_agrees_on_ccs(seed):
    rng = random.Random(seed)
    p, q, defs = random_pair(
        rng, GenConfig(depth=3, max_defs=2, allow_else=False)
    )
    try:
        va = check_ccs_equivalently(p, q, defs, bound=300)
        vc = check(p, q, CONV, defs, bound=300)
    except BoundExceeded:
        return
    assert va.related == vc.related
    assert va.mode == "conv-ccs"


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_related_pairs_are_related_in_every_mode(seed):
    rng = random.Random(seed)
    p, q, defs = related_pair(rng, GenConfig(depth=3, max_defs=2))
    for mode in (USUAL, CONV, CONV_DIV):
        try:
            assert check(p, q, mode, defs, bound=600).related
        except BoundExceeded:
            return


# ---------------------------------------------------------------------------
# falsifier


def test_empty_context_separates_inert_from_diverging():
    p, q, defs = _pair("0", "Omega")
    found = falsify_with_context(p, q, defs, depth=0)
    assert found is not None
    _, why = found
    assert "may-converge" in why


def test_a_tester_separates_external_from_internal_choice():
    p, q, defs = _pair("a.(b.0 + c.0)", "a.b.0 + a.c.0")
    found = falsify_with_context(p, q, defs, depth=1)
    assert found is not None
    _, why = found
    assert "disagree" in why
    assert not check(p, q, CONV, defs).related


def test_no_context_claimed_for_a_related_pair():
    p, q, defs = _pair("a.0 | Omega", "Omega")
    assert falsify_with_context(p, q, defs, depth=1) is None


def test_oversized_plugs_are_skipped_not_fatal():
    p, q, defs = _pair("a.b.c.d.0", "a.b.c.0")
    skipped = []
    found = falsify_with_context(p, q, defs, depth=1, bound=6, skipped=skipped)
    assert skipped, "a tiny bound must force skips"


def _count_builds(monkeypatch) -> dict:
    """Wrap the falsifier's graph builder; the result maps each root
    pair built to the truncation flags of its builds."""
    builds: dict[tuple, list[bool]] = {}
    real = tccs.equiv.build_lts

    def counted(roots, *args, **kwargs):
        lts = real(roots, *args, **kwargs)
        key = tuple(canonicalize(r) for r in roots)
        builds.setdefault(key, []).append(lts.truncated)
        return lts

    monkeypatch.setattr(tccs.equiv, "build_lts", counted)
    return builds


def test_falsifier_builds_each_plugged_pair_once(monkeypatch):
    p, q, defs = _pair("a.0 | Omega", "Omega")
    builds = _count_builds(monkeypatch)
    assert falsify_with_context(p, q, defs, depth=2) is None
    assert all(len(flags) == 1 for flags in builds.values())
    # one free name: six testers and one restriction per layer, so
    # 1 + 7 + 49 contexts, of which [] | t | u and [] | u | t plug alike
    assert len(builds) < 1 + 7 + 49


def test_a_repeated_oversized_plug_is_skipped_again(monkeypatch):
    p, q, defs = _pair("a.b.0", "a.0")
    builds = _count_builds(monkeypatch)
    skipped = []
    found = falsify_with_context(p, q, defs, depth=2, bound=2, skipped=skipped)
    assert found is None
    assert all(len(flags) == 1 for flags in builds.values())
    truncated = sum(flags[0] for flags in builds.values())
    # each context is reported once, a repeated one too
    assert len(set(skipped)) == len(skipped) > truncated


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_falsifier_never_contradicts_the_checker(seed):
    rng = random.Random(seed)
    p, q, defs = random_pair(rng, GenConfig(depth=3, max_defs=1))
    try:
        found = falsify_with_context(p, q, defs, depth=1, bound=400)
    except BoundExceeded:
        return
    if found is not None:
        assert not check(p, q, CONV, defs, bound=2000).related


# ---------------------------------------------------------------------------
# explanations and error paths


def test_explain_tick_challenge():
    p, q, defs = _pair("0", "Omega")
    text = explain(check(p, q, CONV, defs))
    assert "not related (conv)" in text
    assert "[red-tick]" in text
    assert "no weak tick response exists" in text


def test_explain_divergence_filter():
    res = parse("D() = tau.D() + tau.0;\nP = D();\nZ = 0;\n")
    verdict = check(res.process("Z"), res.process("P"), CONV_DIV, res.defs)
    text = explain(verdict)
    assert "[diverge]" in text and "may_diverge" in text


def _entries(verdict):
    return [
        (e.pair, e.clause,
         None if e.challenge is None
         else (e.challenge[0], str(e.challenge[1]), e.challenge[2]),
         e.round)
        for e in verdict.certificate
    ]


def test_filtered_pairs_below_the_root_open_the_certificate():
    # The filter cuts a pair the root's challenge leads to, not the
    # root itself; its entries come first, rows first, columns ascending.
    res = parse("D() = tau.D() + tau.0;\nP = a.0;\nQ = a.D();\n")
    v = check(res.process("P"), res.process("Q"), CONV_DIV, res.defs)
    assert _entries(v) == [
        ((2, 3), "diverge", None, 0), ((1, 0), "lab", (1, "a", 3), 1)
    ]
    assert v.roots not in _replay(v, v.lts, v.mode)

    res = parse("P = a.0;\nR = a.Omega;\n")
    v = check_ccs_equivalently(res.process("P"), res.process("R"), res.defs)
    assert _entries(v) == [
        ((2, 3), "converge", None, 0),
        ((2, 4), "converge", None, 0),
        ((0, 1), "lab", (0, "a", 2), 1),
    ]
    assert v.roots not in _replay(v, v.lts, v.mode)


def test_a_filtered_pair_stays_out_of_the_roots_closure():
    # The root survives its first visit and its closure reaches the
    # filtered pair of 0 and a diverging (or stuck) state, which the
    # game alone would relate; the closure must leave it out.
    res = parse("D() = tau.D() + tau.0;\nP = a.b.0;\nQ = a.b.D();\n")
    p, q = res.process("P"), res.process("Q")
    assert check(p, q, CONV, res.defs).related
    v = check(p, q, CONV_DIV, res.defs)
    assert _entries(v) == [
        ((4, 5), "diverge", None, 0),
        ((3, 2), "lab", (3, "b", 5), 1),
        ((0, 1), "lab", (0, "a", 2), 1),
    ]
    assert v.roots not in _replay(v, v.lts, v.mode)

    res = parse("P = a.b.0;\nR = a.b.Omega;\n")
    v = check_ccs_equivalently(res.process("P"), res.process("R"), res.defs)
    assert _entries(v) == [
        ((4, 5), "converge", None, 0),
        ((4, 6), "converge", None, 0),
        ((2, 3), "lab", (2, "b", 4), 1),
        ((0, 1), "lab", (0, "a", 2), 1),
    ]
    assert v.roots not in _replay(v, v.lts, v.mode)


def test_explain_prints_each_entry_once():
    # A tree rendering repeats shared entries: it printed 40 229 lines
    # at depth 4 on this ring.
    res = parse(ring_program(3))
    lts = build_lts([res.process("R")], res.defs)
    v = check_states(lts, 0, 1, USUAL)
    assert not v.related
    lines = explain(v).splitlines()
    heads = [line.split(" ", 1)[0] for line in lines if line.startswith("#")]
    assert sorted(heads) == sorted(
        "#%d" % i for i in range(len(v.certificate))
    )
    orc = Oracle(lts)
    bound = 1 + sum(
        1 if e.challenge is None
        else 1 + len(_respond(orc, e.pair[1], e.clause, *e.challenge[1:]))
        for e in v.certificate
    )
    assert len(lines) <= bound
    named = re.findall(r"\bs(\d+) \(", "\n".join(lines))
    assert len(named) == len(set(named))


def test_explain_refuses_related_verdicts():
    p, q, defs = _pair("0", "0")
    with pytest.raises(ValueError):
        explain(check(p, q, CONV, defs))


def test_unknown_mode_and_untimed_input_guard():
    p, q, defs = _pair("0", "{0} else 0")
    with pytest.raises(ValueError):
        check(p, q, "strong", defs)
    with pytest.raises(ValueError):
        check(p, q, USUAL_UNTIMED, defs)
    with pytest.raises(ValueError):
        check_ccs_equivalently(p, q, defs)
    lts = build_lts([p, q], defs)
    with pytest.raises(ValueError):
        check_states(lts, *lts.roots, "conv_div")
    with pytest.raises(ValueError):
        largest_bisimulation(lts, "conv_div")


def test_state_bound_is_reported():
    p, q, defs = _pair("Omega | a.b.0", "0")
    with pytest.raises(BoundExceeded):
        check(p, q, CONV, defs, bound=3)
