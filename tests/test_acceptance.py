"""Acceptance gate: eight seeded end-to-end checks, one line each.

Every function prints a single summary line on success, so running
with -s (or reading captured output on failure) shows the tally per
criterion.  Seeds are fixed; each criterion is reproducible on its
own.
"""

import itertools
import random

from oracles import CONV_CCS, Oracle, enumeration_kit, small_terms
from tccs import (
    BoundExceeded,
    DefTable,
    build_lts,
    canonicalize,
    check,
    check_ccs_equivalently,
    ensure_builtins,
    facts,
    parse,
    parse_proc,
    verify_lts_laws,
)
from tccs.equiv import CONV, CONV_DIV, USUAL, USUAL_UNTIMED, largest_bisimulation
from tccs.equiv import falsify_with_context
from tccs.generate import (
    GenConfig,
    random_pair,
    random_reactive_term,
    random_sl_program,
    random_term,
    related_pair,
)
from tccs.terms import ElseNext, Par, Prefix, Restrict, classify

SEED = 20260821


def _line(n, text):
    print("criterion %d: pass - %s" % (n, text))


# ---------------------------------------------------------------------------


def test_criterion_1_transition_laws_on_random_terms():
    rng = random.Random(SEED + 1)
    cfg = GenConfig(depth=6, max_defs=4)
    truncated = 0
    checked = 0
    for _ in range(1000):
        p, defs = random_term(rng, cfg)
        lts = build_lts([p], defs, bound=4000)
        if lts.truncated:
            truncated += 1
            continue
        violations = verify_lts_laws(lts)
        assert violations == [], violations
        checked += 1
    assert truncated == 0, "%d graphs hit the state bound" % truncated
    _line(1, "%d graphs, zero law violations" % checked)


def test_criterion_2_golden_pairs():
    def related(sp, sq, mode, shared=None):
        defs = None
        if shared:
            defs = parse(shared).defs
        p, defs = parse_proc(sp, defs=defs)
        q, defs = parse_proc(sq, defs=defs)
        return check(p, q, mode, defs).related

    assert related("a.0 | Omega", "Omega", CONV)
    assert not related("a.0 | Omega", "Omega", USUAL)

    assert not related("0", "Omega", CONV)
    assert related("0", "Omega", USUAL_UNTIMED)
    assert not related("0", "Omega", USUAL)

    assert related("0", "tau.0", CONV)
    assert not related("{0} else b.0", "{tau.0} else b.0", CONV)

    loop = "A() = tau.A() + tau.0;\n"
    assert related("0", "A()", CONV, shared=loop)
    assert not related("0", "A()", CONV_DIV, shared=loop)

    left = "a.(b.0 + c.0) | 'a.(d.0 + Omega)"
    right = "(a.b.0 + a.c.0) | 'a.(d.0 + Omega)"
    assert not related(left, right, CONV)

    p, defs = parse_proc("(a.0 + b.0) | 'a.Omega")
    lts = build_lts([p], defs)
    f = facts(lts, lts.roots[0])
    assert not f.may_converge
    assert f.ctx_converge

    _line(2, "10 verdicts and 1 predicate pair match")


def _reactive_joint(rng, cfg, ccs):
    # two independent draws share definition names, so merge only when the
    # shared names carry identical bodies and redraw otherwise
    while True:
        p, dp = random_reactive_term(rng, cfg, ccs=ccs)
        q, dq = random_reactive_term(rng, cfg, ccs=ccs)
        clash = any(
            i in dp.entries
            and (dp.entries[i].params, dp.entries[i].body)
            != (d.params, d.body)
            for i, d in dq.entries.items()
        )
        if clash:
            continue
        merged = DefTable()
        for i, d in dp.entries.items():
            merged.define(i, d.params, d.body)
        for i, d in dq.entries.items():
            if i not in merged.entries:
                merged.define(i, d.params, d.body)
        return p, q, merged


def test_criterion_3_mode_lattice_on_random_pairs():
    rng = random.Random(SEED + 3)
    cfg = GenConfig(depth=3, max_defs=2)
    general = reactive_timed = reactive_ccs = 0

    while general < 300:
        p, q, defs = random_pair(rng, cfg)
        lts = build_lts([p, q], defs, bound=600)
        if lts.truncated:
            continue
        usual = largest_bisimulation(lts, USUAL).pairs
        conv = largest_bisimulation(lts, CONV).pairs
        conv_div = largest_bisimulation(lts, CONV_DIV).pairs
        assert usual <= conv
        assert conv_div <= conv
        general += 1

    while reactive_timed < 100:
        p, q, defs = _reactive_joint(rng, cfg, ccs=False)
        lts = build_lts([p, q], defs, bound=600)
        if lts.truncated:
            continue
        assert (
            largest_bisimulation(lts, USUAL).pairs
            == largest_bisimulation(lts, CONV).pairs
        )
        reactive_timed += 1

    while reactive_ccs < 100:
        p, q, defs = _reactive_joint(rng, cfg, ccs=True)
        lts = build_lts([p, q], defs, bound=600)
        if lts.truncated:
            continue
        usual = largest_bisimulation(lts, USUAL).pairs
        assert usual == largest_bisimulation(lts, USUAL_UNTIMED).pairs
        assert usual == largest_bisimulation(lts, CONV).pairs
        reactive_ccs += 1

    _line(3, "300 general + 100 reactive + 100 reactive untimed pairs")


def test_criterion_4_untimed_decision_agrees_on_ccs():
    rng = random.Random(SEED + 4)
    cfg = GenConfig(depth=3, max_defs=2, allow_else=False)
    agreed = related = 0
    while agreed < 500:
        p, q, defs = random_pair(rng, cfg)
        assert classify(p, defs).is_ccs and classify(q, defs).is_ccs
        try:
            va = check_ccs_equivalently(p, q, defs, bound=600)
            vc = check(p, q, CONV, defs, bound=600)
        except BoundExceeded:
            continue
        assert va.related == vc.related
        agreed += 1
        related += int(va.related)
    _line(4, "500 pairs agree (%d related)" % related)


def test_criterion_5_congruence_closures():
    rng = random.Random(SEED + 5)
    cfg = GenConfig(depth=3, max_defs=1)
    partners = [
        parse_proc("'a.0")[0],
        parse_proc("a.0 + 'b.0")[0],
        parse_proc("Omega")[0],
        parse_proc("tick.'c.0")[0],
    ]
    pairs = []
    while len(pairs) < 200:
        p, q, defs = related_pair(rng, cfg)
        ensure_builtins(defs, omega=True)
        lts = build_lts([p, q], defs, bound=600)
        if lts.truncated:
            continue
        pairs.append((p, q, defs))

    else_legs = 0
    for idx, (p, q, defs) in enumerate(pairs):
        r = partners[idx % len(partners)]
        name = sorted(p.free | q.free | {"a"})[0]
        for mode in (USUAL, CONV, CONV_DIV):
            assert check(p, q, mode, defs, bound=4000).related
            assert check(Par(p, r), Par(q, r), mode, defs, bound=8000).related
            assert check(
                Restrict(name, p), Restrict(name, q), mode, defs, bound=4000
            ).related
        base = build_lts([p, q], defs, bound=600)
        if base.stable[base.roots[0]] and base.stable[base.roots[1]]:
            else_legs += 1
            for mode in (USUAL, CONV):
                assert check(
                    ElseNext(p, r), ElseNext(q, r), mode, defs, bound=8000
                ).related
    _line(5, "200 pairs x 3 modes closed under par and new; "
             "%d stable pairs closed under else" % else_legs)


def test_criterion_6_exhaustive_small_state_oracle():
    atoms, defs = enumeration_kit()
    pool = small_terms(names=("a",), max_size=2, atoms=atoms)

    lts = build_lts(pool, defs, bound=20000)
    assert not lts.truncated
    orc = Oracle(lts)
    small_roots = 0
    for root in lts.roots:
        seen = {root}
        frontier = [root]
        while frontier:
            s = frontier.pop()
            for _, j in lts.succ[s]:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        small_roots += int(len(seen) <= 8)
    for mode in (USUAL, CONV, CONV_DIV):
        assert set(largest_bisimulation(lts, mode).pairs) == orc.gfp(mode)

    ccs_pool = [t for t in pool if classify(t, defs).is_ccs]
    ccs_lts = build_lts(ccs_pool, defs, bound=20000)
    ccs_orc = Oracle(ccs_lts)
    for mode in (USUAL_UNTIMED, CONV_CCS):
        assert (
            set(largest_bisimulation(ccs_lts, mode).pairs)
            == ccs_orc.gfp(mode)
        )

    deep = small_terms(names=("a",), max_size=3, atoms=atoms[:2])
    deep_lts = build_lts(deep, defs, bound=40000)
    assert not deep_lts.truncated
    deep_orc = Oracle(deep_lts)
    for mode in (USUAL, CONV):
        assert (
            set(largest_bisimulation(deep_lts, mode).pairs)
            == deep_orc.gfp(mode)
        )

    powerset_pairs = 0
    for pa, pb in itertools.combinations(pool[:64], 2):
        joint = build_lts([pa, pb], defs, bound=64)
        if joint.truncated or len(joint) > 5:
            continue
        jorc = Oracle(joint)
        for mode in (USUAL, CONV, CONV_DIV):
            literal = jorc.gfp_powerset(mode)
            assert literal == jorc.gfp(mode)
            assert literal == set(largest_bisimulation(joint, mode).pairs)
        powerset_pairs += 1
        if powerset_pairs >= 120:
            break
    assert powerset_pairs >= 60

    _line(6, "pool %d terms (%d states, %d roots with <= 8), "
             "ccs %d, deep %d, %d literal joints" % (
                 len(pool), len(lts), small_roots, len(ccs_pool),
                 len(deep_lts), powerset_pairs))


def test_criterion_7_signal_fragment_is_deterministic():
    rng = random.Random(SEED + 7)
    cfg = GenConfig(depth=4, max_defs=2)
    for _ in range(200):
        p, defs = random_sl_program(rng, cfg)
        lts = build_lts([p], defs, bound=4000)
        assert not lts.truncated
        orc = Oracle(lts)
        cur = lts.roots[0]
        for _instant in range(3):
            assert not orc.div[cur], "an instant must terminate"
            settled = {
                canonicalize(lts.terms[s])
                for s in orc.tau_star[cur]
                if lts.stable[s]
            }
            assert len(settled) == 1, sorted(map(str, settled))
            stable_states = [
                s for s in orc.tau_star[cur] if lts.stable[s]
            ]
            ticks = {
                j for s in stable_states for lab, j in lts.succ[s]
                if lab.kind == "tick"
            }
            assert len(ticks) == 1
            cur = ticks.pop()
    _line(7, "200 programs deterministic across 3 instants")


def test_criterion_8_falsifier_soundness():
    rng = random.Random(SEED + 8)
    cfg = GenConfig(depth=3, max_defs=1)
    found = 0
    for _ in range(500):
        p, q, defs = random_pair(rng, cfg)
        hit = falsify_with_context(p, q, defs, depth=1, bound=500)
        if hit is not None:
            assert not check(p, q, CONV, defs, bound=4000).related
            found += 1
    _line(8, "500 pairs, %d contexts found, all confirmed" % found)
