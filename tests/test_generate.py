"""Term generators: fragment guarantees, determinism, config bounds."""

import random

from hypothesis import given, settings, strategies as st

from tccs import analysis, build_lts, check
from tccs.generate import (
    GenConfig,
    random_ccs_term,
    random_pair,
    random_reactive_term,
    random_sl_program,
    random_term,
    related_pair,
)
from tccs.terms import ElseNext, classify, pretty

seeds = st.integers(min_value=0, max_value=2**32 - 1)
CFG = GenConfig(depth=4, max_defs=2)


def _no_else(p):
    stack = [p]
    while stack:
        q = stack.pop()
        assert not isinstance(q, ElseNext)
        stack.extend(
            getattr(q, f) for f in ("left", "right", "now", "later", "cont", "body")
            if hasattr(q, f)
        )


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_same_seed_same_output(seed):
    a = random_term(random.Random(seed), CFG)
    b = random_term(random.Random(seed), CFG)
    assert a[0] == b[0]
    assert sorted(a[1].entries) == sorted(b[1].entries)
    for name, d in a[1].entries.items():
        assert d.body == b[1].entries[name].body


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_ccs_terms_carry_no_else(seed):
    p, defs = random_ccs_term(random.Random(seed), CFG)
    assert classify(p, defs).is_ccs
    _no_else(p)
    for d in defs.entries.values():
        _no_else(d.body)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_sl_programs_sit_in_the_fragment(seed):
    p, defs = random_sl_program(random.Random(seed), CFG)
    assert classify(p, defs).is_sl


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_reactive_terms_are_reactive(seed):
    rng = random.Random(seed)
    p, defs = random_reactive_term(rng, CFG, ccs=bool(seed % 2))
    lts = build_lts([p], defs, bound=3000)
    assert not lts.truncated
    assert analysis(lts).reactive[lts.roots[0]]


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_related_pairs_survive_the_usual_game(seed):
    rng = random.Random(seed)
    p, q, defs = related_pair(rng, GenConfig(depth=3, max_defs=1))
    assert check(p, q, "usual", defs, bound=2000).related


def test_a_tau_guard_after_an_unfolding_gets_a_fresh_name():
    # seed 16506713 unfolds D1(d, a) with body new a. c.D1(a, a), which
    # renames the binder to #1, then guards the term under it
    rng = random.Random(16506713)
    p, q, defs = related_pair(rng, GenConfig(depth=3, max_defs=1))
    assert check(p, q, "usual", defs, bound=2000).related


def test_config_bounds_are_respected():
    cfg = GenConfig(depth=3, max_defs=2, names=("x", "y"))
    for seed in range(40):
        p, defs = random_term(random.Random(seed), cfg)
        assert len(defs.entries) <= cfg.max_defs + 1  # builtin allowed on top
        machine = {n for n in p.free if n.startswith("#")}
        assert p.free <= set(cfg.names) | machine


def test_pairs_share_one_definition_table():
    p, q, defs = random_pair(random.Random(7), CFG)
    assert pretty(p) != "" and pretty(q) != ""
    lts = build_lts([p, q], defs, bound=4000)
    assert len(lts.roots) == 2
