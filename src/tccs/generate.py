"""Seeded random generators for terms, programs, and related pairs.

Definition bodies never contain parallel composition.  Every
sequential component then ranges over finitely many terms (subterms of
the program and of the definition bodies, closed under unfolding), so
any generated process has a finite reachable graph and the bounded
builder terminates well under its default bound.

The signal-fragment generator additionally confines calls to the
else branch of a presence test.  Within one instant every internal
step either unfolds a signal, consumes a presence test, or uncovers
structure of strictly smaller size, so instants terminate; that is the
shape on which the determinism suite runs.

`related_pair` produces pairs that are equivalent in all four checked
relations by construction: it rewrites the second term at static
positions only (the top, under parallel, under restriction), using
rewrites that are sound for every mode and do not change divergence.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, replace

from .terms import (
    EMIT_IDENT,
    NIL,
    Call,
    DefTable,
    ElseNext,
    NameSupply,
    Par,
    Prefix,
    Process,
    Restrict,
    Sum,
    all_names,
    ensure_builtins,
    make_tau,
    substitute,
)

__all__ = [
    "GenConfig",
    "random_term",
    "random_ccs_term",
    "random_pair",
    "random_reactive_term",
    "random_sl_program",
    "related_pair",
]


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the term generators.

    `depth` bounds the syntax tree; `max_defs` the number of defining
    equations; `names` is the palette of communication names.  With
    `allow_else` off only tick-insensitive operators appear; with
    `max_defs` 0 no defining equations are used, which also rules out
    divergence, so such terms are reactive.
    """

    depth: int = 6
    max_defs: int = 4
    names: tuple[str, ...] = ("a", "b", "c", "d")
    allow_else: bool = True


def _def_names(count: int) -> list[str]:
    return ["D%d" % (i + 1) for i in range(count)]


def _make_defs(rng: random.Random, cfg: GenConfig) -> DefTable:
    defs = DefTable()
    if cfg.max_defs == 0:
        return defs
    count = rng.randint(0, cfg.max_defs)
    idents = _def_names(count)
    sigs = {}
    for ident in idents:
        k = rng.randint(1, min(3, len(cfg.names)))
        sigs[ident] = tuple(rng.sample(cfg.names, k))
    for ident in idents:
        params = sigs[ident]
        body = _term(
            rng,
            cfg,
            depth=rng.randint(1, max(1, cfg.depth - 2)),
            names=list(params),
            callable_sigs=sigs,
            allow_par=False,
        )
        defs.define(ident, params, body)
    return defs


def _term(
    rng: random.Random,
    cfg: GenConfig,
    depth: int,
    names: list[str],
    callable_sigs: dict[str, tuple[str, ...]],
    allow_par: bool,
) -> Process:
    kinds = ["nil", "nil", "pre", "pre"]
    if callable_sigs:
        kinds.append("call")
    if depth > 0:
        kinds += ["pre", "sum", "res"]
        if allow_par:
            kinds.append("par")
        if cfg.allow_else:
            kinds.append("else")
    kind = rng.choice(kinds)
    if kind == "nil":
        return NIL
    if kind == "call":
        ident = rng.choice(sorted(callable_sigs))
        params = callable_sigs[ident]
        args = tuple(rng.choice(names) for _ in params)
        return Call(ident, args)
    if kind == "pre":
        polarity = rng.choice(("in", "out"))
        name = rng.choice(names)
        cont = _term(rng, cfg, depth - 1, names, callable_sigs, allow_par)
        return Prefix(polarity, name, cont)
    if kind == "sum":
        return Sum(
            _term(rng, cfg, depth - 1, names, callable_sigs, allow_par),
            _term(rng, cfg, depth - 1, names, callable_sigs, allow_par),
        )
    if kind == "par":
        return Par(
            _term(rng, cfg, depth - 1, names, callable_sigs, allow_par),
            _term(rng, cfg, depth - 1, names, callable_sigs, allow_par),
        )
    if kind == "res":
        name = rng.choice(names)
        return Restrict(
            name, _term(rng, cfg, depth - 1, names, callable_sigs, allow_par)
        )
    now = _term(rng, cfg, depth - 1, names, callable_sigs, allow_par)
    later = _term(rng, cfg, depth - 1, names, callable_sigs, allow_par)
    return ElseNext(now, later)


def random_term(
    rng: random.Random, cfg: GenConfig = GenConfig()
) -> tuple[Process, DefTable]:
    """A random process and the equations it may call into."""
    defs = _make_defs(rng, cfg)
    sigs = {i: d.params for i, d in defs.entries.items()}
    p = _term(
        rng,
        cfg,
        depth=cfg.depth,
        names=list(cfg.names),
        callable_sigs=sigs,
        allow_par=True,
    )
    return p, defs


def random_ccs_term(
    rng: random.Random, cfg: GenConfig = GenConfig()
) -> tuple[Process, DefTable]:
    """As random_term, but without else_next anywhere."""
    return random_term(rng, replace(cfg, allow_else=False))


def random_pair(
    rng: random.Random, cfg: GenConfig = GenConfig()
) -> tuple[Process, Process, DefTable]:
    """Two independent processes over one shared set of equations."""
    defs = _make_defs(rng, cfg)
    sigs = {i: d.params for i, d in defs.entries.items()}
    pair = tuple(
        _term(
            rng,
            cfg,
            depth=rng.randint(1, cfg.depth),
            names=list(cfg.names),
            callable_sigs=sigs,
            allow_par=True,
        )
        for _ in range(2)
    )
    return pair[0], pair[1], defs


def random_reactive_term(
    rng: random.Random, cfg: GenConfig = GenConfig(), ccs: bool = False
) -> tuple[Process, DefTable]:
    """A term with no calls: every internal run shrinks it, so it is
    reactive."""
    cfg = replace(cfg, max_defs=0, allow_else=cfg.allow_else and not ccs)
    return random_term(rng, cfg)


# ---------------------------------------------------------------------------
# the signal fragment


def _sl_body(
    rng: random.Random,
    depth: int,
    sigs: list[str],
    callable_sigs: dict[str, tuple[str, ...]],
    allow_call: bool,
    allow_par: bool,
) -> Process:
    kinds = ["nil", "emit"]
    if depth > 0:
        kinds += ["present", "present", "res"]
        if allow_par:
            kinds += ["par"]
    if allow_call and callable_sigs:
        kinds.append("call")
    kind = rng.choice(kinds)
    if kind == "nil":
        return NIL
    if kind == "emit":
        return Call(EMIT_IDENT, (rng.choice(sigs),))
    if kind == "call":
        ident = rng.choice(sorted(callable_sigs))
        args = tuple(rng.choice(sigs) for _ in callable_sigs[ident])
        return Call(ident, args)
    if kind == "par":
        return Par(
            _sl_body(rng, depth - 1, sigs, callable_sigs, allow_call, allow_par),
            _sl_body(rng, depth - 1, sigs, callable_sigs, allow_call, allow_par),
        )
    if kind == "res":
        return Restrict(
            rng.choice(sigs),
            _sl_body(rng, depth - 1, sigs, callable_sigs, allow_call, allow_par),
        )
    # presence test: the continuation runs in the same instant, so it
    # may not call; the else branch starts the next instant and may.
    sig = rng.choice(sigs)
    now = _sl_body(rng, depth - 1, sigs, callable_sigs, False, allow_par)
    later = _sl_body(rng, depth - 1, sigs, callable_sigs, True, allow_par)
    return ElseNext(Prefix("in", sig, now), later)


def random_sl_program(
    rng: random.Random, cfg: GenConfig = GenConfig()
) -> tuple[Process, DefTable]:
    """A program in the deterministic signal fragment.

    Built from emit, presence tests, parallel, restriction, and
    defining equations whose bodies are themselves in the fragment
    with calls only under else branches.
    """
    defs = DefTable()
    ensure_builtins(defs, emit=True)
    sigs = list(cfg.names)
    count = rng.randint(0, min(2, cfg.max_defs))
    idents = _def_names(count)
    callable_sigs: dict[str, tuple[str, ...]] = {}
    for ident in idents:
        k = rng.randint(1, min(2, len(sigs)))
        callable_sigs[ident] = tuple(rng.sample(sigs, k))
    for ident in idents:
        params = callable_sigs[ident]
        body = _sl_body(
            rng,
            rng.randint(1, 3),
            list(params),
            callable_sigs,
            allow_call=False,
            allow_par=False,
        )
        defs.define(ident, params, body)
    parts = [
        _sl_body(
            rng,
            rng.randint(1, max(1, cfg.depth - 2)),
            sigs,
            callable_sigs,
            allow_call=True,
            allow_par=True,
        )
        for _ in range(rng.randint(1, 3))
    ]
    p: Process = parts[0]
    for part in parts[1:]:
        p = Par(p, part)
    return p, defs


# ---------------------------------------------------------------------------
# related pairs


def _static_positions(p: Process) -> list[tuple[Process, Callable]]:
    """Every hole position of a static context around p.

    Each is the term there and a function that puts a replacement in
    its place.  They are the positions of the binary view, in its
    order: the whole, each left part of a composition, longest first,
    then each operand's own positions.
    """
    acc: list[tuple[Process, Callable]] = [(p, lambda sub: sub)]
    match p:
        case Par():
            ps = p.parts
            for k in range(len(ps) - 1, 1, -1):
                acc.append((Par(*ps[:k]), lambda sub, k=k: Par(sub, *ps[k:])))
            for i, q in enumerate(ps):
                acc += [
                    (t, lambda sub, i=i, put=put: Par(*ps[:i], put(sub), *ps[i + 1 :]))
                    for t, put in _static_positions(q)
                ]
        case Restrict(a, b):
            acc += [
                (t, lambda sub, put=put: Restrict(a, put(sub)))
                for t, put in _static_positions(b)
            ]
    return acc


def related_pair(
    rng: random.Random, cfg: GenConfig = GenConfig()
) -> tuple[Process, Process, DefTable]:
    """A pair equivalent in every checked mode, by construction.

    The second term is the first with two rewrites applied at static
    positions: duplicating a branch into a choice with itself,
    guarding by an encoded internal step, or unfolding a call by hand.
    Each rewrite preserves all four relations and divergence.
    """
    p, defs = random_term(rng, cfg)
    q = p
    supply = NameSupply(avoid=all_names(p))
    for _ in range(2):
        target, put = rng.choice(_static_positions(q))
        choices = ["dup", "tau"]
        if isinstance(target, Call):
            choices.append("unfold")
        how = rng.choice(choices)
        if how == "dup":
            replacement: Process = Sum(target, target)
        elif how == "tau":
            # unfolding may rename a binder of the body to a machine
            # name, so a name fresh for p need not be fresh here
            fresh = supply.fresh()
            while fresh in target.free:
                fresh = supply.fresh()
            replacement = make_tau(target, fresh)
        else:
            assert isinstance(target, Call)
            d = defs.lookup(target.ident)
            replacement = substitute(
                d.body, dict(zip(d.params, target.args))
            )
        q = put(replacement)
    return p, q, defs
