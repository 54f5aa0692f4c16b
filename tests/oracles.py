"""Reference implementations used to cross-check the package.

Everything here is written with plain sets and breadth-first loops, on
purpose: slower and more literal than the shipped algorithms, so that a
bug would have to be made twice, in two different styles, to go
unnoticed.  Nothing in this module imports from tccs.analyses or
tccs.equiv.  `whole_step` is the reference for `tccs.lts.step`: the
engine has one composition rule, stepping every composition by its
components from a memo, and the reference steps every term whole by
the binary rules of the calculus, sharing no code with it.
"""

from __future__ import annotations

from tccs.lts import Lts
from tccs.terms import (
    NIL,
    OMEGA_IDENT,
    TAU,
    TICK,
    Call,
    DefTable,
    ElseNext,
    Label,
    Nil,
    Par,
    Prefix,
    Process,
    Restrict,
    Sum,
    canonicalize,
    ensure_builtins,
    make_tau,
    pretty,
    substitute,
)

USUAL = "usual"
USUAL_UNTIMED = "usual-untimed"
CONV = "conv"
CONV_DIV = "conv-div"
CONV_CCS = "conv-ccs"


class Oracle:
    """Per-state facts and the bisimulation games over one graph.

    Facts are computed by reachability searches; the games by naive
    fixed-point iteration over dicts of sets.
    """

    def __init__(self, lts: Lts):
        assert not lts.truncated
        self.lts = lts
        n = len(lts)
        self.tau_star = [self._closure(s, lambda lab: lab == TAU) for s in range(n)]
        self.stable = [
            all(lab != TAU for lab, _ in lts.succ[s]) for s in range(n)
        ]
        self.conv = [
            any(self.stable[u] for u in self.tau_star[s]) for s in range(n)
        ]
        looping = {
            s
            for s in range(n)
            if any(
                s in self.tau_star[v] for lab, v in lts.succ[s] if lab == TAU
            )
        }
        self.div = [bool(self.tau_star[s] & looping) for s in range(n)]
        self.ctx = [
            any(
                self.stable[u]
                for u in self._closure(s, lambda lab: lab.kind != "tick")
            )
            for s in range(n)
        ]
        self.barbs = [
            frozenset(
                lab
                for u in self.tau_star[s]
                if self.stable[u]
                for lab, _ in self.lts.succ[u]
                if lab.kind in ("in", "out")
            )
            for s in range(n)
        ]
        self._weak: dict[tuple[int, Label], set[int]] = {}

    def _closure(self, s: int, follow) -> set[int]:
        seen = {s}
        todo = [s]
        while todo:
            u = todo.pop()
            for lab, v in self.lts.succ[u]:
                if follow(lab) and v not in seen:
                    seen.add(v)
                    todo.append(v)
        return seen

    def weak(self, s: int, lab: Label) -> set[int]:
        """Targets of s under tau*, lab, tau*; tau* alone for tau."""
        if lab == TAU:
            return self.tau_star[s]
        key = (s, lab)
        if key not in self._weak:
            acc: set[int] = set()
            for u in self.tau_star[s]:
                for lab2, v in self.lts.succ[u]:
                    if lab2 == lab:
                        acc |= self.tau_star[v]
            self._weak[key] = acc
        return self._weak[key]

    def reactive(self, root: int) -> bool:
        return not any(self.div[u] for u in self._closure(root, lambda lab: True))

    def admissible(self, mode: str, s: int, t: int) -> bool:
        if mode == CONV_DIV:
            return self.div[s] == self.div[t]
        if mode == CONV_CCS:
            return self.conv[s] == self.conv[t]
        return True

    def respects(self, mode: str, s: int, t: int, rel: dict[int, set[int]]) -> bool:
        """One direction of the game at (s, t), responses into rel."""
        for lab, s2 in self.lts.succ[s]:
            if lab == TAU:
                resp = self.tau_star[t]
            elif lab == TICK:
                if mode in (USUAL_UNTIMED, CONV_CCS):
                    continue
                resp = self.weak(t, lab)
            elif mode in (CONV, CONV_DIV, CONV_CCS):
                if not self.ctx[s]:
                    continue
                resp = self.weak(t, lab)
                if not self.ctx[s2]:
                    resp = resp | self.tau_star[t]
            else:
                resp = self.weak(t, lab)
            if not (resp & rel[s2]):
                return False
        return True

    def gfp(self, mode: str) -> set[tuple[int, int]]:
        """Greatest fixed point by eliminating violating pairs."""
        n = len(self.lts)
        rel = {
            s: {t for t in range(n) if self.admissible(mode, s, t)}
            for s in range(n)
        }
        changed = True
        while changed:
            changed = False
            for s in range(n):
                for t in sorted(rel[s]):
                    if t < s:
                        continue
                    if not (
                        self.respects(mode, s, t, rel)
                        and self.respects(mode, t, s, rel)
                    ):
                        rel[s].discard(t)
                        rel[t].discard(s)
                        changed = True
        return {(s, t) for s in range(n) for t in rel[s]}

    def gfp_powerset(self, mode: str) -> set[tuple[int, int]]:
        """Union of every symmetric relation closed under the game.

        Literally enumerates all symmetric relations, so it is only
        usable on graphs with a handful of states.
        """
        n = len(self.lts)
        assert n <= 5, "powerset enumeration is for tiny graphs"
        slots = [(s, t) for s in range(n) for t in range(s, n)]
        union: set[tuple[int, int]] = set()
        for mask in range(1 << len(slots)):
            rel: dict[int, set[int]] = {s: set() for s in range(n)}
            for k, (s, t) in enumerate(slots):
                if mask >> k & 1:
                    rel[s].add(t)
                    rel[t].add(s)
            ok = all(
                self.admissible(mode, s, t)
                and self.respects(mode, s, t, rel)
                and self.respects(mode, t, s, rel)
                for s in range(n)
                for t in rel[s]
            )
            if ok:
                union |= {(s, t) for s in range(n) for t in rel[s]}
        return union


def enumeration_kit() -> tuple[tuple[Process, ...], DefTable]:
    """Atoms for the exhaustive pools, with the definitions they need.

    The inert process, a pure diverger, a loop that can keep spinning or
    settle (tau.Loop + tau.0), and a single internal step.  Together the
    atoms give the enumerated terms instability, divergence both with
    and without a way out, and convergence, which is what separates the
    four games from one another.
    """
    defs = DefTable()
    ensure_builtins(defs, omega=True)
    loop = "#Loop"
    defs.define(
        loop, (), Sum(make_tau(Call(loop), "#t"), make_tau(NIL, "#t"))
    )
    atoms = (NIL, Call(OMEGA_IDENT), Call(loop), make_tau(NIL, "#t"))
    return atoms, defs


def small_terms(
    names: tuple[str, ...] = ("a",),
    max_size: int = 3,
    atoms: tuple[Process, ...] = (NIL,),
) -> list[Process]:
    """Every process up to the operator-count bound, canonically deduped.

    Exhaustive over prefix, sum, composition, restriction and else_next
    applied to the given atoms.  Size counts constructors beyond the
    atoms.
    """
    by_size: list[list[Process]] = [
        list(dict.fromkeys(canonicalize(a) for a in atoms))
    ]
    seen: set[Process] = set(by_size[0])

    def add(layer: list[Process], p: Process) -> None:
        c = canonicalize(p)
        if c not in seen:
            seen.add(c)
            layer.append(c)

    for size in range(1, max_size + 1):
        layer: list[Process] = []
        for sub in by_size[size - 1]:
            for n in names:
                add(layer, Prefix("in", n, sub))
                add(layer, Prefix("out", n, sub))
                add(layer, Restrict(n, sub))
        for k in range(size):
            for left in by_size[k]:
                for right in by_size[size - 1 - k]:
                    add(layer, Sum(left, right))
                    add(layer, Par(left, right))
                    add(layer, ElseNext(left, right))
        by_size.append(layer)
    return [t for layer in by_size for t in layer]


def hand_built(n: int, edges) -> Lts:
    """A graph over n states with the given (source, label, target)
    edges and no terms behind them, rooted at state 0."""
    terms = [Prefix("out", "s%d" % i, NIL) for i in range(n)]
    succ: list[list[tuple[Label, int]]] = [[] for _ in range(n)]
    for i, lab, j in edges:
        succ[i].append((lab, j))
    return Lts(
        DefTable(), (0,), terms, {t: i for i, t in enumerate(terms)},
        [tuple(out) for out in succ], False,
    )


def ring_program(k: int) -> str:
    """The benchmark's ring, process `R`: k cyclers
    `Cyc(x, y) = x.tau.'y.Cyc(x, y)` linked in a cycle over the names
    a, b, ..., beside a token `'a.0`.

    Its graph has 2 * 4**k states.  The cyclers' synchronizations pass
    the token round in tau cycles, so most states lie in large tau
    components: 96 states in the largest for k = 4.
    """
    ns = "abcdefgh"[:k]
    cyclers = " | ".join(
        "Cyc(%s, %s)" % (ns[i], ns[(i + 1) % k]) for i in range(k)
    )
    return "Cyc(x, y) = x.tau.'y.Cyc(x, y);\nR = %s | '%s.0;\n" % (
        cyclers, ns[0]
    )


def whole_step(p: Process, defs: DefTable) -> list[tuple[Label, Process]]:
    """All strong transitions of p, as `tccs.lts.step` orders them.

    The rules of the calculus applied to the whole term, one binary
    node at a time: a composition moves one side or synchronizes the
    two, a call unfolds by `substitute`, and the tick, present when no
    tau step is, lets time pass in every branch.  Targets go through
    `canonical`.
    """
    raw = _moves(p, defs)
    if not any(lab == TAU for lab, _ in raw):
        raw.append((TICK, _let_time_pass(p)))
    out = dict.fromkeys((lab, canonical(q)) for lab, q in raw)
    return sorted(out, key=lambda e: (e[0].sort_key(), pretty(e[1])))


def _moves(p: Process, defs: DefTable) -> list[tuple[Label, Process]]:
    match p:
        case Nil():
            return []
        case Prefix(pol, a, k):
            return [(Label(pol, a), k)]
        case Sum():
            l, r = halves(p)
            return _moves(l, defs) + _moves(r, defs)
        case Par():
            l, r = halves(p)
            left, right = _moves(l, defs), _moves(r, defs)
            acc = [(lab, Par(l2, r)) for lab, l2 in left]
            acc += [(lab, Par(l, r2)) for lab, r2 in right]
            acc += [
                (TAU, Par(l2, r2))
                for lab, l2 in left
                for lab2, r2 in right
                if lab.is_comm and lab2 == lab.co()
            ]
            return acc
        case Restrict(a, b):
            return [
                (lab, Restrict(a, b2))
                for lab, b2 in _moves(b, defs)
                if lab.name != a
            ]
        case Call(ident, args):
            d = defs.lookup(ident)
            return [(TAU, substitute(d.body, dict(zip(d.params, args))))]
        case ElseNext(n, _):
            return _moves(n, defs)
    raise AssertionError("unreachable node %r" % p)


def _let_time_pass(p: Process) -> Process:
    # the tick successor of a term with no tau step, so no call occurs
    match p:
        case Nil() | Prefix(_, _, _):
            return p
        case Sum() | Par():
            l, r = halves(p)
            return type(p)(_let_time_pass(l), _let_time_pass(r))
        case Restrict(a, b):
            return Restrict(a, _let_time_pass(b))
        case ElseNext(_, l):
            return l
    raise AssertionError("no tick for %r" % p)


def canonical(p: Process) -> Process:
    """The canonical form of p, recomputed from the root with no cache.

    A literal rewrite of the canonicalizer as it stood before canonical
    forms were cached on the nodes: it reads no `_canonical` slot, so
    it checks that the cache changes no canonical form.
    """
    return _canonical(p, {})


def _canonical(p: Process, ren: dict[str, str]) -> Process:
    match p:
        case Nil():
            return p
        case Call(f, args):
            return Call(f, tuple(ren.get(a, a) for a in args))
        case Prefix(pol, a, k):
            return Prefix(pol, ren.get(a, a), _canonical(k, ren))
        case Sum():
            parts = [
                r
                for q in _operands(p, Sum)
                for r in _operands(_canonical(q, ren), Sum)
            ]
            parts.sort(key=pretty)
            return _nest(parts, Sum)
        case Par():
            parts = [
                r
                for q in _operands(p, Par)
                for r in _operands(_canonical(q, ren), Par)
                if r is not NIL
            ]
            if not parts:
                return NIL
            if len(parts) == 1:
                return parts[0]
            parts.sort(key=pretty)
            return _nest(parts, Par)
        case Restrict(a, b):
            if a not in b.free:
                return _canonical(b, ren)
            occupied = {ren.get(x, x) for x in b.free if x != a}
            k = 1
            while "#%d" % k in occupied:
                k += 1
            cand = "#%d" % k
            return Restrict(cand, _canonical(b, {**ren, a: cand}))
        case ElseNext(n, l):
            return ElseNext(_canonical(n, ren), _canonical(l, ren))
    raise AssertionError("unreachable node %r" % p)


def _operands(p: Process, cls: type) -> list[Process]:
    if type(p) is cls:
        l, r = halves(p)
        return _operands(l, cls) + _operands(r, cls)
    return [p]


def halves(p: Process) -> tuple[Process, Process]:
    """A sum or composition as the binary tree leaning left that it
    stands for: its operands but the last, nested again, and the last."""
    *init, last = p.parts
    return (type(p)(*init) if len(init) > 1 else init[0]), last


def _nest(parts: list[Process], cls: type) -> Process:
    acc = parts[0]
    for q in parts[1:]:
        acc = cls(acc, q)
    return acc
