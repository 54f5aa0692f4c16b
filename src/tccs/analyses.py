"""Per-state semantic predicates read off reachability masks of a graph.

A state has converged when it offers no internal step; such a state is
stable and lets time pass.  From there four derived notions stack up:

* may_converge: some converged state is reachable through tau steps
  alone.
* ctx_converge: some converged state is reachable through instantaneous
  steps of any polarity (tau, input, output, never tick).  This is the
  convergence a surrounding process can unlock by communicating, and it
  is what the convergence-sensitive checker keys its label clause on.
* may_diverge: an infinite tau run exists, i.e. a state on a tau cycle
  is reachable through tau steps.
* barbs: the communication offers of the converged states reachable
  through tau steps; what an observer can see once the state settles.

Reactivity is a property of a root: every state reachable from it, by
any sequence of steps, must be free of divergence, so every instant is
guaranteed to end.

All predicates are exact on an untruncated graph.  Each edge set is
condensed once, and one fold over a condensation (`_fold`) ORs a seed
over the states each state reaches, itself included.  Seeded with the
states' own bits it gives the reach: once over the tau edges, which is
the tau closure, and once over all edges.  Every predicate is then one
mask test: may_converge meets the settled states with the tau reach,
may_diverge meets the states on a tau cycle with it, barbs unions the
commitments of the settled states in it, ctx_converge meets the settled
states with the reach over all edges, and reactive keeps that reach
clear of the diverging states.  The equivalence checkers respond with
the tau closure, and with each other label's weak transitions, the tau
fold seeded with the closures of the label's targets, on first use;
they eliminate in the emission order of the condensation of all edges,
with each state's predecessors.

ctx_converge needs no tick filter: a state gets a tick edge only when
it has no tau edge, so every tick edge leaves a stable state, and a
stable state is reachable over all edges exactly when it is reachable
over instantaneous ones.  `Analysis` is the one cache of everything
derived from a graph, and it is stored on the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lts import BoundExceeded, Lts
from .terms import Label

__all__ = [
    "StateFacts",
    "Analysis",
    "analysis",
    "may_converge",
    "facts",
    "facts_line",
]


@dataclass(frozen=True)
class StateFacts:
    """The settled answers for one state, plus reactivity of its cone."""

    stable: bool
    may_converge: bool
    ctx_converge: bool
    may_diverge: bool
    barbs: frozenset[Label]
    reactive_root: bool


class Analysis:
    """All predicate tables for one graph, filled once at construction.

    `tau_closure[i]` is the bitmask of the states tau-reachable from
    state i, itself included; every tau predicate of state i is one
    test of that mask, and ctx_converge and reactivity one test of the
    reach over all edges, tick included: tick edges leave stable states
    only.  `sweep` is the elimination order of the equivalence
    checkers, the states successors first, and `pred`, where `pred[j]`
    is the bitmask of the states with an edge, of any label, into j.
    `weak_masks` folds each other label's weak transition masks over
    the kept tau condensation, memoized per label.
    """

    __slots__ = (
        "succ",
        "stable",
        "may_converge",
        "ctx_converge",
        "may_diverge",
        "barbs",
        "reactive",
        "tau_closure",
        "sweep",
        "_tau",
        "_weak",
    )

    def __init__(self, lts: Lts) -> None:
        if lts.truncated:
            raise BoundExceeded("analysis needs the full graph")
        # Keep the edge and condensation lists, not the graph: the graph
        # holds this record in `_analysis`, and a cycle would keep a dead
        # graph and its terms alive until the cyclic collector runs.
        self.succ = lts.succ
        self.stable = stable = lts.stable
        self._weak: dict[Label, list[int]] = {}
        settled = sum(1 << v for v, st in enumerate(stable) if st)
        bits = [1 << v for v in range(len(stable))]

        tau_succ = [
            [j for lab, j in out if lab.kind == "tau"] for out in lts.succ
        ]
        comp, comps = _sccs(tau_succ)
        self._tau = (tau_succ, comp, comps)
        self.tau_closure = reach = _fold(tau_succ, comp, comps, bits)
        looping = 0
        for members in comps:
            v = members[0]
            if len(members) > 1 or v in tau_succ[v]:
                for v in members:
                    looping |= 1 << v
        self.may_converge = [bool(m & settled) for m in reach]
        self.may_diverge = div = [bool(m & looping) for m in reach]
        commit = lts.commit
        union: dict[int, frozenset[Label]] = {}
        barbs = []
        for m in reach:
            m &= settled
            bs = union.get(m)
            if bs is None:
                bs = frozenset().union(*[commit[v] for v in _bits(m)])
                union[m] = bs
            barbs.append(bs)
        self.barbs = barbs

        all_succ = [[j for _, j in out] for out in lts.succ]
        comp, comps = _sccs(all_succ)
        reach = _fold(all_succ, comp, comps, bits)
        diverging = sum(1 << v for v, d in enumerate(div) if d)
        self.ctx_converge = [bool(m & settled) for m in reach]
        self.reactive = [not m & diverging for m in reach]
        pred = [0] * len(reach)
        for v, out in enumerate(all_succ):
            for w in out:
                pred[w] |= 1 << v
        self.sweep = ([v for members in comps for v in members], pred)

    def weak_masks(self, lab: Label) -> list[int]:
        """Per-state bitmask of weak successors under `lab`.

        For tau this is the tau closure; for any other label it is tau
        closure, one strong step with the label, then tau closure again:
        the tau fold seeded with the closures of each state's
        `lab`-successors.
        """
        if lab.kind == "tau":
            return self.tau_closure
        masks = self._weak.get(lab)
        if masks is None:
            tclo = self.tau_closure
            pre = [0] * len(tclo)
            for j, out in enumerate(self.succ):
                for l2, k in out:
                    if l2 is lab:
                        pre[j] |= tclo[k]
            masks = self._weak[lab] = _fold(*self._tau, pre)
        return masks

    def facts(self, i: int) -> StateFacts:
        return StateFacts(
            stable=self.stable[i],
            may_converge=self.may_converge[i],
            ctx_converge=self.ctx_converge[i],
            may_diverge=self.may_diverge[i],
            barbs=self.barbs[i],
            reactive_root=self.reactive[i],
        )


def _bits(mask: int):
    """The state ids set in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _fold(
    succ: list[list[int]],
    comp: list[int],
    comps: list[list[int]],
    seed: list[int],
) -> list[int]:
    """Each state's OR of `seed` over the states it reaches under an
    edge set, itself included.

    `comp` and `comps` are the edge set's condensation (`_sccs`).  One
    forward sweep over the components: every component is emitted after
    the components it can reach, so their values are complete by the
    time it ORs them in with its members' seeds.
    """
    done = [0] * len(comps)
    for c, members in enumerate(comps):
        m = 0
        for v in members:
            m |= seed[v]
            for w in succ[v]:
                m |= done[comp[w]]
        done[c] = m
    return [done[c] for c in comp]


def _sccs(succ: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Strongly connected components of a graph, iteratively.

    `succ[v]` lists the successors of state v in the edge set being
    condensed.

    Returns the component id of each state and the component member
    lists in emission order, which places every component after all
    components reachable from it.
    """
    n = len(succ)
    num = [-1] * n
    low = [0] * n
    on = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if num[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, i = work[-1]
            if i == 0:
                num[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on[v] = True
            descended = False
            out = succ[v]
            while i < len(out):
                w = out[i]
                i += 1
                if num[w] == -1:
                    work[-1] = (v, i)
                    work.append((w, 0))
                    descended = True
                    break
                if on[w]:
                    low[v] = min(low[v], num[w])
            if descended:
                continue
            work.pop()
            if low[v] == num[v]:
                members = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp[w] = len(comps)
                    members.append(w)
                    if w == v:
                        break
                comps.append(members)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comp, comps


def analysis(lts: Lts) -> Analysis:
    """The predicate tables for this graph, computed once and cached."""
    a = lts._analysis
    if a is None:
        a = Analysis(lts)
        lts._analysis = a
    return a


def may_converge(lts: Lts, s: int) -> bool:
    """Some converged state is reachable through tau steps alone."""
    return analysis(lts).may_converge[s]


def facts(lts: Lts, s: int) -> StateFacts:
    return analysis(lts).facts(s)


def facts_line(lts: Lts, s: int) -> str:
    """One-line summary of a state's facts, as printed by the CLI."""
    f = facts(lts, s)
    flags = [
        ("stable", f.stable),
        ("converge", f.may_converge),
        ("ctxconv", f.ctx_converge),
        ("diverge", f.may_diverge),
        ("reactive", f.reactive_root),
    ]
    parts = ["%s=%s" % (k, "true" if v else "false") for k, v in flags]
    parts.append("barbs=" + _label_set(f.barbs))
    return " ".join(parts)


def _label_set(labels) -> str:
    """A set of labels as printed: braced, comma-separated, sorted."""
    return "{%s}" % ",".join(
        str(lab) for lab in sorted(labels, key=Label.sort_key)
    )
