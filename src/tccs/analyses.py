"""Per-state semantic predicates computed by reachability on a built graph.

A state has converged when it offers no internal step; such a state is
stable and lets time pass.  From there four derived notions stack up:

* may_converge: some converged state is reachable through tau steps
  alone.
* ctx_converge: some converged state is reachable through instantaneous
  steps of any polarity (tau, input, output, never tick).  This is the
  convergence a surrounding process can unlock by communicating, and it
  is what the convergence-sensitive checker keys its label clause on.
* may_diverge: an infinite tau run exists, i.e. the tau graph reachable
  from the state contains a cycle.
* barbs: the communication offers of the converged states reachable
  through tau steps; what an observer can see once the state settles.

Reactivity is a property of a root: every state reachable from it, by
any sequence of steps, must be free of divergence, so every instant is
guaranteed to end.

All predicates are exact on an untruncated graph and are computed by
condensing each edge set once and reading the condensation in one
forward sweep, sinks first.  The tau graph's sweep gives divergence
cores, convergence and barbs, and the tau closure, the per-state set
of states reachable by zero or more tau steps, which the equivalence
checkers respond with; the weak transitions under the other labels are
built from it on first use, one label at a time.  The sweep over all
edges gives ctx_converge, reactivity, and the checkers' elimination
order with each state's predecessors.

ctx_converge needs no tick filter on that sweep: a state gets a tick
edge only when it has no tau edge, so every tick edge leaves a stable
state, and a stable state is reachable over all edges exactly when it
is reachable over instantaneous ones.  `Analysis` is the one cache of
everything derived from a graph, and it is stored on the graph itself.
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

    The tau edges are condensed once, for the tau facts, and all edges
    once, for ctx_converge, reactivity and `sweep`.  ctx_converge reads
    all edges, tick included: tick edges leave stable states only.

    `tau_closure[i]` is the bitmask of the states tau-reachable from
    state i, itself included.  `sweep` is the elimination order of the
    equivalence checkers, the states successors first, and `pred`, where
    `pred[j]` is the bitmask of the states with an edge, of any label,
    into j.  Weak transition masks under labels other than tau are
    memoized per label by `weak_masks`.
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
        "_weak",
    )

    def __init__(self, lts: Lts) -> None:
        if lts.truncated:
            raise BoundExceeded("analysis needs the full graph")
        # Keep two lists, not the graph: the graph holds this record in
        # `_analysis`, and a cycle would keep a dead graph and its terms
        # alive until the cyclic collector runs.
        self.succ = lts.succ
        self.stable = lts.stable
        n = len(lts)
        tau_succ = [
            [j for lab, j in out if lab.kind == "tau"] for out in lts.succ
        ]

        comp, comps = _sccs(n, tau_succ)

        # comps come out innermost-first: every component is emitted
        # after the components it can reach, so one forward sweep
        # propagates divergence, convergence, barbs and the tau closure
        # from the sinks.
        div_comp = [False] * len(comps)
        conv_comp = [False] * len(comps)
        barb_comp: list[frozenset[Label]] = [frozenset()] * len(comps)
        clo_comp = [0] * len(comps)
        for c, members in enumerate(comps):
            div = len(members) > 1 or any(v in tau_succ[v] for v in members)
            conv = False
            bs: set[Label] = set()
            clo = 0
            for v in members:
                clo |= 1 << v
                if lts.stable[v]:
                    conv = True
                    commit = lts.commit[v]
                    assert commit is not None
                    bs |= commit
                for w in tau_succ[v]:
                    c2 = comp[w]
                    if c2 != c:
                        div = div or div_comp[c2]
                        conv = conv or conv_comp[c2]
                        bs |= barb_comp[c2]
                        clo |= clo_comp[c2]
            div_comp[c] = div
            conv_comp[c] = conv
            barb_comp[c] = frozenset(bs)
            clo_comp[c] = clo

        self.may_diverge = [div_comp[comp[v]] for v in range(n)]
        self.may_converge = [conv_comp[comp[v]] for v in range(n)]
        self.barbs = [barb_comp[comp[v]] for v in range(n)]
        self.tau_closure = [clo_comp[comp[v]] for v in range(n)]
        self._weak: dict[Label, list[int]] = {}

        # The condensation of all edges, read the same way: ctx_converge
        # is "a stable state is reachable", reactive "no diverging state
        # is", and the emission order of the components is the states
        # successors first.
        all_succ = [[j for _, j in out] for out in lts.succ]
        comp, comps = _sccs(n, all_succ)
        ctx_comp = [False] * len(comps)
        bad_comp = [False] * len(comps)
        pred = [0] * n
        for c, members in enumerate(comps):
            ctx = bad = False
            for v in members:
                ctx = ctx or lts.stable[v]
                bad = bad or self.may_diverge[v]
                for w in all_succ[v]:
                    pred[w] |= 1 << v
                    c2 = comp[w]
                    if c2 != c:
                        ctx = ctx or ctx_comp[c2]
                        bad = bad or bad_comp[c2]
            ctx_comp[c] = ctx
            bad_comp[c] = bad
        self.ctx_converge = [ctx_comp[comp[v]] for v in range(n)]
        self.reactive = [not bad_comp[comp[v]] for v in range(n)]
        self.sweep = ([v for members in comps for v in members], pred)

    def weak_masks(self, lab: Label) -> list[int]:
        """Per-state bitmask of weak successors under `lab`.

        For tau this is the tau closure; for any other label it is tau
        closure, one strong step with the label, then tau closure again.
        """
        if lab.kind == "tau":
            return self.tau_closure
        masks = self._weak.get(lab)
        if masks is None:
            tclo = self.tau_closure
            pre = [0] * len(tclo)
            for j, out in enumerate(self.succ):
                for l2, k in out:
                    if l2 == lab:
                        pre[j] |= tclo[k]
            masks = []
            for rest in tclo:
                m = 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    m |= pre[low.bit_length() - 1]
                masks.append(m)
            self._weak[lab] = masks
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


def _sccs(
    n: int, succ: list[list[int]]
) -> tuple[list[int], list[list[int]]]:
    """Strongly connected components of a graph, iteratively.

    `succ[v]` lists the successors of state v in the edge set being
    condensed: the tau edges for the tau facts, all edges for
    ctx_converge, reactivity and the elimination order.

    Returns the component id of each state and the component member
    lists in emission order, which places every component after all
    components reachable from it.
    """
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
    bs = ",".join(str(lab) for lab in sorted(f.barbs, key=Label.sort_key))
    flags = [
        ("stable", f.stable),
        ("converge", f.may_converge),
        ("ctxconv", f.ctx_converge),
        ("diverge", f.may_diverge),
        ("reactive", f.reactive_root),
    ]
    parts = ["%s=%s" % (k, "true" if v else "false") for k, v in flags]
    parts.append("barbs={%s}" % bs)
    return " ".join(parts)
