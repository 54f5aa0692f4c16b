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

All predicates are exact on an untruncated graph and are computed in
one pass: a single strongly-connected-component sweep of the tau graph
(divergence cores, convergence and barb propagation in one traversal),
plus two reverse closures.  The same sweep also fills the tau closure,
the per-state set of states reachable by zero or more tau steps, which
the equivalence checkers respond with; the weak transitions under the
other labels are built from it on first use, one label at a time.  The
checkers' elimination order comes from the same component routine run
over all edges, also on first use.  `Analysis` is the one cache of
everything derived from a graph, and it is stored on the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lts import BoundExceeded, Lts, State
from .terms import Label

__all__ = [
    "StateFacts",
    "Analysis",
    "analysis",
    "converged",
    "may_converge",
    "ctx_converge",
    "may_diverge",
    "barbs",
    "is_reactive",
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


def _sid(s: State | int) -> int:
    return s.id if isinstance(s, State) else s


class Analysis:
    """All predicate tables for one graph, filled once at construction.

    `tau_closure[i]` is the bitmask of the states tau-reachable from
    state i, itself included.  Weak transition masks under the other
    labels are memoized per label by `weak_masks`, and the elimination
    order of the equivalence checkers is built on first use by `sweep`.
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
        "_weak",
        "_sweep",
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
        self._sweep: tuple[list[int], list[int]] | None = None

        # ctx_converge: reverse closure of the converged states over
        # instantaneous edges of any polarity.
        self.ctx_converge = _reverse_closure(
            lts,
            seeds=lts.stable,
            follow=lambda lab: lab.kind != "tick",
        )

        # reactive: the complement of "can reach a diverging state by
        # any path", tick included.
        can_reach_div = _reverse_closure(
            lts,
            seeds=self.may_diverge,
            follow=lambda lab: True,
        )
        self.reactive = [not b for b in can_reach_div]

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

    @property
    def sweep(self) -> tuple[list[int], list[int]]:
        """The states successors-first, and each state's predecessors.

        The order is the emission order of the strongly connected
        components over all edges, so a state comes after every state
        it can reach outside its own component.  `pred[j]` is the
        bitmask of the states with an edge, of any label, into j.
        """
        if self._sweep is None:
            succ = self.succ
            _, comps = _sccs(len(succ), [[j for _, j in out] for out in succ])
            pred = [0] * len(succ)
            for i, out in enumerate(succ):
                for _, j in out:
                    pred[j] |= 1 << i
            self._sweep = ([v for members in comps for v in members], pred)
        return self._sweep

    def facts(self, s: State | int) -> StateFacts:
        i = _sid(s)
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

    `succ[v]` lists the successors of state v along whichever edges the
    caller follows: the tau edges for the predicates, all edges for
    the elimination order.

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


def _reverse_closure(lts: Lts, seeds, follow) -> list[bool]:
    """States from which a seed is reachable along edges passing `follow`."""
    n = len(lts)
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, out in enumerate(lts.succ):
        for lab, j in out:
            if follow(lab):
                pred[j].append(i)
    hit = [bool(b) for b in seeds]
    todo = [i for i in range(n) if hit[i]]
    while todo:
        v = todo.pop()
        for u in pred[v]:
            if not hit[u]:
                hit[u] = True
                todo.append(u)
    return hit


def analysis(lts: Lts) -> Analysis:
    """The predicate tables for this graph, computed once and cached."""
    a = lts._analysis
    if a is None:
        a = Analysis(lts)
        lts._analysis = a
    return a


def converged(lts: Lts, s: State | int) -> bool:
    """No internal step: the state is stable and lets time pass."""
    return lts.stable[_sid(s)]


def may_converge(lts: Lts, s: State | int) -> bool:
    """Some converged state is reachable through tau steps alone."""
    return analysis(lts).may_converge[_sid(s)]


def ctx_converge(lts: Lts, s: State | int) -> bool:
    """Some converged state is reachable through instantaneous steps.

    Inputs and outputs count alongside tau, because a surrounding
    process can supply the matching half of a communication; tick does
    not, because time only passes once the state is already settled.
    """
    return analysis(lts).ctx_converge[_sid(s)]


def may_diverge(lts: Lts, s: State | int) -> bool:
    """An infinite run of tau steps exists from this state."""
    return analysis(lts).may_diverge[_sid(s)]


def barbs(lts: Lts, s: State | int) -> frozenset[Label]:
    """Communication offers of the stable states tau-reachable from s."""
    return analysis(lts).barbs[_sid(s)]


def is_reactive(lts: Lts, root: State | int) -> bool:
    """Every state reachable from the root is free of divergence."""
    return analysis(lts).reactive[_sid(root)]


def facts(lts: Lts, s: State | int) -> StateFacts:
    return analysis(lts).facts(s)


def facts_line(lts: Lts, s: State | int) -> str:
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
