"""Per-state semantic predicates of a graph, computed per tau component.

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

All predicates are exact on an untruncated graph.  The states of one
tau-SCC reach the same states, so every predicate is constant on it:
the tau edges are condensed once, and every table holds one value per
component, shared by its members.  Each tau table is one fold over
that condensation (`_fold`), which joins one seed per component over
the components each one reaches.  may_converge is seeded with whether
the component is a settled state (a settled state has no tau edge, so
it is a component of its own), may_diverge with whether it is a tau
cycle, and barbs with the settled state's commitments.  The two
predicates over all edges are two searches backward over the same
components (`_backward`): ctx_converge marks the components that reach
a settled state, and reactive clears the ones that reach a tau cycle.
The equivalence checkers respond with each label's weak transitions,
tau included, on first use: the tau fold seeded per component with
the member mask for tau, and with the closures of its members' targets
under any other label.  They eliminate in the emission order of the
condensation of all edges, with each state's predecessors, derived
when first read (`Analysis.sweep`).

ctx_converge needs no tick filter: a state gets a tick edge only when
it has no tau edge, so every tick edge leaves a stable state, and a
stable state is reachable over all edges exactly when it is reachable
over instantaneous ones.  `Analysis` is the one cache of everything
derived from a graph, and it is stored on the graph itself.  A set of
state pairs, a label's weak transitions or an equivalence, is served
as a `PairSet`, a view over one such mask per state.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from itertools import zip_longest

from .lts import BoundExceeded, Lts
from .terms import TAU, Label

__all__ = [
    "PairSet",
    "StateFacts",
    "Analysis",
    "analysis",
    "may_converge",
    "facts",
    "fact_items",
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

    Every table holds one value per tau-SCC, shared by its members: the
    tau tables each from one fold over the kept tau condensation,
    ctx_converge and reactivity from the backward searches over the
    components' edges of every label, tick included (tick edges leave
    stable states only).  `sweep` is the elimination order of the
    equivalence checkers, the states successors first, and `pred`,
    where `pred[j]` is the bitmask of the states with an edge, of any
    label, into j; it is derived from the edges when first read and
    then kept, so a query that never eliminates never pays for it.
    `weak_masks` folds each label's weak transition masks over the same
    condensation on first read, memoized per label; any other label's
    fold reads tau's, so it fills tau's first.
    """

    __slots__ = (
        "succ",
        "stable",
        "may_converge",
        "ctx_converge",
        "may_diverge",
        "barbs",
        "reactive",
        "_sweep",
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

        tau_succ = [[j for lab, j in out if lab is TAU] for out in lts.succ]
        comp, comps = _sccs(tau_succ)
        # the condensation's edges: the components each one's tau edges
        # enter, its own among them exactly when it is a tau cycle
        below = [{comp[w] for v in ms for w in tau_succ[v]} for ms in comps]
        self._tau = tau = (below, comp)
        # a settled state has no tau edge, so it is a component of its
        # own, and only a settled state has a commitment set
        settled = [stable[ms[0]] for ms in comps]
        cycle = [c in ds for c, ds in enumerate(below)]
        self.may_converge = _fold(*tau, settled)
        self.may_diverge = _fold(*tau, cycle)
        commit = lts.commit
        self.barbs = _fold(*tau, [commit[ms[0]] or frozenset() for ms in comps])
        # per component, the components with an edge of any label into it
        into: list[set[int]] = [set() for _ in comps]
        for v, out in enumerate(lts.succ):
            for _, j in out:
                into[comp[j]].add(comp[v])
        self.ctx_converge = _backward(into, comp, settled)
        self.reactive = [not r for r in _backward(into, comp, cycle)]
        self._sweep = None

    @property
    def sweep(self) -> tuple[list[int], list[int]]:
        """The elimination order and the predecessor masks, derived on
        first use and then kept."""
        s = self._sweep
        if s is None:
            all_succ = [[j for _, j in out] for out in self.succ]
            pred = [0] * len(all_succ)
            for v, out in enumerate(all_succ):
                for w in out:
                    pred[w] |= 1 << v
            _, comps = _sccs(all_succ)
            s = self._sweep = ([v for members in comps for v in members], pred)
        return s

    def weak_masks(self, lab: Label) -> list[int]:
        """Per-state bitmask of weak successors under `lab`, memoized.

        For tau this is the tau closure, the tau fold seeded with each
        component's member mask; for another label, tau closure, one
        strong step with the label, then tau closure again: the fold
        seeded with the closures of each component's `lab`-successors.
        """
        masks = self._weak.get(lab)
        if masks is None:
            below, comp = self._tau
            seed = [0] * len(below)
            if lab is TAU:
                for v, c in enumerate(comp):
                    seed[c] |= 1 << v
            else:
                tclo = self.weak_masks(TAU)
                for j, out in enumerate(self.succ):
                    for l2, k in out:
                        if l2 is lab:
                            seed[comp[j]] |= tclo[k]
            masks = self._weak[lab] = _fold(below, comp, seed)
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


class PairSet(Set):
    """A read-only set of state-id pairs, held as one bitmask per row:
    (i, j) is a member when bit j of `rows[i]` is set.

    The rows are used as given, not copied, and may be shared: a
    partition's rows are one mask per class.  Membership is one bit
    test; a pair with a negative or out-of-range id is no member, nor
    is any value but a pair of ints.  Iteration is in ascending (i, j)
    order and lists each distinct row's members once, keeping them only
    until the row's last occurrence; `len` counts the rows' bits.  `<=`,
    `>=` and `==` between two views compare row by row.  The other set
    operators give frozensets.  Like `set`, a view is unhashable.
    """

    __slots__ = ("rows",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, rows: list[int]) -> None:
        self.rows = rows

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __contains__(self, pair) -> bool:
        try:
            i, j = pair
            rows = self.rows
            return 0 <= i < len(rows) and j >= 0 and rows[i] >> j & 1 == 1
        except (TypeError, ValueError):  # not a pair of ints
            return False

    def __iter__(self):
        rows = self.rows
        last = {m: i for i, m in enumerate(rows)}
        listed: dict[int, tuple[int, ...]] = {}
        for i, m in enumerate(rows):
            js = listed.get(m) or tuple(_bits(m))
            if last[m] > i:
                listed[m] = js
            else:
                listed.pop(m, None)
            for j in js:
                yield i, j

    def __len__(self) -> int:
        return sum(m.bit_count() for m in self.rows)

    def __le__(self, other) -> bool:
        if isinstance(other, PairSet):
            rows = zip_longest(self.rows, other.rows, fillvalue=0)
            return not any(m & ~o for m, o in rows)
        return super().__le__(other)

    def __ge__(self, other) -> bool:
        if isinstance(other, PairSet):
            return other <= self
        return super().__ge__(other)

    def __eq__(self, other) -> bool:
        if isinstance(other, PairSet):
            rows = zip_longest(self.rows, other.rows, fillvalue=0)
            return all(m == o for m, o in rows)
        return super().__eq__(other)


def _backward(into: list[set[int]], comp: list[int], seed: list) -> list:
    """Per state, whether it reaches a component marked in `seed`.

    `into[c]` holds the components with an edge into component c, and
    `comp[v]` is state v's component.  One search backward from the
    marked components marks every component it meets.
    """
    seen = list(seed)
    stack = [c for c, s in enumerate(seed) if s]
    while stack:
        for d in into[stack.pop()]:
            if not seen[d]:
                seen[d] = True
                stack.append(d)
    return [seen[c] for c in comp]


def _fold(below: list[set[int]], comp: list[int], seed: list) -> list:
    """Each state's join (`|`) of `seed` over the components it reaches
    under an edge set, its own included.

    `below[c]` holds the components that component c's edges enter, and
    `comp[v]` is state v's component, of a condensation whose components
    are numbered in `_sccs` emission order.  `seed[c]` is component c's
    value, of any type `|` joins: ints, bools, frozensets.  One forward
    sweep over the components: every component comes after the
    components it can reach, so their values are complete by the time
    it joins them in.  The states of a component share one value object.
    """
    done = list(seed)
    for c, ds in enumerate(below):
        m = done[c]
        for d in ds:
            m |= done[d]
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
    # a numbered state without a component is on the stack
    comp = [-1] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if num[root] != -1:
            continue
        num[root] = low[root] = counter
        counter += 1
        stack.append(root)
        # the DFS path and an iterator over each of its states' edges,
        # kept apart: a pair per frame would be one more object for the
        # collector to count
        path = [root]
        outs = [iter(succ[root])]
        while outs:
            v = path[-1]
            for w in outs[-1]:
                if num[w] == -1:
                    num[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    path.append(w)
                    outs.append(iter(succ[w]))
                    break
                if comp[w] == -1 and num[w] < low[v]:
                    low[v] = num[w]
            else:
                path.pop()
                outs.pop()
                lv = low[v]
                if lv == num[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        comp[w] = len(comps)
                        members.append(w)
                        if w == v:
                            break
                    comps.append(members)
                elif lv < low[path[-1]]:
                    low[path[-1]] = lv
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


def fact_items(lts: Lts, s: int) -> list[tuple[str, object]]:
    """A state's facts as (name, value) pairs, in printed order.

    The one table of fact names: `facts_line` and `tccs analyze
    --format json` both read it.  Every value is a bool but the barbs,
    a list of labels in label order.
    """
    f = facts(lts, s)
    return [
        ("stable", f.stable),
        ("converge", f.may_converge),
        ("ctxconv", f.ctx_converge),
        ("diverge", f.may_diverge),
        ("reactive", f.reactive_root),
        ("barbs", sorted(f.barbs, key=Label.sort_key)),
    ]


def facts_line(lts: Lts, s: int) -> str:
    """One-line summary of a state's facts, as printed by the CLI."""
    return " ".join(
        "%s=%s" % (name, _label_set(v) if type(v) is list else str(v).lower())
        for name, v in fact_items(lts, s)
    )


def _label_set(labels) -> str:
    """A set of labels as printed: braced, comma-separated, sorted."""
    return "{%s}" % ",".join(
        str(lab) for lab in sorted(labels, key=Label.sort_key)
    )
