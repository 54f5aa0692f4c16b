"""Operational semantics: strong transitions, commitments, reachable graphs.

Within an instant a process performs communication and internal steps.
When, and only when, no internal step is possible, time passes: the
whole process takes a single deterministic tick.  The negative premise
behind that rule is realized by computing the instantaneous steps
first and deriving the tick successor structurally only when no tau
step exists; the side conditions on composition and else_next are
facts about the whole state, not about a single rule application.

Unfolding a call is itself a tau step, never a silent rewrite.  The
divergence analyses downstream depend on that: the process defined by
X() = tau.X() must take internal steps forever.

States of a built graph are canonical terms, so commutation of
branches, inert units and dead restrictions never blow up the state
count.  Construction is bounded; hitting the bound is reported in the
result, not raised, and downstream analyses refuse truncated graphs.

Terms are hash-consed, so one component recurs across many states.
`build_lts` computes the moves of each distinct component once, in a
memo that dies with the call and so keeps no term alive.  `step`
composes a state's moves from its components', the operands of its
composition node, a term that is not a composition being a
composition of one: an edge swaps the component that moved, or the
two that synchronized, for the operands of their memoized canonical
targets, and `compose` builds the result as one node, instead of
rebuilding and canonicalizing the whole state.  The memo keeps a
communication's co-label beside its label: no label points at its
co-label.  A composition under a restriction, sum or else_next, as in
every encoded tau.P, has its moves composed by the same rule from the
same memo.  The tick is one rule over the whole state, `_tick`, nested
compositions included, and the memo holds no tick.  The tests check
both rules against an independent reference that steps every term
whole by the binary rules (`tests/oracles.py`).
"""

from __future__ import annotations

from .terms import (
    NIL,
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
    classify,
    compose,
    pretty,
)

__all__ = [
    "BoundExceeded",
    "step",
    "commitments",
    "Lts",
    "build_lts",
    "verify_lts_laws",
    "to_json",
    "to_dot",
]


class BoundExceeded(Exception):
    """Raised by consumers that cannot work on a truncated graph."""


# ---------------------------------------------------------------------------
# strong transitions


def step(
    p: Process,
    defs: DefTable,
    memo: dict | None = None,
) -> list[tuple[Label, Process]]:
    """All strong transitions of p, targets canonicalized.

    The tick successor is present exactly when no tau step is, and is
    unique.  The result is deduplicated and deterministically ordered.
    p is canonicalized and its moves are composed from its components',
    one component when it is not a composition (`_compose_moves`); the
    tick is `_tick` of the whole state.  `memo` maps each component to
    its moves, None for a fresh one; its lists are shared, so none is
    mutated.
    """
    if memo is None:
        memo = {}
    p = canonicalize(p)
    moves = _compose_moves(p, defs, memo)
    for lab, _ in moves:
        if lab is TAU:
            break
    else:
        moves.append((TICK, canonicalize(_tick(p))))
    return sorted(dict.fromkeys(moves), key=_move_key)


def _move_key(move: tuple[Label, Process]) -> tuple:
    # by label, then by printed target
    lab, q = move
    return lab._sort_key, q._text


def _compose_moves(
    p: Process, defs: DefTable, memo: dict
) -> list[tuple[Label, Process]]:
    """The instantaneous moves of a canonical term, targets canonical.

    The one composition rule, for a state and for a composition nested
    under another node alike.  The term's components are the operands
    of its composition, or the term itself.  A move swaps the component
    that moved, or the two that synchronized, for the operands of their
    targets; `compose` builds the result.  Equal components are
    adjacent and move alike, so only the first of a run moves on its
    own or as the earlier of a pair, and pairs with the second.  A
    communication finds its partners in an index of the later
    components' offers keyed by label, built once per term, instead of
    in every later component's moves; the moves come out in the order
    of that scan.
    """
    parts = _components(p)
    comps = []
    # each communication that a later component offers, under its label:
    # (position, target operands, twin), in position and move order; a
    # twin, the second of a run of equal components, pairs only with the
    # first, and the rest of a run never pairs
    offers: dict[Label, list] = {}
    for j, c in enumerate(parts):
        own = memo.get(c)
        if own is None:
            own = _component(c, defs, memo)
        comps.append(own)
        if j:
            twin = c is parts[j - 1]
            if twin and j > 1 and c is parts[j - 2]:
                continue
            for lab, new, co in own:
                if co is not None:
                    offers.setdefault(lab, []).append((j, new, twin))
    moves = []
    for i, c in enumerate(parts):
        if i and c is parts[i - 1]:
            continue
        head, tail = parts[:i], parts[i + 1 :]
        for lab, new, co in comps[i]:
            moves.append((lab, compose([*head, *new, *tail])))
            for j, new2, twin in offers.get(co, ()):
                if j > i and (not twin or j == i + 1):
                    pair = [*head, *new, *parts[i + 1 : j], *new2, *parts[j + 1 :]]
                    moves.append((TAU, compose(pair)))
    return moves


def _components(p: Process) -> tuple[Process, ...]:
    # the operands of a canonical term's composition, none of inaction,
    # or the term
    return p.parts if type(p) is Par else () if p is NIL else (p,)  # type: ignore


def _component(c: Process, defs: DefTable, memo: dict) -> list:
    """A component's instantaneous moves, computed and stored in `memo`
    under `c`; the caller has found no entry.

    Each entry is the label, the operands of the target's canonical
    form, and the co-label of a communication, None for tau.  The
    co-label lives here, in a memo that dies with the call: labels
    pointing at their co-labels would form cycles.
    """
    moves = []
    for lab, q in _alpha(c, defs, memo):
        new = _components(canonicalize(q))
        moves.append((lab, new, lab.co() if lab.is_comm else None))
    memo[c] = moves
    return moves


def _alpha(p: Process, defs: DefTable, memo: dict) -> list[tuple[Label, Process]]:
    """Instantaneous steps: communication, synchronization, unfolding.

    p is canonical: a component of a canonical state, or a branch, body
    or current branch of one.  A sum's moves are its branches'.  A
    composition, here always one under another node, is stepped by
    `_compose_moves` from the components' moves in `memo`.
    """
    match p:
        case Nil():
            return []
        case Prefix(pol, a, k):
            return [(Label(pol, a), k)]
        case Sum():
            return [m for q in p.parts for m in _alpha(q, defs, memo)]
        case Par():
            return _compose_moves(p, defs, memo)
        case Restrict(a, b):
            return [
                (lab, Restrict(a, b2))
                for lab, b2 in _alpha(b, defs, memo)
                if lab.name != a
            ]
        case Call(ident, args):
            return [(TAU, defs.lookup(ident).instance(args))]
        case ElseNext(now, _):
            return _alpha(now, defs, memo)
    raise AssertionError("unreachable node %r" % p)


def _tick(p: Process) -> Process:
    """Tick successor, defined only for states without a tau step.

    The only rule that lets time pass: `step` applies it to a whole
    state, and it recurses into every part.  Under that premise every
    branch of a sum or composition can let time pass itself, and a
    call can never occur here: its unfolding tau would have shown up
    at the top.
    """
    match p:
        case Nil() | Prefix(_, _, _):
            return p
        case Sum() | Par():
            return type(p)(*[_tick(q) for q in p.parts])
        case Restrict(a, b):
            return Restrict(a, _tick(b))
        case ElseNext(_, later):
            return later
        case Call(_, _):
            raise AssertionError("a call is never stable: %r" % p)
    raise AssertionError("unreachable node %r" % p)


# ---------------------------------------------------------------------------
# commitments

# A stable process commits on the finite set of communications it
# offers.  The rules mirror the instantaneous transitions read off
# syntactically: a sum offers both sides, an else_next offers whatever
# its current branch offers, a restriction withholds its bound name,
# and a composition commits only when no synchronization is possible.
# A call has no rule: it always has the unfolding step.  A built graph
# reads its states' commitments off their edges instead; these rules
# are what `verify_lts_laws` checks the edges against.


def commitments(
    p: Process, defs: DefTable, memo: dict | None = None
) -> frozenset[Label] | None:
    """The commitment set of p, None when p is not stable.

    `memo` maps each operand of a sum or composition to its commitment
    set and their co-labels, filled on first use; a caller asking about
    many terms that share operands passes one, as `build_lts` passes
    one to `step`.
    """
    match p:
        case Nil():
            return frozenset()
        case Prefix(pol, a, _):
            return frozenset({Label(pol, a)})
        case Sum() | Par():
            if memo is None:
                memo = {}
            acc: set[Label] = set()
            for q in p.parts:
                if q not in memo:
                    c = commitments(q, defs, memo)
                    memo[q] = c, None if c is None else frozenset(lab.co() for lab in c)
                c, co = memo[q]
                if c is None or (type(p) is Par and not acc.isdisjoint(co)):
                    return None
                acc |= c
            return frozenset(acc)
        case Restrict(a, b):
            cb = commitments(b, defs, memo)
            if cb is None:
                return None
            return frozenset(lab for lab in cb if lab.name != a)
        case Call(_, _):
            return None
        case ElseNext(now, _):
            return commitments(now, defs, memo)
    raise AssertionError("unreachable node %r" % p)


# ---------------------------------------------------------------------------
# reachable graphs


class Lts:
    """Rooted transition graph over canonical states.

    `terms[i]` is the canonical term of state i, `succ[i]` its ordered
    outgoing edges, and `index` maps each canonical term back to its
    state.  Terms are hash-consed, so `index` looks a term up by
    identity.  `stable` and `commit` are read off the edges: a state
    is stable when it has no tau edge, and a stable state's commitment
    set is the communication labels of its edges, None on the others.
    Every expanded state has an edge, tau or tick, so in a truncated
    graph the edgeless states are the unexplored ones, and both are
    None there.
    `verify_lts_laws` checks them against the rule-based `commitments`
    of each term.  `_analysis` is a write-once cache for everything
    derived from the graph, filled by `tccs.analyses.analysis`.
    """

    __slots__ = (
        "defs",
        "roots",
        "terms",
        "index",
        "succ",
        "truncated",
        "stable",
        "commit",
        "_analysis",
    )

    def __init__(
        self,
        defs: DefTable,
        roots: tuple[int, ...],
        terms: list[Process],
        index: dict[Process, int],
        succ: list[tuple[tuple[Label, int], ...]],
        truncated: bool,
    ) -> None:
        self.defs = defs
        self.roots = roots
        self.terms = terms
        self.index = index
        self.succ = succ
        self.truncated = truncated
        self.stable = stable = []
        self.commit = commit = []
        for out in succ:
            for lab, _ in out:
                if lab is TAU:
                    stable.append(False)
                    commit.append(None)
                    break
            else:
                stable.append(True)
                commit.append(frozenset(lab for lab, _ in out if lab.is_comm))
        if truncated:
            for i, out in enumerate(succ):
                if not out:
                    self.stable[i] = self.commit[i] = None
        self._analysis = None

    def __len__(self) -> int:
        return len(self.terms)

    def edges(self) -> list[tuple[int, Label, int]]:
        return [
            (i, lab, j) for i, out in enumerate(self.succ) for lab, j in out
        ]

    def state_of(self, p: Process) -> int:
        return self.index[canonicalize(p)]


def build_lts(
    roots: list[Process] | tuple[Process, ...],
    defs: DefTable,
    bound: int = 10000,
) -> Lts:
    """Breadth-first closure of the step relation from the given roots.

    Stops, marking the result truncated, as soon as interning one more
    state would push the count past `bound`.  Unexplored states keep an
    empty edge tuple, and so does the state whose expansion the bound
    interrupted; consumers must check the flag.

    Each state is expanded by one call of the module's `step`, given
    one memo of component moves for the whole call, dropped when it
    returns.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    terms: list[Process] = []
    index: dict[Process, int] = {}
    succ: list[tuple[tuple[Label, int], ...]] = []
    truncated = False

    def intern(p: Process) -> int | None:
        # a new state's number, None past the bound
        nonlocal truncated
        if len(terms) >= bound:
            truncated = True
            return None
        index[p] = i = len(terms)
        terms.append(p)
        succ.append(())
        return i

    root_ids: list[int] = []
    for r in roots:
        r = canonicalize(r)
        i = index.get(r)
        if i is None:
            i = intern(r)
            if i is None:
                break
        root_ids.append(i)

    memo: dict = {}
    frontier = 0
    while frontier < len(terms) and not truncated:
        i = frontier
        frontier += 1
        edges: list[tuple[Label, int]] = []
        for lab, q in step(terms[i], defs, memo):
            j = index.get(q)
            if j is None:
                j = intern(q)
                if j is None:
                    break
            edges.append((lab, j))
        else:
            succ[i] = tuple(edges)

    return Lts(defs, tuple(root_ids), terms, index, succ, truncated)


# ---------------------------------------------------------------------------
# sanity laws


def verify_lts_laws(lts: Lts) -> list[str]:
    """Check the per-state laws of the semantics; return violations.

    For every state: it has a tick edge if and only if it has no tau
    edge; the tick successor is unique; a state restricted to the
    calculus without else_next ticks to itself; the term's rule-based
    commitment set (`commitments`) is present exactly on stable states
    and then lists the communications its edges offer; the term is its
    own canonical form, the identity `build_lts` interns states by.  A
    non-empty report means an engine bug.
    """
    if lts.truncated:
        raise BoundExceeded("laws are only meaningful on a complete graph")
    report: list[str] = []
    # each component's facts, derived once: a term is CCS when all its
    # components are, and `commitments` composes from its memo
    ccs: dict[Process, bool] = {}
    memo: dict = {}

    def is_ccs(c: Process) -> bool:
        v = ccs.get(c)
        if v is None:
            v = ccs[c] = classify(c, lts.defs).is_ccs
        return v

    for i, term in enumerate(lts.terms):
        if canonicalize(term) is not term:
            report.append("state %d (%s): not in canonical form" % (i, pretty(term)))
        out = lts.succ[i]
        taus = [j for lab, j in out if lab.kind == "tau"]
        ticks = [j for lab, j in out if lab.kind == "tick"]
        if bool(ticks) == bool(taus):
            report.append(
                "state %d (%s): tick present=%s but tau present=%s"
                % (i, pretty(term), bool(ticks), bool(taus))
            )
        if len(ticks) > 1:
            report.append(
                "state %d (%s): %d tick successors" % (i, pretty(term), len(ticks))
            )
        if ticks and ticks[0] != i and all(map(is_ccs, _components(term))):
            report.append(
                "state %d (%s): ticks to %d instead of itself"
                % (i, pretty(term), ticks[0])
            )
        com = commitments(term, lts.defs, memo)
        if (com is not None) != lts.stable[i]:
            report.append(
                "state %d (%s): commitment %s but stable=%s"
                % (i, pretty(term), _show(com), lts.stable[i])
            )
        if com is not None:
            offered = frozenset(lab for lab, _ in out if lab.is_comm)
            if com != offered:
                report.append(
                    "state %d (%s): commits %s but offers %s"
                    % (i, pretty(term), _show(com), _show(offered))
                )
    return report


def _show(labels: frozenset[Label] | None) -> str:
    # sorted by text: a set of interned labels iterates in address order
    if labels is None:
        return "None"
    return "{%s}" % ", ".join(sorted(map(str, labels)))


# ---------------------------------------------------------------------------
# export


def to_json(lts: Lts) -> dict:
    states = []
    for i, term in enumerate(lts.terms):
        com = lts.commit[i]
        states.append(
            {
                "id": i,
                "term": pretty(term),
                "stable": lts.stable[i],
                "commit": sorted(map(str, com)) if com is not None else None,
            }
        )
    return {
        "states": states,
        "edges": [[i, str(lab), j] for i, lab, j in lts.edges()],
        "roots": list(lts.roots),
        "truncated": lts.truncated,
    }


def to_dot(lts: Lts) -> str:
    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph lts {", "  rankdir=LR;", "  node [shape=box];"]
    for i, term in enumerate(lts.terms):
        extra = ", peripheries=2" if lts.stable[i] else ""
        lines.append('  %d [label="%d: %s"%s];' % (i, i, esc(pretty(term)), extra))
    for i, lab, j in lts.edges():
        lines.append('  %d -> %d [label="%s"];' % (i, j, esc(str(lab))))
    lines.append("}")
    return "\n".join(lines)
