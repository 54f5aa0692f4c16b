"""Weak bisimulation checkers, certificates, and a context falsifier.

Four relations are decided on a shared finite graph, all as greatest
fixed points of an elimination loop.  A challenge is always a strong
edge; a response is always a weak transition into the current
candidate relation.  The modes differ only in which edges challenge
and which responses are accepted:

* usual: every edge challenges, tick included, and must be answered by
  the weak transition with the same label.
* usual-untimed: as usual, but tick edges neither challenge nor
  respond.  Only meaningful for processes that never mention else_next.
* conv: internal steps and tick challenge unconditionally; a
  communication edge challenges only from a state that can reach a
  settled state by instantaneous steps (ctx_converge), and when its
  target cannot, the responder may answer with the label or with
  internal steps alone.
* conv-div: conv, after first discarding every pair whose two states
  disagree on may_diverge.  Divergence agreement is a property of the
  states, not of the candidate relation, so it is an initial filter
  rather than an elimination clause: the loop starts from the
  partition of the states by the flag, and a certificate records a
  filtered pair with a challenge-free entry.

The conv game decides the contextual equivalence it stands for on all
processes, and conv-div its divergence-sensitive refinement; the
checker works with the labelled characterizations throughout.

The elimination loop works in rounds.  Each round sweeps the rows of
the states successors first, so a pair is usually visited after the
pairs its challenges lead to, and after the first round it re-checks
only the pairs with a state that has an edge into a row the round
before changed.  `largest_bisimulation` runs it on every pair until a
round removes nothing.  A check of one pair reads only what that
pair's verdict needs, in the manner of on-the-fly checking (Fernandez
and Mounier, CAV 1991): the root pair first, against the starting
relation; if it survives, the root's closure, the pairs its clauses
read, transitively, which the loop sweeps until the root falls or a
round removes nothing.  A verdict's `rounds` counts the rounds until
then: 1 when the root falls on its first visit, 0 when the filter
discarded it.

Every relation the loop computes on all pairs is an equivalence, and
its result is a partition: one class id per state.  The loop logs
eliminations only.  A negative verdict's certificate is the refutation
cone of the queried pair: the filtered pairs its refutation reads,
recovered from the flags, then the removals it reads, transitively,
in the order they happened.  Replaying them re-eliminates exactly
those pairs, and `explain` prints each of them once, root first.

`falsify_with_context` is the contextual side of the story: a bounded
enumeration of static contexts over a fixed tester family.  It only
ever reports sound distinctions; exhausting the enumeration proves
nothing.  It compares may-convergence (weak tick at the root), root
barbs and the families of ready sets of the settled states reachable
by internal steps; related processes must match those families
exactly, so a mismatch is a genuine distinction even when the barbs
coincide.  All three are facts of the tau-reachable states, so each
plugged pair is explored by tau moves from its roots, not built.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

# may_converge is unused here, but perfbench's traced run rebinds it here
from .analyses import (  # noqa: F401
    PairSet, _bits, _label_set, analysis, may_converge,
)
from .lts import BoundExceeded, Lts, build_lts
from .terms import (
    NIL,
    TAU,
    DefTable,
    HOLE,
    Label,
    NameSupply,
    OMEGA_IDENT,
    Call,
    ParWith,
    Prefix,
    Process,
    RestrictCtx,
    StaticContext,
    all_names,
    canonicalize,
    classify,
    ensure_builtins,
    internal_choice,
    plug,
    pretty,
    pretty_context,
)

__all__ = [
    "USUAL",
    "USUAL_UNTIMED",
    "CONV",
    "CONV_DIV",
    "MODES",
    "Relation",
    "CertEntry",
    "EquivVerdict",
    "UntimedRefusal",
    "weak",
    "largest_bisimulation",
    "check",
    "check_states",
    "check_ccs_equivalently",
    "falsify_with_context",
    "explain",
]

USUAL = "usual"
USUAL_UNTIMED = "usual-untimed"
CONV = "conv"
CONV_DIV = "conv-div"
MODES = (USUAL, USUAL_UNTIMED, CONV, CONV_DIV)

# internal mode for the untimed decision on processes without else_next:
# the tick clause is replaced by a may-convergence filter
_CONV_CCS = "conv-ccs"


# ---------------------------------------------------------------------------
# weak transitions


def weak(lts: Lts, label: Label) -> PairSet:
    """The weak transition relation for one label, as a read-only set
    of state-id pairs: a view over the label's weak masks
    (`Analysis.weak_masks`), which it shares and does not copy."""
    if lts.truncated:
        raise BoundExceeded("weak transitions need the full graph")
    return PairSet(analysis(lts).weak_masks(label))


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True, slots=True)
class CertEntry:
    """One eliminated pair: who challenged, how, and in which round.

    Every weak response to the challenge, `responses` in ascending state
    order, leads to a pair with an entry earlier in the same
    certificate.  A challenge-free entry records a
    pair discarded by an initial filter (divergence agreement, or
    may-convergence agreement for the untimed variant), in round 0.
    """

    pair: tuple[int, int]
    clause: str
    challenge: tuple[int, Label, int] | None
    round: int
    responses: tuple[int, ...] = ()

    def to_json(self) -> dict:
        ch = self.challenge
        return {
            "pair": list(self.pair),
            "clause": self.clause,
            "challenge": None if ch is None else [ch[0], str(ch[1]), ch[2]],
            "round": self.round,
        }


@dataclass
class EquivVerdict:
    related: bool
    mode: str
    roots: tuple[int, int]
    rounds: int
    certificate: list[CertEntry]
    tester: str | None = None
    lts: Lts | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "related": self.related,
            "mode": self.mode,
            "roots": list(self.roots),
            "rounds": self.rounds,
            "certificate": [e.to_json() for e in self.certificate],
            "tester": self.tester,
        }


@dataclass(frozen=True)
class Relation:
    """An equivalence on the states of one graph, as a partition:
    `block[i]` is the class id of state i, numbered by first appearance.
    `pairs` is the relation as a read-only set of ordered pairs, a view
    made on first read and then kept, whose rows are one mask per
    class, shared by the class's members: n references and one mask per
    class, never a set of every pair."""

    mode: str
    block: tuple[int, ...]

    def __contains__(self, pair) -> bool:
        try:
            s, t = pair
            b, n = self.block, len(self.block)
            return 0 <= s < n and 0 <= t < n and b[s] == b[t]
        except (TypeError, ValueError):  # not a pair of ints
            return False

    @cached_property
    def pairs(self) -> PairSet:
        masks = [0] * (max(self.block, default=-1) + 1)
        for i, b in enumerate(self.block):
            masks[b] |= 1 << i
        return PairSet([masks[b] for b in self.block])


# ---------------------------------------------------------------------------
# the elimination loop


# the clause of a mode's initial filter; the flag it compares is the
# analysis attribute "may_" + clause
_FILTERS = {CONV_DIV: "diverge", _CONV_CCS: "converge"}


def _game(lts: Lts, an, mode: str) -> list[list[tuple]]:
    """The mode's challenge table, the one copy of its response rule:
    per state, each challenging edge as (clause, label, target,
    answers), where answers[t] masks the weak responses of state t.

    In the conv games a label challenges only from a ctx_converge
    state, and when its target cannot converge the responder may also
    answer with internal steps alone.
    """
    conv_game = mode in (CONV, CONV_DIV, _CONV_CCS)
    untimed = mode in (USUAL_UNTIMED, _CONV_CCS)
    cc = an.ctx_converge
    or_tau: dict[Label, list[int]] = {}
    table = []
    for s, out in enumerate(lts.succ):
        row = []
        for lab, s2 in out:
            if lab.kind == "tau":
                clause = "red-tau" if conv_game else "usual-mu"
            elif lab.kind == "tick":
                if untimed:
                    continue
                clause = "red-tick" if conv_game else "usual-mu"
            elif conv_game:
                if not cc[s]:
                    continue
                clause = "lab"
            else:
                clause = "usual-mu"
            answers = an.weak_masks(lab)
            if clause == "lab" and not cc[s2]:
                if lab not in or_tau:
                    or_tau[lab] = [
                        w | c for w, c in zip(answers, an.weak_masks(TAU))
                    ]
                answers = or_tau[lab]
            row.append((clause, lab, s2, answers))
        table.append(row)
    return table


def _eliminate(
    lts: Lts, an, mode: str, root: tuple[int, int] | None = None
) -> tuple[list[int], array, int, list]:
    """Greatest fixed point by successor-first elimination rounds.

    Starts from the full relation, or from the partition by the mode's
    filter flag, and removes violated pairs.  A round visits the rows
    of the states in the order of `Analysis.sweep`, successors first,
    and each unordered pair of distinct states once, in the row of
    whichever state comes first, columns ascending; so a pair usually
    meets the pairs its challenges lead to already decided.  The first
    round visits every pair; a later one only the pairs with a state
    that has an edge into a row that lost a pair in the round before,
    since no other pair's clauses read a changed row.  The loop stops
    after a round that removes nothing, and that round is counted too.
    The identity pairs are never visited: every state answers its own
    challenges.

    Given a `root` pair, the loop decides that pair only: a root the
    filter discarded in 0 rounds; else it visits the root once against
    the starting relation, and if the root falls, logs it in round 1
    and returns.  Otherwise it sweeps the root's `_closure` alone and
    returns as soon as it removes the root.  Each removal is made
    against a superset of the fixed point, its challenge's answers
    removed before or filtered, so `_cone` reads this log as a full one.

    Returns the row masks of the relation it ends with, the removal
    log, the rounds and the challenge table.  The log holds four ints
    per elimination, in order: challenger, responder, the challenge's
    index in the challenger's row and the round.
    """
    if mode not in MODES and mode != _CONV_CCS:
        raise ValueError("unknown mode %r" % mode)
    n = len(lts)
    log = array("i")
    if mode in _FILTERS:
        flag = getattr(an, "may_" + _FILTERS[mode])
        yes = sum(1 << i for i, v in enumerate(flag) if v)
        no = ((1 << n) - 1) ^ yes
        rel = [yes if v else no for v in flag]
    else:
        rel = [(1 << n) - 1] * n
    table = _game(lts, an, mode)

    def violation(s: int, t: int):
        """The first challenge of s that t cannot answer, if any, as
        challenger, responder and the challenge's index in s's row."""
        for k, (_, _, s2, answers) in enumerate(table[s]):
            if not answers[t] & rel[s2]:
                return s, t, k
        return None

    if root is not None:
        s, t = root
        if not rel[s] >> t & 1:
            return rel, log, 0, table
        hit = s != t and (violation(s, t) or violation(t, s))
        if hit:
            log.extend(hit)
            log.append(1)
            rel[s] &= ~(1 << t)
            rel[t] &= ~(1 << s)
            return rel, log, 1, table
        rel = _closure(table, rel, root)

    # hot: the states whose pairs the round re-checks, all of them at
    # first; done: the states whose rows the round has swept
    order, pred = an.sweep
    hot = -1
    rounds = 0
    while True:
        rounds += 1
        dirty = 0
        done = 0
        for s in order:
            done |= 1 << s
            todo = rel[s] & ~done
            if not hot >> s & 1:
                todo &= hot
            for t in _bits(todo):
                hit = violation(s, t) or violation(t, s)
                if hit is not None:
                    log.extend(hit)
                    log.append(rounds)
                    rel[s] &= ~(1 << t)
                    rel[t] &= ~(1 << s)
                    if root is not None and s in root and t in root:
                        return rel, log, rounds, table
                    dirty |= 1 << s | 1 << t
        if not dirty:
            return rel, log, rounds, table
        hot = 0
        for r in _bits(dirty):
            hot |= pred[r]


def _closure(table: list, rel: list[int], root: tuple[int, int]) -> list[int]:
    """The pairs of `rel` that the root pair's clauses read,
    transitively, and the identity pairs, as row masks.

    A pair's clauses read, for each challenge of either state, the
    challenge's target paired with each weak answer of the other
    state.  The closure holds every pair of the fixed point that its
    pairs read, so the fixed point within it is the full fixed point's
    restriction to it.
    """
    reach = [1 << i for i in range(len(rel))]
    s, t = root
    stack = []
    if s != t:
        reach[s] |= 1 << t
        reach[t] |= 1 << s
        stack.append(root)
    while stack:
        x, y = stack.pop()
        for a, b in ((x, y), (y, x)):
            for _, _, a2, answers in table[a]:
                new = answers[b] & rel[a2] & ~reach[a2]
                if new:
                    reach[a2] |= new
                    for u in _bits(new):
                        reach[u] |= 1 << a2
                        stack.append((a2, u))
    return reach


def _classes(rows: list[int]) -> list[int]:
    """Each state's class id, numbered by first appearance, when the row
    masks form an equivalence: every state is in its own row, and the
    distinct rows hold n states between them, so they are disjoint."""
    ids: dict[int, int] = {}
    block = [ids.setdefault(row, len(ids)) for row in rows]
    assert all(row >> i & 1 for i, row in enumerate(rows))
    assert sum(row.bit_count() for row in ids) == len(rows)
    return block


def _cone(
    log: array, table: list, root: tuple[int, int], an, mode: str
) -> list[CertEntry]:
    """The filtered pairs and logged removals the refutation of the
    root pair reads.

    An entry is kept when its unordered pair is needed, the root's
    first; a kept challenge then needs its target paired with each of
    the responder's answers.  Those pairs were gone when the entry was
    logged, so they come earlier, and one backward pass finds every
    one the log removed.  A needed pair it never met was never in the
    relation: its states disagree on the mode's filter flag.  Such
    pairs open the cone, rows first, columns ascending.
    """
    s, t = root
    need = {(s, t) if s < t else (t, s)}
    cone: list[CertEntry] = []
    entries = zip(log[-4::-4], log[-3::-4], log[-2::-4], log[-1::-4])
    for s, t, k, r in entries:
        pair = (s, t) if s < t else (t, s)
        if pair not in need:
            continue
        need.remove(pair)
        clause, lab, s2, answers = table[s][k]
        responses = tuple(_bits(answers[t]))
        for u in responses:
            need.add((s2, u) if s2 < u else (u, s2))
        cone.append(CertEntry((s, t), clause, (s, lab, s2), r, responses))
    if need:
        assert mode in _FILTERS, "a refuted response is not in the log"
        flag = getattr(an, "may_" + _FILTERS[mode])
        assert all(flag[s] != flag[t] for s, t in need), (
            "a refuted response is neither in the log nor filtered"
        )
        cone += [CertEntry(p, _FILTERS[mode], None, 0)
                 for p in sorted(need, reverse=True)]
    cone.reverse()
    return cone


def largest_bisimulation(lts: Lts, mode: str) -> Relation:
    """The greatest relation satisfying the mode's clauses."""
    if lts.truncated:
        raise BoundExceeded("equivalence checking needs the full graph")
    rows = _eliminate(lts, analysis(lts), mode)[0]
    return Relation(mode, tuple(_classes(rows)))


def check_states(lts: Lts, s: int, t: int, mode: str) -> EquivVerdict:
    """Decide one state pair on a prebuilt graph.

    Only the pairs the root pair's clauses read are decided: the root
    first, against the starting relation, then the root's closure,
    until the root falls or the closure is stable.  The certificate is
    the pair's refutation cone, empty when the verdict is positive.
    """
    if lts.truncated:
        raise BoundExceeded("equivalence checking needs the full graph")
    an = analysis(lts)
    rel, log, rounds, table = _eliminate(lts, an, mode, (s, t))
    related = bool(rel[s] >> t & 1)
    cert = [] if related else _cone(log, table, (s, t), an, mode)
    return EquivVerdict(related, mode, (s, t), rounds, cert, None, lts)


def check(
    p: Process,
    q: Process,
    mode: str,
    defs: DefTable | None = None,
    bound: int = 10000,
) -> EquivVerdict:
    """Build the joint graph of p and q and decide the given relation.

    An unknown mode raises ValueError.  The untimed modes raise
    UntimedRefusal, a ValueError too, when p or q mentions else_next.
    """
    if mode not in MODES:
        raise ValueError("unknown mode %r" % mode)
    return _decide(p, q, mode, defs, bound)


def check_ccs_equivalently(
    p: Process,
    q: Process,
    defs: DefTable | None = None,
    bound: int = 10000,
) -> EquivVerdict:
    """Decide the conv relation on tick-free processes the untimed way.

    The tick clause is replaced by agreement on may-convergence, which
    on processes without else_next selects the same pairs; the checker
    must therefore always agree with mode conv on such inputs, and the
    test suite holds it to that.
    """
    return _decide(p, q, _CONV_CCS, defs, bound)


def _decide(
    p: Process, q: Process, mode: str, defs: DefTable | None, bound: int
) -> EquivVerdict:
    """Build the joint graph and play the mode's game on its roots.

    The untimed modes first refuse processes that mention else_next.
    """
    defs = defs if defs is not None else DefTable()
    if mode in (USUAL_UNTIMED, _CONV_CCS):
        for r in (p, q):
            if not classify(r, defs).is_ccs:
                raise UntimedRefusal(
                    "%s compares only processes without else_next" % mode
                )
    lts = build_lts([p, q], defs, bound)
    if lts.truncated:
        raise BoundExceeded(
            "state bound %d exceeded while building the graph" % bound
        )
    return check_states(lts, *lts.roots, mode)


class UntimedRefusal(ValueError):
    """An untimed mode was given a process that mentions else_next."""


# ---------------------------------------------------------------------------
# bounded context falsification


def _testers(p: Process, q: Process, supply: NameSupply) -> list[Process]:
    """The tester family over the free names of the compared processes.

    Per free name a, in both polarities: a bare co-prefix over 0, a
    co-prefix over the two-stage internal choice ((b (+) 0) (+) c)
    with machine-fresh b and c, and a co-prefix over the diverging
    call.  The choice testers separate branching that bare offers
    cannot; the diverging testers cut convergence selectively.
    """
    testers: list[Process] = []
    for a in sorted(p.free | q.free):
        for polarity in ("out", "in"):
            testers.append(Prefix(polarity, a, NIL))
            b = supply.fresh()
            c = supply.fresh()
            pick = internal_choice(
                internal_choice(Prefix("in", b, NIL), NIL, supply),
                Prefix("in", c, NIL),
                supply,
            )
            testers.append(Prefix(polarity, a, pick))
            testers.append(Prefix(polarity, a, Call(OMEGA_IDENT)))
    return testers


def _settled_families(
    pair: tuple[Process, Process], defs: DefTable, memo: dict, bound: int, step
) -> list[frozenset[frozenset[Label]]] | None:
    """Per root, the ready sets of the settled states it reaches by tau
    moves of `step`, depth first; None past `bound` stepped states.
    The two searches step each state once between them."""
    stepped: dict[Process, tuple] = {}
    fams = []
    for root in pair:
        fam = set()
        todo, done = [root], {root}
        while todo:
            s = todo.pop()
            if s not in stepped:
                if len(stepped) >= bound:
                    return None
                out = step(s, defs, memo)
                taus = [t for lab, t in out if lab is TAU]
                ready = frozenset(lab for lab, _ in out if lab.is_comm)
                stepped[s] = taus, ready
            taus, ready = stepped[s]
            if not taus:
                fam.add(ready)
            todo += [t for t in taus if t not in done]
            done.update(taus)
        fams.append(frozenset(fam))
    return fams


def _distinguish(f0: frozenset, f1: frozenset) -> str | None:
    """Why two processes visibly differ, if they do, given the families
    of their settled ready sets: a process may converge when its family
    is not empty, and its barbs are the family's union."""
    c0, c1 = (str(bool(f)).lower() for f in (f0, f1))
    if c0 != c1:
        return "may-converge disagrees: left=%s right=%s" % (c0, c1)
    b0, b1 = (frozenset().union(*f) for f in (f0, f1))
    if b0 != b1:
        return "root barbs disagree: left=%s right=%s" % (
            _label_set(b0), _label_set(b1)
        )
    if f0 != f1:
        odd = sorted(_label_set(fam) for fam in f0 ^ f1)
        return "settled ready sets disagree: unmatched %s" % ", ".join(odd)
    return None


def falsify_with_context(
    p: Process,
    q: Process,
    defs: DefTable | None = None,
    depth: int = 3,
    bound: int = 10000,
    skipped: list[str] | None = None,
) -> tuple[StaticContext, str] | None:
    """Search for a static context under which p and q visibly differ.

    Contexts are compositions, up to `depth` layers, of parallel
    testers and restrictions over the free names.  A context counts as
    distinguishing when the two plugged processes disagree on
    may-convergence (equivalently, on weak tick at the root), on root
    barbs, or on the families of ready sets of their settled
    tau-reachable states: facts read from the tau-reachable states,
    the only ones stepped, so no graph is built.  Any returned context
    is a sound witness of inequivalence; None means only that this
    enumeration found none.  A context whose plugged pair has more
    tau-reachable states than the bound, the states explored, is
    skipped (and reported through `skipped` when given), not treated
    as evidence.  Each distinct pair of canonical plugged processes is
    explored once, not built; a context that plugs to one again shares
    its outcome.
    """
    from .lts import step  # per call: a traced run rebinds tccs.lts.step

    defs = defs.copy() if defs is not None else DefTable()
    ensure_builtins(defs, omega=True)
    names = sorted(p.free | q.free)

    # each distinct plugged pair is explored once: whether it exceeded
    # the bound, for the contexts that plug to it again; one memo of
    # component moves serves every pair
    memo: dict = {}
    explored: dict[tuple[Process, Process], bool] = {}
    level: list[StaticContext] = [HOLE]
    for d in range(depth + 1):
        if d == 1:
            testers = _testers(p, q, NameSupply(all_names(p) | all_names(q)))
        if d:
            level = [
                child
                for ctx in level
                for child in [ParWith(ctx, t) for t in testers]
                + [RestrictCtx(a, ctx) for a in names]
            ]
        for ctx in level:
            pair = (canonicalize(plug(ctx, p)), canonicalize(plug(ctx, q)))
            over = explored.get(pair)
            if over is None:
                fams = _settled_families(pair, defs, memo, bound, step)
                over = explored[pair] = fams is None
                if not over:
                    found = _distinguish(*fams)
                    if found is not None:
                        return ctx, found
            if over and skipped is not None:
                skipped.append(pretty_context(ctx))
    return None


# ---------------------------------------------------------------------------
# rendering a negative verdict


def explain(v: EquivVerdict) -> str:
    """The refutation of the queried pair, one line per entry and response.

    After the header, each certificate entry once, root first, numbered
    by its index: a filter entry shows the two flags that disagree; a
    challenge its clause, edge and responder, then one line per weak
    response naming the entry that refutes it, or that none exists.
    States are written s<id>, with their term where they first appear.
    """
    if v.related:
        raise ValueError("nothing to explain: the verdict is positive")
    lts = v.lts
    if lts is None:
        raise ValueError("verdict carries no graph to explain against")

    an = analysis(lts)
    where: dict[tuple[int, int], int] = {}
    for idx, e in enumerate(v.certificate):
        where[e.pair] = where[e.pair[::-1]] = idx
    named: set[int] = set()

    def state(i: int) -> str:
        if i in named:
            return "s%d" % i
        named.add(i)
        return "s%d (%s)" % (i, pretty(lts.terms[i]))

    lines = ["%s and %s are not related (%s)" % (
        state(v.roots[0]), state(v.roots[1]), v.mode
    )]
    for idx in range(len(v.certificate) - 1, -1, -1):
        e = v.certificate[idx]
        s, t = e.pair
        if e.challenge is None:
            what = "may_" + e.clause
            flag = getattr(an, what)
            lines.append(
                "#%d [%s] %s: %s=%s but %s: %s=%s"
                % (idx, e.clause, state(s), what, str(flag[s]).lower(),
                   state(t), what, str(flag[t]).lower())
            )
            continue
        _, lab, dst = e.challenge
        head = "#%d [%s] %s -%s-> %s, challenged against %s:" % (
            idx, e.clause, state(s), lab, state(dst), state(t)
        )
        if not e.responses:
            lines.append("%s no weak %s response exists" % (head, lab))
        else:
            lines.append(head)
        for u in e.responses:
            lines.append("  response to %s fails: #%d" % (
                state(u), where[dst, u]
            ))
    return "\n".join(lines)
