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
  rather than an elimination clause; filtered pairs are recorded in
  the certificate with a challenge-free entry.

The conv game decides the contextual equivalence it stands for on all
processes, and conv-div its divergence-sensitive refinement; the
checker works with the labelled characterizations throughout.

The elimination loop works in rounds.  Each round sweeps the rows of
the states successors first, so a pair is usually visited after the
pairs its challenges lead to, and after the first round it re-checks
only the pairs with a state that has an edge into a row the round
before changed.  A verdict's `rounds` counts these rounds, including
the last one, which removes nothing.

A verdict carries the full elimination trace: replaying the trace in
order re-eliminates exactly the recorded pairs, and `explain` renders
the trace rooted at the queried pair as an alternating game tree.

`falsify_with_context` is the contextual side of the story: a bounded
enumeration of static contexts over a fixed tester family.  It only
ever reports sound distinctions; exhausting the enumeration proves
nothing.  Besides disagreement on may-convergence (which coincides
with weak-tick availability at the root) and on root barbs, it
compares the families of ready sets of the settled states reachable by
internal steps; related processes must match those families exactly,
so any mismatch is a genuine distinction even when the root barb sets
coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analyses import analysis, may_converge
from .lts import BoundExceeded, Lts, State, build_lts
from .terms import (
    NIL,
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


def _bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def weak(lts: Lts, label: Label) -> set[tuple[int, int]]:
    """The weak transition relation for one label, as state-id pairs."""
    if lts.truncated:
        raise BoundExceeded("weak transitions need the full graph")
    masks = analysis(lts).weak_masks(label)
    return {(i, j) for i in range(len(lts)) for j in _bits(masks[i])}


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True, slots=True)
class CertEntry:
    """One eliminated pair: who challenged, how, and in which round.

    A challenge-free entry records a pair discarded by an initial
    filter (divergence agreement, or may-convergence agreement for the
    untimed variant); those carry round 0.
    """

    pair: tuple[int, int]
    clause: str
    challenge: tuple[int, Label, int] | None
    round: int

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
    """A symmetric relation on the states of one graph."""

    mode: str
    pairs: frozenset[tuple[int, int]]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs


# ---------------------------------------------------------------------------
# the elimination loop


def _eliminate(
    lts: Lts, mode: str
) -> tuple[list[int], list[CertEntry], int]:
    """Greatest fixed point by successor-first elimination rounds.

    Starts from the full (or filtered) symmetric relation and removes
    violated pairs.  A round visits the rows of the states in the
    order of `Analysis.sweep`, successors first, and each unordered
    pair of distinct states once, in the row of whichever state comes
    first, columns ascending; so a pair usually meets the pairs its
    challenges lead to already decided.  The first round visits every
    pair; a later one only the pairs with a state that has an edge
    into a row that lost a pair in the round before, since no other
    pair's clauses read a changed row.  The loop stops after a round
    that removes nothing, and that round is counted too.  The identity
    pairs are never visited: every state answers its own challenges.

    The certificate lists removals in the exact order they happened,
    so a replay that processes entries first to last sees the same
    candidate relation the checker saw.
    """
    if mode not in MODES and mode != _CONV_CCS:
        raise ValueError("unknown mode %r" % mode)
    n = len(lts)
    an = analysis(lts)
    cert: list[CertEntry] = []
    if mode == CONV_DIV:
        rel = _agreeing(an.may_diverge, "diverge", cert)
    elif mode == _CONV_CCS:
        rel = _agreeing(an.may_converge, "converge", cert)
    else:
        rel = [(1 << n) - 1] * n

    # the mode's game as a challenge table: per state, each challenging
    # edge with its clause, its response masks and, for a label whose
    # target cannot converge, the tau closure the responder may use
    # instead
    conv_game = mode in (CONV, CONV_DIV, _CONV_CCS)
    untimed = mode in (USUAL_UNTIMED, _CONV_CCS)
    cc = an.ctx_converge
    table = []
    for s, out in enumerate(lts.succ):
        row = []
        for lab, s2 in out:
            extra = None
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
                if not cc[s2]:
                    extra = an.tau_closure
            else:
                clause = "usual-mu"
            row.append((clause, lab, s2, an.weak_masks(lab), extra))
        table.append(row)

    def violation(s: int, t: int):
        """First unanswerable strong challenge of s against t, if any,
        as its clause, the pair and the challenging edge."""
        for clause, lab, s2, resp, extra in table[s]:
            m = resp[t] if extra is None else resp[t] | extra[t]
            if not m & rel[s2]:
                return clause, (s, t), (s, lab, s2)
        return None

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
                    clause, pair, edge = hit
                    cert.append(CertEntry(pair, clause, edge, rounds))
                    rel[s] &= ~(1 << t)
                    rel[t] &= ~(1 << s)
                    dirty |= 1 << s | 1 << t
        if not dirty:
            return rel, cert, rounds
        hot = 0
        for r in _bits(dirty):
            hot |= pred[r]


def _agreeing(
    values: list[bool], clause: str, cert: list[CertEntry]
) -> list[int]:
    """The initial relation of the pairs that agree on a per-state flag.

    Each disagreeing pair (i, j) with i < j is appended to `cert` as a
    challenge-free entry of round 0, rows first, columns ascending.
    """
    yes = sum(1 << i for i, v in enumerate(values) if v)
    no = ((1 << len(values)) - 1) ^ yes
    rel = []
    for i, v in enumerate(values):
        rel.append(yes if v else no)
        for j in _bits((no if v else yes) >> (i + 1) << (i + 1)):
            cert.append(CertEntry((i, j), clause, None, 0))
    return rel


def largest_bisimulation(lts: Lts, mode: str) -> Relation:
    """The greatest relation satisfying the mode's clauses, as pairs."""
    if lts.truncated:
        raise BoundExceeded("equivalence checking needs the full graph")
    rel, _, _ = _eliminate(lts, mode)
    pairs = frozenset(
        (i, j) for i in range(len(lts)) for j in _bits(rel[i])
    )
    return Relation(mode, pairs)


def check_states(
    lts: Lts, s: State | int, t: State | int, mode: str
) -> EquivVerdict:
    """Decide one state pair on a prebuilt graph."""
    if lts.truncated:
        raise BoundExceeded("equivalence checking needs the full graph")
    si = s.id if isinstance(s, State) else s
    ti = t.id if isinstance(t, State) else t
    rel, cert, rounds = _eliminate(lts, mode)
    related = bool(rel[si] >> ti & 1)
    return EquivVerdict(related, mode, (si, ti), rounds, cert, None, lts)


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


def _ready_families(
    lts: Lts, root: int
) -> frozenset[frozenset[Label]]:
    """Ready sets of the settled states tau-reachable from the root."""
    tclo = analysis(lts).tau_closure
    fams = set()
    for i in _bits(tclo[root]):
        if lts.stable[i]:
            commit = lts.commit[i]
            assert commit is not None
            fams.add(commit)
    return frozenset(fams)


def _label_set(labels) -> str:
    return "{%s}" % ",".join(
        str(lab) for lab in sorted(labels, key=Label.sort_key)
    )


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
    tau-reachable states.  Any returned context is a sound witness of
    inequivalence; None means only that this enumeration found none.
    Contexts whose graphs exceed the bound are skipped (and reported
    through `skipped` when given), not treated as evidence.
    """
    defs = defs.copy() if defs is not None else DefTable()
    ensure_builtins(defs, omega=True)
    supply = NameSupply(avoid=all_names(p) | all_names(q))
    testers = _testers(p, q, supply)
    names = sorted(p.free | q.free)

    level: list[StaticContext] = [HOLE]
    seen = {pretty_context(HOLE)}
    for _ in range(depth + 1):
        for ctx in level:
            cp = plug(ctx, p)
            cq = plug(ctx, q)
            lts = build_lts([cp, cq], defs, bound)
            if lts.truncated:
                if skipped is not None:
                    skipped.append(pretty_context(ctx))
                continue
            r0, r1 = lts.roots
            c0 = may_converge(lts, r0)
            c1 = may_converge(lts, r1)
            if c0 != c1:
                return ctx, (
                    "may-converge disagrees: left=%s right=%s"
                    % (str(c0).lower(), str(c1).lower())
                )
            b0 = analysis(lts).barbs[r0]
            b1 = analysis(lts).barbs[r1]
            if b0 != b1:
                return ctx, "root barbs disagree: left=%s right=%s" % (
                    _label_set(b0),
                    _label_set(b1),
                )
            f0 = _ready_families(lts, r0)
            f1 = _ready_families(lts, r1)
            if f0 != f1:
                odd = sorted(
                    _label_set(fam) for fam in (f0 ^ f1)
                )
                return ctx, (
                    "settled ready sets disagree: unmatched %s"
                    % ", ".join(odd)
                )
        nxt: list[StaticContext] = []
        for ctx in level:
            cands: list[StaticContext] = [ParWith(ctx, t) for t in testers]
            cands += [RestrictCtx(a, ctx) for a in names]
            for cand in cands:
                text = pretty_context(cand)
                if text not in seen:
                    seen.add(text)
                    nxt.append(cand)
        level = nxt
    return None


# ---------------------------------------------------------------------------
# rendering a negative verdict


def explain(v: EquivVerdict, max_depth: int = 8) -> str:
    """The elimination of the queried pair, rendered as a game tree.

    Each node shows the violated clause and the challenging edge, then
    every weak response the responder had and why each fails, down to
    clauses with no response at all, filter entries, or the depth cap.
    """
    if v.related:
        raise ValueError("nothing to explain: the verdict is positive")
    lts = v.lts
    if lts is None:
        raise ValueError("verdict carries no graph to explain against")

    an = analysis(lts)
    where: dict[tuple[int, int], int] = {}
    for idx, e in enumerate(v.certificate):
        where.setdefault(e.pair, idx)
        where.setdefault((e.pair[1], e.pair[0]), idx)

    lines: list[str] = []

    def term(i: int) -> str:
        return pretty(lts.terms[i])

    def render(idx: int, indent: int, depth: int) -> None:
        e = v.certificate[idx]
        pad = "  " * indent
        s, t = e.pair
        if e.challenge is None:
            if e.clause == "diverge":
                what = "may_diverge"
                fs, ft = an.may_diverge[s], an.may_diverge[t]
            else:
                what = "may_converge"
                fs, ft = an.may_converge[s], an.may_converge[t]
            lines.append(
                "%s[%s] %s: %s=%s but %s: %s=%s"
                % (pad, e.clause, term(s), what, str(fs).lower(),
                   term(t), what, str(ft).lower())
            )
            return
        src, lab, dst = e.challenge
        lines.append(
            "%s[%s] %s -%s-> %s, challenged against %s:"
            % (pad, e.clause, term(src), lab, term(dst), term(t))
        )
        resp = an.weak_masks(lab)[t]
        if e.clause == "lab" and not an.ctx_converge[dst]:
            resp |= an.tau_closure[t]
        options = list(_bits(resp))
        if not options:
            lines.append("%s  no weak %s response exists" % (pad, lab))
            return
        if depth >= max_depth:
            lines.append(
                "%s  %d response(s), all previously eliminated (depth cap)"
                % (pad, len(options))
            )
            return
        for t2 in options:
            sub = where.get((dst, t2))
            if sub is None or sub >= idx:
                # a response into a pair that was never in the initial
                # relation leaves no trace entry of its own
                lines.append(
                    "%s  response to %s fails: pair never admissible"
                    % (pad, term(t2))
                )
                continue
            lines.append("%s  response to %s fails:" % (pad, term(t2)))
            render(sub, indent + 2, depth + 1)

    root = where.get(v.roots)
    header = "%s and %s are not related (%s)" % (
        term(v.roots[0]),
        term(v.roots[1]),
        v.mode,
    )
    lines.append(header)
    if root is None:
        lines.append("  (the queried pair was eliminated outside the trace)")
    else:
        render(root, 1, 1)
    return "\n".join(lines)
