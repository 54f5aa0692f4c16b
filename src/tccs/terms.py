"""Abstract syntax of timed CCS.

A process is an immutable tree built from seven constructors:
inaction, communication prefix, sum, parallel composition, name
restriction, identifier call, and else_next (run the first operand
in the current instant, switch to the second when time passes).  A
sum or composition is one node holding all its operands in order.

Two name spaces coexist.  User names match [a-z][a-zA-Z0-9_]* and
come from source text; machine names are rendered #1, #2, ... and
are produced by a NameSupply for derived forms and for capture
avoidance.  The two can never collide.  Names are plain interned
strings, so equality of names is string equality.

Nodes and transition labels are hash-consed (Filliatre and Conchon,
"Type-safe modular hash-consing", 2006): all live ones sit in one weak
table, and a constructor returns the existing one for a class and
fields it has seen, so equal terms, and equal labels, are one object
and compare by identity.  Every node precomputes its free-name set,
which keeps capture checks cheap, and its printed form, formatted from
its operands' when it is built, which is the sort key of canonical
forms and of successor lists.  It caches its canonical form on first
use, in the style of the per-node memo tables that hash-consing makes
safe.  `compose` builds a canonical composition, one node, from
canonical operands: a successor of a canonical state shares every
component but the ones that moved, so it is composed from those as
they are and the canonical forms of the moved ones, without
canonicalizing the whole again.  It sorts them by their printed form
and looks the result up in the intern table, building a node only on
a miss.  The same renaming instantiates a call: the canonical form of
a definition's body with arguments for parameters is one pass of it
(`Definition.instance`).
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass

__all__ = [
    "KEYWORDS",
    "Label",
    "TAU",
    "TICK",
    "inp",
    "out",
    "Process",
    "Nil",
    "NIL",
    "Prefix",
    "Sum",
    "Par",
    "Restrict",
    "Call",
    "ElseNext",
    "DefTable",
    "Definition",
    "NameSupply",
    "all_names",
    "substitute",
    "canonicalize",
    "compose",
    "pretty",
    "classify",
    "Classification",
    "StaticContext",
    "Hole",
    "HOLE",
    "ParWith",
    "RestrictCtx",
    "plug",
    "pretty_context",
    "OMEGA_IDENT",
    "EMIT_IDENT",
    "omega_definition",
    "emit_definition",
    "make_tau",
    "make_tick",
    "internal_choice",
]

KEYWORDS = frozenset({"new", "else", "tau", "tick", "emit", "present", "Omega"})


class NameSupply:
    """Deterministic source of fresh machine names #1, #2, ...

    Indices listed in `avoid` (as rendered machine names) are skipped,
    so a supply seeded with every machine name in sight never captures
    or collides.  One supply is confined to one parse or rewrite
    session; sharing across sessions would leak state.
    """

    __slots__ = ("_next", "_avoid")

    def __init__(self, avoid: object = ()) -> None:
        self._avoid = {n for n in avoid if isinstance(n, str) and n.startswith("#")}
        self._next = 1

    def fresh(self) -> str:
        while True:
            cand = "#%d" % self._next
            self._next += 1
            if cand not in self._avoid:
                return cand


# ---------------------------------------------------------------------------
# the intern table


class _Entry(weakref.ref):
    """The table's weak reference to a value, carrying the value's key."""

    __slots__ = ("key",)


# Every live label and process node, keyed by its class and fields.
# Child fields are nodes themselves, already in the table, so a key is
# compared and hashed by the identity of the children.  The table takes
# no lock: terms are built from one thread at a time.
_table: dict[tuple, _Entry] = {}


def _forget(entry: _Entry, table: dict[tuple, _Entry] = _table) -> None:
    # A value died.  Its key may already name a newer value, built after
    # the entry went dead but before this callback ran.  The table is
    # bound as a default so that values dying while the interpreter
    # shuts down still find it.
    if table.get(entry.key) is entry:
        del table[entry.key]


# ---------------------------------------------------------------------------
# labels


class Label:
    """A transition label: input a, output 'a, tau, or tick.

    Inputs and outputs are the communication labels; together with tau
    they are the labels of actions that happen within an instant, and
    tick marks the passage to the next instant.  Labels are interned in
    the same weak table as process nodes, so `Label(kind, name)` returns
    the live label when there is one, and labels compare by identity.
    A label holds no reference to its co-label, which would make a
    cycle and keep both alive: `co()` looks it up, and the stepper
    keeps co-labels in its per-call memo.
    """

    __slots__ = ("kind", "name", "_sort_key", "__weakref__")
    __match_args__ = ("kind", "name")

    _RANK = {"in": 0, "out": 1, "tau": 2, "tick": 3}

    def __new__(cls, kind: str, name: str | None = None) -> "Label":
        key = (cls, kind, name)
        entry = _table.get(key)
        if entry is not None:
            lab = entry()
            if lab is not None:
                return lab
        if kind in ("in", "out"):
            if name is None:
                raise ValueError("communication label needs a name")
        elif kind in ("tau", "tick"):
            if name is not None:
                raise ValueError("%s carries no name" % kind)
        else:
            raise ValueError("bad label kind %r" % kind)
        lab = object.__new__(cls)
        lab.kind = kind
        lab.name = name
        lab._sort_key = (cls._RANK[kind], name or "")
        entry = _table[key] = _Entry(lab, _forget)
        entry.key = key
        return lab

    def __reduce__(self):
        # copies and unpickled labels go through the table as well
        return Label, (self.kind, self.name)

    @property
    def is_comm(self) -> bool:
        return self.kind in ("in", "out")

    def co(self) -> "Label":
        """The matching label of the opposite polarity."""
        if self.kind == "in":
            return Label("out", self.name)
        if self.kind == "out":
            return Label("in", self.name)
        raise ValueError("%s has no co-label" % self.kind)

    def sort_key(self) -> tuple[int, str]:
        return self._sort_key

    def __str__(self) -> str:
        if self.kind == "in":
            return self.name  # type: ignore[return-value]
        if self.kind == "out":
            return "'" + self.name  # type: ignore[operator]
        return self.kind

    def __repr__(self) -> str:
        return "Label(%s)" % self


TAU = Label("tau")
TICK = Label("tick")


def inp(name: str) -> Label:
    return Label("in", name)


def out(name: str) -> Label:
    return Label("out", name)


# ---------------------------------------------------------------------------
# processes


class Process:
    """Base of all process nodes.

    Nodes are hash-consed: a constructor returns the live node with the
    same class and fields when there is one, so two terms are equal
    exactly when they are the same object, and the default identity
    `==` and `hash` apply.  Bound names are compared literally, so
    alpha-variants are distinct terms until canonicalize renames their
    binders into the machine name space.  Each subclass's `_build`
    checks and fills its fields, `free`, the free name set, and `_text`,
    the printed form, once per distinct term, and `_new_nest` does so
    for sums and compositions.  `_canonical`
    caches the canonical form, filled by `canonicalize`: None until
    known, the module marker `_CANONICAL` when the node is its own
    canonical form (a node never points at itself, which would be a
    reference cycle), and otherwise the canonical node.  Inside a
    binder `_canon` reads or fills it only when no name it is renaming
    is free in the node, because only then is the canonical form of the
    node the one wanted there.
    """

    __slots__ = ("free", "_text", "_canonical", "__weakref__")

    def __new__(cls, *fields):
        key = (cls, *fields)
        entry = _table.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = object.__new__(cls)
        node._build(*fields)
        node._canonical = None
        entry = _table[key] = _Entry(node, _forget)
        entry.key = key
        return node

    def __reduce__(self):
        # copies and unpickled terms go through the table as well
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        return self._text


# Printing.  Prefix-like forms bind tighter than +, which binds tighter
# than |.  new and else extend as far right as a prefix chain can, so
# their bodies print as prefix operands, parenthesized when they are
# sums or compositions.  An operand of a composition is parenthesized
# when it is a composition, one of a sum when it is either.


def pretty(p: Process) -> str:
    return p._text


# the same, as a sort key
_printed = operator.attrgetter("_text")


def _tight(p: Process) -> str:
    # the text of `p` as the operand of a prefix
    return "(%s)" % p._text if isinstance(p, _Nest) else p._text


class Nil(Process):
    __slots__ = ()
    __match_args__ = ()

    def _build(self) -> None:
        self.free = frozenset()
        self._text = "0"


NIL = Nil()


class Prefix(Process):
    __slots__ = ("polarity", "name", "cont")
    __match_args__ = ("polarity", "name", "cont")

    def _build(self, polarity: str, name: str, cont: Process) -> None:
        if polarity not in ("in", "out"):
            raise ValueError("bad polarity %r" % polarity)
        self.polarity = polarity
        self.name = name
        self.cont = cont
        self.free = cont.free | {name}
        act = name if polarity == "in" else "'" + name
        self._text = "%s.%s" % (act, _tight(cont))


class _Nest(Process):
    """A sum or composition: one node holding its operands in order.

    The constructor takes two or more operands and extends a nest of
    its own class given first, so `Sum(Sum(a, b), c)` is `Sum(a, b, c)`;
    a nest elsewhere came from parentheses and stays one operand.  So
    nodes correspond one to one to binary trees leaning left.
    """

    __slots__ = ("parts",)

    def __new__(cls, first, second, *rest):
        # the table lookup of `Process.__new__`, in this frame
        if type(first) is cls:
            key = (cls, *first.parts, second, *rest)
        else:
            key = (cls, first, second, *rest)
        entry = _table.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        return _new_nest(key)

    def __reduce__(self):
        return type(self), self.parts


def _new_nest(key: tuple) -> _Nest:
    # build and intern the nest `key`, its class and operands, absent
    # from the table
    node = object.__new__(key[0])
    node.parts = parts = key[1:]
    # `|` of two sets is much cheaper than `union`, and most nests have two
    free = parts[0].free | parts[1].free
    node.free = free.union(*[q.free for q in parts[2:]]) if len(parts) > 2 else free
    # the first operand is never of the nest's own class, which the
    # constructor extends, so one rule serves every operand
    if key[0] is Par:
        node._text = " | ".join(
            ["(%s)" % q._text if type(q) is Par else q._text for q in parts]
        )
    else:
        node._text = " + ".join(
            ["(%s)" % q._text if isinstance(q, _Nest) else q._text for q in parts]
        )
    node._canonical = None
    entry = _table[key] = _Entry(node, _forget)
    entry.key = key
    return node


class Sum(_Nest):
    __slots__ = ()


class Par(_Nest):
    __slots__ = ()


class Restrict(Process):
    __slots__ = ("name", "body")
    __match_args__ = ("name", "body")

    def _build(self, name: str, body: Process) -> None:
        self.name = name
        self.body = body
        self.free = body.free - {name}
        self._text = "new %s. %s" % (name, _tight(body))


class Call(Process):
    __slots__ = ("ident", "args")
    __match_args__ = ("ident", "args")

    def __new__(cls, ident: str, args: tuple[str, ...] = ()) -> "Call":
        return super().__new__(cls, ident, tuple(args))

    def _build(self, ident: str, args: tuple[str, ...]) -> None:
        self.ident = ident
        self.args = args
        self.free = frozenset(args)
        self._text = "%s(%s)" % (ident, ", ".join(args))


class ElseNext(Process):
    __slots__ = ("now", "later")
    __match_args__ = ("now", "later")

    def _build(self, now: Process, later: Process) -> None:
        self.now = now
        self.later = later
        self.free = now.free | later.free
        self._text = "{%s} else %s" % (now._text, _tight(later))


# ---------------------------------------------------------------------------
# definition tables


@dataclass(frozen=True)
class Definition:
    params: tuple[str, ...]
    body: Process

    def instance(self, args: tuple[str, ...]) -> Process:
        """The canonical form of the body with args for params.

        One pass of the canonicalizer's renaming, which cannot capture:
        every live binder becomes the least machine name that is not the
        image of another free name of its body.
        """
        ren = {x: a for x, a in zip(self.params, args) if x != a}
        return _canon(self.body, ren)


class DefTable:
    """One defining equation per identifier.

    The table is filled while parsing (or by generators) and is treated
    as frozen afterwards: every free name of a body must be among its
    parameters, so unfolding a call is substitution of arguments for
    parameters and nothing else.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, Definition] | None = None) -> None:
        self.entries = dict(entries) if entries else {}

    def define(self, ident: str, params: tuple[str, ...], body: Process) -> None:
        if ident in self.entries:
            raise ValueError("duplicate definition of %s" % ident)
        bad = body.free - set(params)
        if bad:
            raise ValueError(
                "definition of %s uses free name(s) %s not among its parameters"
                % (ident, ", ".join(sorted(bad)))
            )
        self.entries[ident] = Definition(tuple(params), body)

    def lookup(self, ident: str) -> Definition:
        try:
            return self.entries[ident]
        except KeyError:
            raise KeyError("unbound process identifier %s" % ident) from None

    def __contains__(self, ident: str) -> bool:
        return ident in self.entries

    def copy(self) -> "DefTable":
        return DefTable(self.entries)

    def __repr__(self) -> str:
        return "DefTable(%s)" % ", ".join(sorted(self.entries))


# Derived forms.  tau.P stands for new a.(a.P | 'a.0) with a fresh,
# tick.P for {0} else P, Omega for the process that keeps taking
# internal steps forever, and emit(a) for the signal that offers 'a
# for the rest of the instant and vanishes at the next one.

OMEGA_IDENT = "#Omega"
EMIT_IDENT = "emit"


def make_tau(cont: Process, fresh: str) -> Process:
    """Encode an internal step in front of `cont` using a fresh name."""
    if fresh in cont.free:
        raise ValueError("%s is not fresh for the continuation" % fresh)
    return Restrict(fresh, Par(Prefix("in", fresh, cont), Prefix("out", fresh, NIL)))


def make_tick(cont: Process) -> Process:
    return ElseNext(NIL, cont)


def internal_choice(left: Process, right: Process, supply: NameSupply) -> Process:
    return Sum(make_tau(left, supply.fresh()), make_tau(right, supply.fresh()))


def omega_definition() -> Definition:
    # The encoding's bound name is fixed: it is alpha-irrelevant.
    return Definition((), make_tau(Call(OMEGA_IDENT), "#1"))


def emit_definition() -> Definition:
    body = ElseNext(Prefix("out", "a", Call(EMIT_IDENT, ("a",))), NIL)
    return Definition(("a",), body)


def ensure_builtins(defs: DefTable, *, omega: bool = False, emit: bool = False) -> None:
    if omega and OMEGA_IDENT not in defs:
        defs.entries[OMEGA_IDENT] = omega_definition()
    if emit and EMIT_IDENT not in defs:
        defs.entries[EMIT_IDENT] = emit_definition()


# ---------------------------------------------------------------------------
# traversals


def all_names(p: Process) -> frozenset[str]:
    """Every name occurring in p, free or bound."""
    acc: set[str] = set()
    stack = [p]
    while stack:
        q = stack.pop()
        match q:
            case Nil():
                pass
            case Prefix(_, a, k):
                acc.add(a)
                stack.append(k)
            case Sum() | Par():
                stack.extend(q.parts)
            case Restrict(a, b):
                acc.add(a)
                stack.append(b)
            case Call(_, args):
                acc.update(args)
            case ElseNext(n, l):
                stack.append(n)
                stack.append(l)
    return frozenset(acc)


def substitute(p: Process, mapping: dict[str, str]) -> Process:
    """Simultaneous capture-avoiding renaming of free names.

    Bound names are renamed, to machine-fresh names, only when one of
    them would capture an incoming name.
    """
    live = {x: y for x, y in mapping.items() if x != y}
    if not live:
        return p
    supply = NameSupply(avoid=all_names(p) | set(live.values()))

    def go(q: Process, m: dict[str, str]) -> Process:
        relevant = {x: y for x, y in m.items() if x in q.free}
        if not relevant:
            return q
        match q:
            case Prefix(pol, a, k):
                return Prefix(pol, relevant.get(a, a), go(k, relevant))
            case Sum() | Par():
                return type(q)(*[go(r, relevant) for r in q.parts])
            case Restrict(a, b):
                inner = {x: y for x, y in relevant.items() if x != a}
                if a in inner.values():
                    a2 = supply.fresh()
                    return Restrict(a2, go(b, {**inner, a: a2}))
                return Restrict(a, go(b, inner))
            case Call(ident, args):
                return Call(ident, tuple(relevant.get(x, x) for x in args))
            case ElseNext(n, l):
                return ElseNext(go(n, relevant), go(l, relevant))
        raise AssertionError("unreachable node %r" % q)

    return go(p, live)


# ---------------------------------------------------------------------------
# canonical forms

# Canonical forms are the state identities of the transition engine.
# Composition is flattened, stripped of inert units and sorted; sums
# are flattened and sorted but keep their inert summands, so that the
# rule letting time pass through a sum stays visible in traces; dead
# restrictions are dropped; live restrictions get machine names, each
# binder taking the least index unused in its body.  Every rewrite
# performed here preserves strong transitions.


def canonicalize(p: Process) -> Process:
    return _canon(p, {})


# The `_canonical` slot of a node that is its own canonical form: a
# node pointing at itself would be a reference cycle, and every dead
# term would wait for the cyclic collector.
_CANONICAL = object()


def _canon(p: Process, ren: dict[str, str]) -> Process:
    # `ren` carries the chosen image of every enclosing binder and is
    # applied to free occurrences on the way down, so alpha-variants
    # land on one representative without a separate renaming pass.  It
    # never maps a name to itself.  The result depends on `ren` only
    # through the free names of `p`, so when none of them is renamed
    # the result is the canonical form of `p`, read from and stored in
    # its slot.  Lookup and store stay in this frame: a wrapper would
    # double the frames per term level.
    memo = not ren or p.free.isdisjoint(ren)
    if memo:
        c = p._canonical
        if c is not None:
            return p if c is _CANONICAL else c
    match p:
        case Nil():
            c = p
        case Call(f, args):
            c = Call(f, tuple(ren.get(a, a) for a in args))
        case Prefix(pol, a, k):
            c = Prefix(pol, ren.get(a, a), _canon(k, ren))
        case Sum() | Par():
            # an operand may canonicalize into a nest itself, so flatten
            # again
            cls = type(p)
            parts = [r for q in _flat(p, cls) for r in _flat(_canon(q, ren), cls)]
            if cls is Par:
                c = compose([q for q in parts if q is not NIL])
            else:
                parts.sort(key=_printed)
                c = Sum(*parts)
        case Restrict(a, b):
            if a not in b.free:
                c = _canon(b, ren)
            else:
                # the binder becomes the first machine name clashing with
                # no free name of the body; bound names of the body do
                # not matter, their own scopes rename independently
                occupied = {ren.get(x, x) for x in b.free if x != a}
                k = 1
                while "#%d" % k in occupied:
                    k += 1
                cand = "#%d" % k
                # a binder keeping its name gets no entry, but still
                # shadows any outer image of that name
                inner = {x: y for x, y in ren.items() if x != a}
                if cand != a:
                    inner[a] = cand
                c = Restrict(cand, _canon(b, inner))
        case ElseNext(n, l):
            c = ElseNext(_canon(n, ren), _canon(l, ren))
        case _:
            raise AssertionError("unreachable node %r" % p)
    if memo:
        c._canonical = _CANONICAL
        if c is not p:
            p._canonical = c
    return c


def _flat(p: Process, cls: type) -> list[Process]:
    # the operands of `p` as a nest of `cls`, through parenthesized ones too
    if type(p) is not cls:
        return [p]
    parts = []
    stack = [p]
    while stack:
        q = stack.pop()
        if type(q) is cls:
            stack.extend(reversed(q.parts))  # type: ignore[attr-defined]
        else:
            parts.append(q)
    return parts


def _rebuild(parts: list[Process] | tuple[Process, ...], cls: type) -> Process:
    # the nest of `cls` over one or more operands
    return cls(*parts) if len(parts) > 1 else parts[0]


def compose(parts: list[Process]) -> Process:
    """The canonical composition of canonical operands.

    The operands must be canonical, and none may be inert or a
    composition itself.  They are sorted by their printed form, so this
    is the one place that builds a canonical composition; it is one
    node, looked up in the intern table and built only when absent, and
    marked as its own canonical form.  A lone operand is returned as it
    is, and no operand gives inaction.
    """
    if len(parts) < 2:
        return parts[0] if parts else NIL
    parts.sort(key=_printed)
    key = (Par, *parts)
    entry = _table.get(key)
    c = entry() if entry is not None else None
    if c is None:
        c = _new_nest(key)
    c._canonical = _CANONICAL
    return c


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    is_ccs: bool
    is_sl: bool


def classify(p: Process, defs: DefTable) -> Classification:
    """Which sublanguages the term and its referenced bodies fit.

    A term is CCS when no else_next occurs in it or in any transitively
    referenced definition body.  It fits the signal fragment when it is
    built from inaction, signal emission, presence tests, composition,
    restriction and calls whose bodies fit as well; the emission and
    presence encodings count as atoms.
    """
    return Classification(_is_ccs(p, defs, set()), _is_sl(p, defs, set()))


def _is_ccs(p: Process, defs: DefTable, seen: set[str]) -> bool:
    match p:
        case Nil():
            return True
        case Prefix(_, _, k):
            return _is_ccs(k, defs, seen)
        case Sum() | Par():
            return all(_is_ccs(q, defs, seen) for q in _flat(p, type(p)))
        case Restrict(_, b):
            return _is_ccs(b, defs, seen)
        case Call(ident, _):
            if ident in seen:
                return True
            seen.add(ident)
            return _is_ccs(defs.lookup(ident).body, defs, seen)
        case ElseNext(_, _):
            return False
    raise AssertionError("unreachable node %r" % p)


def _is_sl(p: Process, defs: DefTable, seen: set[str]) -> bool:
    match p:
        case Nil():
            return True
        case Par():
            return all(_is_sl(q, defs, seen) for q in _flat(p, Par))
        case Restrict(_, b):
            return _is_sl(b, defs, seen)
        case ElseNext(Prefix("in", _, now), later):
            # presence test: read the signal now or move on next instant
            return _is_sl(now, defs, seen) and _is_sl(later, defs, seen)
        case ElseNext(Prefix("out", _, Call(_, _)), Nil()):
            # recursive emission shape: offer the signal, vanish on tick
            return True
        case Call(ident, _):
            if ident in seen:
                return True
            seen.add(ident)
            return _is_sl(defs.lookup(ident).body, defs, seen)
        case _:
            return False


# ---------------------------------------------------------------------------
# static contexts


class StaticContext:
    """One-hole contexts built from composition and restriction."""

    __slots__ = ()


class Hole(StaticContext):
    __slots__ = ()
    __match_args__ = ()


HOLE = Hole()


class ParWith(StaticContext):
    __slots__ = ("ctx", "proc")
    __match_args__ = ("ctx", "proc")

    def __init__(self, ctx: StaticContext, proc: Process) -> None:
        self.ctx = ctx
        self.proc = proc


class RestrictCtx(StaticContext):
    __slots__ = ("name", "ctx")
    __match_args__ = ("name", "ctx")

    def __init__(self, name: str, ctx: StaticContext) -> None:
        self.name = name
        self.ctx = ctx


def plug(ctx: StaticContext, p: Process) -> Process:
    """Fill the hole.  Contexts may bind free names of the plugged term."""
    match ctx:
        case Hole():
            return p
        case ParWith(c, q):
            return Par(plug(c, p), q)
        case RestrictCtx(a, c):
            return Restrict(a, plug(c, p))
    raise AssertionError("unreachable context %r" % ctx)


def pretty_context(ctx: StaticContext) -> str:
    match ctx:
        case Hole():
            return "[]"
        case ParWith(c, q):
            text = "(%s)" % q._text if type(q) is Par else q._text
            return "%s | %s" % (pretty_context(c), text)
        case RestrictCtx(a, c):
            return "new %s. (%s)" % (a, pretty_context(c))
    raise AssertionError("unreachable context %r" % ctx)
