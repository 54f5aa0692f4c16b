"""The four workloads of the tccs benchmark.

A workload makes its inputs from a seed, sends them one query at a time
through a pipeline that mirrors `tccs check` or `tccs analyze`, and
checks every answer against a reference that does not come from the
code under test.  Inputs are grouped in rounds: a round is the fixed
list of queries whose cost the workload stands for, and a run always
measures whole rounds.

Every input uses names drawn fresh from the seed, so no two queries of
a run are the same program.  The names are four characters long and
start with a letter below `n`, and several names are assigned in sorted
order.  Canonical forms and successor lists are sorted by printed text,
so such names order against each other and against the fixed characters
of the syntax exactly as the names `a` < `b` < `c` < `d` do.  Renamed
inputs therefore give the same state numbering and the same work, which
is what keeps one seed's figures comparable to another's.

Run `python3 perfbench/workloads.py` to print one round's counters for
every workload; `perfbench/expected.json` is that output.  With
`--small` it uses reduced sizes, as the determinism test does.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HEAD = "abcdefghijklm"
TAIL = "abcdefghijklmnopqrstuvwxyz0123456789"
KEYWORDS = {"else", "emit"}


class NameSource:
    """Fresh sorted names, none used twice in a run until all are used."""

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.rng = random.Random("%d/%d" % (seed, stream))
        self.used: set[str] = set()

    def take(self, k: int) -> list[str]:
        if len(self.used) > 500_000:
            self.used.clear()
        names: set[str] = set()
        while len(names) < k:
            name = self.rng.choice(HEAD) + "".join(
                self.rng.choice(TAIL) for _ in range(3)
            )
            if name not in self.used and name not in KEYWORDS:
                names.add(name)
        self.used |= names
        return sorted(names)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def explained(text: str, mode: str) -> bool:
    """`explain` output has its header line and at least one reason."""
    lines = text.splitlines()
    return len(lines) >= 2 and lines[0].endswith("are not related (%s)" % mode)


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    # layers a traced run of this workload must enter
    required: tuple[str, ...] = ()
    round_size = 1

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Work done once before the first query, counted in setup_s."""

    def inputs(self, stream=0):
        """Endless fresh inputs, made between queries and not timed.

        Streams with different numbers use different names.
        """
        raise NotImplementedError

    def query(self, L, inp):
        """One pass of the pipeline; `L` holds the layer entry points."""
        raise NotImplementedError

    def outcome(self, inp, raw) -> dict:
        """Compact record of a query's answers, taken after its timer stops.

        `semantic` must match the references exactly; `work` describes
        how the algorithms got there and is compared to the record only
        to report drift; `counters` feed the per-layer report.
        """
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """References that need only the one query."""
        return []

    def oracle(self, results, oracles) -> dict[int, list[str]]:
        """Checks of the first round against `tests/oracles.py`."""
        return {}

    def summary(self, outs: list[dict]) -> dict:
        """One round's outcomes, in the form `expected.json` records."""
        (out,) = outs
        return {"semantic": out["semantic"], "work": out["work"]}

    def text(self, inp) -> str | None:
        """The program text a query parses, if any."""
        return inp

    def describe(self, inp) -> str:
        """What sets this input apart, for the slow-query report."""
        return ""


# ---------------------------------------------------------------------------
# chain: deep, narrow graphs; the elimination sweeps once per state


class Chain(Workload):
    name = "chain"
    required = ("parse", "build_lts", "step", "analysis", "check_states", "explain")
    MODES = ("conv", "usual")

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.n = 6 if small else 50

    def inputs(self, stream=0):
        names = NameSource(self.seed, stream)
        n = self.n
        while True:
            (x,) = names.take(1)
            chain = "%s.0" % ".".join([x] * n)
            shorter = "%s.0" % ".".join([x] * (n - 1))
            yield "P = %s;\nQ = tau.%s;\nR = %s;\n" % (chain, chain, shorter)

    def query(self, L, text):
        res = L.parse(text)
        p = res.process("P")
        graphs = []
        for other in (res.process("Q"), res.process("R")):
            lts = L.build_lts([p, other], res.defs)
            r0, r1 = lts.roots
            verdicts = []
            for mode in self.MODES:
                v = L.check_states(lts, r0, r1, mode)
                verdicts.append((v, None if v.related else L.explain(v)))
            graphs.append((lts, verdicts))
        return graphs

    def outcome(self, text, raw):
        semantic, rounds, cert, ok = [], [], [], True
        for lts, verdicts in raw:
            semantic.append([
                len(lts),
                sum(map(len, lts.succ)),
                [v.related for v, _ in verdicts],
            ])
            rounds += [v.rounds for v, _ in verdicts]
            cert += [len(v.certificate) for v, _ in verdicts]
            ok &= all(
                t is None or explained(t, v.mode) for v, t in verdicts
            )
        related = sum(r for _, _, rel in semantic for r in rel)
        return {
            "semantic": semantic,
            "work": {"rounds": rounds, "cert_entries": cert},
            "explained": ok,
            "counters": {
                "check_states.rounds": sum(rounds),
                "check_states.cert_entries": sum(cert),
                "check_states.related": related,
            },
        }

    def check(self, text, out):
        # P and tau.P: n+1 chain states plus the tau state, every chain
        # state stable with its prefix edge and a tick self-loop; they are
        # related.  P against the chain one shorter: no new states, and
        # the prefix counts differ, so no relation.
        n = self.n
        want = [
            [n + 2, 2 * n + 2, [True] * len(self.MODES)],
            [n + 1, 2 * n + 1, [False] * len(self.MODES)],
        ]
        msgs = []
        if out["semantic"] != want:
            msgs.append("chain answers %s, expected %s" % (out["semantic"], want))
        if not out["explained"]:
            msgs.append("explain output lacks its header or reasons")
        return msgs


# ---------------------------------------------------------------------------
# ring: one wide interleaving graph per query; no elimination


class Ring(Workload):
    name = "ring"
    required = ("parse", "build_lts", "step", "analysis")

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.k = 2 if small else 4

    def inputs(self, stream=0):
        names = NameSource(self.seed, stream)
        k = self.k
        while True:
            ns = names.take(k)
            cyclers = " | ".join(
                "Cyc(%s, %s)" % (ns[i], ns[(i + 1) % k]) for i in range(k)
            )
            yield "Cyc(x, y) = x.tau.'y.Cyc(x, y);\nR = %s | '%s.0;\n" % (
                cyclers, ns[0]
            )

    def query(self, L, text):
        res = L.parse(text)
        lts = L.build_lts([res.process("R")], res.defs)
        facts = L.analysis(lts).facts(lts.roots[0])
        return lts, facts

    def outcome(self, text, raw):
        from tccs import verify_lts_laws

        lts, f = raw
        return {
            "semantic": {
                "states": len(lts),
                "edges": sum(map(len, lts.succ)),
                "laws_broken": len(verify_lts_laws(lts)),
                "root": [f.stable, f.may_converge, f.ctx_converge,
                         f.may_diverge, sorted(map(str, f.barbs)),
                         f.reactive_root],
            },
            "work": {},
            "counters": {},
        }

    def check(self, text, out):
        # Each cycler moves C -tau-> A -x-> B -tau-> D -'y-> C (C is the
        # call, B the encoded tau), and the token 'n0.0 is present or
        # spent: 2 * 4^k states, all reachable.  Summed over states: one
        # own edge per cycler, the token's output in half of them, a
        # handshake wherever cycler i waits in A and i-1 offers in D
        # (1/16 of the states, k pairs) or cycler 0 waits and the token
        # is there (1/8), and tick in the 3 stable states: all A without
        # the token, all D with or without it.  Tau steps keep the count
        # of token + cyclers in B or D at 1, so no stable state is
        # reachable silently, while the token circles for ever.
        k = self.k
        n = 2 * 4 ** k
        want = {
            "states": n,
            "edges": k * n + n // 2 + k * n // 16 + n // 8 + 3,
            "laws_broken": 0,
            "root": [False, False, True, True, [], False],
        }
        if out["semantic"] != want:
            return ["ring answers %s, expected %s" % (out["semantic"], want)]
        return []


# ---------------------------------------------------------------------------
# pool: one dense graph, whole relations in three modes


class Pool(Workload):
    name = "pool"
    required = ("build_lts", "step", "analysis", "largest_bisimulation")
    MODES = ("usual", "conv", "conv-div")

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.size = 1 if small else 2

    def setup(self) -> None:
        import oracles

        self.atoms, self.defs = oracles.enumeration_kit()

    def inputs(self, stream=0):
        import oracles

        names = NameSource(self.seed, stream)
        while True:
            yield oracles.small_terms(tuple(names.take(1)), self.size, self.atoms)

    def text(self, pool):
        return None

    def query(self, L, pool):
        lts = L.build_lts(pool, self.defs, 20000)
        return lts, [L.largest_bisimulation(lts, m) for m in self.MODES]

    def outcome(self, pool, raw):
        lts, rels = raw
        at = {s: i for i, s in enumerate(lts.roots)}
        modes = {}
        for rel in rels:
            among_roots = sorted(
                (at[s], at[t]) for s, t in rel.pairs if s in at and t in at
            )
            modes[rel.mode] = {
                "pairs": len(rel.pairs),
                "root_pairs": len(among_roots),
                "root_digest": digest(among_roots),
            }
        return {
            "semantic": {
                "terms": len(pool),
                "states": len(lts),
                "edges": sum(map(len, lts.succ)),
                "modes": modes,
            },
            "work": {},
            # numbering-dependent, compared only within one run
            "state_digests": {rel.mode: digest(sorted(rel.pairs)) for rel in rels},
            "counters": {
                "largest_bisimulation.pairs": sum(len(r.pairs) for r in rels),
            },
        }

    def oracle(self, results, oracles):
        # The naive fixed point takes seconds per mode on the full pool,
        # so each run checks one mode, chosen by the seed.
        from tccs import build_lts

        mode = self.MODES[self.seed % len(self.MODES)]
        pool, out = results[0]
        lts = build_lts(pool, self.defs, 20000)
        want = digest(sorted(oracles.Oracle(lts).gfp(mode)))
        if out["state_digests"][mode] != want:
            return {0: ["%s relation differs from Oracle.gfp" % mode]}
        return {}


# ---------------------------------------------------------------------------
# pairs: many small graphs, every checker, and the falsifier


@dataclass(frozen=True)
class Pair:
    item: int
    text: str
    untimed: bool
    states: int
    free_names: int


class Pairs(Workload):
    name = "pairs"
    required = (
        "parse", "build_lts", "step", "analysis", "check_states",
        "check_ccs", "explain", "falsify",
    )
    # The draws are fixed: the seed only renames them (module docstring).
    # A fresh sample per seed would make the figures depend on which
    # rare expensive pairs it happens to hold.
    POPULATION_SEED = 1
    MAX_STATES = 200

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.round_size = 12 if small else 400

    def setup(self) -> None:
        from tccs import build_lts, classify, pretty
        from tccs.generate import GenConfig, random_pair

        configs = (
            GenConfig(depth=4, max_defs=2, allow_else=False),
            GenConfig(depth=4, max_defs=2),
        )
        rng = random.Random(self.POPULATION_SEED)
        population: list[Pair] = []
        while len(population) < self.round_size:
            p, q, defs = random_pair(rng, configs[len(population) % 2])
            lts = build_lts([p, q], defs, self.MAX_STATES)
            if lts.truncated:
                continue
            text = "".join(
                "%s(%s) = %s;\n" % (ident, ", ".join(d.params), pretty(d.body))
                for ident, d in sorted(defs.entries.items())
            ) + "P = %s;\nQ = %s;\n" % (pretty(p), pretty(q))
            untimed = classify(p, defs).is_ccs and classify(q, defs).is_ccs
            population.append(Pair(
                len(population), text, untimed, len(lts), len(p.free | q.free)
            ))
        self.population = population

    def inputs(self, stream=0):
        names = NameSource(self.seed, stream)
        word = re.compile(r"\b[abcd]\b")
        while True:
            fresh = dict(zip("abcd", names.take(4)))
            for pair in self.population:
                yield pair, word.sub(lambda m: fresh[m.group()], pair.text)

    def modes(self, pair: Pair) -> tuple[str, ...]:
        extra = ("usual-untimed",) if pair.untimed else ()
        return ("usual", "conv", "conv-div") + extra

    def query(self, L, inp):
        pair, text = inp
        res = L.parse(text)
        p, q = res.process("P"), res.process("Q")
        lts = L.build_lts([p, q], res.defs)
        an = L.analysis(lts)
        r0, r1 = lts.roots
        verdicts = []
        for mode in self.modes(pair):
            v = L.check_states(lts, r0, r1, mode)
            verdicts.append((v, None if v.related else L.explain(v)))
        ccs = L.check_ccs(p, q, res.defs) if pair.untimed else None
        hit = L.falsify(p, q, res.defs, depth=1)
        return lts, an, verdicts, ccs, hit

    def outcome(self, inp, raw):
        lts, an, verdicts, ccs, hit = raw
        roots = [
            [an.may_converge[r], an.ctx_converge[r], an.may_diverge[r],
             len(an.barbs[r]), an.reactive[r]]
            for r in lts.roots
        ]
        rounds = [v.rounds for v, _ in verdicts]
        cert = [len(v.certificate) for v, _ in verdicts]
        related = [v.related for v, _ in verdicts]
        return {
            "semantic": [
                len(lts), sum(map(len, lts.succ)), related,
                None if ccs is None else ccs.related, hit is not None, roots,
            ],
            "barbs": [sorted(map(str, an.barbs[r])) for r in lts.roots],
            "work": {"rounds": rounds, "cert_entries": cert},
            "explained": all(
                t is None or explained(t, v.mode) for v, t in verdicts
            ),
            "counters": {
                "check_states.rounds": sum(rounds),
                "check_states.cert_entries": sum(cert),
                "check_states.related": sum(related),
                "falsify.hits": int(hit is not None),
            },
        }

    def check(self, inp, out):
        states, _, related, ccs, hit, _ = out["semantic"]
        conv = related[1]
        msgs = []
        if ccs is not None and ccs != conv:
            msgs.append("check_ccs_equivalently says %s, conv says %s" % (ccs, conv))
        if hit and conv:
            msgs.append("falsifier found a context for a conv-related pair")
        if states != inp[0].states:
            msgs.append("joint graph has %d states, setup saw %d"
                        % (states, inp[0].states))
        if not out["explained"]:
            msgs.append("explain output lacks its header or reasons")
        return msgs

    def oracle(self, results, oracles):
        from tccs import build_lts, parse

        bad: dict[int, list[str]] = {}
        for i, ((pair, text), out) in enumerate(results):
            res = parse(text)
            lts = build_lts([res.process("P"), res.process("Q")], res.defs)
            orc = oracles.Oracle(lts)
            _, _, related, ccs, _, roots = out["semantic"]
            root_pair = lts.roots
            want = [root_pair in orc.gfp(m) for m in self.modes(pair)]
            if related != want:
                bad.setdefault(i, []).append(
                    "verdicts %s, Oracle.gfp says %s" % (related, want))
            if ccs is not None and ccs != (root_pair in orc.gfp(oracles.CONV_CCS)):
                bad.setdefault(i, []).append("untimed decision differs from Oracle.gfp")
            want_roots = [
                [orc.conv[r], orc.ctx[r], orc.div[r], len(orc.barbs[r]),
                 orc.reactive(r)]
                for r in root_pair
            ]
            want_barbs = [sorted(map(str, orc.barbs[r])) for r in root_pair]
            if roots != want_roots or out["barbs"] != want_barbs:
                bad.setdefault(i, []).append(
                    "root facts %s %s, Oracle says %s %s"
                    % (roots, out["barbs"], want_roots, want_barbs))
        return bad

    def summary(self, outs):
        sem = [o["semantic"] for o in outs]
        return {
            "semantic": {
                "queries": len(sem),
                "states": sum(s[0] for s in sem),
                "edges": sum(s[1] for s in sem),
                "related": sum(sum(s[2]) for s in sem),
                "hits": sum(s[4] for s in sem),
                "digest": digest(sem),
            },
            "work": {
                "rounds": sum(sum(o["work"]["rounds"]) for o in outs),
                "cert_entries": sum(sum(o["work"]["cert_entries"]) for o in outs),
            },
        }

    def text(self, inp):
        return inp[1]

    def describe(self, inp):
        pair = inp[0]
        return "item %d: joint graph %d states, %d free names, %s" % (
            pair.item, pair.states, pair.free_names,
            "untimed" if pair.untimed else "timed",
        )


WORKLOADS = {w.name: w for w in (Chain, Ring, Pool, Pairs)}


def one_round(name: str, seed: int, small: bool) -> dict:
    """Set up a workload, run one round untimed, and summarize it."""
    from tracing import direct_layers

    wl = WORKLOADS[name](seed, small)
    wl.setup()
    L = direct_layers()
    inputs = wl.inputs()
    outs = []
    for _ in range(wl.round_size):
        inp = next(inputs)
        outs.append(wl.outcome(inp, wl.query(L, inp)))
    return wl.summary(outs)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    small = "--small" in sys.argv[1:]
    print(json.dumps(
        {name: one_round(name, 1, small) for name in WORKLOADS}, indent=2
    ))
