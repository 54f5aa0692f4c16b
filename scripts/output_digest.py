#!/usr/bin/env python3
"""Print one sha256 over the library's printed outputs on a fixed population.

Run it on two checkouts to see whether a change leaves every output
byte-identical: the two digests agree exactly when the texts agree.
It takes no flags and prints one line of 64 hex digits.

The population is fixed: 60 seeded random pairs, half of them without
else_next, each on its joint graph, plus a small pool of terms on one
graph.  Hashed, in this order:

* `to_json(build_lts(...))` and `facts_line` of every state;
* `check_states(...).to_json()` in every applicable mode, and
  `check_ccs_equivalently` on the pairs without else_next;
* `explain` of each negative verdict;
* the depth-1 `falsify_with_context` result;
* `largest_bisimulation(...).pairs`, sorted, on the pool;
* `run_suite()`.

Only printed text is hashed, never an object's `repr`: labels and
terms compare by identity, so the iteration order of a set of them
follows object addresses, not the program.  A truncated graph
contributes only its state count.
"""

import hashlib
import json
import random
import sys

from tccs import (
    USUAL,
    USUAL_UNTIMED,
    CONV,
    CONV_DIV,
    build_lts,
    check_ccs_equivalently,
    check_states,
    classify,
    ensure_builtins,
    explain,
    facts_line,
    falsify_with_context,
    largest_bisimulation,
)
from tccs.corpus import run_suite
from tccs.generate import GenConfig, random_pair
from tccs.lts import to_json
from tccs.terms import (
    NIL,
    OMEGA_IDENT,
    Call,
    DefTable,
    ElseNext,
    Par,
    Prefix,
    Sum,
    make_tau,
    pretty,
    pretty_context,
)

SEED = 20081004
PAIRS = 60
BOUND = 400


def _pairs():
    rng = random.Random(SEED)
    for k in range(PAIRS):
        cfg = GenConfig(depth=4, max_defs=2, allow_else=k % 2 == 0)
        yield random_pair(rng, cfg)


def _pool() -> tuple[list, DefTable]:
    defs = DefTable()
    ensure_builtins(defs, omega=True)
    atoms = [NIL, Call(OMEGA_IDENT), make_tau(NIL, "#t")]
    first = atoms + [
        Prefix(pol, a, x) for pol in ("in", "out") for a in "ab" for x in atoms
    ]
    terms = list(first)
    for x in first[:6]:
        for y in first[3:9]:
            terms += [Sum(x, y), Par(x, y), ElseNext(x, y)]
    return terms, defs


def _lines():
    for p, q, defs in _pairs():
        yield "pair %s ; %s" % (pretty(p), pretty(q))
        lts = build_lts([p, q], defs, BOUND)
        if lts.truncated:
            yield "truncated at %d states" % len(lts)
            continue
        yield json.dumps(to_json(lts), sort_keys=True)
        for i in range(len(lts)):
            yield facts_line(lts, i)
        untimed = all(classify(r, defs).is_ccs for r in (p, q))
        modes = [USUAL, CONV, CONV_DIV] + ([USUAL_UNTIMED] if untimed else [])
        verdicts = [check_states(lts, *lts.roots, mode) for mode in modes]
        if untimed:
            verdicts.append(check_ccs_equivalently(p, q, defs, BOUND))
        for v in verdicts:
            yield json.dumps(v.to_json(), sort_keys=True)
            if not v.related:
                yield explain(v)
        hit = falsify_with_context(p, q, defs, depth=1, bound=BOUND)
        yield "none" if hit is None else "%s ; %s" % (
            pretty_context(hit[0]), hit[1]
        )
    terms, defs = _pool()
    lts = build_lts(terms, defs)
    yield "pool %d states" % len(lts)
    for mode in (USUAL, CONV, CONV_DIV):
        yield "%s %s" % (mode, sorted(largest_bisimulation(lts, mode).pairs))
    for name, passed, message in run_suite():
        yield "%s %s %s" % (name, passed, message)


def main() -> int:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode() + b"\n")
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
