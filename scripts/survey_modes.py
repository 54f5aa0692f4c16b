#!/usr/bin/env python3
"""Survey how the four equivalences relate on random pairs.

For each generated pair the script decides every applicable mode on
one shared graph, tallies the verdict patterns, and cross-checks the
context hunter against the convergence-sensitive verdict.
"""

import argparse
import collections
import random
import sys

from tccs import (
    build_lts,
    check_states,
    ensure_builtins,
    falsify_with_context,
)
from tccs.equiv import CONV, CONV_DIV, USUAL
from tccs.generate import GenConfig, random_pair, random_term
from tccs.terms import NIL, OMEGA_IDENT, Call, Par, Sum, make_tau


def _near_pair(rng, cfg):
    # perturbations that sit close to the boundaries between the modes:
    # an absorbing divergent peer, a silent branch into divergence, or a
    # silent branch into a loop that can still settle
    p, defs = random_term(rng, cfg)
    ensure_builtins(defs, omega=True)
    omega = Call(OMEGA_IDENT)
    roll = rng.random()
    if roll < 1 / 3:
        return Par(p, omega), omega, defs
    if roll < 2 / 3:
        return Sum(p, make_tau(omega, "#t")), p, defs
    defs.define("#Settle", (), Sum(
        make_tau(Call("#Settle"), "#t"), make_tau(NIL, "#t")
    ))
    left = Sum(p, make_tau(Call("#Settle"), "#t"))
    right = Sum(p, make_tau(NIL, "#t"))
    return left, right, defs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--ccs", action="store_true",
                    help="restrict generation to untimed terms")
    ap.add_argument("--near", action="store_true",
                    help="perturb one term instead of drawing two")
    ap.add_argument("--falsify-depth", type=int, default=1)
    ap.add_argument("--bound", type=int, default=1000)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    cfg = GenConfig(depth=args.depth, max_defs=2,
                    allow_else=not args.ccs)
    patterns: collections.Counter[str] = collections.Counter()
    related = collections.Counter()
    skipped = 0
    hunted = confirmed = 0

    for _ in range(args.count):
        if args.near:
            p, q, defs = _near_pair(rng, cfg)
        else:
            p, q, defs = random_pair(rng, cfg)
        lts = build_lts([p, q], defs, bound=args.bound)
        if lts.truncated:
            skipped += 1
            continue
        flags = {}
        for mode in (USUAL, CONV, CONV_DIV):
            flags[mode] = check_states(
                lts, lts.roots[0], lts.roots[1], mode
            ).related
            related[mode] += flags[mode]
        patterns["".join("ry"[flags[m]] for m in (USUAL, CONV, CONV_DIV))] += 1
        hit = falsify_with_context(
            p, q, defs, depth=args.falsify_depth, bound=args.bound
        )
        if hit is not None:
            hunted += 1
            confirmed += int(not flags[CONV])

    done = args.count - skipped
    print("pairs: %d  (skipped %d at bound %d)" % (done, skipped, args.bound))
    for mode in (USUAL, CONV, CONV_DIV):
        print("  related under %-9s %5d" % (mode + ":", related[mode]))
    print("verdict patterns (usual, conv, conv-div; y=related):")
    for pat, n in sorted(patterns.items(), key=lambda kv: -kv[1]):
        print("  %s  %5d" % (pat, n))
    print("contexts found for conv-unrelated pairs: %d (all sound: %s)"
          % (hunted, "yes" if hunted == confirmed else "NO"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
