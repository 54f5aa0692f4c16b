"""Command-line front end.

Subcommands: parse (echo a program or one process), lts (build and
export the reachable graph), analyze (per-state predicates of a root),
check (decide one of the four relations, optionally hunting for a
distinguishing context), step (an interactive stepper), and
paper-suite (the bundled example corpus).

Exit codes: 0 success or related; 1 not related; 2 usage or parse
error; 3 state bound exceeded; 4 internal error, such as a bug or an
input nested too deeply, reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analyses import _label_set, fact_items, facts_line
from .corpus import run_suite
from .equiv import MODES, UntimedRefusal, check, explain, falsify_with_context
from .lts import BoundExceeded, Lts, build_lts, step, to_dot, to_json
from .parser import ParseError, ParseResult, parse
from .terms import Process, pretty, pretty_context

__all__ = ["main"]

EXIT_OK = 0
EXIT_NOT_RELATED = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Input-level failure, reported on stderr with exit code 2."""


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tccs",
        description="Workbench for CCS and timed CCS processes.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, q: bool = False) -> None:
        sp.add_argument("file", help="program file, or - for stdin")
        sp.add_argument("-p", metavar="NAME", required=True,
                        help="process to work on")
        if q:
            sp.add_argument("-q", metavar="NAME", required=True,
                            help="process to compare against")
        sp.add_argument("--bound", type=int, default=10000,
                        help="state bound (default 10000)")

    sp = sub.add_parser("parse", help="parse and echo a program")
    sp.add_argument("file", help="program file, or - for stdin")
    sp.add_argument("-p", metavar="NAME", help="echo only this process")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("lts", help="build and export the reachable graph")
    add_common(sp)
    sp.add_argument("--format", choices=("text", "json", "dot"),
                    default="text")

    sp = sub.add_parser("analyze", help="semantic predicates of a root")
    add_common(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("check", help="decide an equivalence")
    add_common(sp, q=True)
    sp.add_argument("--rel", choices=MODES, default="conv",
                    help="relation to decide (default conv)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--falsify", action="store_true",
                    help="also search for a distinguishing context")
    sp.add_argument("--depth", type=int, default=3,
                    help="context search depth (default 3)")

    sp = sub.add_parser("step", help="interactive stepper")
    sp.add_argument("file", help="program file, or - for stdin")
    sp.add_argument("-p", metavar="NAME", required=True,
                    help="process to step")

    sub.add_parser("paper-suite", help="run the bundled example corpus")
    return ap


def _read_program(path: str) -> ParseResult:
    try:
        if path == "-":
            src = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                src = fh.read()
        src.encode("ascii")
    except UnicodeError:
        where = "stdin" if path == "-" else path
        raise UsageError("%s is not ASCII text" % where) from None
    return parse(src)


def _resolve(res: ParseResult, name: str) -> Process:
    try:
        return res.process(name)
    except KeyError:
        known = ", ".join(res.names()) or "(none)"
        raise UsageError(
            "no process named %s; file defines: %s" % (name, known)
        )


def _cmd_parse(args) -> int:
    res = _read_program(args.file)
    if args.p is not None:
        p = _resolve(res, args.p)
        if args.format == "json":
            print(json.dumps({"process": pretty(p)}))
        else:
            print(pretty(p))
        return EXIT_OK
    if args.format == "json":
        doc = {
            "defs": {
                ident: {
                    "params": list(d.params),
                    "body": pretty(d.body),
                }
                for ident, d in sorted(res.defs.entries.items())
            },
            "processes": {n: pretty(p) for n, p in res.processes},
        }
        print(json.dumps(doc, indent=2))
    else:
        for ident, d in sorted(res.defs.entries.items()):
            print("%s(%s) = %s;" % (ident, ", ".join(d.params),
                                    pretty(d.body)))
        for n, p in res.processes:
            print("%s = %s;" % (n, pretty(p)))
    return EXIT_OK


def _build(res: ParseResult, name: str, bound: int) -> Lts:
    p = _resolve(res, name)
    return build_lts([p], res.defs, bound)


def _cmd_lts(args) -> int:
    res = _read_program(args.file)
    lts = _build(res, args.p, args.bound)
    if args.format == "json":
        print(json.dumps(to_json(lts), indent=2))
    elif args.format == "dot":
        print(to_dot(lts))
    else:
        print("states: %d%s" % (
            len(lts), "  (truncated)" if lts.truncated else ""))
        for i, term in enumerate(lts.terms):
            commit = lts.commit[i]
            tail = ""
            if lts.stable[i] is None:
                tail = "  unexplored"
            elif commit is not None:
                tail = "  stable, commits " + _label_set(commit)
            print("  %d: %s%s" % (i, pretty(term), tail))
        print("edges:")
        for i, lab, j in lts.edges():
            print("  %d -%s-> %d" % (i, lab, j))
    return EXIT_BOUND if lts.truncated else EXIT_OK


def _cmd_analyze(args) -> int:
    res = _read_program(args.file)
    lts = _build(res, args.p, args.bound)
    if lts.truncated:
        raise BoundExceeded(
            "state bound %d exceeded while building the graph" % args.bound
        )
    root = lts.roots[0]
    if args.format == "json":
        print(json.dumps({
            name: value if type(value) is bool else list(map(str, value))
            for name, value in fact_items(lts, root)
        }))
    else:
        print(facts_line(lts, root))
    return EXIT_OK


def _cmd_check(args) -> int:
    res = _read_program(args.file)
    p = _resolve(res, args.p)
    q = _resolve(res, args.q)
    try:
        verdict = check(p, q, args.rel, res.defs, args.bound)
    except UntimedRefusal as exc:
        raise UsageError(str(exc))
    if args.falsify:
        skipped: list[str] = []
        hit = falsify_with_context(
            p, q, res.defs, depth=args.depth, bound=args.bound,
            skipped=skipped,
        )
        if hit is not None:
            ctx, why = hit
            verdict.tester = "%s ; %s" % (pretty_context(ctx), why)
        for text in skipped:
            print("note: context %s skipped (bound)" % text,
                  file=sys.stderr)
    if args.format == "json":
        print(json.dumps(verdict.to_json(), indent=2))
    else:
        print("related" if verdict.related else "not related")
        if not verdict.related:
            print(explain(verdict))
        if verdict.tester is not None:
            print("context: %s" % verdict.tester)
    return EXIT_OK if verdict.related else EXIT_NOT_RELATED


def _cmd_step(args) -> int:
    res = _read_program(args.file)
    cur = _resolve(res, args.p)
    instant = 1
    while True:
        moves = step(cur, res.defs)
        print("instant %d: %s" % (instant, pretty(cur)))
        for i, (lab, target) in enumerate(moves):
            print("  %d) %s -> %s" % (i, lab, pretty(target)))
        try:
            line = input("> ").strip()
        except EOFError:
            return EXIT_OK
        if line in ("q", "quit", "exit"):
            return EXIT_OK
        # an index as listed, so no other text is converted to a number
        picked = {str(i): m for i, m in enumerate(moves)}.get(line)
        if picked is None:
            print("pick a transition index, or q to quit")
            continue
        lab, cur = picked
        if lab.kind == "tick":
            instant += 1


def _cmd_paper_suite(args) -> int:
    report = run_suite()
    failed = 0
    for name, ok, msg in report:
        if ok:
            print("pass %s" % name)
        else:
            failed += 1
            print("FAIL %s: %s" % (name, msg))
    print("%d of %d items pass" % (len(report) - failed, len(report)))
    return EXIT_OK if failed == 0 else EXIT_NOT_RELATED


_HANDLERS = {
    "parse": _cmd_parse,
    "lts": _cmd_lts,
    "analyze": _cmd_analyze,
    "check": _cmd_check,
    "step": _cmd_step,
    "paper-suite": _cmd_paper_suite,
}


def main(argv: list[str] | None = None) -> int:
    ap = _build_argparser()
    args = ap.parse_args(argv)
    for flag, low in (("bound", 1), ("depth", 0)):
        if getattr(args, flag, low) < low:
            ap.error("argument --%s: must be at least %d" % (flag, low))
    try:
        return _HANDLERS[args.subcommand](args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BoundExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BOUND
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
