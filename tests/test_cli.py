"""Front end, driven in process through main(argv), and in subprocesses
where the interpreter's hash seed matters."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tccs
from tccs.cli import main

PROGRAM = """\
// two peers over one channel
D(a) = a.D(a);
P = a.0 + b.0;
Q = a.0;
W = (a.0 + b.0) | 'a.0;
B = a.0 + b.0 + 'a.0;
Z = 0;
O = Omega;
"""


@pytest.fixture
def prog(tmp_path):
    f = tmp_path / "peers.tccs"
    f.write_text(PROGRAM, encoding="ascii")
    return str(f)


def test_parse_echoes_the_whole_program(prog, capsys):
    assert main(["parse", prog]) == 0
    text = capsys.readouterr().out
    assert "D(a) = a.D(a);" in text
    assert "P = a.0 + b.0;" in text


def test_parse_single_process_and_json(prog, capsys):
    assert main(["parse", prog, "-p", "W"]) == 0
    assert capsys.readouterr().out.strip() == "a.0 + b.0 | 'a.0"
    assert main(["parse", prog, "-p", "W", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "process": "a.0 + b.0 | 'a.0"
    }


def test_parse_whole_program_as_json(prog, capsys):
    assert main(["parse", prog, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["defs"]["D"] == {"params": ["a"], "body": "a.D(a)"}
    assert doc["processes"]["P"] == "a.0 + b.0"
    assert set(doc["processes"]) == {"P", "Q", "W", "B", "Z", "O"}


def test_parse_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("P = tick.a.0;\n"))
    assert main(["parse", "-", "-p", "P"]) == 0
    assert capsys.readouterr().out.strip() == "{0} else a.0"


def test_parse_error_is_exit_two(tmp_path, capsys):
    f = tmp_path / "bad.tccs"
    f.write_text("P = a..0;\n", encoding="ascii")
    assert main(["parse", str(f)]) == 2
    err = capsys.readouterr().err
    assert "parse error:" in err and "line 1, column 7" in err


def test_unknown_process_name_lists_the_known_ones(prog, capsys):
    assert main(["analyze", prog, "-p", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert "no process named NOPE" in err
    assert "file defines:" in err


def test_missing_file_is_exit_two(capsys):
    assert main(["parse", "/no/such/file.tccs"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lts_text_json_dot(prog, capsys):
    assert main(["lts", prog, "-p", "Q"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("states: 2")
    assert "0 -a-> 1" in text

    assert main(["lts", prog, "-p", "Q", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"states", "edges", "roots", "truncated"}
    assert [0, "a", 1] in doc["edges"]

    assert main(["lts", prog, "-p", "Q", "--format", "dot"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_lts_bound_is_exit_three(prog, capsys):
    assert main(["lts", prog, "-p", "O", "--bound", "1"]) == 3
    assert "(truncated)" in capsys.readouterr().out


def test_truncated_graphs_print_unexplored_states(tmp_path, capsys):
    # The root offers a and two taus; the bound used to cut its
    # expansion after the a edge and print it as stable.
    f = tmp_path / "cyclers.tccs"
    f.write_text(
        "C(x, y) = x.tau.'y.C(x, y);\nR = C(u, v) | C(v, u) | a.0;\n",
        encoding="ascii",
    )
    assert main(["lts", str(f), "-p", "R", "--bound", "2"]) == 3
    text = capsys.readouterr().out
    states = text.split("edges:")[0].splitlines()[1:]
    assert len(states) == 2
    assert all(line.endswith("  unexplored") for line in states)
    assert "stable" not in text
    assert main(["lts", str(f), "-p", "R", "--bound", "2",
                 "--format", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["edges"] == []
    assert all(
        st["stable"] is None and st["commit"] is None for st in doc["states"]
    )

    assert main(["lts", str(f), "-p", "R", "--bound", "5"]) == 3
    head, edges = capsys.readouterr().out.split("edges:")
    states = head.splitlines()[1:]
    assert not states[0].endswith("unexplored")
    assert all(line.endswith("  unexplored") for line in states[1:])
    assert len(states) == 5
    assert edges.split() == [
        "0", "-a->", "1", "0", "-tau->", "2", "0", "-tau->", "3"
    ]


def test_analyze_text_line(prog, capsys):
    assert main(["analyze", prog, "-p", "Q"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == (
        "stable=true converge=true ctxconv=true diverge=false "
        "reactive=true barbs={a}"
    )


def test_analyze_json(prog, capsys):
    assert main(["analyze", prog, "-p", "W", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stable"] is False
    assert doc["converge"] is True
    assert doc["barbs"] == []

    assert main(["analyze", prog, "-p", "B", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["barbs"] == ["a", "b", "'a"]
    # the keys of the text line, in its order
    assert list(doc) == [
        "stable", "converge", "ctxconv", "diverge", "reactive", "barbs"
    ]


def test_analyze_bound_is_exit_three(prog, capsys):
    assert main(["analyze", prog, "-p", "O", "--bound", "1"]) == 3
    assert "state bound 1 exceeded" in capsys.readouterr().err


def test_check_related_is_exit_zero(prog, capsys):
    assert main(["check", prog, "-p", "Z", "-q", "Z"]) == 0
    assert capsys.readouterr().out.strip() == "related"


def test_check_unrelated_explains(prog, capsys):
    assert main(["check", prog, "-p", "Z", "-q", "O", "--rel", "conv"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not related")
    assert "[red-tick]" in out


def test_check_json_verdict(prog, capsys):
    code = main([
        "check", prog, "-p", "P", "-q", "Q", "--rel", "usual",
        "--format", "json",
    ])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "related", "mode", "roots", "rounds", "certificate", "tester"
    }
    assert doc["related"] is False and doc["mode"] == "usual"
    assert all(
        set(e) == {"pair", "clause", "challenge", "round"}
        for e in doc["certificate"]
    )


def test_check_two_separately_written_deep_chains(tmp_path, capsys):
    chain = "a." * 900 + "0"
    f = tmp_path / "deep.tccs"
    f.write_text("P = %s;\nQ = %s;\n" % (chain, chain), encoding="ascii")
    assert main(["check", str(f), "-p", "P", "-q", "Q", "--rel", "usual"]) == 0
    assert capsys.readouterr().out == "related\n"
    # one prefix shorter: a refutation of 900 entries, explained in full
    f.write_text("P = %s;\nQ = %s;\n" % (chain, chain[2:]), encoding="ascii")
    assert main(["check", str(f), "-p", "P", "-q", "Q", "--rel", "usual"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "not related"
    assert err == ""
    assert "RecursionError" not in out


# the corpus item "branching point moved across a prefix"
BRANCHING = """\
P = a.(b.0 + c.0) | 'a.(d.0 + Omega);
Q = (a.b.0 + a.c.0) | 'a.(d.0 + Omega);
"""


RING = """\
Cyc(x, y) = x.tau.'y.Cyc(x, y);
R = Cyc(a, b) | Cyc(b, c) | Cyc(c, a) | 'a.0;
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    f = tmp_path / "branching.tccs"
    f.write_text(BRANCHING, encoding="ascii")
    ring = tmp_path / "ring.tccs"
    ring.write_text(RING, encoding="ascii")
    commands = (
        ["lts", str(f), "-p", "P", "--format", "json"],
        ["check", str(f), "-p", "P", "-q", "Q", "--rel", "conv",
         "--format", "json"],
        ["check", str(f), "-p", "P", "-q", "Q", "--rel", "usual"],
        ["lts", str(ring), "-p", "R", "--format", "json"],
    )
    src = str(Path(tccs.__file__).resolve().parent.parent)
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        runs.append([
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from tccs.cli import main; sys.exit(main())",
                 *argv],
                env=env, capture_output=True, timeout=120,
            )
            for argv in commands
        ])
    for a, b in zip(*runs):
        assert a.stderr == b"" and b.stderr == b""
        assert (a.returncode, a.stdout) == (b.returncode, b.stdout)
    assert [r.returncode for r in runs[0]] == [0, 1, 1, 0]
    assert len(json.loads(runs[0][3].stdout)["states"]) > 50


def test_check_falsify_reports_a_context(prog, capsys):
    code = main([
        "check", prog, "-p", "Z", "-q", "O", "--falsify", "--depth", "0",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "context: [] ;" in out and "may-converge" in out


def test_check_falsify_notes_contexts_skipped_at_the_bound(tmp_path, capsys):
    f = tmp_path / "pq.tccs"
    f.write_text("P = a.0;\nQ = a.0 + a.0;\n", encoding="ascii")
    code = main([
        "check", str(f), "-p", "P", "-q", "Q", "--rel", "conv",
        "--falsify", "--depth", "1", "--bound", "3",
    ])
    assert code == 0
    cap = capsys.readouterr()
    assert cap.out.strip() == "related"
    # the bound counts the plugged pair's tau-reachable states: only the
    # two testers whose continuations take internal steps exceed it
    assert cap.err.splitlines() == [
        "note: context [] | 'a.(new #5. (#5.(new #3. (#3.#1.0 | '#3.0)"
        " + new #4. (#4.0 | '#4.0)) | '#5.0) + new #6. (#6.#2.0 | '#6.0))"
        " skipped (bound)",
        "note: context [] | 'a.#Omega() skipped (bound)",
    ]


def test_check_rejects_untimed_mode_on_timed_terms(tmp_path, capsys):
    f = tmp_path / "timed.tccs"
    f.write_text("P = {a.0} else b.0;\nQ = a.0;\n", encoding="ascii")
    code = main([
        "check", str(f), "-p", "P", "-q", "Q", "--rel", "usual-untimed",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_an_engine_error_is_an_internal_error_not_a_usage_error(
    prog, capsys, monkeypatch
):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(tccs.cli, "check", broken)
    assert main(["check", prog, "-p", "Z", "-q", "Z"]) == 4
    assert capsys.readouterr().err == "internal error: ValueError: boom\n"


def test_a_too_deep_term_is_an_internal_error_in_one_line(tmp_path, capsys):
    # canonical forms are still computed recursively
    f = tmp_path / "deep.tccs"
    f.write_text("P = %sa.0%s;\n" % ("new a.(" * 1200, ")" * 1200), encoding="ascii")
    assert main(["analyze", str(f), "-p", "P"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RecursionError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_deep_chain_parses_and_prints(tmp_path, capsys):
    f = tmp_path / "deep.tccs"
    f.write_text("P = %s0;\n" % ("a." * 3000), encoding="ascii")
    assert main(["parse", str(f)]) == 0
    assert capsys.readouterr() == ("P = %s0;\n" % ("a." * 3000), "")


def test_deeply_nested_parentheses_parse(tmp_path, capsys):
    f = tmp_path / "deep.tccs"
    f.write_text("P = %sa.0%s;\n" % ("(" * 3000, ")" * 3000), encoding="ascii")
    assert main(["parse", str(f), "-p", "P"]) == 0
    assert capsys.readouterr() == ("a.0\n", "")


def test_a_wide_composition_steps_and_prints(tmp_path, capsys):
    # each state drops one a.0; the bound stops the graph at five states
    f = tmp_path / "wide.tccs"
    f.write_text("P = %s;\n" % " | ".join(["a.0"] * 1500), encoding="ascii")
    assert main(["lts", str(f), "-p", "P", "--bound", "5"]) == 3
    want = ["states: 5  (truncated)"]
    for k in range(5):
        tail = "unexplored" if k == 4 else "stable, commits {a}"
        want.append("  %d: %s  %s" % (k, " | ".join(["a.0"] * (1500 - k)), tail))
    want.append("edges:")
    for k in range(4):
        want += ["  %d -a-> %d" % (k, k + 1), "  %d -tick-> %d" % (k, k)]
    assert capsys.readouterr() == ("\n".join(want) + "\n", "")


def test_a_wide_composition_under_a_restriction_steps(tmp_path, capsys):
    # the restriction's body steps by the one composition rule, as a
    # state does, from the moves of its 1500 equal components
    f = tmp_path / "wide.tccs"
    f.write_text("P = new a. (%s);\n" % " | ".join(["a.0"] * 1500), encoding="ascii")
    assert main(["lts", str(f), "-p", "P", "--bound", "5"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "internal error" not in out
    body = " | ".join(["#1.0"] * 1500)
    assert out == "states: 1\n  0: new #1. (%s)  stable, commits {}\nedges:\n  0 -tick-> 0\n" % body


def test_a_wide_composition_of_distinct_operands_steps(tmp_path, capsys):
    # every operand moves, so the first state has 1500 targets; each is
    # composed as one node, not as a spine of 1499 binary ones
    f = tmp_path / "wide.tccs"
    parts = ["n%d.'n%d.0" % (i, i) for i in range(1500)]
    f.write_text("P = %s;\n" % " | ".join(parts), encoding="ascii")
    assert main(["lts", str(f), "-p", "P", "--bound", "5"]) == 3
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("states: 5  (truncated)\n")


def test_a_deep_nest_of_restricted_compositions_steps(tmp_path, capsys):
    # each level steps its composition through the component path, a
    # few frames per level: `tccs lts` runs 197 levels of this to the
    # bound, and at 198 the stepper runs out of stack
    t = "0"
    for i in reversed(range(150)):
        t = "new a%d. (a%d.0 | 'a%d.0 | %s)" % (i, i, i, t)
    f = tmp_path / "deep.tccs"
    f.write_text("P = %s;\n" % t, encoding="ascii")
    assert main(["lts", str(f), "-p", "P", "--bound", "5"]) == 3
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("states: 5  (truncated)\n")
    assert out.count(" -tau-> ") == 4


def test_a_wide_sum_parses_and_prints(tmp_path, capsys):
    text = "P = %s;\n" % " + ".join(["a.0"] * 3000)
    f = tmp_path / "wide.tccs"
    f.write_text(text, encoding="ascii")
    assert main(["parse", str(f)]) == 0
    assert capsys.readouterr() == (text, "")


def test_a_wide_sum_steps_and_checks(tmp_path, capsys):
    wide = " + ".join(["a.0"] * 3000)
    f = tmp_path / "wide.tccs"
    f.write_text(
        "P = %s;\nQ = %s + b.0;\n" % (wide, " + ".join(["a.0"] * 2999)),
        encoding="ascii",
    )
    assert main(["lts", str(f), "-p", "P", "--bound", "20"]) == 0
    assert capsys.readouterr() == (
        "states: 2\n  0: %s  stable, commits {a}\n  1: 0  stable, commits {}\n"
        "edges:\n  0 -a-> 1\n  0 -tick-> 0\n  1 -tick-> 1\n" % wide,
        "",
    )
    assert main(["check", str(f), "-p", "P", "-q", "Q", "--rel", "conv"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("not related\n") and err == ""
    assert "s1 -b-> s2 (0), challenged against s0" in out


def test_wide_compositions_classify_for_an_untimed_check(tmp_path, capsys):
    # classify walks both 1500-way compositions before the graph is built
    f = tmp_path / "wide.tccs"
    f.write_text(
        "P = %s;\nQ = %s | b.0;\n"
        % (" | ".join(["a.0"] * 1500), " | ".join(["a.0"] * 1499)),
        encoding="ascii",
    )
    argv = ["check", str(f), "-p", "P", "-q", "Q", "--rel", "usual-untimed"]
    assert main(argv + ["--bound", "5"]) == 3
    assert capsys.readouterr() == (
        "", "error: state bound 5 exceeded while building the graph\n"
    )


def test_check_bad_mode_is_an_argparse_error(prog, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", prog, "-p", "Z", "-q", "Z", "--rel", "strong"])
    assert exc.value.code == 2


def test_out_of_range_flags_are_usage_errors(prog, capsys):
    for argv, flag in (
        (["lts", prog, "-p", "Q", "--bound", "0"], "--bound"),
        (["check", prog, "-p", "Z", "-q", "Z", "--depth", "-1"], "--depth"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument %s: must be at least" % flag in err
        assert "Traceback" not in err


def test_non_ascii_input_is_a_usage_error(tmp_path, monkeypatch, capsys):
    f = tmp_path / "accent.tccs"
    f.write_bytes(b"// caf\xc3\xa9\nP = a.0;\n")
    assert main(["parse", str(f)]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: %s is not ASCII text" % f
    )
    for stdin in (
        io.TextIOWrapper(io.BytesIO(b"P = a.0; // \xff\n"), encoding="utf-8"),
        io.StringIO("P = \u00e9.0;\n"),
    ):
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["parse", "-"]) == 2
        assert capsys.readouterr().err.strip() == "error: stdin is not ASCII text"


def test_step_walks_one_action(prog, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0\nq\n"))
    assert main(["step", prog, "-p", "Q"]) == 0
    out = capsys.readouterr().out
    assert "instant 1: a.0" in out
    assert "0) a -> 0" in out
    assert "instant 1: 0" in out


def test_step_refuses_an_index_too_long_for_a_number(prog, monkeypatch, capsys):
    # 5000 digits, past the length that `int` converts
    monkeypatch.setattr("sys.stdin", io.StringIO("%05000d\n0\nq\n" % 1))
    assert main(["step", prog, "-p", "Q"]) == 0
    out = capsys.readouterr().out
    assert out.count("pick a transition index, or q to quit") == 1
    assert "instant 1: 0" in out


def test_step_tick_advances_the_instant(prog, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\nq\n"))
    assert main(["step", prog, "-p", "Q"]) == 0
    out = capsys.readouterr().out
    assert "1) tick -> a.0" in out
    assert "instant 2: a.0" in out


def test_step_rejects_garbage_and_survives_eof(prog, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("x\n9\n\u00b2\n"))
    assert main(["step", prog, "-p", "Q"]) == 0
    out = capsys.readouterr().out
    assert out.count("pick a transition index, or q to quit") == 3


def test_paper_suite_runs_clean(capsys):
    assert main(["paper-suite"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("pass ") for line in out[:-1])
    assert out[-1].endswith("items pass")
    total = int(out[-1].split()[0])
    assert total == len(out) - 1
