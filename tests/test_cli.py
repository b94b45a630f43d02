from __future__ import annotations

import csv
import gc
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import soundmdp
from soundmdp import ModelDocument, generate_example_me, generate_random, generate_slow_chain, write_explicit
from soundmdp import bench
from soundmdp.bench import CSV_COLUMNS, read_result_csv, run_suite
from soundmdp.errors import ParseError
from soundmdp.cli import _build_parser, main

from conftest import trap_beside_chain


@pytest.fixture()
def me_file(tmp_path):
    doc = generate_example_me()
    path = tmp_path / "me.mdpx"
    path.write_text(write_explicit(ModelDocument(doc.model, doc.named_states, frozenset([1, 2]))))
    return path


def test_solve_human_report(me_file, capsys):
    code = main(["solve", str(me_file), "--prop", "pmax", "--goal", "s+",
                 "--method", "ovi", "--epsilon", "0.05",
                 "--width", "absolute", "--error", "absolute", "--order", "forward"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result      0.49902848" in out
    assert "certified   yes" in out
    assert "sweeps      10" in out


def test_solve_human_report_default_order(me_file, capsys):
    # The default goal-distance order sweeps s0 and s2 (one step from s+)
    # before s1, saving one sweep; the certified interval is the same.
    code = main(["solve", str(me_file), "--prop", "pmax", "--goal", "s+",
                 "--method", "ovi", "--epsilon", "0.05",
                 "--width", "absolute", "--error", "absolute"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result      0.49902848000000011\n" in out
    assert "interval    [0.47902848000000009, 0.51902848000000013]\n" in out
    assert "certified   yes (ok)\n" in out
    assert "sweeps      9 (verification phases 2, cancelled 1)\n" in out


def test_solve_csv_row(me_file, capsys):
    code = main(["solve", str(me_file), "--prop", "emin", "--method", "ovi", "--csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["method"] == "ovi" and row["status"] == "ok"
    assert abs(float(row["result"]) - 0.6) <= 1e-6
    assert float(row["lower"]) <= 0.6 <= float(row["upper"])


def test_solve_csv_quotes_its_row(me_file, tmp_path, capsys):
    # The default instance id is the file stem, which may hold a comma.
    path = tmp_path / "a,b.mdpx"
    path.write_text(me_file.read_text())
    assert main(["solve", str(path), "--prop", "pmax", "--goal", "s+", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "\r" not in out and out.count("\n") == 2
    (tmp_path / "row.csv").write_text(out)
    row = read_result_csv(tmp_path / "row.csv")["a,b:pmax"]
    assert list(row) == list(CSV_COLUMNS)
    assert (row["method"], row["status"], row["sweeps"]) == ("ovi", "ok", "62")


def test_no_certificate_is_written_as_it_is(tmp_path, capsys):
    # OVI out of sweeps reports `no-certificate`, in the report, in the
    # `solve --csv` row and in a suite row, and the suite still passes.
    chain = tmp_path / "slow-chain.mdpx"
    chain.write_text(write_explicit(generate_slow_chain(10, Fraction(1, 2))))
    request = [str(chain), "--prop", "emax", "--method", "ovi", "--max-sweeps", "50"]
    assert main(["solve", *request]) == 0
    assert "certified   no (no-certificate)\n" in capsys.readouterr().out
    assert main(["solve", *request, "--csv"]) == 0
    (tmp_path / "row.csv").write_text(capsys.readouterr().out)
    assert read_result_csv(tmp_path / "row.csv")["slow-chain:emax"]["status"] == "no-certificate"
    suite = tmp_path / "capped.suite"
    suite.write_text(" ".join([chain.name, *request[1:]]) + "\n")
    assert main(["bench", str(suite), "-o", str(tmp_path / "capped.csv"), "--reps", "1"]) == 0
    row = read_result_csv(tmp_path / "capped.csv")["slow-chain:emax"]
    assert (row["status"], row["sweeps"]) == ("no-certificate", "50")


def test_solve_with_declared_goals(me_file, capsys):
    # No --goal: the file's goal declaration (s+ and s-) applies.
    code = main(["solve", str(me_file), "--prop", "emin", "--method", "oracle"])
    out = capsys.readouterr().out
    assert code == 0
    (result_line,) = [ln for ln in out.splitlines() if ln.startswith("result")]
    assert float(result_line.split()[1]) == 0.6


def test_solve_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.mdpx"
    bad.write_text("mdpx 1\nstates 1\n")
    code = main(["solve", str(bad), "--prop", "pmax", "--goal", "0"])
    assert code != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "nan"], "epsilon must be a positive finite real, not nan"),
    (["--epsilon", "0"], "epsilon must be a positive finite real, not 0.0"),
    (["--epsilon=-1"], "epsilon must be a positive finite real, not -1.0"),
    (["--epsilon", "inf"], "epsilon must be a positive finite real, not inf"),
    (["--epsilon-vi", "nan"], "epsilon-vi must be a positive finite real, not nan"),
    (["--epsilon-vi", "0"], "epsilon-vi must be a positive finite real, not 0.0"),
    (["--epsilon-vi=-1e-3"], "epsilon-vi must be a positive finite real, not -0.001"),
    (["--max-sweeps", "-5"], "max-sweeps must be a positive integer, not -5"),
    (["--max-sweeps", "0"], "max-sweeps must be a positive integer, not 0"),
    (["--order", "bogus"], "unknown iteration order 'bogus'"),
], ids=["epsilon-nan", "epsilon-zero", "epsilon-negative", "epsilon-inf",
        "epsilon-vi-nan", "epsilon-vi-zero", "epsilon-vi-negative", "max-sweeps-negative",
        "max-sweeps-zero", "order-bogus"])
@pytest.mark.parametrize("prop", ["pmax", "emax"])
def test_solve_rejects_bad_options_up_front(me_file, capsys, flags, message, prop):
    # pmax to s+ runs sweeps; emax to {s+, s-} is decided (infinite) before
    # any sweep, so a bad option must not wait for one to be noticed.  The
    # sweep cap keeps a regression from stalling the suite.
    cap = [] if flags[0].startswith("--max-sweeps") else ["--max-sweeps", "1000"]
    goal = ["--goal", "s+"] if prop == "pmax" else []
    code = main(["solve", str(me_file), "--prop", prop, *goal, *cap, *flags])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_solve_checks_epsilon_before_reading_the_model(tmp_path, capsys):
    # A bad --epsilon is a usage error (exit 2), reported ahead of the
    # missing file that it used to wait for.
    code = main(["solve", str(tmp_path / "missing.mdpx"), "--prop", "pmax", "--epsilon", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: epsilon must be a positive finite real, not 0.0\n"


def test_solve_timeout(tmp_path, capsys):
    # Value iteration to 1e-9 on this chain runs for seconds; past a 1 ms
    # deadline the report is the status alone, exit code 1.
    path = tmp_path / "chain.mdpx"
    path.write_text(write_explicit(generate_slow_chain(14, Fraction(1, 2))))
    request = ["solve", str(path), "--prop", "emax", "--method", "vi", "--epsilon", "1e-9"]
    assert main([*request, "--timeout", "0.001"]) == 1
    assert capsys.readouterr() == ("", "error: timeout\n")
    assert main([*request, "--timeout", "0.001", "--csv"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].endswith(",timeout") and err == "error: timeout\n"


def test_solve_csv_reports_the_reason_for_an_error(tmp_path, capsys):
    # Standard output keeps the CSV; the reason goes to standard error, as
    # in the report mode, located by line and column.
    path = tmp_path / "dangling.mdpx"
    path.write_text("mdpx 1\nstates 2\ninitial 0\nstate 0\n  transition\n"
                    "    branch 1 0 nowhere\nstate 1\n  transition\n    branch 1 0 1\n")
    request = ["solve", str(path), "--prop", "pmax", "--goal", "1"]
    message = "error: dangling target: unknown state label 'nowhere' (line 6, column 16)\n"
    assert main(request) == 1
    assert capsys.readouterr() == ("", message)
    assert main([*request, "--csv"]) == 1
    out, err = capsys.readouterr()
    assert err == message
    header, row = out.splitlines()
    assert header == ",".join(CSV_COLUMNS) and row.endswith(",error")


@pytest.mark.parametrize("enabled", [True, False])
def test_a_request_leaves_the_collector_as_it_found_it(me_file, tmp_path, capsys, monkeypatch,
                                                      enabled):
    # A request runs under one pause of the cyclic garbage collector, its
    # report's parse included, and leaves the collector on or off as it was:
    # after a certified solve, an `error:` exit, a pipeline error that
    # becomes a status, and an error raised through `_cmd_solve`.
    random_file = tmp_path / "r500.mdpx"
    random_file.write_text(write_explicit(generate_random(1, 500, 3, 4, 4, 10)), encoding="utf-8")
    parsed_with_collector = []
    real_parse = bench.parse_explicit
    monkeypatch.setattr(bench, "parse_explicit",
                        lambda text: parsed_with_collector.append(gc.isenabled()) or real_parse(text))
    requests = [
        (["solve", str(me_file), "--prop", "pmax", "--goal", "s+"], 0, "certified   yes (ok)"),
        (["solve", str(tmp_path / "missing.mdpx"), "--prop", "pmax"], 1, "error: cannot read"),
        (["solve", str(random_file), "--prop", "emin", "--method", "ii"], 1,
         "no finite reward upper bound"),
        (["solve", str(me_file), "--prop", "pmax", "--epsilon", "0"], 2, "epsilon must be"),
    ]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code, text in requests:
            assert main(argv) == code
            assert gc.isenabled() is enabled
            assert text in "".join(capsys.readouterr())
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert parsed_with_collector == [False] * 3  # the solve's and its report's, then r500's


def test_in_process_calls_stay_independent(me_file, capsys):
    # The parser is built once per process.  Calls through it, in this order,
    # give what each gives through a freshly built parser, times aside.
    calls = [["solve", str(me_file), "--prop", "pmax", "--goal", "s+"],
             ["solve", str(me_file), "--prop", "emin"],
             ["solve", str(me_file), "--prop", "emin", "--csv"],
             ["solve", str(me_file), "--prop", "bogus"],
             ["solve", str(me_file), "--prop", "pmax", "--epsilon", "0"]]
    calls.append(calls[0])
    timed = [i for i, column in enumerate(CSV_COLUMNS) if column.endswith("_ms")]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        lines = [line for line in out.splitlines() if not line.startswith("time")]
        if "--csv" in argv:
            lines = [",".join(f for i, f in enumerate(line.split(",")) if i not in timed)
                     for line in lines]
        return code, lines, err

    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 2, 0]
    assert shared[0] == shared[-1] and "invalid choice: 'bogus'" in shared[3][2]
    assert _build_parser() is _build_parser()


def test_precomp_all_is_a_usage_error(me_file, capsys):
    # `--precomp all` added nothing that `--ec-elim force` does not.
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(me_file), "--prop", "pmax", "--goal", "s+", "--precomp", "all"])
    assert exc.value.code == 2 and "invalid choice: 'all'" in capsys.readouterr().err


def test_solve_timeout_leaves_a_solve_that_meets_it_unchanged(me_file, capsys):
    request = ["solve", str(me_file), "--prop", "emin", "--method", "ii"]
    assert main(request) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main([*request, "--timeout", "600"]) == 0
    timed = capsys.readouterr().out.splitlines()
    assert [line for line in timed if not line.startswith("time")] \
        == [line for line in plain if not line.startswith("time")]


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_solve_rejects_a_timeout_that_is_not_positive(tmp_path, capsys, value):
    # Checked with the other options, before the model is read.
    code = main(["solve", str(tmp_path / "missing.mdpx"), "--prop", "pmax", "--timeout", value])
    assert code == 2
    assert capsys.readouterr().err \
        == f"error: timeout must be a positive number, not {float(value)!r}\n"


def test_bench_rejects_bad_options_up_front(me_file, tmp_path, capsys):
    # A bad option fails the whole suite at its line, not as an error row.
    suite = tmp_path / "bad.suite"
    for flag, message in [
            ("--epsilon-vi nan", "epsilon-vi must be a positive finite real, not nan"),
            ("--epsilon 0", "epsilon must be a positive finite real, not 0.0"),
            ("--epsilon nan", "epsilon must be a positive finite real, not nan"),
            ("--epsilon=-1", "epsilon must be a positive finite real, not -1.0"),
            ("--epsilon inf", "epsilon must be a positive finite real, not inf")]:
        suite.write_text(f"{me_file.name} --prop pmax --goal s+\n"
                         f"{me_file.name} --prop pmax --goal s+ {flag}\n")
        assert main(["bench", str(suite), "-o", str(tmp_path / "bad.csv")]) == 2
        assert capsys.readouterr().err == f"error: {suite}:2: {message}\n"
    # A zero timeout used to mean no limit at all.
    suite.write_text(f"{me_file.name} --prop pmax --goal s+\n")
    assert main(["bench", str(suite), "-o", str(tmp_path / "bad.csv"), "--timeout", "0"]) == 2
    assert capsys.readouterr().err == "error: timeout must be a positive number, not 0.0\n"
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("flag, value", [("--reps", "0"), ("--reps", "-3"),
                                         ("--jobs", "0"), ("--jobs", "-2")])
def test_bench_rejects_counts_below_one(me_file, tmp_path, capsys, flag, value):
    # These used to run and write reps=0 or jobs=0 into the CSV header.
    suite = tmp_path / "ok.suite"
    suite.write_text(f"{me_file.name} --prop pmax --goal s+\n")
    out_csv = tmp_path / "out.csv"
    assert main(["bench", str(suite), "-o", str(out_csv), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[2:]} must be a positive integer, not {value}\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("method", ["ovi", "ii"])
def test_solve_decided_reward_request_without_a_finite_bound(tmp_path, capsys, method):
    model, goals = trap_beside_chain()
    path = tmp_path / "trap.mdpx"
    path.write_text(write_explicit(ModelDocument(model, {}, frozenset(goals))))
    assert main(["solve", str(path), "--prop", "emax", "--method", method]) == 0
    out = capsys.readouterr().out
    assert "result      inf\n" in out
    assert "certified   yes (ok)\n" in out
    assert "sweeps      0 " in out


def test_bench_suite_and_exit_codes(me_file, tmp_path, capsys):
    suite = tmp_path / "ok.suite"
    suite.write_text(
        "# comment line\n"
        f"{me_file.name} --prop pmax --goal s+ --method ovi --epsilon 1e-6 --ref 0.5\n"
        f"{me_file.name} --prop emin --method ii --epsilon 1e-6 --ref 0.6\n"
        f"{me_file.name} --prop pmax --goal s+ --method oracle --id exact --ref 0.5\n"
    )
    out_csv = tmp_path / "out.csv"
    assert main(["bench", str(suite), "-o", str(out_csv), "--reps", "2"]) == 0
    rows = read_result_csv(out_csv)
    assert set(rows) == {"me:pmax", "me:emin", "exact"}
    assert all(r["correct"] == "true" for r in rows.values())
    header = [ln for ln in out_csv.read_text().splitlines() if not ln.startswith("#")][0]
    assert header == ",".join(CSV_COLUMNS)

    # Plain value iteration claims no bound, so its miss does not fail the suite.
    trap = tmp_path / "trap.suite"
    trap.write_text(f"{me_file.name} --prop pmax --goal s+ --method vi --epsilon 1e-6 --ref 0.5\n")
    assert main(["bench", str(trap), "-o", str(tmp_path / 'trap.csv'), "--reps", "1"]) == 0
    assert read_result_csv(tmp_path / "trap.csv")["me:pmax"]["correct"] == "false"

    # A certified row that misses its reference does.
    wrong = tmp_path / "wrong.suite"
    wrong.write_text(
        f"{me_file.name} --prop pmax --goal s+ --method vi --epsilon 1e-6 --id vi --ref 0.5\n"
        f"{me_file.name} --prop pmax --goal s+ --method ovi --epsilon 1e-6 --id ovi --ref 0.4\n")
    assert main(["bench", str(wrong), "-o", str(tmp_path / 'wrong.csv'), "--reps", "1"]) == 1
    rows = read_result_csv(tmp_path / "wrong.csv")
    assert (rows["vi"]["correct"], rows["ovi"]["correct"]) == ("false", "false")
    assert rows["ovi"]["status"] == "ok"


def test_bench_suite_lines_keep_quoted_hashes(me_file, tmp_path):
    # A `#` inside quotes belongs to the word; an unquoted one starts a
    # comment, also in the middle of a word (`pmax#x` is `pmax`, and the
    # reference after it, which the row would miss, is never read).
    suite = tmp_path / "quoted.suite"
    suite.write_text(f'{me_file.name} --prop pmax --goal s+ --method ovi --id "me#1"\n'
                     f"{me_file.name} --goal s+ --method ovi --id 'me # 2' --prop pmax#x --ref 9\n")
    rows, ok = run_suite(suite, tmp_path / "quoted.csv", reps=1, timeout=None)
    assert ok and [r["instance"] for r in rows] == ["me#1", "me # 2"]
    assert rows[1]["result"] == rows[0]["result"]
    assert set(read_result_csv(tmp_path / "quoted.csv")) == {"me#1", "me # 2"}


@pytest.mark.parametrize("line", ['--prop emax --id "chain#1', "--prop pmax --id 'open"])
def test_bench_refuses_a_suite_line_with_an_unbalanced_quote(me_file, tmp_path, capsys, line):
    # This used to end `bench` with a ValueError traceback from shlex.
    suite = tmp_path / "quote.suite"
    suite.write_text(f"{me_file.name} --prop pmax --goal s+\n{me_file.name} {line}\n")
    assert main(["bench", str(suite), "-o", str(tmp_path / "quote.csv")]) == 2
    assert capsys.readouterr().err == f"error: {suite}:2: malformed suite line\n"
    assert not (tmp_path / "quote.csv").exists()


def test_bench_duplicate_ids_are_distinguished(me_file, tmp_path):
    suite = tmp_path / "dup.suite"
    suite.write_text(
        f"{me_file.name} --prop pmax --goal s+ --method ovi\n"
        f"{me_file.name} --prop pmax --goal s+ --method ii\n"
    )
    rows, _ = run_suite(suite, tmp_path / "dup.csv", reps=1, timeout=None)
    assert [r["instance"] for r in rows] == ["me:pmax", "me:pmax~2"]


def test_bench_repeated_ids_take_the_first_free_suffix(me_file, tmp_path, capsys):
    # A third `a` line after `a`, `a` and `a~2` used to be named `a~2` too,
    # and the result file then held two `a~2` rows.
    suite = tmp_path / "dup.suite"
    suite.write_text("".join(f"{me_file.name} --prop pmax --goal s+ --id {instance}\n"
                             for instance in ("a", "a", "a~2", "a")))
    out_csv = tmp_path / "dup.csv"
    rows, _ = run_suite(suite, out_csv, reps=1, timeout=None)
    assert [r["instance"] for r in rows] == ["a", "a~2", "a~2~2", "a~3"]
    assert list(read_result_csv(out_csv)) == ["a", "a~2", "a~2~2", "a~3"]
    assert main(["compare", str(out_csv), str(out_csv)]) == 0
    assert "4 instances" in capsys.readouterr().out


def test_read_result_csv_refuses_a_repeated_instance(tmp_path):
    # It used to keep the last of the two rows, so `compare` silently
    # compared one instance fewer than the file holds.
    path = tmp_path / "a.csv"
    _write_csv(path, [_row("x", 1.0, 10), _row("y", 2.0, 5), _row("x", 3.0, 7)])
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} repeats instance 'x'$"):
        read_result_csv(path)


def test_bench_timeout_row(tmp_path):
    chain = generate_slow_chain(14, Fraction(1, 2))
    model_path = tmp_path / "chain.mdpx"
    model_path.write_text(write_explicit(chain))
    suite = tmp_path / "slow.suite"
    suite.write_text("chain.mdpx --prop emax --method vi --epsilon 1e-9\n")
    rows, ok = run_suite(suite, tmp_path / "out.csv", reps=1, timeout=0.001)
    assert rows[0]["status"] == "timeout"
    assert not ok


def test_bench_exclude_trivial(tmp_path):
    doc = generate_random(11, 6, 2, 2, Fraction(2), 1, min_reward=Fraction(1, 4))
    model_path = tmp_path / "r.mdpx"
    model_path.write_text(write_explicit(doc))
    suite = tmp_path / "t.suite"
    suite.write_text("r.mdpx --prop pmax --method ovi --exclude-trivial\n")
    rows, ok = run_suite(suite, tmp_path / "out.csv", reps=1, timeout=None)
    assert rows[0]["status"] == "trivial"
    assert ok


def test_bench_parse_error_row(tmp_path):
    (tmp_path / "broken.mdpx").write_text("mdpx 1\nstates 1\n")
    suite = tmp_path / "b.suite"
    suite.write_text("broken.mdpx --prop pmax --goal 0 --method ovi\n")
    rows, ok = run_suite(suite, tmp_path / "out.csv", reps=1, timeout=None)
    assert rows[0]["status"] == "error" and not ok


def test_undecodable_model_file_is_an_error(me_file, tmp_path, capsys):
    # A model file that is not UTF-8 text is reported like a missing one:
    # solve prints `error: ...` and exits 1, and bench writes an error row
    # and runs the suite's other rows.
    bad = tmp_path / "bad.mdpx"
    bad.write_bytes(b"\xff\xfe")
    message = f"{bad} is not utf-8 text: invalid start byte at byte 0"
    assert main(["solve", str(bad), "--prop", "pmax", "--goal", "0"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    suite = tmp_path / "u.suite"
    suite.write_text("bad.mdpx --prop pmax --goal 0 --method ovi\n"
                     f"{me_file.name} --prop pmax --goal s+ --method ovi --ref 0.5\n")
    out_csv = tmp_path / "u.csv"
    assert main(["bench", str(suite), "-o", str(out_csv), "--reps", "1"]) == 1
    assert f"error       result=- ({message})" in capsys.readouterr().out
    rows = read_result_csv(out_csv)
    assert rows["bad:pmax"]["status"] == "error"
    assert (rows["me:pmax"]["status"], rows["me:pmax"]["correct"]) == ("ok", "true")


def test_every_file_is_read_and_written_as_utf8(tmp_path):
    # With the warning on and made an error, a file opened in the locale's
    # encoding ends the command with an EncodingWarning traceback and exit
    # code 1.  `solve` reads a model, `bench` a suite and models (in its
    # workers too) and writes the CSV, and `compare` reads CSVs.
    src = Path(soundmdp.__file__).resolve().parents[1]
    model = src.parent / "bench_suite" / "models" / "me.mdpx"
    suite, out_csv = tmp_path / "me.suite", tmp_path / "me.csv"
    suite.write_text(f"{model} --prop pmax --goal s+\n{model} --prop emin --method ii\n",
                     encoding="utf-8")
    for argv in (["solve", str(model), "--prop", "pmax", "--goal", "s+"],
                 ["bench", str(suite), "-o", str(out_csv), "--reps", "1", "--jobs", "2"],
                 ["compare", str(out_csv), str(out_csv)]):
        run = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                              "-W", "error::EncodingWarning", "-m", "soundmdp.cli", *argv],
                             capture_output=True, text=True, env={"PYTHONPATH": str(src)})
        assert (run.returncode, run.stderr) == (0, ""), argv


def test_bench_parallel_matches_serial(me_file, tmp_path):
    suite = tmp_path / "par.suite"
    suite.write_text(
        f"{me_file.name} --prop pmax --goal s+ --method ovi --ref 0.5\n"
        f"{me_file.name} --prop emin --method ovi --ref 0.6\n"
        f"{me_file.name} --prop emin --method ii --ref 0.6\n"
    )
    serial, _ = run_suite(suite, tmp_path / "s.csv", reps=1, timeout=None, jobs=1)
    parallel, _ = run_suite(suite, tmp_path / "p.csv", reps=1, timeout=None, jobs=2)
    keep = ("instance", "method", "result", "lower", "upper", "sweeps", "phases", "correct", "status")
    assert [{k: r[k] for k in keep} for r in serial] == [{k: r[k] for k in keep} for r in parallel]


def _write_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def _row(instance: str, solve_ms: float, sweeps: int) -> dict:
    return {"instance": instance, "method": "ovi", "result": "0.5", "lower": "0.5",
            "upper": "0.5", "sweeps": str(sweeps), "phases": "1", "precomp_ms": "0.1",
            "transform_ms": "0.1", "solve_ms": f"{solve_ms}", "correct": "true",
            "status": "ok"}


def test_compare_identical_files(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    _write_csv(path_a, [_row("x", 1.0, 10), _row("y", 2.0, 5)])
    assert main(["compare", str(path_a), str(path_a)]) == 0
    out = capsys.readouterr().out
    assert out.count("1.000") >= 4


def test_compare_counts_bands(tmp_path, capsys):
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_csv(path_a, [_row("x", 1.0, 10), _row("y", 2.0, 10)])
    _write_csv(path_b, [_row("x", 2.5, 10), _row("y", 0.5, 4)])
    assert main(["compare", str(path_a), str(path_b)]) == 0
    out = capsys.readouterr().out
    assert "time:   B slower >2x on 1, faster <0.5x on 1" in out
    assert "fewer <0.5x on 1" in out


def test_compare_prints_this_table(tmp_path, capsys, monkeypatch):
    # Ratios exactly at 2 and 0.5 fall in neither band; a zero time or sweep
    # count in A against a non-zero one in B is an infinite ratio, and two
    # zeros are equal.
    monkeypatch.chdir(tmp_path)
    pairs = {"equal": ((1.0, 10), (1.0, 10)),
             "zero-time": ((0.0, 5), (3.0, 5)),
             "zero-both": ((0.0, 0), (0.0, 0)),
             "over": ((1.0, 10), (2.5, 25)),
             "at-2x": ((1.0, 10), (2.0, 20)),
             "under": ((4.0, 10), (1.0, 4)),
             "at-half": ((2.0, 8), (1.0, 4)),
             "inside": ((1.0, 10), (1.5, 6)),
             "b-zero": ((2.0, 3), (0.0, 0))}
    for name, side in (("a.csv", 0), ("b.csv", 1)):
        _write_csv(tmp_path / name, [_row(i, *p[side]) for i, p in pairs.items()])
    assert main(["compare", "a.csv", "b.csv"]) == 0
    assert capsys.readouterr() == ("""\
instance                                   time B/A  sweeps B/A
at-2x                                         2.000       2.000
at-half                                       0.500       0.500
b-zero                                        0.000       0.000
equal                                         1.000       1.000
inside                                        1.500       0.600
over                                          2.500       2.500
under                                         0.250       0.400
zero-both                                     1.000       1.000
zero-time                                       inf       1.000

A = a.csv, B = b.csv; 9 instances
time:   B slower >2x on 2, faster <0.5x on 2
sweeps: B more >2x on 1, fewer <0.5x on 2
""", "")


def test_compare_rejects_mismatched_ids(tmp_path, capsys):
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_csv(path_a, [_row("x", 1.0, 1)])
    _write_csv(path_b, [_row("z", 1.0, 1)])
    assert main(["compare", str(path_a), str(path_b)]) == 2
    assert "instance ids differ" in capsys.readouterr().err


@pytest.mark.parametrize("command, content, message", [
    ("bench", None, "cannot read {path}: No such file or directory"),
    ("bench", b"\xff\xfe", "{path} is not utf-8 text: invalid start byte at byte 0"),
    ("compare", None, "cannot read {path}: No such file or directory"),
    ("compare", b"\xff\xfe", "{path} is not utf-8 text: invalid start byte at byte 0"),
    ("compare", b"name,solve_ms,sweeps\nx,1.0,2\n", "{path} has no 'instance' column"),
    ("compare", b"instance,solve_ms,sweeps\nx,fast,2\n",
     "{path}: could not convert string to float: 'fast'"),
    ("compare", b"instance,solve_ms,sweeps\nx,1.0,2\nx,1.0,3\n", "{path} repeats instance 'x'"),
], ids=["bench-missing", "bench-undecodable", "compare-missing", "compare-undecodable",
        "compare-no-instance-column", "compare-non-numeric-cell", "compare-repeated-instance"])
def test_unusable_suite_or_result_file_is_an_error(tmp_path, capsys, command, content, message):
    # These used to end in a traceback; like a bad option, each is one
    # `error:` line naming the file, and exit code 2.
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    argv = ["bench", str(path), "-o", str(tmp_path / "out.csv")] if command == "bench" \
        else ["compare", str(path), str(path)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")
    assert not (tmp_path / "out.csv").exists()


def test_compare_accepts_its_own_bench_output(me_file, tmp_path, capsys):
    suite = tmp_path / "own.suite"
    suite.write_text(
        f"{me_file.name} --prop pmax --goal s+ --method ovi\n"
        f"{me_file.name} --prop emin --method ii\n"
    )
    out_csv = tmp_path / "own.csv"
    run_suite(suite, out_csv, reps=1, timeout=None)
    assert main(["compare", str(out_csv), str(out_csv)]) == 0
    assert "2 instances" in capsys.readouterr().out


def test_bundled_suite_files_run():
    root = Path(__file__).resolve().parent.parent / "bench_suite"
    suite = root / "demo.suite"
    assert suite.exists()
    # Parsing only; the acceptance suite actually runs it.
    from soundmdp.bench import parse_suite
    requests = parse_suite(suite)
    assert len(requests) >= 8
    assert all(req.model_path.exists() for req in requests)


def test_every_suite_request_carries_the_suite_timeout():
    suite = Path(__file__).resolve().parent.parent / "bench_suite" / "demo.suite"
    requests = bench.parse_suite(suite, 2.5)
    assert requests and all(req.options.timeout == 2.5 for req in requests)
    assert all(req.options.timeout is None for req in bench.parse_suite(suite))


def test_a_goal_id_is_ascii_digits(tmp_path, capsys):
    # int() read "1_0" as state 10, the chain's goal.
    path = tmp_path / "chain.mdpx"
    path.write_text(write_explicit(generate_slow_chain(10, Fraction(1, 2))))
    assert main(["solve", str(path), "--prop", "pmax", "--goal", "1_0"]) == 1
    assert capsys.readouterr().err == "error: unknown state label '1_0'\n"


@pytest.mark.parametrize("suite", ["demo", "rewards-ii", "rewards-ovi"])
def test_bundled_suite_outcomes_stay_the_same(suite, tmp_path):
    # Every column but the timings is pinned, digit for digit, to the rows in
    # tests/expected/.  Regenerate those only for an intended change of outcome.
    # The suite runs twice in this process, first with empty caches, then
    # with the phase runners and number conversions the first run left.
    root = Path(__file__).resolve().parent
    with (root / "expected" / f"{suite}.csv").open(newline="") as fh:
        expected = list(csv.DictReader(fh))
    for run in ("cold", "warm"):
        out = tmp_path / f"{suite}-{run}.csv"
        run_suite(root.parent / "bench_suite" / f"{suite}.suite", out, reps=1, timeout=None)
        got = read_result_csv(out)
        assert [{c: got[row["instance"]][c] for c in row} for row in expected] == expected
        assert len(got) == len(expected)


def test_cli_import_leaves_the_process_pool_out():
    # Only `bench --jobs` above 1 starts a process pool; every other command
    # skips the 36 modules of concurrent.futures.process and multiprocessing.
    code = ("import sys, soundmdp.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    src = str(Path(soundmdp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_repeated_goal_flags_accumulate(me_file, tmp_path, capsys):
    # `--goal s+ --goal s-` means `--goal s+ s-`, on the command line and on
    # a suite line; each flag used to replace the goals of the one before.
    def report(*goal_flags):
        assert main(["solve", str(me_file), "--prop", "pmax", *goal_flags]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("time")]

    both = report("--goal", "s+", "s-")
    assert "property    pmax to {s+, s-}, epsilon 1e-06 (relative width)" in both
    assert report("--goal", "s+", "--goal", "s-") == both
    assert report("--goal", "s-", "--goal", "s+", "--goal", "s-") == both
    # The parser is shared by every call in the process: its default stays empty.
    assert _build_parser().parse_args(["solve", "m", "--prop", "pmax"]).goal == []

    suite = tmp_path / "goals.suite"
    suite.write_text(f"{me_file.name} --prop pmax --goal s+ s- --id both\n"
                     f"{me_file.name} --prop pmax --goal s+ --goal s- --id repeated\n")
    rows, ok = run_suite(suite, tmp_path / "goals.csv", reps=1, timeout=None)
    assert ok and rows[0]["result"] == rows[1]["result"] == "1"


def test_cli_import_leaves_dataclasses_inspect_csv_and_shlex_out():
    # Every `soundmdp solve` pays for what importing soundmdp.cli loads.
    # dataclasses (with inspect, ast, dis and tokenize) was a third of it;
    # csv and shlex serve only `bench` and `compare`.  With -S no
    # site-packages module can load them either.
    code = ("import sys; sys.path.insert(0, 'src'); import soundmdp.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'csv', 'shlex') "
            "if m in sys.modules))")
    root = Path(soundmdp.__file__).resolve().parents[2]
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, cwd=root).stdout
    assert out == "[]\n"
