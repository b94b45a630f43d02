from __future__ import annotations

import csv
from fractions import Fraction
from pathlib import Path

import pytest

from soundmdp import ModelDocument, generate_example_me, generate_random, generate_slow_chain, write_explicit
from soundmdp.bench import CSV_COLUMNS, read_result_csv, run_suite
from soundmdp.cli import main


@pytest.fixture()
def me_file(tmp_path):
    doc = generate_example_me()
    path = tmp_path / "me.mdpx"
    path.write_text(write_explicit(ModelDocument(doc.model, doc.named_states, frozenset([1, 2]))))
    return path


def test_solve_human_report(me_file, capsys):
    code = main(["solve", str(me_file), "--prop", "pmax", "--goal", "s+",
                 "--method", "ovi", "--epsilon", "0.05",
                 "--width", "absolute", "--error", "absolute"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result      0.49902848" in out
    assert "certified   yes" in out
    assert "sweeps      10" in out


def test_solve_csv_row(me_file, capsys):
    code = main(["solve", str(me_file), "--prop", "emin", "--method", "ovi", "--csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["method"] == "ovi" and row["status"] == "ok"
    assert abs(float(row["result"]) - 0.6) <= 1e-6
    assert float(row["lower"]) <= 0.6 <= float(row["upper"])


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


def test_bench_duplicate_ids_are_distinguished(me_file, tmp_path):
    suite = tmp_path / "dup.suite"
    suite.write_text(
        f"{me_file.name} --prop pmax --goal s+ --method ovi\n"
        f"{me_file.name} --prop pmax --goal s+ --method ii\n"
    )
    rows, _ = run_suite(suite, tmp_path / "dup.csv", reps=1, timeout=None)
    assert [r["instance"] for r in rows] == ["me:pmax", "me:pmax~2"]


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
    suite.write_text("r.mdpx --prop pmax --method ovi --precomp all --exclude-trivial\n")
    rows, ok = run_suite(suite, tmp_path / "out.csv", reps=1, timeout=None)
    assert rows[0]["status"] == "trivial"
    assert ok


def test_bench_parse_error_row(tmp_path):
    (tmp_path / "broken.mdpx").write_text("mdpx 1\nstates 1\n")
    suite = tmp_path / "b.suite"
    suite.write_text("broken.mdpx --prop pmax --goal 0 --method ovi\n")
    rows, ok = run_suite(suite, tmp_path / "out.csv", reps=1, timeout=None)
    assert rows[0]["status"] == "error" and not ok


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


def test_compare_rejects_mismatched_ids(tmp_path, capsys):
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_csv(path_a, [_row("x", 1.0, 1)])
    _write_csv(path_b, [_row("z", 1.0, 1)])
    assert main(["compare", str(path_a), str(path_b)]) == 2
    assert "instance ids differ" in capsys.readouterr().err


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


@pytest.mark.parametrize("suite", ["demo", "rewards-ii", "rewards-ovi"])
def test_bundled_suite_outcomes_stay_the_same(suite, tmp_path):
    # Every column but the timings is pinned, digit for digit, to the rows in
    # tests/expected/.  Regenerate those only for an intended change of outcome.
    root = Path(__file__).resolve().parent
    out = tmp_path / f"{suite}.csv"
    run_suite(root.parent / "bench_suite" / f"{suite}.suite", out, reps=1, timeout=None)
    with (root / "expected" / f"{suite}.csv").open(newline="") as fh:
        expected = list(csv.DictReader(fh))
    got = read_result_csv(out)
    assert [{c: got[row["instance"]][c] for c in row} for row in expected] == expected
    assert len(got) == len(expected)
