import json
import os
import re
import subprocess
import sys
from math import prod
from pathlib import Path

import golden
import pytest
from domination_reference import minimum_sets_by_blocks
from test_cli_fuzz import NEAR_IDENTITY_64

from permdom import cli, constructions
from permdom.cli import main
from permdom.constructions import comb_sigma
from permdom.graph import build_graph
from permdom.perm import parse_permutation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_analyze_report(capsys):
    payload = run_json(capsys, "analyze", "3,1,4,2")
    assert payload["schema"] == 1
    assert payload["n"] == 4
    assert payload["gamma"] == 2
    assert payload["witness"] == [1, 2]
    assert payload["all_minimum_sets_count"] == 4
    assert payload["singleton_dominators"] == 0
    assert payload["connected"] is True
    assert sorted(map(tuple, payload["edges"])) == [
        (1, 3), (2, 3), (2, 4)]
    # values 1 and 4 occupy adjacent positions, so the end-value rule fires
    assert payload["quick_rule_fired"] == "quick_rule_1n"


def test_analyze_near_identity_64_matches_the_block_reference(capsys):
    # 27 components, with 221,184 minimum sets between them: the walk's memo
    # counts below each block boundary once.
    payload = run_json(capsys, "analyze", NEAR_IDENTITY_64)
    blocks = minimum_sets_by_blocks(build_graph(parse_permutation(NEAR_IDENTITY_64)))
    assert len(blocks) == 27
    assert payload["gamma"] == sum(len(sets[0]) for sets in blocks) == 34
    assert payload["witness"] == sorted(set().union(*(sets[0] for sets in blocks)))
    assert payload["all_minimum_sets_count"] == prod(map(len, blocks)) == 221184


def test_analyze_no_quick_rule(capsys):
    payload = run_json(capsys, "analyze", "1,2,3")
    assert payload["gamma"] == 3
    assert payload["quick_rule_fired"] is None


def test_analyze_strong_fixed_point_duality(capsys):
    payload = run_json(capsys, "analyze", "3,2,1")
    assert payload["singleton_dominators"] == 3
    assert payload["strong_fixed_points_of_reverse"] == 3


def test_count_g1(capsys):
    payload = run_json(capsys, "count", "g1", "--max-n", "6")
    assert payload["g1"] == {
        "0": "0", "1": "1", "2": "1", "3": "3", "4": "10", "5": "43",
        "6": "223"}


def test_count_f1_csv(capsys):
    code, out, _ = run(capsys, "count", "f1", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["index,value", "0,3", "1,2", "2,0", "3,1"]


@pytest.mark.parametrize("argv", [
    ("count", "g1", "--max-n", "5"),
    ("count", "f1", "--n", "4"),
    ("count", "pair", "--n", "4", "--u", "1", "--v", "3"),
    ("count", "pair", "--n", "4", "--u", "1", "--v", "3", "--adjacent"),
    ("count", "efficient", "--n", "6", "--set", "1,4"),
    ("count", "efficient", "--n", "4", "--set", "2"),
    ("count", "d", "--n", "3", "--k", "1"),
    ("seq", "st", "--max-n", "4"),
])
def test_every_csv_row_has_two_fields(capsys, argv):
    import csv

    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out.endswith("\n") and "\r" not in out
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["index", "value"] and len(rows) > 1
    assert all(len(row) == 2 for row in rows)
    payload = run_json(capsys, *argv)
    assert dict(rows[1:]) == payload[argv[1]]


def test_count_pair(capsys):
    payload = run_json(capsys, "count", "pair", "--n", "3", "--u", "1",
                       "--v", "3")
    assert payload["pair"] == {
        "nonadjacent": "2", "adjacent": "3", "total": "5"}
    payload = run_json(capsys, "count", "pair", "--n", "3", "--u", "1",
                       "--v", "3", "--adjacent")
    assert payload["pair"] == {"adjacent": "3"}


def test_count_efficient(capsys):
    payload = run_json(capsys, "count", "efficient", "--n", "4", "--set",
                       "1,4")
    assert payload["efficient"] == {"1,4": "6"}


def test_count_d_with_c_table_file(capsys, tmp_path):
    table = tmp_path / "c.json"
    # c(1, 1) = 1!, a zero, and an order past any n, whose count is checked
    # against its bound without computing 10**6!.
    table.write_text(json.dumps({"c": {"1": {"1": 1}, "2": {"1": 1, "2": 0},
                                       "3": {"1": 3},
                                       "1000000": {"1": 10 ** 4000}}}))
    payload = run_json(capsys, "count", "d", "--n", "4", "--k", "2",
                       "--c-table", str(table))
    assert payload["d"] == {"4,2": "7"}


@pytest.mark.parametrize("text", [
    None, "{", '{"n": {}}', '{"c": [1]}', '{"c": {"1": {"1": "one"}}}',
    '{"c": {"1": {"1": null}}}', "[]",
    # Not counts: a negative value, floats, a bool, overflowing and huge
    # numbers, and values above m!.
    '{"c": {"1": {"1": -5}, "2": {"1": 1}, "3": {"1": 3}}}',
    '{"c": {"1": {"1": 1.9}, "2": {"1": 1}, "3": {"1": 3}}}',
    '{"c": {"1": {"1": 1.5}}}', '{"c": {"1": {"1": 1.0}}}',
    '{"c": {"1": {"1": true}, "2": {"1": 1}, "3": {"1": 3}}}',
    '{"c": {"1": {"1": 1e400}, "2": {"1": 1}, "3": {"1": 3}}}',
    pytest.param('{"c": {"1": {"1": 1}, "2": {"1": 1}, "3": {"1": 1%s}}}'
                 % ("0" * 3999), id="4000-digit-count"),
    '{"c": {"1": {"1": 1}, "2": {"1": 1}, "3": {"1": 7}}}',
    '{"c": {"1": {"1": 2}}}', '{"c": {"0": {"1": 2}}}',
    '{"c": {"-1": {"1": 0}}}', '{"c": {"1000000": {"1": -1}}}',
    # A nonzero count at j > m or j < 1, and an order whose counts sum past
    # m! though each is at most m!.
    '{"c": {"1": {"1": 1}, "2": {"1": 1, "3": 2}, "3": {"1": 3}}}',
    '{"c": {"1": {"1": 1}, "2": {"0": 1, "1": 1}, "3": {"1": 3}}}',
    '{"c": {"0": {"0": 1}, "1": {"1": 1}, "2": {"1": 1}, "3": {"1": 3}}}',
    '{"c": {"1": {"1": 1}, "2": {"1": 1, "2": 2}, "3": {"1": 3}}}',
    '{"c": {"1": {"1": 1}, "2": {"1": 1}, "3": {"1": 3, "2": 3, "3": 1}}}',
])
def test_count_d_unreadable_c_table_is_an_error(capsys, tmp_path, text):
    table = tmp_path / "c.json"
    if text is not None:
        table.write_text(text)
    code, out, err = run(capsys, "count", "d", "--n", "4", "--k", "2",
                         "--c-table", str(table))
    assert code == 1 and out == ""
    assert "ParseError: bad c-table file" in err and "Traceback" not in err


def test_count_d_computes_table_when_absent(capsys):
    from permdom import oracle

    payload = run_json(capsys, "count", "d", "--n", "4", "--k", "2")
    assert payload["d"] == {"4,2": "7"}
    # The golden manifest's `count d --n 8` rows read this table from a file.
    text = (golden.ROOT / "tests" / "c_table_connected_n7.json").read_text()
    committed = {(int(n), int(k)): value
                 for n, row in json.loads(text)["c"].items()
                 for k, value in row.items()}
    assert committed == oracle.c_table(7)


def test_construct_comb(capsys):
    payload = run_json(capsys, "construct", "comb", "--n", "6",
                       "--variant", "tau")
    assert payload["perm"] == "2,5,1,3,6,4"
    assert payload["gamma"] == 3
    assert payload["connected"] is True
    assert payload["is_comb"] is True


def test_construct_gamma(capsys):
    payload = run_json(capsys, "construct", "gamma", "--n", "9", "--k", "3")
    assert payload["gamma"] == 3
    assert payload["connected"] is True


def test_construct_gamma_on_one_vertex(capsys):
    # gamma <= n/2 holds from n = 2 on; the one-vertex graph has gamma 1.
    payload = run_json(capsys, "construct", "gamma", "--n", "1", "--k", "1")
    assert payload["perm"] == "1"
    assert payload["gamma"] == 1 and payload["connected"] is True
    report = run_json(capsys, "analyze", "1")
    assert (report["gamma"], report["connected"]) == (1, True)


def test_construct_extend(capsys):
    payload = run_json(capsys, "construct", "extend", "--perm", "3,1,4,2")
    assert payload["input"]["gamma"] == payload["result"]["gamma"] == 2
    assert payload["result"]["perm"] == "3,1,4,5,2"
    assert payload["result"]["connected"] is True


def test_each_permutation_of_a_construction_is_solved_once(capsys, monkeypatch):
    solved = []
    exact = cli.domination_number_exact
    built = []
    build = cli.build_graph

    def counted(g):
        solved.append(g.n)
        return exact(g)

    def counted_build(p):
        built.append(p.n)
        return build(p)

    for module in (cli, constructions):
        monkeypatch.setattr(module, "domination_number_exact", counted)
    monkeypatch.setattr(cli, "build_graph", counted_build)
    run_json(capsys, "construct", "gamma", "--n", "20", "--k", "9")
    assert solved == [18, 19, 20, 20]  # the comb, two steps, the audit
    solved.clear()
    run_json(capsys, "construct", "extend", "--perm", str(comb_sigma(14)))
    assert solved == [14, 15, 14]  # the input, the step, the input's audit
    solved.clear()
    built.clear()
    run_json(capsys, "construct", "comb", "--n", "14")
    assert solved == built == [14]  # one graph for the audit and is_comb


def test_oracle_tally(capsys):
    payload = run_json(capsys, "oracle", "tally", "--n", "3")
    assert payload["g"] == {"1": "3", "2": "2", "3": "1"}
    assert payload["c"] == {"1": "3"}
    assert payload["d"] == {"2": "2", "3": "1"}
    assert payload["st"] == payload["f1"]


def test_seq_st_and_lift(capsys):
    payload = run_json(capsys, "seq", "st", "--max-n", "3")
    assert payload["st"]["3,0"] == "3"
    assert payload["st"]["3,3"] == "1"
    payload = run_json(capsys, "seq", "lift", "--r", "4")
    assert payload["coefficients"] == ["14", "29/2", "1/2"]
    assert payload["matches_closed_form"] is True


def test_verify_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "5")
    assert code == 0
    payload = json.loads(out)
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses and set(statuses.values()) == {"pass"}
    assert "PASS" in err


def test_output_is_byte_identical_across_runs(capsys):
    argv = ("analyze", "4,6,1,3,7,2,5")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "2,1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["gamma"] == 1


@pytest.mark.parametrize("argv", [
    ("analyze", "1,2"),
    ("count", "f1", "--n", "3"),
    ("count", "f1", "--n", "3", "--format", "csv"),
    ("construct", "comb", "--n", "6"),
    ("oracle", "tally", "--n", "3"),
    ("seq", "lift", "--r", "3"),
    ("verify", "--max-n", "2"),
])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_is_a_typed_error(capsys, tmp_path, argv, target):
    path = tmp_path if target == "directory" else tmp_path / "no" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: UnwritableOutput: ") and "Traceback" not in err


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "analyze", "1,1,2")
    assert code == 1 and "NotABijection" in err
    code, _, err = run(capsys, "construct", "gamma", "--n", "5", "--k", "3")
    assert code == 1 and "InfeasibleGamma" in err
    code, _, err = run(capsys, "oracle", "tally", "--n", "12")
    assert code == 1 and "OrderCapExceeded" in err
    code, _, err = run(capsys, "construct", "gamma", "--n", "200", "--k", "3")
    assert code == 1 and "OrderTooLarge" in err and "n = 200" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "pair", "--n", "3", "--u", "1", "--v", "3",
              "--adjacent", "--nonadjacent"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_allow_big_is_accepted_and_ignored(capsys):
    # One cap for every tally: the flag changes neither the answer nor the
    # first order refused.
    with_flag = run(capsys, "oracle", "tally", "--n", "5", "--allow-big")[:2]
    assert with_flag[0] == 0
    assert with_flag == run(capsys, "oracle", "tally", "--n", "5")[:2]
    for flag in ((), ("--allow-big",)):
        code, out, err = run(capsys, "oracle", "tally", "--n", "12", *flag)
        assert code == 1 and out == "" and "OrderCapExceeded" in err


# The cases keep the ids they were recorded under, `argv<place in the list>`;
# the gaps are argv removed since.
OUT_OF_RANGE_ARGV = {
    "argv0": ("oracle", "tally", "--n", "3", "--jobs", "0"),
    "argv1": ("oracle", "tally", "--n", "3", "--jobs", "-2"),
    "argv3": ("verify", "--max-n", "3", "--jobs", "-1"),
    "argv4": ("count", "g1", "--max-n", "-5"),
    "argv5": ("count", "f1", "--n", "-1"),
    "argv7": ("seq", "st", "--max-n", "-1"),
    "argv8": ("seq", "lift", "--r", "1"),
    "argv9": ("seq", "lift", "--r", "0"),
    "argv10": ("seq", "lift", "--r", "-1"),
    "argv11": ("verify", "--max-n", "0"),
    "argv12": ("verify", "--max-n", "-1"),
    "argv15": ("count", "d", "--n", "-3", "--k", "2"),
    "argv16": ("count", "d", "--n", "0", "--k", "2"),
    "argv17": ("count", "d", "--n", "5", "--k", "-1"),
    "argv18": ("count", "d", "--n", "5", "--k", "0"),
}
ABOVE_CAP_ARGV = {
    "argv0": ("count", "g1", "--max-n", "3000"),
    "argv1": ("count", "f1", "--n", "1001"),
    "argv2": ("count", "pair", "--n", "1001", "--u", "1", "--v", "2"),
    "argv3": ("count", "efficient", "--n", "1001", "--set", "1"),
    "argv5": ("seq", "lift", "--r", "81"),
    "argv6": ("count", "d", "--n", "96", "--k", "2"),
    "argv7": ("count", "d", "--n", "5", "--k", "96"),
    "argv8": ("verify", "--max-n", "9"),
    "argv9": ("seq", "st", "--max-n", "31"),
}


@pytest.mark.parametrize("argv", OUT_OF_RANGE_ARGV.values(), ids=OUT_OF_RANGE_ARGV)
def test_out_of_range_sizes_and_jobs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ABOVE_CAP_ARGV.values(), ids=ABOVE_CAP_ARGV)
def test_sizes_above_the_caps_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at most" in err and "Traceback" not in err


def test_the_caps_themselves_are_accepted_and_printable():
    import sys
    from math import factorial

    from permdom import counting, sequences, verify
    from permdom.cli import build_parser

    cap = str(counting.MAX_ORDER)
    d_cap = str(counting.MAX_D_ORDER)
    for argv in (["count", "g1", "--max-n", cap], ["count", "f1", "--n", cap],
                 ["count", "pair", "--n", cap, "--u", "1", "--v", "2"],
                 ["count", "efficient", "--n", cap, "--set", "1"],
                 ["count", "d", "--n", d_cap, "--k", d_cap],
                 ["seq", "st", "--max-n", str(sequences.MAX_ST_ORDER)],
                 ["seq", "lift", "--r", str(sequences.MAX_LIFT_OFFSET)],
                 ["verify", "--max-n", str(verify.MAX_N)]):
        build_parser().parse_args(argv)
    # Every count up to the cap is at most n!, so it prints without raising
    # the int-to-str digit limit.
    assert len(str(factorial(counting.MAX_ORDER))) < sys.get_int_max_str_digits()


@pytest.mark.parametrize("argv", [
    ("seq", "g1", "--max-n", "5"),
    ("oracle", "verify", "--max-n", "3"),
])
def test_removed_duplicate_commands_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_tally_output_is_identical_across_jobs(capsys, monkeypatch):
    # Runs the real process pool, which orders this small would otherwise
    # skip: every --jobs prints the same bytes.
    from permdom import oracle

    monkeypatch.setattr(oracle, "POOL_MIN_ORDER", 1)
    cases = [(("oracle", "tally", "--n", n), ("1", "2", "3"))
             for n in ("1", "2", "7")]
    cases.append((("verify", "--max-n", "5"), ("1", "2")))
    for argv, jobs in cases:
        outputs = {run(capsys, *argv, "--jobs", j)[1] for j in jobs}
        assert len(outputs) == 1 and outputs != {""}


@pytest.mark.parametrize("extra", [("--jobs", "1"), ("--jobs", "2"), ("--out", "tally.json")],
                         ids=["jobs1", "jobs2", "out"])
def test_tally_times_itself_in_one_stderr_line(capsys, monkeypatch, tmp_path, extra):
    from permdom import oracle

    monkeypatch.setattr(oracle, "POOL_MIN_ORDER", 1)  # --jobs 2 opens a pool
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "oracle", "tally", "--n", "4", *extra)
    assert code == 0
    assert re.fullmatch(r"elapsed: [0-9]+\.[0-9]{3}s\n", err), err


def _child_env() -> dict:
    """The environment for a `python -m permdom.cli` child process: this
    checkout's src on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": src}


def test_closed_stdout_exits_without_traceback():
    # About 190 kB of output: more than a pipe holds, so the writer is
    # still writing when the reader goes away.
    with subprocess.Popen(
        [sys.executable, "-m", "permdom.cli", "count", "g1", "--max-n", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    ) as proc:
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
    assert code == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("max_n", ["3", "300"])  # within, and past, one buffer
def test_full_stdout_is_a_typed_error(max_n):
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "permdom.cli", "count", "g1", "--max-n", max_n],
            stdout=full, stderr=subprocess.PIPE, env=_child_env(), timeout=60)
    assert done.returncode == 1
    (line,) = done.stderr.decode().splitlines()
    assert line.startswith("error: UnwritableOutput: cannot write stdout")


def test_help_still_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["count", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: permdom count")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["count", "--help"],
                                  ["verify", "--help"]])
def test_help_to_a_full_stdout_is_a_typed_error(argv):
    # argparse drops an OSError from writing its help and exits 0.
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "permdom.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE,
                              env=_child_env(), timeout=60)
    assert done.returncode == 1
    (line,) = done.stderr.decode().splitlines()
    assert line.startswith("error: UnwritableOutput: cannot write stdout")


def test_disconnected_extend_input_fails_before_any_search():
    # 1 is isolated, so the input is refused before the exact search.
    done = subprocess.run(
        [sys.executable, "-m", "permdom.cli", "construct", "extend",
         "--perm", NEAR_IDENTITY_64],
        capture_output=True, env=_child_env(), timeout=10)
    assert done.returncode == 1 and done.stdout == b""
    assert done.stderr.decode().startswith("error: DisconnectedInput: ")


def test_a_failed_extension_check_is_a_fail_line():
    # A solver off by one on odd orders: every step of an extension changes
    # gamma, so the extension's own check raises.
    script = (
        "import sys\n"
        "from permdom import cli, constructions\n"
        "from permdom.domination import DominationResult\n"
        "exact = constructions.domination_number_exact\n"
        "def off_by_one(g):\n"
        "    r = exact(g)\n"
        "    return DominationResult(r.gamma + g.n % 2, r.witness, r.method, r.repaired)\n"
        "constructions.domination_number_exact = off_by_one\n"
        "sys.exit(cli.main(['verify', '--max-n', '3']))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_child_env(), timeout=120)
    err = done.stderr.decode()
    assert done.returncode == 3 and "Traceback" not in err
    lines = err.splitlines()
    assert "FAIL extension_preserves_gamma (500 seeded samples)" in lines
    assert "FAIL connected_with_gamma (n <= 12, k <= n/2)" in lines
    checks = {c["name"]: c for c in json.loads(done.stdout)["checks"]}
    assert checks["extension_preserves_gamma"]["first_mismatch"].startswith(
        "inserting ")



def test_a_third_comb_in_the_tally_is_a_fail_line(capsys, monkeypatch):
    # Comb uniqueness reads c(6, 3) from the tally: a third connected graph
    # with gamma = 3 fails the check.
    from permdom import oracle

    real = oracle.full_tally

    def one_more_comb(n, jobs=1):
        t = real(n, jobs)
        return oracle.TallyReport(n=t.n, g=t.g, c={**t.c, n // 2: 3}, d=t.d,
                                  f1=t.f1, st=t.st) if n == 6 else t

    monkeypatch.setattr(oracle, "full_tally", one_more_comb)
    code, out, err = run(capsys, "verify", "--max-n", "1")
    assert code == 3
    assert "FAIL comb_extremal_family (enumerated n in (6,), built up to 12)" in err.splitlines()
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["comb_extremal_family"]["first_mismatch"] == "uniqueness at n=6: found 3"
    assert [name for name, c in checks.items() if c["status"] == "fail"] == [
        "comb_extremal_family"]

# Each check that reads the census, and the first leaf of the first order
# it reads: pairs and efficient sets start at n = 2.
CENSUS_CHECKS = {"recursions_vs_oracle": "[1]", "strong_fixed_point_identity": "[1]",
                 "pair_counts_vs_oracle": "[1,2]", "efficient_counts_vs_oracle": "[1,2]",
                 "singleton_formula_vs_oracle": "[1]",
                 "disconnected_formula_vs_oracle": "[1]", "heuristic_quality": "[1]"}


def test_a_failed_census_check_is_a_fail_line():
    # The heuristic without its last pick (drop_one in test_rows_level.py):
    # at the identity, the first leaf of every order, the census's own check
    # that the set dominates fires.
    script = (
        "import sys\n"
        "from permdom import cli, domination, oracle\n"
        "real = domination._heuristic_cover\n"
        "def drop_one(cliques, n):\n"
        "    return real(cliques, n)[:-1]\n"
        "oracle._heuristic_cover = drop_one\n"
        "census, swept = oracle.census, []\n"
        "def counted(n, jobs=1):\n"
        "    swept.append(n)\n"
        "    return census(n, jobs)\n"
        "oracle.census = counted\n"
        "code = cli.main(['verify', '--max-n', '3'])\n"
        "print('swept', *swept, file=sys.stderr)\n"
        "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_child_env(), timeout=120)
    err = done.stderr.decode()
    assert done.returncode == 3 and "Traceback" not in err
    lines = err.splitlines()
    assert lines[-1] == "swept 1 2"  # each census that raised, once
    checks = {c["name"]: c for c in json.loads(done.stdout)["checks"]}
    for name, leaf in CENSUS_CHECKS.items():
        assert f"FAIL {name} ({checks[name]['range']})" in lines
        assert checks[name]["first_mismatch"] == f"the heuristic's set does not dominate {leaf}"
    assert {name for name, c in checks.items() if c["status"] == "fail"} == set(CENSUS_CHECKS)


# Two wrong `components`: one never splits, and one always splits after the
# first position, so a block that is no permutation raises NotABijection.
COMPONENT_MUTANTS = {
    "never-split": ("lambda g: [(0, g.source)]", "[1,2]"),
    "split-after-first": ("lambda g: [(0, Permutation(g.source.image[:1])), "
                          "(1, Permutation(tuple(v - 1 for v in g.source.image[1:])))]",
                          "[1]"),
}


@pytest.mark.parametrize("mutant", COMPONENT_MUTANTS)
def test_a_wrong_component_split_is_a_fail_line(mutant):
    # The invariant suite compares the blocks with breadth-first search, so
    # neither mutant passes, and an error building a block is a mismatch,
    # not an exit 1.
    wrong, leaf = COMPONENT_MUTANTS[mutant]
    script = (
        "import sys\n"
        "from permdom import cli, verify\n"
        "from permdom.perm import Permutation\n"
        f"verify.components = {wrong}\n"
        "sys.exit(cli.main(['verify', '--max-n', '7']))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_child_env(), timeout=120)
    err = done.stderr.decode()
    assert done.returncode == 3 and "Traceback" not in err
    assert "FAIL invariant_suite (n <= 7)" in err.splitlines()
    checks = {c["name"]: c for c in json.loads(done.stdout)["checks"]}
    assert checks["invariant_suite"]["first_mismatch"] == f"components {leaf}"
    assert {name for name, c in checks.items() if c["status"] == "fail"} == {"invariant_suite"}


def test_optimised_interpreter_prints_the_same_verify_bytes():
    # Under -O every `assert` is gone; the checks that guard verify's
    # figures must not be.
    argv = ["-m", "permdom.cli", "verify", "--max-n", "4"]
    done = [subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                           env=_child_env(), timeout=120)
            for flags in ([], ["-O"])]
    assert [d.returncode for d in done] == [0, 0]
    assert done[0].stdout == done[1].stdout != b""


# Each script breaks one result that a check re-verifies; `python -O`
# strips every `assert`, so the check must raise on its own.
@pytest.mark.parametrize("script, message", [
    pytest.param(
        "from permdom import oracle\n"
        "oracle._heuristic_cover = lambda cliques, n: [1]\n"
        "oracle.census(4)\n",
        "the heuristic's set does not dominate", id="census-heuristic"),
    pytest.param(
        "from permdom import constructions\n"
        "from permdom.perm import parse_permutation\n"
        "constructions.is_connected = lambda g: g.n == 2  # the input only\n"
        "constructions.extend_preserving_gamma(parse_permutation('2,1'))\n",
        "inserting 3 into [2,1] changed", id="extend-result"),
])
def test_checks_hold_under_optimisation(script, message):
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, env=_child_env(), timeout=60)
    assert done.returncode == 1
    assert f"AssertionError: {message}" in done.stderr.decode()


def _golden_test(name):
    """The test `name`: one case per tier1 manifest row whose case column
    is `name[<key>]`, with the id `<key>-<digest>`."""
    params = []
    for row in golden.rows("tier1"):
        test, key = row.case.removesuffix("]").split("[")
        if test == name:
            params.append(pytest.param(row.argv, row.digest, id=f"{key}-{row.digest}"))

    @pytest.mark.parametrize("argv, digest", params)
    def test(monkeypatch, argv, digest):
        monkeypatch.chdir(golden.ROOT)  # the manifest's paths are relative to it
        assert golden.stdout_digest(argv) == (0, digest)
    return test


# One test per name in the manifest's case column, so that every tier1 row runs.
for _name in dict.fromkeys(row.case.split("[")[0] for row in golden.rows("tier1")):
    globals()[_name] = _golden_test(_name)


def test_one_parser_serves_a_sequence_of_calls(capsys, monkeypatch, tmp_path):
    from permdom import cli

    target = tmp_path / "report.json"
    sequence = [
        ("analyze", "3,1,4,2"),
        ("count", "pair", "--n", "3", "--u", "1", "--v", "4"),  # exit 1
        ("analyze", "1,1,2"),  # exit 1
        ("count", "pair", "--n", "3", "--u", "1", "--v", "3",
         "--adjacent", "--nonadjacent"),  # exit 2
        ("nonsense",),  # exit 2
        ("analyze", "2,1", "--out", str(target)),
        ("analyze", "2,1"),
        ("count", "f1", "--n", "4", "--format", "csv"),
        ("verify", "--max-n", "2"),
        ("construct", "comb", "--n", "6"),
    ]

    def outcomes(fresh):
        results = []
        for argv in sequence:
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            results.append((code, capsys.readouterr().out))
        return results

    built = []
    real_build = cli.build_parser

    def counting_build():
        built.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_parser", None)
    reused = outcomes(fresh=False)
    assert len(built) == 1
    assert outcomes(fresh=True) == reused
    assert len(built) == 1 + len(sequence)
    assert [code for code, _ in reused] == [0, 1, 1, 2, 2, 0, 0, 0, 0, 0]
    assert reused[5][1] == "" and target.read_text() == reused[6][1]


def test_count_d_above_the_cap_fails_before_any_sweep(capsys, monkeypatch):
    from permdom import oracle

    def no_tally(*args, **kwargs):
        raise AssertionError("tallied S_n")

    # count d reads its connected counts from the tallies, not the sweep.
    monkeypatch.setattr(oracle, "_tally_chunk", no_tally)
    code, out, err = run(capsys, "count", "d", "--n", "13", "--k", "3")
    assert code == 1 and out == ""
    assert "OrderCapExceeded" in err and "n = 12" in err
    monkeypatch.setattr(oracle, "HARD_CAP", 3)
    code, _, err = run(capsys, "count", "d", "--n", "5", "--k", "2")
    assert code == 1 and "OrderCapExceeded" in err
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "HARD_CAP", 3)  # n - 1 at the cap still tallies
    assert run_json(capsys, "count", "d", "--n", "4", "--k", "2")["d"] == {
        "4,2": "7"}
