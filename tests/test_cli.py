import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli_fuzz import NEAR_IDENTITY_64

from permdom import cli, constructions
from permdom.cli import main
from permdom.constructions import comb_sigma, comb_tau


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
    table.write_text(json.dumps({"c": {"1": {"1": 1}, "2": {"1": 1},
                                       "3": {"1": 3}}}))
    payload = run_json(capsys, "count", "d", "--n", "4", "--k", "2",
                       "--c-table", str(table))
    assert payload["d"] == {"4,2": "7"}


@pytest.mark.parametrize("text", [
    None, "{", '{"n": {}}', '{"c": [1]}', '{"c": {"1": {"1": "one"}}}',
    '{"c": {"1": {"1": null}}}', "[]",
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
    payload = run_json(capsys, "count", "d", "--n", "4", "--k", "2")
    assert payload["d"] == {"4,2": "7"}


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

    def counted(g):
        solved.append(g.n)
        return exact(g)

    for module in (cli, constructions):
        monkeypatch.setattr(module, "domination_number_exact", counted)
    run_json(capsys, "construct", "gamma", "--n", "20", "--k", "9")
    assert solved == [18, 19, 20, 20]  # the comb, two steps, the audit
    solved.clear()
    run_json(capsys, "construct", "extend", "--perm", str(comb_sigma(14)))
    assert solved == [14, 15, 14]  # the input, the step, the input's audit


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
    code, _, err = run(capsys, "oracle", "tally", "--n", "10")
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


def test_allow_big_raises_cap(capsys, monkeypatch):
    from permdom import oracle

    monkeypatch.setattr(oracle, "DEFAULT_CAP", 4)
    code, _, err = run(capsys, "oracle", "tally", "--n", "5")
    assert code == 1 and "OrderCapExceeded" in err
    payload = run_json(capsys, "oracle", "tally", "--n", "5", "--allow-big")
    assert payload["n"] == 5


def _keep_ids(cases):
    """pytest params for (argv, ...) cases under the ids pytest gave them
    when they were recorded: `argv<position>`, then any further values.  A
    case whose argv is None holds the place of one removed since, so the
    ids after it do not shift."""
    return [pytest.param(argv, *rest, id="-".join((f"argv{i}", *rest)))
            for i, (argv, *rest) in enumerate(cases) if argv is not None]


# None: rows of the removed `oracle verify` and `seq g1`.
@pytest.mark.parametrize("argv", _keep_ids((argv,) for argv in [
    ("oracle", "tally", "--n", "3", "--jobs", "0"),
    ("oracle", "tally", "--n", "3", "--jobs", "-2"),
    None,
    ("verify", "--max-n", "3", "--jobs", "-1"),
    ("count", "g1", "--max-n", "-5"),
    ("count", "f1", "--n", "-1"),
    None,
    ("seq", "st", "--max-n", "-1"),
    ("seq", "lift", "--r", "1"),
    ("seq", "lift", "--r", "0"),
    ("seq", "lift", "--r", "-1"),
    ("verify", "--max-n", "0"),
    ("verify", "--max-n", "-1"),
    None,
    None,
    ("count", "d", "--n", "-3", "--k", "2"),
    ("count", "d", "--n", "0", "--k", "2"),
    ("count", "d", "--n", "5", "--k", "-1"),
    ("count", "d", "--n", "5", "--k", "0"),
]))
def test_out_of_range_sizes_and_jobs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


# None: the row of the removed `seq g1`.
@pytest.mark.parametrize("argv", _keep_ids((argv,) for argv in [
    ("count", "g1", "--max-n", "3000"),
    ("count", "f1", "--n", "1001"),
    ("count", "pair", "--n", "1001", "--u", "1", "--v", "2"),
    ("count", "efficient", "--n", "1001", "--set", "1"),
    None,
    ("seq", "lift", "--r", "81"),
    ("count", "d", "--n", "96", "--k", "2"),
    ("count", "d", "--n", "5", "--k", "96"),
    ("verify", "--max-n", "9"),
    ("seq", "st", "--max-n", "31"),
]))
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
    # 1 is isolated; the exact search on this input runs for minutes.
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
        "import dataclasses, sys\n"
        "from permdom import cli, constructions\n"
        "exact = constructions.domination_number_exact\n"
        "def off_by_one(g):\n"
        "    r = exact(g)\n"
        "    return dataclasses.replace(r, gamma=r.gamma + g.n % 2)\n"
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
        "oracle._heuristic_cover = lambda cliques, rows: ([1], False)\n"
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


def _golden_corpus():
    analyze = [str(build(n)) for n in (14, 16, 18, 20)
               for build in (comb_sigma, comb_tau)] + [
        "2,1", "1,2,3", "3,1,4,2", "3,1,2,5,4", "4,6,1,3,7,2,5",
        "2,1,4,3,6,5,8,7", "5,9,2,12,7,1,10,3,11,6,4,8",
        "7,3,14,1,11,5,16,9,2,13,6,15,4,10,8,12"]
    return (
        [("analyze", p) for p in analyze]
        + [("construct", "gamma", "--n", n, "--k", k)
           for n, k in (("9", "3"), ("16", "6"), ("20", "8"))]
        + [("construct", "extend", "--perm", p)
           for p in ("3,1,4,2", str(comb_sigma(14)), str(comb_tau(16)))]
    )


# SHA-256 of stdout for each argv of _golden_corpus, in order, recorded
# with the plain combinations search that preceded the pruned one.
GOLDEN_DIGESTS = """
2b5e05dbed080f263d4a49eff3a00ebb63d03f9ebc04fc61f1e88558b1670ef5
3d6e44ebb227321e246fb8501a11bf0c891d549af396915379c62a28f424c2ee
6935acc5a0872ee17ddf3a0dfa01d52e21f9f0c92078e01887512da7a9e1c225
7fcbabbacc0463ed1b5294c16dc02ab7904d5f35dc5fcf23a9f169e97537d537
748343996b0b38f0fc7915c9e938d5d23bb376631fc11166a74fea938a58401f
419d5117f6883f55ff4998c95d54c4cd200a6e0d43a81911c4bcdb9f1bb6cc07
fcde8cf3cc8c2d7178b55baecbbdf23c5ec5e014e2587487df355c849ab8f72c
5730ad303d9bf016787602b8138643dd5b3a4da24b0a47818630eb3eecf6ce6e
35e9d9c93419b8d17aaca19b4128d1b2162db6380ab686a545c6f1c0127b3a92
712d7255b33a744c1cb6b783a7b4483ff3c2df37c6d3556b921be6f0fb8d0567
a57d4a3cbf11010c7254e24fa0d0b107880e0d5cf4b156095b7d1e536e27e8ea
eba43e3fc73ce7f7d39a8079f870df84278797bceb05ae54d79397766d4f2aaa
72de58d9277317fbff0807e0772185fcf519793219bc8860d3f8aa10adc02100
c0af952bcd75bbeda03980bb06e95b7e0fd2821dbc6ee04267d37e82247c99cc
3fa981af078715ddd3064ae35f10792bcff5778696127bdbc1895d136889993d
af12987ef25b0f32fc8bd4cdca2eaa7f3877d9292846a9b3ab1a6512173f7d6a
2d6ef37f478cb11cb6aa42881800dea78870d4cd2b7d01313f6a58a8003babcc
b85ec093d1fcf95536e779ea2ecb383b75c812b6e94d3d3effa02e07849449fb
f5a3f3c1d0f5dec23fb3882b8ef33032721b20beac18d3d65a69d9ab1f31dc66
bfd165603c3a2303f0d79438b61e0d5203de425324423a7e15b3e99bfb531914
9a109e5d0850fcc001bc0b9abae199acfc3a71d0f46c0414fe29d8d1ccde6642
4a33452d33d8e568bccd17794eef44b2f6460eb6f9aec01b9197e1aaf911d4da
""".split()


@pytest.mark.parametrize(
    "argv,digest", list(zip(_golden_corpus(), GOLDEN_DIGESTS, strict=True)))
def test_golden_stdout_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _count_corpus():
    pair_sizes = (("2", "1", "2"), ("9", "1", "2"), ("9", "4", "5"),
                  ("9", "1", "9"), ("9", "3", "9"), ("12", "5", "8"),
                  ("80", "1", "80"), ("80", "20", "60"), ("80", "21", "61"))
    efficient = (("1", "1"), ("9", "4"), ("9", "3,4,5"), ("10", "1,2,7,8"),
                 ("7", "1,2,3,4,5,6,7"), ("12", "1,5,12"),
                 ("58", "3,11,18,24,34,43"), ("58", "16,25,35,41,48,56"),
                 ("61", "6,27,43"), ("61", "19,35,56"),
                 ("62", "11,22,35,50"), ("62", "13,28,41,52"))
    return (
        [("count", "f1", "--n", n) for n in ("0", "1", "2", "9", "150", "200")]
        + [("count", "f1", "--n", "9", "--format", "csv")]
        + [("count", "g1", "--max-n", m) for m in ("0", "1", "260")]
        + [("count", "g1", "--max-n", "9", "--format", "csv")]
        + [None, None]  # `seq g1 --max-n 0|260`, removed with the command
        + [("count", "pair", "--n", n, "--u", u, "--v", v, *flag)
           for n, u, v in pair_sizes
           for flag in ((), ("--adjacent",), ("--nonadjacent",))]
        + [("count", "efficient", "--n", n, "--set", a) for n, a in efficient]
        + [("seq", "st", "--max-n", m, "--format", fmt)
           for m in ("0", "30") for fmt in ("json", "csv")]
        + [("seq", "lift", "--r", str(r)) for r in range(2, 13)]
    )


# SHA-256 of stdout for each argv of _count_corpus, in order, recorded with
# the recursive f1/g1 tables and the literal pair and efficient sums that
# preceded the power-series kernel; "-" where the argv is None.  The two
# `seq st --format csv` rows were re-recorded when index fields holding a
# comma ("3,1") began to be quoted; the rows are otherwise unchanged.
COUNT_GOLDEN_DIGESTS = """
632c68d6b54613b4e5112dafc37f4130e18bf77100fd1ae7fe9b290855f5e83d
0feb32bb4fe4b9667c9631ded49f410638cf669b41d47cb23192de9cf0398cf4
e8e9f278b2c801a32aaabf86553b288d4aca60d20b8a76b595f87c219f62fd3a
5d5d663c69b00eb665f486f3897de25484b9dcc83c662afba5d972a0c28ccc97
058bd847a201fc271ac3961ece4d7f9c70911aa737e3ea5cf2d4f2135e85725e
58b460365c5e1f57d222be0ea64572c3f5a2ec41cf5c7ee27a234b7a6bce33d3
6b31ed0f518bafe5909350567695e76ecc85c7ad4aec521f7db9bf45b8d3200d
a3c1f07490a0a4075597b572575e072ad9d369ac256bcd1ef279913b23899c08
099b2d356d46405ffe575200226c7631facc9e919d4b35a2ff57239ad7dcb943
c791937ab388cc85965b88b7a350a79eabaa23303166d465d803ae273005844f
fa90d75de06f44ddd2c95b29dadd90723399a12ddca041eda0330d23a55c8374
-
-
10873ba34f3c62e7ba65442063f66de792ee712118b9e9900012372bbe69af5e
b86e0b46bf7f6c6d07414ec532ad740fdb67f982eb0442e06094a369a9ae37e8
3721c21e87f9e44e0a7c2f4a9da26741d9e64109edd703ead119a9650d3719d0
6462e5653e9185dc981b64b981c43b8f0d4601e6fa216992908fef8d4d3cf1a4
1a2955f8215828faf89b81950e6238909d4703a5231572a17301201799ec58d1
68c35eadf5426cbf63068f0c376e72f2c862376f7a6644109dc30f7b04784295
061bca859f1d80c36099345b02bd4c470d1615412f343b3c3b9f5ea7d19fbba0
c50a167825920d0ae9d9383d99d9b9b4b48a58a37974f86215963e0444e9561d
166044630995af3e9e7599cfd204d821fd2df3b2a9c16966ae01837ddf26ba18
8eec0b44be795d373e7a9a423cb56b8b41efb857c9669d6a2ab0eb1c726c2785
00cb51335b65a340b053ac5889217e3a34666e2e2dedf389ec140295fd8b1b05
68c35eadf5426cbf63068f0c376e72f2c862376f7a6644109dc30f7b04784295
7c30f6bf03c4b1c5271f45bfdecb94f85362dbe3b95368c77c5ecf329e6f3dd3
d016ae0df9fde99db6074542e91724a6168a1c556db1fac0f4488de677df6891
9aa906854249fc5fa2334c70faba0575d271c0ed0ad5dda77ef44b4304b68561
6ff2592a25e0a1caa11f40bffa36551a2f86d3716489469d597887e14dae2715
00f92c75564074eb93558be0ad7194f372832d9b18a1efc7a25af26edef0580a
c8c5d50197eee1c7e456003f177dc9b5ea7e2e202a66ae30584a6ed79f187639
725ec98f72073ad42a73db56e22b3572d52ed19cb3761a730c42cf3c291df9ab
81568bbdca327a3141ba375e541acbcf22a40840c9f7c9bd6c3121b5554a0545
1416265a2e0acd073b5fff0dac3084916ab07ae825818e56734cb8bb8dd87e14
56a8e703736212541fef2343bbb125b10a1838d3dad3c10130aa996263e19d63
975e591d7de1220f77bc3b058fd711010b09e2c587364e455e6db41933719fb9
99b08a3f6851cb1a4d1dd35bf83bcef02239c9b56b0bd86ba5a8112c03a3fd67
56a8e703736212541fef2343bbb125b10a1838d3dad3c10130aa996263e19d63
975e591d7de1220f77bc3b058fd711010b09e2c587364e455e6db41933719fb9
99b08a3f6851cb1a4d1dd35bf83bcef02239c9b56b0bd86ba5a8112c03a3fd67
9b5f24cd21258cb3c3fd930e63bbdc270b2313ccaea044304b1bbd2e8b557885
bab49c65e2e00c12d5097e9480000ac71e5c2382ecae820aab5be0d43fe39478
f16607ce5e508a048522ede822714b9c357a5cf387e772b1f6d8dfb38397fb12
c641da3fcf6b775ad37e2c0b50b704f68ec9d6e5deb93dd8757abe3a6c400b84
34c9a64e49fb4744183cedbab96fdeb6a872d82be7caf1cce4c15e012cdf0c28
a44726dc90592b55deafa0f0abd5677cba8523498bd4d3fa081b3512e2ad719e
edf9c777693a400a8dad8bb61bfe57bbaf186a798907fb276c9698f0be77bbec
20782469ba535c59822718e1403ce14c5239fbba6dfd9ff751c5f1e18141ff98
af2ea11d6f8e7f1b76eb161ac5398a3c33706b795606cc5ec8e7e1a5af81f344
9ada19b4380293c14123589b0955c0c74d4d98e3a7744edaf286a4031c5aeff3
fb20ff3b953c78832512af047e11b869c6d024dc2e8f45c33eb1cc8cb8b3e866
c39c805dd95229450cb9cc8760b735d1d1ebcf2fd0ef673432cef4f371244a76
48952293b7e9acca52745890260ca23e5dc9bf06fd40e52e3e7450b28c4fe3a1
2e6024fec16e9b66a5091c0677a343dc12d8c6bd0484bdf5aefa1f9a78f079e7
25f16eaf9b71492a6c277288210e16bd77c8d85e130a3d20329353862418f201
06f8133f059b4f85220861577214d97a4afac68b5dae33497cdc1ab3022785b5
ca7f8f058a0e25d734d7df868ebc522a55b1caca9f8b8e2bcac34198942e0b1e
267a61b0b5f8e6e4dc4d1053cdc6ded802f0a6dbc869fd912cb7a411e91ba301
e441cbe427d313b9bd2ff7123a643e869ecec6a5eb12a93ef39ecf7664bc188a
b9e9c21ddf9fa40740201c80823caf1ba6060a71bf1c92713a4349f122e4ae71
b6345b80bb55f38e896c56f0772adc1bd61559f96c6cec79bd67ca2d94a88d37
268964226fc85ead24c69f935996c5846a573bcc86ed0c0c319da334cbd8dea9
2c52e813f33787c1934347da8b6783ed5135a2af33fb0e9af14c22b896001f8d
5799126b8115975e84cc858e4d8ab443371deef2e395765fbf926bb1fd450f5a
882437b99a93dfa6dd3c16d0c0359a7481120b550278e50f8b9fe8cd33ee2478
92237cbe8e024e9015368f0caf85490a8409cdbb30ecdd26f84f7c3ee43287d1
0dd5af186d9707f4bb238c07d9b576a6cadb13d5bb8ccb07092a6067951471fe
""".split()


@pytest.mark.parametrize(
    "argv,digest", _keep_ids(zip(_count_corpus(), COUNT_GOLDEN_DIGESTS, strict=True)))
def test_count_golden_stdout_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


LIFT_OFFSETS = (13, 16, 20, 30, 40, 63, 80)

# SHA-256 of `seq lift --r R` stdout for each R of LIFT_OFFSETS, in order,
# recorded with the Fraction polynomial lifting (monomial shift and a
# triangular rational solve).
LIFT_GOLDEN_DIGESTS = """
f9322a905fa9ff0caf9c4de974bbdc4b5f673ea18feb1dc06f9acb346225360c
ed8a5882f1220474e46dc2691fddb912acae02d03585cd4340e349c36660693f
d9155677a89e603dfdb48a5f84f30962aa60a4f77d5c0ff3166547b8f5fe7ea0
fb11442f826213160b360f673decc13f6c182b57860f618db684b826d8d3d8ee
838f669c71ea374c4376fba66b804052f03050ef583b58ce4a82476f16c379c4
4ab13fa8a409523d6137a42efa6be9326776d6646c960539b79e30faab174266
59bc311253313c2f855aa7386206ec5105e91e883871e0f7358b2dc4ec9ba984
""".split()


@pytest.mark.parametrize(
    "r,digest", list(zip(LIFT_OFFSETS, LIFT_GOLDEN_DIGESTS, strict=True)))
def test_lift_golden_stdout_digest(capsys, r, digest):
    code, out, _ = run(capsys, "seq", "lift", "--r", str(r))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _d_verify_corpus():
    return (
        [("count", "d", "--n", str(n), "--k", str(k))
         for n in range(2, 9) for k in range(1, n + 1)]
        + [("count", "d", "--n", "8", "--k", str(k), "--c-table", "oracle")
           for k in range(1, 9)]
        + [("count", "d", "--n", "20", "--k", k, "--c-table", "ones")
           for k in ("2", "6", "10")]
        + [("verify", "--max-n", m, "--jobs", "1") for m in ("1", "3", "7")]
        + [("verify", "--max-n", m, "--jobs", "1")
           for m in ("2", "4", "5", "6", "8")]
        + [("verify", "--max-n", "8", "--jobs", "2")]
    )


@pytest.fixture(scope="module")
def c_table_files(tmp_path_factory):
    """`--c-table` files: the oracle's connected counts for n <= 7, and a
    synthetic table with c(m, j) = 1 for 1 <= j <= m < 20."""
    from permdom import oracle

    rows = {}
    for (n, k), value in oracle.c_table(7).entries.items():
        rows.setdefault(str(n), {})[str(k)] = value
    tables = {
        "oracle": rows,
        "ones": {str(m): {str(j): 1 for j in range(1, m + 1)}
                 for m in range(1, 20)},
    }
    paths = {}
    for name, table in tables.items():
        paths[name] = tmp_path_factory.mktemp("c") / f"{name}.json"
        paths[name].write_text(json.dumps({"c": table}))
    return {name: str(path) for name, path in paths.items()}


# SHA-256 of stdout for each argv of _d_verify_corpus, in order, recorded
# with the composition-sum `disconnected_count` and the `verify` that
# clamped --max-n to 8; the last six with the `verify` that swept each
# order once per purpose.
D_VERIFY_GOLDEN_DIGESTS = """
a7b7718392f765753ddb0d30304bf5ee659b3523c80c0fb13d84a07c99c08155
486f01aa951722ea813006c085414788f0d8dcfd6bf5b4277e92bf30d2d40d15
6557dfba5eb72477b3effd7e72caa63ffd8f2946f1c8b3a458d720e30df5e63d
4540546bd4f0c8c63da86db44ba20a61e4210470844038c2d563d893af7e6cbe
7f4776b5738d9282d9d84aab7ce2632eb097de96412c3051aed3bc9e7f832b28
090653172cbd40998591e8f75a08807258be2d2d5af301beb128120b0f66cdc0
2100bdf0635f8038ebbe3013c408f5cf6a5bee79093a6ffd085f5a8ab6d504d7
5673e6fa4e407246de9e812166fa08c9931889e139eb3d09a02e48e28b1408b8
af63eeba54cec7ee028eefe60ba619dc1324e4fa03fdcbeaad82e4fd644155e0
60b27b0beee1202ad09433a87d4c2fee49a0777002ee99caaf22694e3c1c8e2a
b002cc61b120d897cdbe29fbb5625382983127127edd54de73c392d87d38411e
1f42ca93a8fd04bcb3b387b5cd5d52c9fcae55e446d61079782205559b11f0bb
f9486a2ba09d342162bf7de52195af5bb363e8815009c9f21c006b93c189fa88
e8dd51e5ccaac7686a9cbab184476867f714ce5df40cb29463f1b74b2df97fde
49b984cf6b1ed50c45ad1f22d67868d53765c54628d5d410dd2d9ace60e94263
ea13b99673e16f7a9589c65880a49d2db2b2fbcde2d5f625f6859f1518d025d5
97923ae7ef7d52eb414343e81ccc0a6a2fa4735656c65bbb12d667d2e5b4bccd
db96db9e7bae1adce4653a6921c46ac6a55f09d601ce917b02ec3d46e79c927d
20d603bd4cda54432c093748511890ee6a1baa07b739968c778cd8cc068abd96
85441d0dfbff5ae409465739dffe260bb176f7d210f56a6997396aff6995e35f
417da4576eb12a0cee9fb3b362df8a42c85b3e683723a2f29865ede6e8363b65
c12d6306569028fc3aaff070f53745104935e3b36086826add14cc03ff682802
9fea6c3165f6dfbd64f23663a9eaded25df9b0a0a5b98ed586d9af105da8b1e9
f27681e2ec1e2cc8f5f2f0a61515af95159f6a3931ea3c7b959720f790c46d68
fbc076a2c18afa1c8593b9f25cb60fc77d686ab0cbd5a4280b428d7beb59529d
ac50cd3d07dc566e0f41170922203e19dafa0c2b6e48e5d82cf701654ddaff84
2ea1bdf8cd98c2ff2ba595b283c5c6af6cf04c54a58ff4fec7fa07a387f58d09
0b5ca9ecdfcb441a4e530ac71af6dd912a638fdf687b2abd98c4a9d9bf0b3588
fb6db7896990257c213fe1437b5d093370957c4fc7ce8713f1e8445c47434f18
02046683a687dd2dbb228a2a1d6231091d732266c978459872f717d0f10087ac
4c4c4339a778a7e8e2f94778865daebf8d655e228b1ae5fac6aa637fb88822d5
54fdfb2ac31720d212029aac5ff8b53d9bc97b8f9ba77897c81e6c9bd4ad14d6
85949ab0c96d644a1b6f14aaaac3c0aa9776b594a7d200550444a9d5ee35a40c
88a56c55603222383a6c559a9fd53948d41b8bf28b33f7bb61f45d94961d84f4
5ec8efc1a66a7d33c9b887592200c36438f896913e748beacbc3b3e6a832dced
0b5ca9ecdfcb441a4e530ac71af6dd912a638fdf687b2abd98c4a9d9bf0b3588
fb6db7896990257c213fe1437b5d093370957c4fc7ce8713f1e8445c47434f18
02046683a687dd2dbb228a2a1d6231091d732266c978459872f717d0f10087ac
4c4c4339a778a7e8e2f94778865daebf8d655e228b1ae5fac6aa637fb88822d5
54fdfb2ac31720d212029aac5ff8b53d9bc97b8f9ba77897c81e6c9bd4ad14d6
85949ab0c96d644a1b6f14aaaac3c0aa9776b594a7d200550444a9d5ee35a40c
88a56c55603222383a6c559a9fd53948d41b8bf28b33f7bb61f45d94961d84f4
5ec8efc1a66a7d33c9b887592200c36438f896913e748beacbc3b3e6a832dced
572b91c5d6008416a7b41e47ee3381e4575d64ec4d2b074425ec6516b8b73dd6
85dfa79d80e93392535b3877a1bf32f1b51764e6d1ce5410d0881ed63180edb4
75c6fffb74b49c02c556e79924d79de1f39cb6fc195d61eada7699d213ed3d10
f51bc39dab65aa74228eb69ff0c55555fee3e7d674cc8cce55afbc30fb6b404c
fe744d9fc03bac8d2a96c17ae9e19b9e7c723dc83774a4b865257805f854ad27
7f8ae7da67ffda4b6dc4163856c179f62c26141274c6d2033bc45fff603fabeb
f916ea770a7d1383903810691fcfa548e7e38ca22218180d69a016db2f8b1df0
15590565881f3f75181ad7557ff227c6645c8e26cde33e5bc95f28c594760eaf
8ec7ae5401d28d6f2e064acee2c3c460ec9f0651385e94ef18e1108aa0980e31
93ef5a71431f89bd601900e3eb24c482d5addba86612ad5d7aea797b6f69d58d
01d3e89947b1195911b03a0d1e864095279e64338a75f1a297e21bfafaea97b5
01d3e89947b1195911b03a0d1e864095279e64338a75f1a297e21bfafaea97b5
""".split()


@pytest.mark.parametrize(
    "argv,digest",
    list(zip(_d_verify_corpus(), D_VERIFY_GOLDEN_DIGESTS, strict=True)))
def test_d_and_verify_golden_stdout_digest(capsys, c_table_files, argv, digest):
    argv = [c_table_files.get(arg, arg) if prev == "--c-table" else arg
            for prev, arg in zip(("",) + argv, argv)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _heuristic_corpus():
    """`analyze` where the clique heuristic has many cliques to list: the
    skew sum of n/2 increasing pairs (2^(n/2) maximal cliques), and seeded
    random permutations of order 33..48."""
    skew = [",".join(str(v) for j in range(n - 1, 0, -2) for v in (j, j + 1))
            for n in (8, 12, 16, 20, 24)]
    rng = random.Random(48)
    shuffled = []
    for _ in range(12):
        n = rng.randint(33, 48)
        image = list(range(1, n + 1))
        rng.shuffle(image)
        shuffled.append(",".join(map(str, image)))
    return [("analyze", p) for p in skew + shuffled]


# SHA-256 of stdout for each argv of _heuristic_corpus, in order, recorded
# with the Bron-Kerbosch clique listing and the list-scan heuristic.
HEURISTIC_GOLDEN_DIGESTS = """
def866b9aa6862af4d1b8f95f164dfac5994bd6ea6f57d6fa39e0f1e96c58517
479e00cadc55d7e0f068a10ba7c5ef636482e8c71f0b5a97a40174fc9c33848d
e5ac0e2ed4f48e023c7afbb558a53f023465c19ac6bf223b6f3e3badd8352c28
5572b96fcbddadeeaf62467a05908840da2b1b08f61a65ee53c0498656b0e054
bb5f0936a4e7c1b2055f96a72dd262c86156fdbff40de04199932a10044b45ba
f04bca02cd0d9502caf9e404fc0a5d1aed36e9db793f251000fb52ca7ff78e9f
06f9052a89006febde35ffbb00808d2e2cfcca13f24b24f61c1b9d7c6d6b4ec8
57454a9d6ddab2a1792cde255b405d0907f90dda2c0fde0fe36d5ab0ff7c11d9
fe74b7a197820e80c21d0c404896ea914da5202f66c1c3de7acd9a7a72566ec5
247c351244200a72f7f58d11888e623e87100a38a8e7f700dd73401567b702ff
94244b7fa3dc794c2899208f04a58e9db39ba4bd4aef5abcc5a9d6e7f778eb7c
63aa684f2e3cdcdf2357751d20e88c03b8ce8ac56cfe4578b82a4a0d04c1bf8f
f1ee499e1d4f2f59ee226626177e135e7d21f077104bdd7deeb9cc640810cef6
a8bbf357a5f0409d79dd78fe7f74ca601441a355d5de45495834be5ea8199cb9
5cecee8de804684da954456a3430488d1ad61e9d0f15ba1f43089ce94e4e544b
8c19ce5197b74ebc279cc22d34198d8fd315038010622e8f7c6a64be34a3d72c
3772dfbc74ffc334acc1a7817d4c0724c3f51d323b6ac5526572d3ff0310acee
""".split()


@pytest.mark.parametrize(
    "argv,digest",
    list(zip(_heuristic_corpus(), HEURISTIC_GOLDEN_DIGESTS, strict=True)))
def test_heuristic_golden_stdout_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _tally_corpus():
    return ([("oracle", "tally", "--n", str(n), "--jobs", "1") for n in range(1, 9)]
            + [("oracle", "tally", "--n", "9", "--jobs", "2")])


# SHA-256 of stdout for each argv of _tally_corpus, in order, recorded with
# the sweep that searched gamma per permutation by the pruned cover search.
# The last row runs S_9 through the process pool.
TALLY_GOLDEN_DIGESTS = """
284f17ba6ada631d261d318289f0845ed4116b0169a7aaa08e71c608e976d1c7
aa4949673bd2ac6985c805b57593bda6ffba19ef67c974f3f485036d01f91609
f5321db62438501844c8bb932accea87a0c27e1d52ced311299df623568cdefa
0e60c37ecd4f281de62b2fc7363c460dc06b5f6fb9887c31a9225e210cade4fb
610c327614adec106f3f723e04229fa4442309b38351466e7b2208689a030435
3531728d758fe91588557ccdb9c7b080eb779cfe5b120401d9ff1c9fbd8bb8c5
33d8c9bc1bfc4a984b9056533eeec5787ad324939f7a77554b1408a8471c2fe3
a14577bfc33501da36a2cd2ec3f0af0f87c6705870b6b2aaf9f200470bea67e6
7002206b884546871ff65c39342d89bcb2622598e6cc7b01c566aa1a012d8685
""".split()


@pytest.mark.parametrize(
    "argv,digest", list(zip(_tally_corpus(), TALLY_GOLDEN_DIGESTS, strict=True)))
def test_tally_golden_stdout_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept S_n")

    monkeypatch.setattr(oracle, "sweep", no_sweep)
    code, out, err = run(capsys, "count", "d", "--n", "12", "--k", "3")
    assert code == 1 and out == ""
    assert "OrderCapExceeded" in err and "n = 11" in err
    monkeypatch.setattr(oracle, "DEFAULT_CAP", 3)
    code, _, err = run(capsys, "count", "d", "--n", "5", "--k", "2")
    assert code == 1 and "OrderCapExceeded" in err
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "DEFAULT_CAP", 3)  # n - 1 at the cap still sweeps
    assert run_json(capsys, "count", "d", "--n", "4", "--k", "2")["d"] == {
        "4,2": "7"}
