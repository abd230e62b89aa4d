import json

import pytest

from permdom.cli import main


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


def test_construct_extend(capsys):
    payload = run_json(capsys, "construct", "extend", "--perm", "3,1,4,2")
    assert payload["input"]["gamma"] == payload["result"]["gamma"] == 2
    assert payload["result"]["perm"] == "3,1,4,5,2"
    assert payload["result"]["connected"] is True


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


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "analyze", "1,1,2")
    assert code == 1 and "NotABijection" in err
    code, _, err = run(capsys, "construct", "gamma", "--n", "5", "--k", "3")
    assert code == 1 and "InfeasibleGamma" in err
    code, _, err = run(capsys, "oracle", "tally", "--n", "10")
    assert code == 1 and "OrderCapExceeded" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "pair", "--n", "3", "--u", "1", "--v", "3",
              "--adjacent", "--nonadjacent"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_allow_big_raises_cap(capsys, monkeypatch):
    monkeypatch.setenv("PERMDOM_MAX_N", "4")
    code, _, err = run(capsys, "oracle", "tally", "--n", "5")
    assert code == 1 and "OrderCapExceeded" in err
    payload = run_json(capsys, "oracle", "tally", "--n", "5", "--allow-big")
    assert payload["n"] == 5


@pytest.mark.parametrize("argv", [
    ("oracle", "tally", "--n", "3", "--jobs", "0"),
    ("oracle", "tally", "--n", "3", "--jobs", "-2"),
    ("oracle", "verify", "--max-n", "3", "--jobs", "0"),
    ("verify", "--max-n", "3", "--jobs", "-1"),
    ("count", "g1", "--max-n", "-5"),
    ("count", "f1", "--n", "-1"),
    ("seq", "g1", "--max-n", "-1"),
    ("seq", "st", "--max-n", "-1"),
])
def test_out_of_range_sizes_and_jobs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_tally_output_is_identical_across_jobs(capsys):
    outputs = {run(capsys, "oracle", "tally", "--n", "5", "--jobs", j)[1]
               for j in ("1", "2")}
    assert len(outputs) == 1


@pytest.mark.parametrize("value", ["-3", "0", "nine"])
def test_bad_permdom_max_n_is_an_error(capsys, monkeypatch, value):
    monkeypatch.setenv("PERMDOM_MAX_N", value)
    code, out, err = run(capsys, "oracle", "tally", "--n", "3")
    assert code == 1 and out == ""
    assert "BadSetting" in err and "PERMDOM_MAX_N" in err


def test_closed_stdout_exits_without_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    # About 190 kB of output: more than a pipe holds, so the writer is
    # still writing when the reader goes away.
    with subprocess.Popen(
        [sys.executable, "-m", "permdom.cli", "count", "g1", "--max-n", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
    assert code == 1
