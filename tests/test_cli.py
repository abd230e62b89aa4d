import hashlib
import json

import pytest

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
    ("seq", "lift", "--r", "1"),
    ("seq", "lift", "--r", "0"),
    ("seq", "lift", "--r", "-1"),
    ("verify", "--max-n", "0"),
    ("verify", "--max-n", "-1"),
    ("oracle", "verify", "--max-n", "0"),
    ("oracle", "verify", "--max-n", "-1"),
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
