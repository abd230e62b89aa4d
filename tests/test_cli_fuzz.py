"""Generated argv for every subcommand, at small sizes and with junk tokens
mixed in: each call ends in bounded time with exit code 0, 1, 2 or 3, and
an exit-0 call prints JSON or two-field CSV.

Calls run in process, so an uncaught exception fails the test where a
subprocess would print a traceback.  Sizes stay small enough that every
well-formed request answers in milliseconds; the inputs that are accepted
but exponential (skew sums of pairs, `comb_sigma(64)`) are left out.  Sizes
just past an enumeration cap are drawn too: they must fail at once.
"""
import csv
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from permdom.cli import main
from permdom.sequences import MAX_LIFT_OFFSET

CALL_SECONDS = 5.0  # each well-formed call here takes well under 0.5 s
OUT_DIRECTORY = "."  # an `--out` that names a directory can never be written

# Random adjacent swaps of the identity at order 64: gamma 34 and 221,184
# minimum dominating sets, out of the exact search's reach.  1 is isolated.
NEAR_IDENTITY_64 = (
    "1,4,2,3,7,5,6,9,8,12,11,10,13,15,14,16,17,19,23,18,20,22,24,21,26,25,"
    "28,27,31,32,29,33,30,34,35,37,40,38,36,41,39,43,46,42,44,48,45,47,49,50,"
    "52,54,55,51,53,56,57,58,59,61,60,63,62,64")

# Tokens that are malformed, out of range or misplaced wherever they land.
# None starts with "--o" (argparse would read it as `--out` and write a
# file) or is "-h".
JUNK = ("", "-1", "0", "x", "--", "--bogus", "1,1", "[]", "3,,1", "-",
        "99999999999999999999", "--jobs", "--format", "csv", "--n", "é",
        "2,1", "--k", "analyze")


def perm_text(max_n: int = 9):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1))).map(
        lambda image: ",".join(map(str, image)))


def size(low: int = -2, high: int = 12):
    return st.integers(low, high).map(str)


def flags(*options):
    """Zero or one of the given flag tuples."""
    return st.sampled_from(((),) + options)


FORMAT = flags(("--format", "csv"), ("--format", "json"))
JOBS = flags(("--jobs", "1"), ("--jobs", "2"))


def argv_of(*parts):
    """A strategy for the concatenation of fixed tokens and strategies of
    one token (str) or several (tuple)."""
    def join(values):
        out = []
        for v in values:
            out.extend((v,) if isinstance(v, str) else v)
        return tuple(out)
    return st.tuples(*(st.just(p) if isinstance(p, str) else p
                       for p in parts)).map(join)


# Each fails with OrderCapExceeded before any tally; past the cap n = 11
# the sieve tables alone hold 2^n masks of 2^n bits.
PAST_A_CAP = st.one_of(
    argv_of("oracle", "tally", "--n", "12", JOBS, flags(("--allow-big",))),
    argv_of("count", "d", "--n", size(13, 20), "--k", size(1, 12), FORMAT),
)

COMMANDS = st.one_of(
    argv_of("analyze", perm_text(12)),
    argv_of("count", "g1", "--max-n", size(), FORMAT),
    argv_of("count", "f1", "--n", size(), FORMAT),
    argv_of("count", "pair", "--n", size(), "--u", size(), "--v", size(),
            flags(("--adjacent",), ("--nonadjacent",)), FORMAT),
    argv_of("count", "efficient", "--n", size(), "--set",
            st.lists(st.integers(-1, 12), min_size=1, max_size=4).map(
                lambda vs: ",".join(map(str, vs))), FORMAT),
    argv_of("count", "d", "--n", size(-1, 8), "--k", size(-1, 8),
            flags(("--c-table", "no-such-c-table.json")), FORMAT),
    argv_of("construct", "comb", "--n", size(-2, 16),
            flags(("--variant", "sigma"), ("--variant", "tau"))),
    argv_of("construct", "gamma", "--n", size(), "--k", size()),
    argv_of("construct", "extend", "--perm", perm_text()),
    argv_of("oracle", "tally", "--n", size(-1, 7), JOBS,
            flags(("--allow-big",))),
    argv_of("seq", "st", "--max-n", size(-1, 12), FORMAT),
    argv_of("seq", "lift", "--r", size(-1, MAX_LIFT_OFFSET + 1)),
    argv_of("verify", "--max-n", size(-1, 4), JOBS),
    PAST_A_CAP,
)


@st.composite
def argvs(draw):
    argv = list(draw(COMMANDS))
    if draw(st.integers(0, 2)) == 2:  # about a third get junk
        for at, token in draw(st.lists(st.tuples(
                st.integers(0, 12), st.sampled_from(JUNK)),
                min_size=1, max_size=2)):
            argv.insert(at % (len(argv) + 1), token)
    if draw(st.integers(0, 9)) == 0:  # a tenth ask to write to a directory
        argv += ["--out", OUT_DIRECTORY]
    return argv


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


def assert_parses(out: str) -> None:
    if out.startswith("index,value\n"):
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) > 1 and all(len(row) == 2 for row in rows)
    else:
        json.loads(out)


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["construct", "gamma", "--n", "1", "--k", "1"]).via("one vertex, gamma 1")
@example(["seq", "lift", "--r", str(MAX_LIFT_OFFSET)]).via("the largest offset")
@example(["analyze", "1,2", "--out", OUT_DIRECTORY]).via("--out a directory")
@example(["construct", "extend", "--perm", NEAR_IDENTITY_64]).via(
    "a disconnected input the exact search cannot finish")
@example(["analyze", "1," + "9" * 4301]).via("a token past int()'s digit limit")
@example(["construct", "extend", "--perm", "9" * 4301 + ",1"]).via(
    "a token past int()'s digit limit")
def test_generated_argv_gets_an_answer_or_a_typed_error(argv):
    code, out, err, elapsed = call(argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    assert elapsed < CALL_SECONDS
    if argv[-2:] == ["--out", OUT_DIRECTORY]:
        assert code in (1, 2)
    if code == 0:
        assert_parses(out)
    elif code in (1, 2):
        assert out == "" and err


@settings(max_examples=30, deadline=None)
@given(PAST_A_CAP)
def test_sizes_past_a_cap_fail_at_once(argv):
    code, out, err, elapsed = call(argv)
    assert code == 1 and out == "" and "OrderCapExceeded" in err
    assert elapsed < CALL_SECONDS


@settings(max_examples=15, deadline=None)
@given(st.one_of(
    argv_of("oracle", "tally", "--n", size(1, 7)),
    argv_of("verify", "--max-n", size(1, 4)),
))
def test_stdout_does_not_depend_on_jobs(argv):
    outputs = {call([*argv, "--jobs", jobs])[1] for jobs in ("1", "2")}
    assert len(outputs) == 1 and outputs != {""}
