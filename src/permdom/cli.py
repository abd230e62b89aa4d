"""Command-line interface.

Subcommands: analyze, count, construct, oracle, seq, verify.  Output is
JSON by default (schema field 1, big counts as decimal strings, fixed key
order, the bytes of `json.dumps(payload, indent=2)`) or CSV with a header
row and RFC 4180 quoting; identical argv produces byte-identical stdout.
Timing goes to stderr.  Exit codes: 0 ok, 1 domain error, 2 usage error,
3 verification mismatch.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import constructions, counting, oracle, sequences, verify
from .domination import (
    count_minimum_dominating_sets,
    count_singleton_dominators,
    domination_number_exact,
    heuristic_dominating_set,
    quick_rule_position_ends,
    quick_rule_value_ends,
)
from .errors import OrderCapExceeded, ParseError, PermdomError, UnwritableOutput
from .graph import build_graph, is_connected
from .perm import parse_permutation, reverse, strong_fixed_points

SCHEMA = 1


def _bounded_int(low: int, high: int | None = None):
    """argparse type: an int no smaller than `low` and, when `high` is
    given, no larger than `high` (else exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _json_text(value, indent: str = "") -> str:
    """`value` in the bytes `json.dumps(value, indent=2)` gives, placed at
    nesting `indent`.  Written by hand because with `indent` set, `json`
    leaves its C encoder for a pure-Python one, which took a third of an
    `analyze` request.  Str-keyed dicts, lists and tuples (both arrays, as
    in `json`), str, int, bool and None are written here; anything else goes
    to `json.dumps`, re-indented (its newlines are all structural: strings
    escape theirs).  An array of ints and an array of int pairs (arrays of
    exactly two ints, such as `analyze`'s edges) are written in one join
    each, with no call per item; any other array, a bool or None in a pair
    included, goes item by item."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        for v in value:
            if type(v) is not int:  # a bool is not an int here
                break
        else:
            return f"[\n{inner}{sep.join(map(str, value))}\n{indent}]"
        if all(type(v) in (list, tuple) and len(v) == 2
               and type(v[0]) is type(v[1]) is int for v in value):
            deeper = inner + "  "
            body = sep.join([f"[\n{deeper}{a},\n{deeper}{b}\n{inner}]"
                             for a, b in value])
        else:
            body = sep.join([_json_text(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        inner = indent + "  "
        body = f",\n{inner}".join([f"{_quote(k)}: {_json_text(v, inner)}"
                                   for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _drop_stdout() -> None:
    """Point stdout at devnull, so that the flush at interpreter exit cannot
    raise again after a failed write."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


def _write_stdout(text: str, end: str = "\n") -> None:
    """`text` and `end` to stdout, flushed, so that a write that fails (a
    full device) fails here; a reader that went away raises BrokenPipeError
    for `main`.  `end` is a write of its own: a write larger than the pipe
    that the reader closes part-way returns short without an error, and the
    next write is the one that raises."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        raise
    except OSError as exc:
        _drop_stdout()
        raise UnwritableOutput(
            f"cannot write stdout: {exc.strerror or exc}") from exc


def _write(text: str, out: str | None) -> None:
    """`text` and a newline to stdout, or to the file `out` if one is named."""
    if not out:
        _write_stdout(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {out!r}: {exc.strerror or exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    _write(_json_text(payload), out)


def _csv_field(text: str) -> str:
    """One CSV field, quoted as RFC 4180 asks when it holds a comma, a
    quote or a line break (an index such as "3,1" does)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit_rows(rows, fmt: str, out: str | None, payload_key: str) -> None:
    """rows: list of (index, value) with values already stringified."""
    if fmt == "csv":
        lines = ["index,value"] + [f"{_csv_field(str(i))},{_csv_field(v)}"
                                   for i, v in rows]
        _write("\n".join(lines), out)
    else:
        _emit({"schema": SCHEMA, payload_key: {str(i): v for i, v in rows}}, out)


def _parse_vertex_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.strip().strip("[]").split(",")]
    except ValueError as exc:
        raise ParseError(f"bad vertex list {text!r}") from exc


def cmd_analyze(args) -> int:
    p = parse_permutation(args.perm)
    g = build_graph(p)
    result = domination_number_exact(g)
    quick = quick_rule_value_ends(p) or quick_rule_position_ends(p)
    payload = {
        "schema": SCHEMA,
        "perm": str(p),
        "n": p.n,
        "edges": g.edges(),
        "degrees": g.degrees(),
        "gamma": result.gamma,
        "witness": sorted(result.witness),
        "all_minimum_sets_count": count_minimum_dominating_sets(g),
        "singleton_dominators": count_singleton_dominators(g),
        "connected": is_connected(g),
        "strong_fixed_points_of_reverse": len(strong_fixed_points(reverse(p))),
        "heuristic_size": heuristic_dominating_set(g).gamma,
        "quick_rule_fired": quick.method if quick else None,
    }
    _emit(payload, args.out)
    return 0


def _load_c_table(path: str) -> dict[tuple[int, int], int]:
    """The connected counts {(m, j): c(m, j)} of a `{"c": {m: {j: count}}}`
    file.  Each count is a JSON integer c(m, j) >= 0 at an order m >= 0, and
    nonzero only for 1 <= j <= m, since no graph on m vertices has
    domination number above m; each order's counts sum to at most m!, the
    number of order-m permutations.  The bounds keep d(n, k) as small as
    `counting.MAX_D_ORDER` says."""
    try:
        with open(path) as fh:
            rows = json.load(fh)["c"]
        table = {(int(m), int(j)): value
                 for m, row in rows.items() for j, value in row.items()}
    except (OSError, ValueError, LookupError, AttributeError, TypeError) as exc:
        raise ParseError(f"bad c-table file {path!r}: {exc!r}") from exc
    sums: dict[int, int] = {}  # order m -> sum over j of c(m, j)
    for (m, j), value in table.items():
        if not (type(value) is int and m >= 0 and value >= 0
                and (not value or 1 <= j <= m)):
            raise ParseError(f"bad c-table file {path!r}: c({m}, {j}) is not "
                             "an integer >= 0 at an order >= 0, and 0 unless "
                             "1 <= j <= m")
        sums[m] = sums.get(m, 0) + value
    top = max(sums.values(), default=0)
    fact = [1]  # m! for m < len(fact), up to the first that reaches `top`
    while fact[-1] < top:
        fact.append(fact[-1] * len(fact))
    for m, total in sums.items():
        if total > fact[min(m, len(fact) - 1)]:
            raise ParseError(f"bad c-table file {path!r}: the counts c({m}, j) "
                             f"sum past {m}!")
    return table


def cmd_count(args) -> int:
    fmt = args.format
    if args.what == "g1":
        rows = list(enumerate(map(str, counting.g1_column(args.max_n))))
        _emit_rows(rows, fmt, args.out, "g1")
    elif args.what == "f1":
        rows = [(t, str(counting.f1(args.n, t))) for t in range(args.n + 1)]
        _emit_rows(rows, fmt, args.out, "f1")
    elif args.what == "pair":
        nonadj = counting.pair_count_nonadjacent(args.n, args.u, args.v)
        adj = counting.pair_count_adjacent(args.n, args.u, args.v)
        if args.adjacent:
            rows = [("adjacent", str(adj))]
        elif args.nonadjacent:
            rows = [("nonadjacent", str(nonadj))]
        else:
            rows = [
                ("nonadjacent", str(nonadj)),
                ("adjacent", str(adj)),
                ("total", str(nonadj + adj)),
            ]
        _emit_rows(rows, fmt, args.out, "pair")
    elif args.what == "efficient":
        members = _parse_vertex_list(args.set)
        value = counting.efficient_dom_count(args.n, members)
        _emit_rows([(",".join(map(str, members)), str(value))], fmt, args.out,
                   "efficient")
    elif args.what == "d":
        if args.c_table:
            table = _load_c_table(args.c_table)
        else:
            cap = oracle.HARD_CAP
            if args.n - 1 > cap:  # fail before tallying the orders below it
                raise OrderCapExceeded(
                    f"count d --n {args.n} needs the connected counts for "
                    f"n = {args.n - 1}, outside the enumeration cap [1, {cap}]; "
                    "pass --c-table")
            table = oracle.c_table(args.n - 1)
        value = counting.disconnected_count(args.n, args.k, table)
        _emit_rows([(f"{args.n},{args.k}", str(value))], fmt, args.out, "d")
    return 0


def _audit(g) -> dict:
    return {
        "perm": str(g.source),
        "gamma": domination_number_exact(g).gamma,
        "connected": is_connected(g),
    }


def cmd_construct(args) -> int:
    if args.what == "comb":
        build = constructions.comb_tau if args.variant == "tau" else (
            constructions.comb_sigma)
        g = build_graph(build(args.n))
        payload = {
            "schema": SCHEMA,
            "variant": args.variant,
            **_audit(g),
            "is_comb": constructions.is_comb(g) is not None,
        }
    elif args.what == "gamma":
        g = build_graph(constructions.connected_with_gamma(args.n, args.k))
        payload = {"schema": SCHEMA, "requested_gamma": args.k, **_audit(g)}
    else:  # extend
        # The extension tests connectivity before any search, and checks
        # that the result keeps the input's gamma and connectivity.
        before = parse_permutation(args.perm)
        p = constructions.extend_preserving_gamma(before)
        audit = _audit(build_graph(before))
        payload = {
            "schema": SCHEMA,
            "input": audit,
            "result": {**audit, "perm": str(p)},
        }
    _emit(payload, args.out)
    return 0


def _tally_payload(report: oracle.TallyReport) -> dict:
    return {"schema": SCHEMA, "n": report.n, **{
        key: {str(k): str(v) for k, v in getattr(report, key).items()}
        for key in ("g", "c", "d", "f1", "st")}}


def cmd_verify(args) -> int:
    run = verify.run_all(max_n=args.max_n, jobs=args.jobs)
    payload = {
        "schema": SCHEMA,
        "checks": [
            {
                "name": c.name,
                "range": c.range_note,
                "status": "pass" if c.passed else "fail",
                "first_mismatch": c.first_mismatch,
                "detail": c.detail,
            }
            for c in run.checks
        ],
    }
    _emit(payload, args.out)
    for c in run.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name} ({c.range_note})", file=sys.stderr)
    return run.exit_code


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    report = oracle.full_tally(args.n, jobs=args.jobs)
    elapsed = time.perf_counter() - started
    _emit(_tally_payload(report), args.out)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_seq(args) -> int:
    if args.what == "st":
        triangle, _ = sequences.sequence_table(args.max_n)
        rows = [(f"{n},{k}", str(value)) for n, row in enumerate(triangle)
                for k, value in enumerate(row)]
        _emit_rows(rows, args.format, args.out, "st")
    else:  # lift
        families = sequences.lift_families(args.r)
        fam = families[args.r]
        closed = None
        if args.r <= 5:
            closed = all(
                fam.polynomial(k) == sequences.st_closed_form(args.r, k)
                for k in range(0, 41)
            )
        payload = {
            "schema": SCHEMA,
            "r": args.r,
            "coefficients": [str(c) for c in fam.polynomial.coefficients],
            "k0_value": str(fam.k0_value),
            "matches_closed_form": closed,
        }
        _emit(payload, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, except that help which cannot be written to stdout is an
    `UnwritableOutput` error, where argparse drops it and exits 0.  Its
    subparsers are of the same class."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _write_stdout(message, end="")
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permdom",
        description="Domination properties of permutation graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order = _bounded_int(0, counting.MAX_ORDER)

    def add_out(p):
        p.add_argument("--out", help="write the report to a file")

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("analyze", help="full report for one permutation")
    p.add_argument("perm", help="one-line notation, e.g. 3,1,2,5,4")
    add_out(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("count", help="evaluate a counting formula")
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("g1")
    q.add_argument("--max-n", type=order, required=True)
    q = what.add_parser("f1")
    q.add_argument("--n", type=order, required=True)
    q = what.add_parser("pair")
    q.add_argument("--n", type=order, required=True)
    q.add_argument("--u", type=int, required=True)
    q.add_argument("--v", type=int, required=True)
    group = q.add_mutually_exclusive_group()
    group.add_argument("--adjacent", action="store_true")
    group.add_argument("--nonadjacent", action="store_true")
    q = what.add_parser("efficient")
    q.add_argument("--n", type=order, required=True)
    q.add_argument("--set", required=True, help="vertex list, e.g. 1,4")
    q = what.add_parser("d")
    d_order = _bounded_int(1, counting.MAX_D_ORDER)
    q.add_argument("--n", type=d_order, required=True)
    q.add_argument("--k", type=d_order, required=True)
    q.add_argument("--c-table", help="JSON file of connected counts")
    for q in what.choices.values():
        add_format(q)
        add_out(q)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("construct", help="build an extremal permutation")
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("comb")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--variant", choices=("sigma", "tau"), default="sigma")
    q = what.add_parser("gamma")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q = what.add_parser("extend")
    q.add_argument("--perm", required=True)
    for q in what.choices.values():
        add_out(q)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("oracle", help="exhaustive enumeration over S_n")
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("tally")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--jobs", type=_bounded_int(1), default=1)
    q.add_argument("--allow-big", action="store_true",
                   help="accepted and ignored: every n up to the cap, 11, runs")
    add_out(q)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("seq", help="strong-fixed-point sequences")
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("st")
    q.add_argument("--max-n", type=_bounded_int(0, sequences.MAX_ST_ORDER),
                   required=True)
    add_format(q)
    add_out(q)
    q = what.add_parser("lift")
    q.add_argument("--r", type=_bounded_int(2, sequences.MAX_LIFT_OFFSET),
                   required=True)
    add_out(q)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("verify", help="run every formula-vs-oracle check")
    p.add_argument("--max-n", type=_bounded_int(1, verify.MAX_N), default=6)
    p.add_argument("--jobs", type=_bounded_int(1), default=1)
    add_out(p)
    p.set_defaults(func=cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # One parser per process, built on the first call: building it costs
    # more than most requests.  Parsing leaves no state on the parser.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except PermdomError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).
        _drop_stdout()
        return 1


if __name__ == "__main__":
    sys.exit(main())
