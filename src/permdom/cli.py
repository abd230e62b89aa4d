"""Command-line interface.

Subcommands: analyze, count, construct, oracle, seq, verify.  Output is
JSON by default (schema field 1, big counts as decimal strings, fixed key
order) or CSV with a header row; identical argv produces byte-identical
stdout.  Timing goes to stderr.  Exit codes: 0 ok, 1 domain error, 2 usage
error, 3 verification mismatch.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions, counting, oracle, sequences, verify
from .domination import (
    all_minimum_dominating_sets,
    count_singleton_dominators,
    domination_number_exact,
    heuristic_dominating_set,
    quick_rule_position_ends,
    quick_rule_value_ends,
)
from .errors import BadSetting, OrderCapExceeded, ParseError, PermdomError
from .graph import build_graph, is_connected
from .perm import parse_permutation, reverse, strong_fixed_points

SCHEMA = 1


def _cap_from_env() -> int:
    raw = os.environ.get("PERMDOM_MAX_N")
    if raw is None:
        return oracle.DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadSetting(f"PERMDOM_MAX_N must be a positive integer, got {raw!r}")
    return min(cap, oracle.HARD_CAP)


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


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_rows(rows, fmt: str, out: str | None, payload_key: str) -> None:
    """rows: list of (index, value) with values already stringified."""
    if fmt == "csv":
        lines = ["index,value"] + [f"{i},{v}" for i, v in rows]
        text = "\n".join(lines)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
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
        "edges": [list(e) for e in g.edges()],
        "degrees": list(g.degrees()),
        "gamma": result.gamma,
        "witness": sorted(result.witness),
        "all_minimum_sets_count": len(all_minimum_dominating_sets(g)),
        "singleton_dominators": count_singleton_dominators(g),
        "connected": is_connected(g),
        "strong_fixed_points_of_reverse": len(strong_fixed_points(reverse(p))),
        "heuristic_size": heuristic_dominating_set(g).gamma,
        "quick_rule_fired": quick.method if quick else None,
    }
    _emit(payload, args.out)
    return 0


def _load_c_table(path: str) -> counting.CountTable:
    try:
        with open(path) as fh:
            rows = json.load(fh)["c"]
        entries = {(int(n), int(k)): int(value)
                   for n, row in rows.items() for k, value in row.items()}
    except (OSError, ValueError, LookupError, AttributeError, TypeError) as exc:
        raise ParseError(f"bad c-table file {path!r}: {exc!r}") from exc
    return counting.CountTable(kind="c", entries=entries)


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
            cap = _cap_from_env()
            if args.n - 1 > cap:  # fail before sweeping the orders below it
                raise OrderCapExceeded(
                    f"count d --n {args.n} needs the connected counts for "
                    f"n = {args.n - 1}, outside the enumeration cap [1, {cap}]; "
                    "pass --c-table")
            table = oracle.c_table(
                args.n - 1, lambda n: oracle.full_tally(n, cap=cap))
        value = counting.disconnected_count(args.n, args.k, table)
        _emit_rows([(f"{args.n},{args.k}", str(value))], fmt, args.out, "d")
    return 0


def _audit(p) -> dict:
    g = build_graph(p)
    return {
        "perm": str(p),
        "gamma": domination_number_exact(g).gamma,
        "connected": is_connected(g),
    }


def cmd_construct(args) -> int:
    if args.what == "comb":
        build = constructions.comb_tau if args.variant == "tau" else (
            constructions.comb_sigma)
        p = build(args.n)
        payload = {
            "schema": SCHEMA,
            "variant": args.variant,
            **_audit(p),
            "is_comb": constructions.is_comb(build_graph(p)) is not None,
        }
    elif args.what == "gamma":
        p = constructions.connected_with_gamma(args.n, args.k)
        payload = {"schema": SCHEMA, "requested_gamma": args.k, **_audit(p)}
    else:  # extend
        before = parse_permutation(args.perm)
        audit_before = _audit(before)
        p = constructions.extend_preserving_gamma(before)
        payload = {
            "schema": SCHEMA,
            "input": audit_before,
            "result": _audit(p),
        }
    _emit(payload, args.out)
    return 0


def _tally_payload(report: oracle.TallyReport) -> dict:
    as_str = lambda d: {str(k): str(v) for k, v in d.items()}
    return {
        "schema": SCHEMA,
        "n": report.n,
        "g": as_str(report.g),
        "c": as_str(report.c),
        "d": as_str(report.d),
        "f1": as_str(report.f1),
        "st": as_str(report.st),
    }


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
    cap = oracle.HARD_CAP if args.allow_big else _cap_from_env()
    report = oracle.full_tally(args.n, jobs=args.jobs, cap=cap)
    _emit(_tally_payload(report), args.out)
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_seq(args) -> int:
    if args.what == "st":
        triangle, _ = sequences.sequence_table(args.max_n)
        rows = [
            (f"{n},{k}", str(triangle.get(n, k)))
            for n in range(args.max_n + 1)
            for k in range(n + 1)
        ]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                   help="raise the enumeration cap to n = 11 (slow)")
    add_out(q)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("seq", help="strong-fixed-point sequences")
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("st")
    q.add_argument("--max-n", type=_bounded_int(0), required=True)
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
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except PermdomError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
