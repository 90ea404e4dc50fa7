"""Command line interface.

Subcommands:

  mcover       one multiple-cover contribution M_w[d]
  instantons   instanton numbers m_w[1..dmax]
  integrality  integrality/positivity report over a (w, d) box
  torsion      stratum sizes, or division-point solving for a class
  classes      class table for a given tangency degree
  census       boundary census per (degree, stratum), or aggregate counts
  check-gw     assemble one invariant and compare it to the reference
  graphs       enumerate combinatorial degeneration types
  verify-all   run the whole verification battery

Formats: text (default), json everywhere, csv for the tabular commands
(classes, integrality).  Select with --format / --json / --csv or the
TANGENTIA_FORMAT environment variable; an explicit flag wins over the
environment.  Each handler does its checking and kernel work and returns
an :class:`Output` record; ``_emit`` builds only the selected format and
writes it as it is made, a text line or a json chunk at a time.  Exit
codes: 0 success, 1 usage or input error, 2 verification failure.

Examples:

  tangentia mcover --w 3 --d 4
  tangentia instantons --w 3 --dmax 6
  tangentia torsion --solve --class "2H-E1-E2"
  tangentia classes --degree 4 --csv
  tangentia census --degree 4 --stratum T1
  tangentia check-gw --degree 4 --json
  tangentia graphs --n 2 --r 3 --weights 1,2,3
  tangentia verify-all
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    from . import census, torsion, trees

FORMATS = ("text", "json", "csv")
CSV_COMMANDS = ("classes", "integrality")


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    """A result that does not verify: the message goes to stderr, exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="tangentia", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mcover", help="multiple-cover contribution M_w[d]")
    p.add_argument("--w", type=int, required=True, help="contact order of the base curve")
    p.add_argument("--d", type=int, required=True, help="covering degree")
    p.set_defaults(handler=cmd_mcover)

    p = sub.add_parser("instantons", help="instanton numbers m_w[1..dmax]")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(handler=cmd_instantons)

    p = sub.add_parser("integrality", help="integrality report for m_w[d]")
    p.add_argument("--wmax", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(handler=cmd_integrality)

    p = sub.add_parser("torsion", help="torsion strata and division points")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--strata", action="store_true", help="print stratum sizes")
    mode.add_argument("--solve", action="store_true",
                      help="solve m*P = restriction of --class")
    p.add_argument("--class", dest="class_literal", metavar="CLASS",
                   help='divisor class literal, e.g. "2H-E1-E2"')
    p.add_argument("--m", type=int, help="division order (default 4)")
    p.set_defaults(handler=cmd_torsion)

    p = sub.add_parser("classes", help="class table for a tangency degree")
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(handler=cmd_classes)

    p = sub.add_parser("census", help="boundary census of tangent curves")
    p.add_argument("--degree", type=int, help="curve degree, 1..4")
    p.add_argument("--stratum", help="T1, T2, T3, or NF9 (degree 3)")
    p.add_argument("--aggregate", action="store_true",
                   help="aggregate quartic counts instead of one entry")
    p.add_argument("--special-cubic", action="store_true",
                   help="census variant for special smooth cubics")
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("check-gw", help="assemble an invariant and verify it")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(handler=cmd_check_gw)

    p = sub.add_parser("graphs", help="combinatorial degeneration types")
    p.add_argument("--n", type=int, required=True, help="number of layer steps")
    p.add_argument("--r", type=int, required=True, help="number of labeled bottom vertices")
    p.add_argument("--weights", help="comma-separated positive weights, one per label")
    p.set_defaults(handler=cmd_graphs)

    p = sub.add_parser("verify-all", help="run every verification check")
    p.set_defaults(handler=cmd_verify_all)

    # format options come last on every subcommand; --csv only on CSV_COMMANDS
    for name, p in sub.choices.items():
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="output format (default: text)")
        p.add_argument("--json", action="store_const", const="json", dest="format",
                       help="shorthand for --format json")
        if name in CSV_COMMANDS:
            p.add_argument("--csv", action="store_const", const="csv", dest="format",
                           help="shorthand for --format csv")
    return parser


def _resolve_format(args: argparse.Namespace) -> str:
    fmt: Optional[str] = args.format
    if fmt is None:
        env = os.environ.get("TANGENTIA_FORMAT", "").strip().lower()
        if env:
            if env not in FORMATS:
                raise UsageError(
                    f"TANGENTIA_FORMAT must be one of {', '.join(FORMATS)}, got {env!r}"
                )
            fmt = env
    fmt = fmt or "text"
    if fmt == "csv" and args.command not in CSV_COMMANDS:
        raise UsageError(
            f"csv output is only available for: {', '.join(CSV_COMMANDS)}"
        )
    return fmt


class Output(NamedTuple):
    """A handler's result: one zero-argument callable per format, each
    building only its own rendering (the json value, the text lines, and for
    CSV_COMMANDS the csv rows, header first), and the exit code.  The
    handler has done its checking and kernel work; ``_emit`` calls only the
    selected callable and writes what it makes as it is made."""

    json: Callable[[], Any]
    text: Callable[[], Iterable[str]]
    csv: Optional[Callable[[], Iterable[list]]] = None
    code: int = 0


def _emit(out: Output, fmt: str) -> int:
    if fmt == "json":
        import json

        json.dump(out.json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif fmt == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(out.csv())
    else:
        sys.stdout.writelines(f"{line}\n" for line in out.text())
    return out.code


def _point_payload(p: torsion.TorsionPoint) -> dict:
    return {"x": str(p.x), "y": str(p.y), "order": p.n}


# ---------------------------------------------------------------------------
# handlers: each imports the layers it runs when it is called, so that
# ``import tangentia.cli`` loads none of them
# ---------------------------------------------------------------------------

def cmd_mcover(args) -> Output:
    from . import covers

    value = covers.multiple_cover(args.w, args.d)
    return Output(lambda: {"w": args.w, "d": args.d, "value": str(value)},
                  lambda: [f"M_{args.w}[{args.d}] = {value}"])


def cmd_instantons(args) -> Output:
    from . import covers

    numbers = covers.instanton_numbers(args.w, args.dmax)
    degrees = range(1, args.dmax + 1)
    return Output(
        lambda: {"w": args.w, "dmax": args.dmax, "values": [str(numbers[d]) for d in degrees]},
        lambda: (f"m_{args.w}[{d}] = {numbers[d]}" for d in degrees),
    )


def cmd_integrality(args) -> Output:
    from . import covers

    report = covers.integrality_report(args.wmax, args.dmax)
    all_pass = all(r.passes for r in report)
    header = ["w", "d", "value", "integer", "positive", "extrapolated", "pass"]

    def rows():
        for r in report:
            yield [r.w, r.d, str(r.value), r.is_integer, r.is_positive, r.extrapolated, r.passes]

    def lines():
        for r in report:
            yield (f"m_{r.w}[{r.d}] = {r.value}  {'ok' if r.passes else 'FAIL'}"
                   + (" (extrapolated)" if r.extrapolated else ""))
        verdict = "all rows pass" if all_pass else "some rows FAIL"
        yield f"{len(report)} rows, w <= {args.wmax}, d <= {args.dmax}: {verdict}"

    return Output(
        lambda: {"wmax": args.wmax, "dmax": args.dmax,
                 "rows": [dict(zip(header, row)) for row in rows()], "all_pass": all_pass},
        lines, lambda: itertools.chain([header], rows()), 0 if all_pass else 2,
    )


def cmd_torsion(args) -> Output:
    if args.strata and (args.class_literal is not None or args.m is not None):
        raise UsageError("--class and --m apply only to --solve")
    if args.solve and args.class_literal is None:
        raise UsageError("--solve requires --class")
    from . import torsion

    if args.strata:
        sizes = torsion.stratum_sizes()
        return Output(lambda: {s.value: sizes[s] for s in torsion.Stratum}, lambda: (
            f"{s.value}: {sizes[s]} points, order {' or '.join(map(str, orders))}"
            + (" (flexes)" if s is torsion.Stratum.T1 else "")
            for s, orders in torsion.STRATUM_ORDERS.items()
        ))

    from . import lattice

    m = 4 if args.m is None else args.m
    cls = lattice.parse_class_literal(args.class_literal)
    literal, c = lattice.class_literal(cls), torsion.restriction_class(cls)
    solutions = torsion.solve_division(c, m)
    strata = [s.value if s else None for s in map(torsion.stratify, solutions)]

    def lines():
        yield f"class {literal} restricts to {c}, order {c.n}"
        yield f"{len(solutions)} solutions of {m}*P = c:"
        for p, s in zip(solutions, strata):
            yield f"  {p}  order {p.n:>2}  stratum {s or '-'}"

    return Output(lambda: {
        "class": literal, "restriction": _point_payload(c), "m": m,
        "solutions": [dict(_point_payload(p), stratum=s) for p, s in zip(solutions, strata)],
    }, lines)


def cmd_classes(args) -> Output:
    from . import lattice

    rows = lattice.enumerate_classes(args.degree)
    validated = args.degree == 4
    totals: dict[int, int] = {}
    for r in rows:
        totals[r.p_a] = totals.get(r.p_a, 0) + r.ordered_count
    genera = sorted(totals)

    def lines():
        for r in rows:
            yield (f"e={r.e} a={list(r.a_multiset)} p_a={r.p_a} "
                   f"ordered={r.ordered_count:>3}  {lattice.class_literal(r.representative)}")
        parts = [f"genus {g}: {totals[g]}" for g in genera]
        yield f"{len(rows)} rows; ordered classes: {', '.join(parts)}"
        if not validated:
            yield "note: only the degree-4 table is cross-checked; this output is unvalidated"

    def table():
        yield ["e", "a1", "a2", "a3", "a4", "a5", "a6", "p_a", "ordered_count"]
        for r in rows:
            yield [r.e, *r.a_multiset, r.p_a, r.ordered_count]

    return Output(lambda: {
        "degree": args.degree,
        "validated": validated,
        "rows": [
            {"e": r.e, "a": list(r.a_multiset), "p_a": r.p_a, "ordered_count": r.ordered_count,
             "class": lattice.class_literal(r.representative)}
            for r in rows
        ],
        "totals": {str(g): totals[g] for g in genera},
    }, lines, table)


def _component(comp: census.Component) -> tuple[dict, str]:
    """A census component's json payload and its text line."""
    from . import census

    payload: dict = {"kind": comp.kind, "count": comp.count}
    if comp.kind == census.COVER:
        payload["base_degree"] = comp.base_degree
        payload["multiplicity"] = comp.multiplicity
        return payload, (f"{comp.count} x {comp.multiplicity}-fold cover of a "
                         f"degree-{comp.base_degree} curve")
    if comp.kind == census.PAIR:
        payload["tangencies"] = list(comp.tangencies)
        return payload, (f"{comp.count} x reducible pair with contact orders "
                         f"{comp.tangencies[0]} + {comp.tangencies[1]}")
    if comp.kind == census.CUSPIDAL:
        return payload, f"{comp.count} x cuspidal irreducible curve"
    return payload, f"{comp.count} x immersed irreducible curve"


def cmd_census(args) -> Output:
    if args.aggregate and (
        args.degree is not None or args.stratum is not None or args.special_cubic
    ):
        raise UsageError("--aggregate takes no --degree, --stratum or --special-cubic")
    if not args.aggregate and (args.degree is None or args.stratum is None):
        raise UsageError("census needs either --aggregate or --degree with --stratum")
    from . import census, torsion

    if args.aggregate:
        totals = census.aggregate_N()
        per_point = {s: census.count_M4(s) for s in torsion.Stratum}
        sizes = torsion.stratum_sizes()
        cross = sum(sizes[s] * per_point[s] for s in torsion.Stratum)

        def lines():
            for s in torsion.Stratum:
                yield (f"{s.value}: N = {totals[s]:>5}, per point "
                       f"{per_point[s]:>2} (stratum size {sizes[s]})")
            yield f"cross-check: sum of per-point counts over all points = {cross}"

        return Output(lambda: {
            "N": {s.value: totals[s] for s in torsion.Stratum},
            "per_point": {s.value: per_point[s] for s in torsion.Stratum},
            "cross_check": cross,
        }, lines)

    entry = census.boundary_census(args.degree, args.stratum,
                                   special_cubic=args.special_cubic)
    variant = "; special cubic" if entry.special_cubic else ""

    def lines():
        yield f"degree {entry.degree} at {entry.stratum} ({entry.points} points{variant}):"
        for comp in entry.components:
            yield f"  {_component(comp)[1]}"

    return Output(lambda: {
        "degree": entry.degree,
        "stratum": entry.stratum,
        "points": entry.points,
        "special_cubic": entry.special_cubic,
        "components": [_component(comp)[0] for comp in entry.components],
    }, lines)


def cmd_check_gw(args) -> Output:
    from . import assembly

    try:
        ledger = assembly.assemble_invariant(args.degree)
    except assembly.AssemblyMismatch as exc:
        raise VerificationFailure(f"FAIL {exc}") from exc

    def lines():
        for line in ledger.lines:
            yield (f"{line.stratum:>3} x{line.points:<3} {str(line.per_point):>6} "
                   f"per point = {str(line.subtotal):>8}   [{line.provenance}]")
        yield f"total {ledger.total} vs reference {ledger.reference}: PASS"
        if ledger.note:
            yield f"note: {ledger.note}"

    return Output(lambda: {
        "degree": ledger.degree,
        "lines": [
            {"stratum": line.stratum, "points": line.points, "per_point": str(line.per_point),
             "subtotal": str(line.subtotal), "provenance": line.provenance}
            for line in ledger.lines
        ],
        "total": str(ledger.total),
        "reference": str(ledger.reference),
        "match": ledger.total == ledger.reference,
        **({"note": ledger.note} if ledger.note else {}),
    }, lines)


def cmd_graphs(args) -> Output:
    weights = None
    if args.weights is not None:
        try:
            weights = [int(x) for x in args.weights.split(",")]
        except ValueError:
            raise UsageError(f"cannot parse weights {args.weights!r}")
        if len(weights) != args.r:
            raise UsageError(f"expected {args.r} weights, got {len(weights)}")
        # checked before loading trees: with no shapes, propagate_weights never runs
        if min(weights) < 1:
            raise ValueError("weights must be positive integers")
    from . import trees

    shapes = trees.enumerate_types(args.n, args.r)
    weighted = [trees.propagate_weights(s, weights) if weights else None for s in shapes]

    def lines():
        yield f"{len(shapes)} types for n={args.n}, r={args.r}"
        for index, (shape, w) in enumerate(zip(shapes, weighted), start=1):
            yield f"type {index}:"
            yield from _tree_lines(shape, w)

    return Output(lambda: {
        "n": args.n,
        "r": args.r,
        "count": len(shapes),
        "types": [
            {
                "layers": [list(layer) for layer in s.layers],
                "parents": dict(s.parents),
                "leaf_order": list(s.leaf_order),
                **({"weights": dict(w.weights)} if w else {}),
            }
            for s, w in zip(shapes, weighted)
        ],
    }, lines)


def _tree_lines(shape: trees.CombType, weighted) -> Iterator[str]:
    children = shape.children_map
    labels = {v: i + 1 for i, v in enumerate(shape.leaf_order)}
    stack = [(shape.layers[0][0], 0)]  # pre-order: a vertex, then its children in order
    while stack:
        v, depth = stack.pop()
        text = v
        if v in labels:
            text += f" = label {labels[v]}"
        if weighted is not None:
            text += f" (weight {weighted.weight(v)})"
        yield "  " * (depth + 1) + text
        stack += [(child, depth + 1) for child in reversed(children[v])]


def cmd_verify_all(args) -> Output:
    from . import verify

    results = verify.run_all_checks()
    all_passed = all(r.passed for r in results)

    def lines():
        for r in results:
            yield f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
        yield f"{sum(r.passed for r in results)}/{len(results)} checks passed"

    return Output(lambda: {
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all_passed,
    }, lines, code=0 if all_passed else 2)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fmt = _resolve_format(args)
        return _emit(args.handler(args), fmt)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: stdout goes to devnull so the shutdown flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
