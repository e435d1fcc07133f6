"""Command-line entry point.

Subcommands: census, check, key-expand, verify-consistency, experiment,
self-check.
Exit codes: 0 success, 1 usage error (an unwritable --json path included),
2 verification failure, 3 resource limit (recursion depth or memory
exhausted).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        return tuple(int(t) for t in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer list") from None


def build_parser() -> _Parser:
    p = _Parser(prog="coxsph", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("census",
                       help="maximal-sphericality census of a whole group")
    c.add_argument("type", help="Cartan type, e.g. A4, B3, D4, F4, I2(5)")
    c.add_argument("--slow", action="store_true",
                   help="allow the long enumerations (S7 and beyond)")
    c.add_argument("--json", dest="json_path", help="write full entries as JSON")
    c.add_argument("--expect-nonspherical", type=int, default=None,
                   help="fail (exit 2) unless the census count matches")

    k = sub.add_parser("check",
                       help="I-sphericality of one element, with witness")
    k.add_argument("type")
    k.add_argument("element", help="one-line permutation (type A) or word 's1 s2'")
    k.add_argument("--I", default="", type=_csv_ints, help="node subset, e.g. 1,3")
    k.add_argument("--paranoid", action="store_true",
                   help="re-verify results along an independent route")
    k.add_argument("--json", dest="json_path")

    e = sub.add_parser("key-expand",
                       help="block-Schur expansion of a key polynomial")
    e.add_argument("composition", help="weak composition, e.g. '(1,5,2,4,3)'")
    e.add_argument("--D", default="", type=_csv_ints, help="split positions")
    e.add_argument("--n", type=int, default=None, help="variable count")
    e.add_argument("--oracle", choices=("peel", "ry"), default="peel")
    e.add_argument("--cross-check", action="store_true")
    e.add_argument("--json", dest="json_path")

    v = sub.add_parser("verify-consistency",
                       help="witness search vs staircase key over all of S_n")
    v.add_argument("--n", type=int, default=5)
    v.add_argument("--slow", action="store_true", help="allow n = 6")
    v.add_argument("--json", dest="json_path")

    x = sub.add_parser("experiment",
                       help="empirical conjecture probes")
    x.add_argument("name", choices=harness.EXPERIMENTS)
    x.add_argument("--n", type=int, default=None)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--json", dest="json_path")

    s = sub.add_parser("self-check",
                       help="redundant-route validation of the whole stack")
    s.add_argument("--n", type=int, default=5)
    s.add_argument("--seed", type=int, default=0)
    return p


_SLOW_CENSUS_FLOOR = 2000  # |W| above this requires --slow (F4 passes, S7 not)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except harness.CrossCheckFailure as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:  # CoxeterError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (RecursionError, MemoryError) as exc:
        sys.stderr.write(f"resource limit: {str(exc) or type(exc).__name__}\n")
        return 3


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json_path", None):
        harness.write_json(args.json_path, payload)
    print(text)


def _dispatch(args) -> int:
    if args.command == "census":
        from .coxeter import coxeter_system

        system = coxeter_system(args.type)
        if system.order() > _SLOW_CENSUS_FLOOR and not args.slow:
            sys.stderr.write(
                f"error: group of order {system.order()} needs --slow\n"
            )
            return 1

        def progress(done, total):
            sys.stderr.write(f"  ...{done}/{total} elements\n")

        report = harness.run_census(
            args.type, progress=progress if args.slow else None
        )
        _emit(args, report.to_json_dict(), report.summary())
        if (
            args.expect_nonspherical is not None
            and args.expect_nonspherical != len(report.nonspherical)
        ):
            sys.stderr.write(
                f"verification failure: expected {args.expect_nonspherical} "
                f"nonspherical, found {len(report.nonspherical)}\n"
            )
            return 2
        return 0

    if args.command == "check":
        report = harness.run_check(
            args.type, args.element, args.I, paranoid=args.paranoid
        )
        _emit(args, report.to_json_dict(), report.summary())
        return 0

    if args.command == "key-expand":
        from .typea import parse_composition

        alpha = parse_composition(args.composition)
        expansion = harness.run_key_expand(
            alpha, args.D, n=args.n, oracle=args.oracle,
            cross_check=args.cross_check,
        )
        _emit(args, expansion.to_json_dict(), harness.format_expansion(expansion))
        return 0

    if args.command == "verify-consistency":
        if args.n > 5 and not args.slow:
            sys.stderr.write("error: n > 5 needs --slow\n")
            return 1
        if args.n > 6:
            sys.stderr.write("error: consistency check capped at n = 6\n")
            return 1
        report = harness.run_consistency(args.n)
        _emit(args, report.to_json_dict(), report.summary())
        return 0 if not report.disagreements else 2

    if args.command == "experiment":
        result = harness.run_experiment(args.name, n=args.n, seed=args.seed)
        _emit(args, result, json.dumps(result, indent=2, default=list))
        return 0

    if args.command == "self-check":
        results = harness.paranoid_self_check(args.n, args.seed)
        for key, ok in results.items():
            if key != "all":
                print(f"{key}: {'ok' if ok else 'FAILED'}")
        return 0 if results["all"] else 2

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
