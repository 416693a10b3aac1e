"""Command-line interface.

run and path without --network, and verify, read the builtin networks this process
shares, building each on first use.  verify --json prints the checklist as one JSON line.

Exit codes: 0 success, 1 output pipe closed, 2 usage error, 3 failed verification,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .errors import SimulatorError, UsageError
from .network import load_network
from .pathnotation import amplitude, format_expression, parse as parse_paths, sum_amplitudes
from .scenarios import (
    SCENARIOS,
    build_scenario,
    run_exact,
    run_mc,
    verification_checks,
)


@functools.lru_cache(maxsize=None)  # built once per process: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tisim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list builtin scenarios").set_defaults(handler=_cmd_list)

    run = sub.add_parser("run", help="run a scenario exactly or by Monte Carlo")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("scenario", help="scenario name (see 'tisim list')")
    run.add_argument("--exact", action="store_true", help="emit the analytic distribution")
    run.add_argument("--trials", type=int, default=None, help="Monte Carlo trial count")
    run.add_argument("--seed", type=int, default=None, help="Monte Carlo seed (default 0)")
    run.add_argument("--workers", type=int, default=None, help="Monte Carlo threads (default 1)")
    run.add_argument("--atom-basis", default=None, help="z | y | bloch:theta,phi (degrees; default z)")
    run.add_argument("--post-select", default="none", choices=("d", "c", "none"))
    run.add_argument("--out", default="json", choices=("json", "csv"))
    run.add_argument("--network", default=None, help="network description file overriding the builtin")
    run.add_argument("--bomb", default=None, choices=("present", "absent"), help="ev-bomb only")

    verify = sub.add_parser("verify", help="run the builtin amplitude and echo checks")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    verify.add_argument("--json", action="store_true", help="print the checks as one JSON line")

    path = sub.add_parser("path", help="evaluate a path-notation expression")
    path.set_defaults(handler=_cmd_path)
    path.add_argument("expression")
    path.add_argument("--network", default=None, help="network description file (default: builtin qle)")
    path.add_argument(
        "--alias",
        action="append",
        default=[],
        metavar="LABEL=ELEMENT",
        help="map an expression label to a network element id (repeatable)",
    )
    return parser


def _cmd_list(args) -> int:
    for name, description in SCENARIOS.items():
        print(f"{name:14s} {description}")
    return 0


def _cmd_run(args) -> int:
    if args.exact and args.trials is not None:
        raise UsageError("--exact and --trials exclude each other")
    if args.trials is None and (args.seed, args.workers) != (None, None):
        raise UsageError("--seed and --workers apply only to Monte Carlo runs (--trials)")
    params = {key: value for key in ("bomb", "atom_basis") if (value := getattr(args, key)) is not None}
    if args.post_select != "none":
        params["post_select"] = args.post_select.upper()
    network = load_network(args.network) if args.network else None
    scenario = build_scenario(args.scenario, network, **params)
    if args.trials is None:
        report = run_exact(scenario)
    else:
        report = run_mc(scenario, args.trials, args.seed or 0, 1 if args.workers is None else args.workers)
    print(report.to_json() if args.out == "json" else report.to_csv(), end="\n" if args.out == "json" else "")
    return 0


def _cmd_verify(args) -> int:
    if args.json and args.quiet:
        raise UsageError("--json and --quiet exclude each other")
    checks = verification_checks()
    passed = sum(c.passed for c in checks)
    if args.json:
        rows = [dataclasses.asdict(c) for c in checks]
        print(json.dumps({"passed": passed, "total": len(checks), "checks": rows}, sort_keys=True))
    else:
        if not args.quiet:
            for c in checks:
                status = "PASS" if c.passed else "FAIL"
                print(f"{status} {c.name}: observed {c.observed} | expected {c.expected}")
        print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 3


def _cmd_path(args) -> int:
    network = load_network(args.network) if args.network else build_scenario("qle").network
    aliases = {}
    for pair in args.alias:
        if "=" not in pair:
            raise UsageError(f"bad alias {pair!r}; expected LABEL=ELEMENT")
        label, element = pair.split("=", 1)
        aliases[label] = element
    expr = parse_paths(args.expression)
    total = sum_amplitudes(expr, network, aliases)
    print(f"expression: {format_expression(expr)}")
    for term in expr.terms:
        print(f"  term {format_expression(type(expr)(terms=(term,)))} -> {amplitude(term, network, aliases)}")
    print(f"sum = {total}")
    if abs(total) < 1e-12:
        print("exact cancellation")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so a closed pipe raises here, not in the flush at exit
        return code
    except SimulatorError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader went away: devnull takes what is left, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
