"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 failed verification.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import SimulatorError, UsageError
from .network import load_network
from .pathnotation import amplitude, format_expression, parse as parse_paths, sum_amplitudes
from .scenarios import (
    build_scenario,
    qle_network,
    run_exact,
    run_mc,
    scenario_names,
    verification_checks,
)

_DESCRIPTIONS = {
    "ev-bomb": "dark-port interferometer with an optional obstruction (bomb=present|absent)",
    "hardy-ifm": "interaction-free measurement with a boxed atom on one arm",
    "qle": "two boxed atoms straddling the arms; dark-port detections entangle them",
    "qle-two-laser": "the two-atom experiment fed by two coherent sources, no first splitter",
    "qle-chsh": "two-atom experiment at four Bloch settings, reported as a CHSH trial",
}


@functools.lru_cache(maxsize=None)  # built once per process: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tisim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list builtin scenarios")

    run = sub.add_parser("run", help="run a scenario exactly or by Monte Carlo")
    run.add_argument("scenario", help="scenario name (see 'tisim list')")
    run.add_argument("--exact", action="store_true", help="emit the analytic distribution")
    run.add_argument("--trials", type=int, default=None, help="Monte Carlo trial count")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--atom-basis", default="z", help="z | y | bloch:theta,phi (degrees)")
    run.add_argument("--post-select", default="none", choices=("d", "c", "none"))
    run.add_argument("--out", default="json", choices=("json", "csv"))
    run.add_argument("--network", default=None, help="network description file overriding the builtin")
    run.add_argument("--bomb", default=None, choices=("present", "absent"), help="ev-bomb only")

    verify = sub.add_parser("verify", help="run the builtin amplitude and echo checks")
    verify.add_argument("--quiet", action="store_true", help="suppress per-check lines")

    path = sub.add_parser("path", help="evaluate a path-notation expression")
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


def _cmd_list() -> int:
    for name in scenario_names():
        print(f"{name:14s} {_DESCRIPTIONS[name]}")
    return 0


def _cmd_run(args) -> int:
    if args.exact and args.trials is not None:
        raise UsageError("--exact and --trials exclude each other")
    params = {}
    if args.bomb is not None:
        params["bomb"] = args.bomb
    if args.post_select != "none":
        params["post_select"] = args.post_select.upper()
    network = load_network(args.network) if args.network else None
    scenario = build_scenario(args.scenario, network, atom_basis=args.atom_basis, **params)
    if args.trials is None:
        report = run_exact(scenario)
    else:
        report = run_mc(scenario, trials=args.trials, seed=args.seed, workers=args.workers)
    print(report.to_json() if args.out == "json" else report.to_csv(), end="\n" if args.out == "json" else "")
    return 0


def _cmd_verify(quiet: bool) -> int:
    checks = verification_checks()
    failed = [c for c in checks if not c.passed]
    if not quiet:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status} {c.name}: observed {c.observed} | expected {c.expected}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 3 if failed else 0


def _cmd_path(args) -> int:
    network = load_network(args.network) if args.network else qle_network()
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
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args.quiet)
        if args.command == "path":
            return _cmd_path(args)
    except SimulatorError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
