"""Command-line front end.

Subcommands: reach, buchi, star, omega, eval, laws, wordcheck.  Exit
codes are stable: 0 for a positive answer (or success), 1 for a negative
answer (or failed checks), 2 for any usage, input or output error.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import os
import sys
from typing import Optional

from .errors import BudgetExceeded, EnergyOmegaError, ParseError, UnknownIdentity

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2

# Freeze the heap at interpreter exit, so the shutdown collections scan
# nothing: the command has flushed its output, it holds no other resource,
# and the OS frees the heap.  Until then the collector runs as usual.
atexit.register(gc.freeze)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _print_answer(args, answer: bool, value, text) -> int:
    """Print a reach or buchi answer, its value as ``value`` in JSON and
    ``text`` in text, and return its exit code."""
    payload = {"command": args.command, "energy": args.energy, "answer": answer,
               "value": value, "verified": args.verify}
    label = "reachable" if args.command == "reach" else "buchi"
    _emit(args, [f"{label}: {'yes' if answer else 'no'}", f"value: {text}"], payload)
    return EXIT_YES if answer else EXIT_NO


def cmd_reach(args) -> int:
    from . import energyauto
    from .extlat import format_ext, parse_ext

    aut = energyauto.from_json(_load_json(args.automaton))
    result = energyauto.reachable(aut, parse_ext(args.energy), verify=args.verify)
    value = format_ext(result.value)
    return _print_answer(args, result.answer, value, value)


def cmd_buchi(args) -> int:
    from . import energyauto, omegaval
    from .extlat import parse_ext

    aut = energyauto.from_json(_load_json(args.automaton))
    result = energyauto.buchi(aut, parse_ext(args.energy), verify=args.verify)
    return _print_answer(args, result.answer, omegaval.to_json(result.value), result.value)


def _print_result(args, op, to_json) -> int:
    """Print ``op`` (star or omega) of the function and its JSON encoding."""
    from . import energyfn

    out = op(energyfn.from_json(_load_json(args.function)))
    doc = to_json(out)
    _emit(args, [f"{args.command}: {out}", json.dumps(doc)], {"command": args.command, "result": doc})
    return EXIT_YES


def cmd_star(args) -> int:
    from . import energyfn

    return _print_result(args, energyfn.star, energyfn.to_json)


def cmd_omega(args) -> int:
    from . import omegaval

    return _print_result(args, omegaval.omega, omegaval.to_json)


def cmd_eval(args) -> int:
    from . import energyfn
    from .extlat import format_ext, parse_ext

    f = energyfn.from_json(_load_json(args.function))
    value = format_ext(f.eval(parse_ext(args.energy)))
    _emit(args, [f"value: {value}"], {"command": "eval", "energy": args.energy, "value": value})
    return EXIT_YES


def cmd_laws(args) -> int:
    from . import laws

    reports = laws.run_suite(args.instance, seed=args.seed, cases=args.cases)
    for report in reports:
        print(json.dumps(report.to_json(), sort_keys=True))
    return EXIT_YES if all(report.verdict == "Pass" for report in reports) else EXIT_NO


def cmd_wordcheck(args) -> int:
    import random

    from . import laws

    identities = (*laws.IDENTITIES, "group-C2")
    if args.identity not in identities:
        raise UnknownIdentity(
            f"unknown identity {args.identity!r}; choose from {', '.join(identities)}"
        )
    if not args.alphabet:
        raise ParseError("alphabet must not be empty")
    rng = random.Random(args.seed)
    alg, draw = laws.model("word", args.alphabet)
    failures = []
    for _ in range(args.cases):
        x, y = draw(rng), draw(rng)
        report = laws.LawReport(args.identity, "word")
        if args.identity == "group-C2":
            laws.check_group_identity(report, "C2", alg, [x, y], args.bound)
        else:
            laws.check_identity(report, args.identity, alg, x, y, args.bound)
        if report.unknowns:
            # out of budget: an error, never a counterexample
            raise BudgetExceeded(report.unknowns[0].sample)
        if report.failures:
            failures.append(report.failures[0].sample or "language mismatch")
    bounded = args.identity in laws.IDENTITIES and laws.IDENTITIES[args.identity].omega
    payload = {
        "command": "wordcheck",
        "identity": args.identity,
        "cases": args.cases,
        "bound": args.bound if bounded else None,
        "verdict": "Pass" if not failures else "Fail",
        "failures": failures,
    }
    scope = f" up to bound {args.bound}" if bounded else " exactly"
    lines = [f"{args.identity}: {payload['verdict']}{scope} ({args.cases} cases)"]
    _emit(args, lines + [f"  counterexample: {f}" for f in failures], payload)
    return EXIT_YES if not failures else EXIT_NO


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


ENERGY = ("--energy", dict(required=True, help='initial energy ("bot", "top", or a rational)'))
QUERY = [("automaton", {}), ENERGY,
         ("--verify", dict(action="store_true", help="cross-check against the relaxation oracle"))]
SEED = ("--seed", dict(type=int, default=0))
CASES = ("--cases", dict(type=non_negative_int, default=20))

# Each subcommand: its help, its handler and its arguments, in help order.
COMMANDS = {
    "reach": ("reachability with an initial energy", cmd_reach, QUERY),
    "buchi": ("repeated-accepting acceptance with an initial energy", cmd_buchi, QUERY),
    "star": ("star of an energy function", cmd_star, [("function", {})]),
    "omega": ("omega value of an energy function", cmd_omega, [("function", {})]),
    "eval": ("evaluate an energy function at a point", cmd_eval,
             [("function", {}), ENERGY]),
    "laws": ("run the law suite, one JSON report per line", cmd_laws,
             [("--instance", dict(choices=("energy", "word"), default="energy")), SEED, CASES]),
    "wordcheck": ("check a named identity in the word model", cmd_wordcheck, [
        ("--identity", dict(required=True)), ("--alphabet", dict(default="ab")),
        ("--bound", dict(type=positive_int, default=6)), SEED, CASES]),
}


@functools.cache  # once per process: main may be called in a loop
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energyomega",
        description="Energy automata queries and algebra law checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # off a terminal stdout is buffered: a failed write shows here
        return code
    except (EnergyOmegaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:  # stdout cannot be written; the exit flush then goes to devnull
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
