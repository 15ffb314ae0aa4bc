"""Command-line interface.

Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 for a true verdict (or plain success), 1 for a false verdict or a
differential mismatch, 2 for usage, parse and undecidable-fragment errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bisim, logic, oracle, reductions
from . import sets as symsets
from .frontend import (
    ParseError,
    dump_set,
    parse_clauses,
    parse_formula,
    parse_gcs,
    parse_lts,
    parse_qbf,
    parse_valuation,
    serialize_formula,
    serialize_gcs,
    serialize_valuation,
    set_from_json,
)
from .gcs import validate
from .logic import UndecidableFormulaError
from .sets import GuardError, Metrics, PoolLimitExceeded


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_system(path: str):
    g = parse_gcs(_read(path))
    for p in validate(g):
        print(f"warning: {p}", file=sys.stderr)
    return g


def _check_actions(g, actions) -> None:
    """Refuse an action that the system does not declare.  The engine takes
    such an action as one that no rule carries (bisim's weak formulas use tau
    that way); given on the command line, it is a mistake."""
    unknown = sorted(set(actions) - set(g.acts))
    if unknown:
        raise ValueError(f"unknown action {unknown[0]!r}")


def _check_counts(args) -> None:
    """Refuse a negative --max-pool or --cases: argparse reads any integer."""
    for name in ("max_pool", "cases"):
        n = getattr(args, name, None)
        if n is not None and n < 0:
            raise ValueError(f"--{name.replace('_', '-')} must not be negative, got {n}")


def cmd_check(args, metrics: Metrics) -> int:
    g = _load_system(args.system)
    v = parse_valuation(args.valuation)
    f = parse_formula(args.formula)
    _check_actions(g, logic.action_names(f))
    verdict = logic.check(g, v, f, metrics=metrics, max_pool=args.max_pool)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_denote(args, metrics: Metrics) -> int:
    g = _load_system(args.system)
    f = parse_formula(args.formula)
    _check_actions(g, logic.action_names(f))
    d = logic.denote(g, f, metrics=metrics, max_pool=args.max_pool)
    print(dump_set(d.set))
    return 0


def cmd_prestar(args, metrics: Metrics) -> int:
    g = _load_system(args.system)
    try:  # the JSON decoder recurses once per nesting level
        doc = json.loads(_read(args.set_file))
    except RecursionError:
        raise ParseError("the set file nests too deeply to read") from None
    s = set_from_json(doc, g.vars, g.consts)
    guard = parse_clauses(args.guard) if args.guard else ()
    actions = tuple(args.actions.split(",")) if args.actions else None
    _check_actions(g, actions or ())
    result = symsets.pre_star(
        g, s, guard, actions, metrics=metrics, max_pool=args.max_pool
    )
    print(dump_set(result))
    return 0


def cmd_bisim(args, metrics: Metrics) -> int:
    g = _load_system(args.system)
    v = parse_valuation(args.valuation)
    l = parse_lts(_read(args.lts))
    verdict = bisim.equiv_check(
        g, v, l, args.state, mode=args.mode, tau=args.tau,
        metrics=metrics, max_pool=args.max_pool,
    )
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_gen_qbf(args, metrics: Metrics) -> int:
    g, v0, f = reductions.qbf_to_gcs(parse_qbf(args.qbf))
    os.makedirs(args.out, exist_ok=True)
    paths = {
        "instance.gcs": serialize_gcs(g),
        "initial.val": serialize_valuation(v0) + "\n",
        "target.ef": serialize_formula(f) + "\n",
    }
    for name, content in paths.items():
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(content)
    print(json.dumps({"out": args.out, "files": sorted(paths)}))
    return 0


def cmd_oracle(args, metrics: Metrics) -> int:
    report = oracle.differential_run(args.seed, args.cases)
    print(json.dumps(report, indent=2))
    return 0 if not report["mismatches"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gapmc",
        description="EF model checking and bisimulation checking for "
        "gap-order constraint systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--metrics", action="store_true",
                       help="print run metrics as JSON on stderr")
        p.add_argument("--max-pool", type=int, default=None,
                       help="abort when the reachability pool exceeds this size")

    p = sub.add_parser("check", help="model-check a formula in one state")
    p.add_argument("system", help="system file (or - for stdin)")
    p.add_argument("valuation", help='e.g. "x=3, y=0"')
    p.add_argument("formula", help='EF formula, e.g. "EF (x = 0 & y = 0)"')
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("denote", help="compute a formula's full denotation")
    p.add_argument("system")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true",
                   help="JSON output (the default and only format)")
    common(p)
    p.set_defaults(func=cmd_denote)

    p = sub.add_parser("prestar", help="backward reachability from a symbolic set")
    p.add_argument("system")
    p.add_argument("set_file", help="JSON symbolic-set file")
    p.add_argument("--actions", default="", help="comma-separated action subset")
    p.add_argument("--guard", default="", help="positive transitional guard clauses")
    common(p)
    p.set_defaults(func=cmd_prestar)

    p = sub.add_parser("bisim", help="bisimilarity against a finite system state")
    p.add_argument("system")
    p.add_argument("valuation")
    p.add_argument("lts", help="transition list file (s -a-> t per line)")
    p.add_argument("state")
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--tau", default="tau", help="internal action name (weak mode)")
    common(p)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("gen-qbf", help="translate a QBF into system/query files")
    p.add_argument("qbf", help='prenex QBF, e.g. "A x E y : x | !y"')
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_qbf)

    p = sub.add_parser("oracle", help="ground-truth harnesses")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    od = osub.add_parser("diff", help="symbolic-vs-explicit differential run")
    od.add_argument("--seed", type=int, default=0)
    od.add_argument("--cases", type=int, default=100)
    od.set_defaults(func=cmd_oracle)

    return ap


# built once: parse_args keeps nothing between calls, and building takes ~1.5 ms
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    metrics = Metrics()  # filled by the engine commands, printed on --metrics
    try:
        _check_counts(args)
        code = args.func(args, metrics)
    except (ParseError, UndecidableFormulaError, GuardError, PoolLimitExceeded,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if getattr(args, "metrics", False):
        print(json.dumps(metrics.as_dict()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
