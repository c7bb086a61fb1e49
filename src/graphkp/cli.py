"""Command-line interface.

Subcommands:

    invariant   polynomial of one graph or a graph6 corpus
    series      generating series over all / connected graphs, optionally rescaled
    constants   rescaling constants table as CSV (n, i_n, lambda_n)
    rescale     apply the variable rescaling to one graph's polynomial or a series
    kp-check    residuals of the first two KP equations, with reliable weights
    tables      per-graph polynomial + |Aut| tables for small vertex counts
    hopf        coproduct / primitive projection / primitive expansion of a graph

Output is deterministic plain text by default; JSON and CSV sit behind
``--format``.  Exit codes: 0 success, 1 nonzero KP residual, 2 malformed
input, 3 size cap exceeded.  ``--help`` lists the size caps.

Each subcommand imports the graphkp modules it calls, ``series`` only where it
does series arithmetic, and ``json`` only where it reads or writes JSON, so a
run loads and compiles only what it uses: the module itself loads only
``errors`` and ``argparse``.
"""

from __future__ import annotations

import argparse
import sys

from graphkp.errors import (DEFAULT_ORDER, FAMILY, LIMITS, Graph6ParseError, SizeLimitError,
                            check_limit)

EXIT_OK = 0
EXIT_KP_NONZERO = 1
EXIT_PARSE = 2
EXIT_SIZE = 3


def _build_parser() -> argparse.ArgumentParser:
    caps = [f"  {name:<22}{cap:>3}  {what}" for name, (cap, what) in LIMITS.items()]
    parser = argparse.ArgumentParser(
        prog="graphkp",
        description="Exact graph polynomial invariants and KP tau-function checks.",
        epilog="\n".join(["size caps (a larger value exits 3):", *caps]),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, which=True, order=True, fmt=("text", "json")):
        if which:
            p.add_argument("--which", choices=tuple(FAMILY), required=True,
                           help="invariant: " + " or ".join(
                               f"{what} ({name})" for name, (_, _, what) in FAMILY.items()))
        if order:
            p.add_argument("--order", type=int, default=DEFAULT_ORDER, metavar="N",
                           help=f"truncation order, 1..{LIMITS['order'].cap} "
                                f"(default {DEFAULT_ORDER})")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    p = sub.add_parser("invariant", help="polynomial of one graph")
    add_common(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", metavar="STR", help="graph6 value")
    src.add_argument("--input", metavar="FILE", help="line-delimited graph6 file")

    p = sub.add_parser("series", help="generating series")
    add_common(p)
    p.add_argument("--sum", choices=("connected", "all"), default="connected",
                   help="connected-graphs series (log form) or all-graphs series")
    p.add_argument("--rescaled", action="store_true",
                   help="apply the rescaling plan (output in p-variables)")

    p = sub.add_parser("constants", help="rescaling constants table")
    add_common(p, order=False, fmt=("csv", "json"))
    p.add_argument("--max-n", type=int, default=5, metavar="N")

    p = sub.add_parser("rescale", help="rescaled polynomial or series")
    add_common(p)
    p.add_argument("--graph6", metavar="STR",
                   help="rescale this graph's polynomial instead of the series")

    p = sub.add_parser("kp-check", help="KP residuals of a series")
    add_common(p, which=False, fmt=None)
    p.set_defaults(order=None)  # --input takes the file's order
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--series", dest="series_name", choices=(*FAMILY, "S"),
                     help=f"built-in: rescaled {'/'.join(FAMILY)} generating function, or the "
                          "one-part Schur reference S (checked as log of it)")
    src.add_argument("--input", metavar="FILE",
                     help="JSON series in p-variables, checked as-is")

    p = sub.add_parser("tables", help="per-graph polynomial + |Aut| tables")
    p.add_argument("--which", choices=(*FAMILY, "both"), default="both")
    p.add_argument("--max-n", type=int, default=4, metavar="N")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("hopf", help="Hopf-algebra operations on one graph")
    p.add_argument("--graph6", metavar="STR", required=True)
    p.add_argument("--op", choices=("coproduct", "primitive", "expand"),
                   required=True)

    return parser


def _emit_series(s, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(s.to_json_obj(), indent=2))
    else:
        print(s.text())


def _rescale(s, which: str, order: int):
    from graphkp import ensemble, series

    return series.substitute(s, ensemble.make_plan(ensemble.rescale_constants(which, order)))


def _cmd_invariant(args) -> int:
    from graphkp.graphs import parse_graph6
    from graphkp.invariants import invariant

    order = check_limit("order", args.order, low=1)
    if args.graph6 is not None:
        _emit_series(invariant(args.which, parse_graph6(args.graph6), order), args.format)
        return EXIT_OK
    with open(args.input, encoding="ascii") as handle:
        graphs = [(line.strip(), parse_graph6(line))
                  for line in handle if line.strip()]
    if args.format == "json":
        import json

        print(json.dumps([{"graph6": g6,
                           "series": invariant(args.which, g, order).to_json_obj()}
                          for g6, g in graphs], indent=2))
    else:
        for g6, g in graphs:
            print(f"{g6}\t{invariant(args.which, g, order).text()}")
    return EXIT_OK


def _cmd_series(args) -> int:
    from graphkp import ensemble, series

    order = check_limit("order", args.order, low=1)
    full = ensemble.full_series(args.which, order)
    out = series.log(full) if args.sum == "connected" else full
    if args.rescaled:
        out = _rescale(out, args.which, order)
    _emit_series(out, args.format)
    return EXIT_OK


def _cmd_constants(args) -> int:
    from graphkp import ensemble

    check_limit("order", args.max_n, low=1)
    constants = ensemble.rescale_constants(args.which, args.max_n)
    plan = ensemble.make_plan(constants)
    if args.format == "json":
        import json

        print(json.dumps([{"n": n, "i_n": str(i_n), "lambda_n": str(plan[n])}
                          for n, i_n in enumerate(constants, start=1)], indent=2))
    else:
        print("n,i_n,lambda_n")
        for n, i_n in enumerate(constants, start=1):
            print(f"{n},{i_n},{plan[n]}")
    return EXIT_OK


def _cmd_rescale(args) -> int:
    if args.graph6 is None:  # the series: what series --rescaled prints
        args.sum, args.rescaled = "connected", True
        return _cmd_series(args)
    from graphkp.graphs import parse_graph6
    from graphkp.invariants import invariant

    order = check_limit("order", args.order, low=1)
    poly = invariant(args.which, parse_graph6(args.graph6), order)
    _emit_series(_rescale(poly, args.which, order), args.format)
    return EXIT_OK


def _unique_names(pairs):
    # json.load keeps only the last value of a repeated name; refuse it instead
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("malformed series object: repeated object name")
    return obj


def _cmd_kp_check(args) -> int:
    from graphkp import schurkp, series

    if args.input is None:
        order = check_limit("order", DEFAULT_ORDER if args.order is None else args.order, low=1)
    elif args.order is not None:
        raise ValueError("kp-check --input takes the file's order, not --order")
    if args.input is not None:
        import json

        with open(args.input, encoding="ascii") as handle:
            try:
                obj = json.load(handle, object_pairs_hook=_unique_names)
            except RecursionError:
                raise ValueError(f"{args.input}: JSON nested too deeply") from None
        F = series.TruncSeries.from_json_obj(obj)
        if F.var != "p":
            raise ValueError("kp-check --input expects a series in p-variables")
        label = args.input
    elif args.series_name == "S":
        F = series.log(schurkp.target_series(order))
        label = "log of the one-part Schur reference series"
    else:
        from graphkp import ensemble

        which = args.series_name
        F = _rescale(ensemble.connected_series(which, order), which, order)
        label = f"rescaled connected {which} series"
    least = min(drop for _, _, drop in schurkp.KP_EQUATIONS)
    if F.order < least:
        raise ValueError(f"kp-check needs order >= {least} to certify any residual, got {F.order}")
    print(f"checking {label} at order {F.order}")
    status = EXIT_OK
    for name, fn, drop in schurkp.KP_EQUATIONS:
        if F.order < drop:
            print(f"{name}: skipped (needs order >= {drop})")
            continue
        res = fn(F)
        if res:
            print(f"{name}: residual NONZERO through weight {res.order}: {res.text()}")
            status = EXIT_KP_NONZERO
        else:
            print(f"{name}: residual zero through weight {res.order}")
    return status


def _cmd_tables(args) -> int:
    from graphkp.graphs import aut_order, connected_graphs, emit_graph6
    from graphkp.invariants import invariant

    check_limit("tables", args.max_n, low=1)
    names = tuple(FAMILY) if args.which == "both" else (args.which,)
    sep = "," if args.format == "csv" else "\t"
    for which in names:
        print(f"# {which}")
        print(sep.join(("n", "graph6", "polynomial", "aut")))
        for n in range(1, args.max_n + 1):
            for g in sorted(connected_graphs(n), key=lambda h: (h.num_edges, h.edges)):
                poly = invariant(which, g, n).text()
                if args.format == "csv":
                    poly = f'"{poly}"'
                print(sep.join((str(n), emit_graph6(g), poly, str(aut_order(g)))))
    return EXIT_OK


def _cmd_hopf(args) -> int:
    from itertools import chain

    from graphkp.graphs import emit_graph6, parse_graph6
    from graphkp.hopf import coproduct, expand_in_primitives, primitive_projection

    g = parse_graph6(args.graph6)
    if args.op == "coproduct":
        print(coproduct(g).text())
    elif args.op == "primitive":
        print(primitive_projection(g).text())
    else:
        expansion = expand_in_primitives(g)
        label = {h: f"pi({emit_graph6(h)})" for h in set(chain.from_iterable(expansion))}
        for factors in expansion:
            print(" * ".join([label[h] for h in factors]))
    return EXIT_OK


_COMMANDS = {
    "invariant": _cmd_invariant,
    "series": _cmd_series,
    "constants": _cmd_constants,
    "rescale": _cmd_rescale,
    "kp-check": _cmd_kp_check,
    "tables": _cmd_tables,
    "hopf": _cmd_hopf,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Graph6ParseError as err:
        print(f"graphkp: graph6 parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitError as err:
        print(f"graphkp: size cap exceeded: {err}", file=sys.stderr)
        return EXIT_SIZE
    except (ValueError, OSError) as err:
        print(f"graphkp: {err}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
