"""Child process of the traced run; prints one JSON object on stdout.

    probe.py main ARGS...              time graphkp.cli.main(ARGS) in-process,
                                       stdout captured
    probe.py kp-check W|A ORDER        replay `kp-check --series W|A --order N`
    probe.py invariant W|A FILE ORDER  replay `invariant --which W|A --input FILE`
    probe.py hopf GRAPH6               replay `hopf --op primitive --graph6 G`

A replay makes the same public calls as the CLI command, in the same order,
in a fresh interpreter, so the package's caches start cold exactly as they
do for a user.  It records one span per call and prints the spans, the text
the command would have printed, and work counts read off the results.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from time import perf_counter

from spans import Spans


def coeff_bits(terms) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in terms.values()), default=0)


def replay_kp_check(rec: Spans, which: str, order: int):
    from graphkp import ensemble, schurkp, series

    piece = {"W": ensemble.ensemble_w, "A": ensemble.ensemble_a}[which]
    tag = which.lower()
    with rec.span("replay"):
        full = series.TruncSeries.one(order, "q")
        for k in range(1, order + 1):
            full = full + rec.call(f"ensemble.piece_{tag}.k{k}", piece, k, order)
        connected = rec.call("series.log", series.log, full)
        with rec.span("ensemble.plan"):
            plan = ensemble.make_plan(ensemble.rescale_constants(which, order))
        F = rec.call("series.substitute", series.substitute, connected, plan)
        lines = [f"checking rescaled connected {which} series at order {F.order}"]
        for name, fn in (("kp1", schurkp.kp1_residual), ("kp2", schurkp.kp2_residual)):
            res = rec.call(f"schurkp.{name}_residual", fn, F)
            verdict = "NONZERO" if res else "zero"
            lines.append(f"{name}: residual {verdict} through weight {res.order}")
    counts = {"ensemble.full.terms": len(full.terms),
              "series.log.terms": len(connected.terms),
              "series.coeff_bits.max": coeff_bits(connected.terms)}
    return "\n".join(lines) + "\n", counts


def replay_invariant(rec: Spans, which: str, path: str, order: int):
    from graphkp.graphs import parse_graph6
    from graphkp.invariants import INVARIANTS

    fn = INVARIANTS[which]
    span = f"invariants.{which.lower()}"
    terms = 0
    out = []
    with rec.span("replay"):
        with open(path, encoding="ascii") as handle:
            graphs = [(line.strip(), rec.call("graphs.parse_graph6", parse_graph6, line))
                      for line in handle if line.strip()]
        for g6, g in graphs:
            poly = rec.call(span, fn, g, order)
            terms += len(poly.terms)
            out.append(f"{g6}\t{rec.call('series.text', poly.text)}\n")
    return "".join(out), {"invariants.terms": terms}


def replay_hopf(rec: Spans, g6: str):
    from graphkp.graphs import parse_graph6
    from graphkp.hopf import primitive_projection

    with rec.span("replay"):
        g = rec.call("graphs.parse_graph6", parse_graph6, g6)
        proj = rec.call("hopf.primitive_projection", primitive_projection, g)
        text = proj.text() + "\n"
    return text, {"hopf.primitive_projection.terms": len(proj.terms)}


def time_main(argv: list[str]) -> dict:
    import graphkp.cli

    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        rc = graphkp.cli.main(argv)
    return {"rc": rc, "main_s": perf_counter() - start, "stdout": buf.getvalue()}


def main(argv: list[str]) -> None:
    # Both modes load the whole CLI first, so the replay, like cli.main,
    # starts with every module imported and its span times hold no imports.
    import graphkp.cli  # noqa: F401

    mode, args = argv[0], argv[1:]
    if mode == "main":
        result = time_main(args)
    else:
        rec = Spans()
        if mode == "kp-check":
            stdout, counts = replay_kp_check(rec, args[0], int(args[1]))
        elif mode == "invariant":
            stdout, counts = replay_invariant(rec, args[0], args[1], int(args[2]))
        elif mode == "hopf":
            stdout, counts = replay_hopf(rec, args[0])
        else:
            raise SystemExit(f"probe.py: unknown mode {mode!r}")
        result = {"rc": 0, "stdout": stdout, "counts": counts, "spans": rec.spans}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
