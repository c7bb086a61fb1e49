"""Self-tests of the benchmark's generators and oracles.

    python3 -m pytest -q perfbench/test_oracles.py

Each oracle must accept graphkp's answer and reject a deliberately wrong
one: a perturbed coefficient, a dropped graph term, a one-part candidate
labelled as a negative control, a nonzero KP verdict.
"""

import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import gen
import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphkp import schurkp, series  # noqa: E402
from graphkp.graphs import parse_graph6  # noqa: E402
from graphkp.hopf import primitive_projection  # noqa: E402
from graphkp.invariants import INVARIANTS  # noqa: E402

SMALL_CORPUS = ["Bw", "C~", "DQo", "E?zW", "F?Bvw"]  # triangle, K4 and sparse ones


def cli_corpus_text(which: str, graph6s) -> str:
    """What `invariant --which W|A --input FILE` prints for these graphs."""
    return "".join(f"{g6}\t{INVARIANTS[which](parse_graph6(g6), 7).text()}\n"
                   for g6 in graph6s)


def perturb_first_coefficient(line: str) -> str:
    head, _, body = line.partition("\t")
    poly = oracles.parse_poly(body)
    mono = next(iter(poly))
    poly[mono] += 1
    return f"{head}\t{series.TruncSeries(7, 'q', poly).text()}"


def test_parse_poly_reads_graphkp_text():
    s = series.TruncSeries(7, "q", {((1, 3),): 1, ((1, 1), (2, 1)): Fraction(-3, 2),
                                    ((3, 1),): 2, (): -1})
    assert oracles.parse_poly(s.text()) == s.terms
    assert oracles.parse_poly("0") == {}


def test_graph6_round_trip_matches_graphkp():
    for g6 in gen.corpus_graphs(3) + gen.hopf_graphs(3):
        n, edges = gen.decode_graph6(g6)
        g = parse_graph6(g6)
        assert (n, edges) == (g.n, sorted(g.edge_list()))
        assert gen.encode_graph6(n, edges) == g6


def test_generators_are_seeded():
    assert gen.corpus_graphs(5) == gen.corpus_graphs(5) != gen.corpus_graphs(6)
    assert gen.hopf_graphs(5) == gen.hopf_graphs(6)  # fixed on purpose
    assert [c[0] for c in gen.tau_candidates(5)] == [c[0] for c in gen.tau_candidates(5)]
    shape = [(n, len(edges)) for n, edges in map(gen.decode_graph6, gen.corpus_graphs(5))]
    assert shape == gen.CORPUS_SHAPE
    assert [len(gen.decode_graph6(g6)[1]) for g6 in gen.hopf_graphs(5)] == list(gen.HOPF_EDGES)
    assert max(m for _, m in shape) == 17 and len(shape) == 25


def test_two_row_schur_matches_jacobi_trudi():
    for a, b in gen.TWO_ROW:
        want = schurkp.schur_jacobi_trudi((a, b), a + b)
        assert gen.schur_two_row(a, b) == want.terms


def test_chromatic_symmetric_counts_colourings():
    # X_G(1, ..., 1) with k ones is the chromatic polynomial at k.
    for g6 in SMALL_CORPUS:
        n, edges = gen.decode_graph6(g6)
        for k in range(4):
            brute = sum(all(c[u] != c[v] for u, v in edges)
                        for c in product(range(k), repeat=n))
            assert oracles.chromatic_symmetric(n, edges, [1] * k) == brute


def test_corpus_oracle_rejects_a_perturbed_coefficient():
    oracle = oracles.CorpusOracle(SMALL_CORPUS, seed=0)
    for which in ("W", "A"):
        text = cli_corpus_text(which, SMALL_CORPUS)
        assert oracle.check(which, text) is None
        lines = text.splitlines()
        for index in range(len(lines)):
            wrong = lines[:index] + [perturb_first_coefficient(lines[index])] + lines[index + 1:]
            assert oracle.check(which, "\n".join(wrong)) is not None
        assert oracle.check(which, "\n".join(lines[:-1])) is not None
    # W and A are different polynomials: each oracle rejects the other's text.
    assert oracle.check("W", cli_corpus_text("A", SMALL_CORPUS)) is not None


def test_hopf_oracle_rejects_a_dropped_term():
    graph6s = gen.hopf_graphs(0)[:2] + ["DQo"]
    oracle = oracles.HopfOracle(graph6s)
    for g6 in graph6s:
        text = primitive_projection(parse_graph6(g6)).text()
        assert oracle.check(g6, text) is None
        terms = text.split(" + ")
        for index in range(len(terms)):
            assert oracle.check(g6, " + ".join(terms[:index] + terms[index + 1:])) is not None
        coeff, _, h6 = terms[0].partition(" ")
        bumped = " + ".join([f"{Fraction(coeff) + 1} {h6}"] + terms[1:])
        assert oracle.check(g6, bumped) is not None


def test_tau_oracle_rejects_a_one_part_candidate_labelled_negative():
    terms, expected, is_tau = gen.tau_candidates(0)[0]
    assert is_tau
    tau = series.TruncSeries(gen.TAU_ORDER, "p", terms)
    F = series.log(tau)
    nonzero = bool(schurkp.kp1_residual(F) or schurkp.kp2_residual(F))
    expansion = schurkp.schur_expand(tau)
    assert oracles.check_certificate(True, nonzero, expansion, expected) is None
    assert oracles.check_certificate(False, nonzero, expansion, expected) is not None
    wrong = dict(expansion)
    wrong[(1,)] += 1
    assert oracles.check_certificate(True, nonzero, wrong, expected) is not None


def test_tau_oracle_accepts_negative_controls():
    for terms, expected, is_tau in gen.tau_candidates(0)[:6]:
        F = series.log(series.TruncSeries(gen.TAU_ORDER, "p", terms))
        nonzero = bool(schurkp.kp1_residual(F) or schurkp.kp2_residual(F))
        assert nonzero is not is_tau


def test_kp_report_oracle_rejects_a_nonzero_residual():
    good = ("checking rescaled connected W series at order 7\n"
            "kp1: residual zero through weight 3\nkp2: residual zero through weight 2\n")
    assert oracles.check_kp_report(good, 7) is None
    bad = good.replace("kp2: residual zero through weight 2",
                       "kp2: residual NONZERO through weight 2: p1")
    assert oracles.check_kp_report(bad, 7) is not None
    assert oracles.check_kp_report(good.replace("weight 3", "weight 2"), 7) is not None


def test_rescaled_series_oracle_rejects_a_perturbed_coefficient():
    order = 4
    target = gen.rescaled_all_target(order)
    obj = series.TruncSeries(order, "p", target).to_json_obj()
    assert oracles.check_rescaled_all(json.dumps(obj), target, order) is None
    obj["terms"][2]["numerator"] += 1
    assert oracles.check_rescaled_all(json.dumps(obj), target, order) is not None
