"""The size-cap table and the one rule for a size: every entry's cap is the
largest accepted value, a size that is not an int raises TypeError, each size
relation is a lower bound of the same check, ``--help`` and the README print
the table, and no cap is checked outside it."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphkp
from graphkp.cli import main
from graphkp.ensemble import ensemble_w, full_series, rescale_constants
from graphkp.errors import DEFAULT_ORDER, LIMITS, SizeLimitError, check_limit
from graphkp.graphs import Graph, all_graphs
from graphkp.hopf import expand_in_primitives, primitive_projection
from graphkp.invariants import abel, umbral_from_b, weighted_chromatic
from graphkp.schurkp import (kp1_residual, kp2_residual, schur_combination, schur_polynomial,
                             target_series)
from graphkp.series import MAX_ORDER, TruncSeries, partitions_of
from helpers import complete_graph


#: entry -> a call that takes the entry's value
PROBES = {
    "vertices": Graph,
    "order": TruncSeries,
    "all_graphs": all_graphs,
    "primitive_projection": lambda n: primitive_projection(Graph(n)),
    "expand_in_primitives": lambda n: expand_in_primitives(complete_graph(n)),
}

#: entry -> the CLI arguments that take the entry's value
CLI_PROBES = {
    "tables": lambda n: ["tables", "--which", "W", "--max-n", str(n)],
}

#: values that equal or spell a size but are not ints; bool is an int subclass
NOT_SIZES = {"bool": True, "float": 2.0, "Fraction": Fraction(3), "str": "3"}

#: public entry point -> a call that takes a size there (all accept 2)
SIZE_ENTRY_POINTS = {
    "full_series": lambda v: full_series("W", v),
    "rescale_constants": lambda v: rescale_constants("W", v),
    "ensemble_w k": lambda v: ensemble_w(v, 4),
    "ensemble_w order": lambda v: ensemble_w(1, v),
    "target_series": target_series,
    "schur_combination": lambda v: schur_combination({(1,): 1}, v),
    "weighted_chromatic": lambda v: weighted_chromatic(Graph(2, 1), v),
    "abel": lambda v: abel(Graph(2, 1), v),
    "umbral_from_b": lambda v: umbral_from_b(Graph(1), {Graph(1): 1}, v),
    "homogeneous_part": lambda v: TruncSeries.one(4).homogeneous_part(v),
    "partitions_of": partitions_of,
}

#: a size relation -> (its call, arguments at the boundary, one step beyond)
BOUNDARIES = {
    "ensemble_w k=1": (ensemble_w, (1, 1), (2, 1)),
    "ensemble_w k=4": (ensemble_w, (4, 4), (5, 4)),
    "ensemble_w k=cap": (ensemble_w, (MAX_ORDER, MAX_ORDER), (MAX_ORDER + 1, MAX_ORDER)),
    "schur_polynomial (1)": (schur_polynomial, ((1,), 1), ((1,), 0)),
    "schur_polynomial (3,1,1)": (schur_polynomial, ((3, 1, 1), 5), ((3, 1, 1), 4)),
    "kp1_residual": (lambda n: kp1_residual(TruncSeries.zero(n, "p")), (4,), (3,)),
    "kp2_residual": (lambda n: kp2_residual(TruncSeries.zero(n, "p")), (5,), (4,)),
    "homogeneous_part": (lambda w: TruncSeries.one(3).homogeneous_part(w), (3,), (4,)),
    "partitions_of": (partitions_of, (MAX_ORDER,), (MAX_ORDER + 1,)),
}


@pytest.mark.parametrize("name", LIMITS)
def test_cap_is_the_largest_accepted_value(name, capsys):
    cap = LIMITS[name].cap
    if name in CLI_PROBES:
        assert main(CLI_PROBES[name](cap)) == 0
        capsys.readouterr()
        assert main(CLI_PROBES[name](cap + 1)) == 3
        assert "size cap" in capsys.readouterr().err
    else:
        PROBES[name](cap)
        with pytest.raises(SizeLimitError):
            PROBES[name](cap + 1)


@pytest.mark.parametrize("value", NOT_SIZES.values(), ids=list(NOT_SIZES))
@pytest.mark.parametrize("name", PROBES)
def test_probe_rejects_a_size_that_is_not_an_int(name, value):
    with pytest.raises(TypeError):
        PROBES[name](value)


@pytest.mark.parametrize("value", NOT_SIZES.values(), ids=list(NOT_SIZES))
@pytest.mark.parametrize("name", SIZE_ENTRY_POINTS)
def test_entry_point_rejects_a_size_that_is_not_an_int(name, value):
    SIZE_ENTRY_POINTS[name](2)
    with pytest.raises(TypeError):
        SIZE_ENTRY_POINTS[name](value)


@given(st.data())
def test_check_limit_is_the_rule_for_a_size(data):
    name = data.draw(st.sampled_from(list(LIMITS)))
    cap = LIMITS[name].cap
    low = data.draw(st.integers(0, cap))
    inside = data.draw(st.integers(low, cap))
    assert check_limit(name, inside, low) is inside
    outside = data.draw(st.integers(max_value=low - 1) | st.integers(min_value=cap + 1))
    with pytest.raises(SizeLimitError):
        check_limit(name, outside, low)
    other = data.draw(st.sampled_from([True, False, None, float(inside), Fraction(inside),
                                       str(inside)]))
    with pytest.raises(TypeError):
        check_limit(name, other, low)


def test_rescale_constants_has_the_order_cap():
    assert len(rescale_constants("W", MAX_ORDER)) == MAX_ORDER
    with pytest.raises(SizeLimitError):
        rescale_constants("W", MAX_ORDER + 1)


@pytest.mark.parametrize("name", BOUNDARIES)
def test_size_relation_holds_at_its_boundary(name):
    fn, at, beyond = BOUNDARIES[name]
    fn(*at)
    with pytest.raises(ValueError):
        fn(*beyond)


def test_partitions_of_has_the_order_cap():
    # the key table has primes only through the cap, so the size rule must stop
    # a heavier weight before the table is asked for it
    with pytest.raises(SizeLimitError):
        partitions_of(MAX_ORDER + 1)


def test_a_lower_bound_above_the_cap_names_both():
    cap = MAX_ORDER
    with pytest.raises(SizeLimitError, match=f"at least {cap + 4}, above its cap {cap}, got {cap}$"):
        schur_polynomial((cap + 4,), cap)
    with pytest.raises(SizeLimitError, match=rf"must be in \[4, {cap}\], got 3$"):
        check_limit("order", 3, low=4)


def test_order_help_reads_the_table(capsys, monkeypatch):
    """Each --order help line: 1..the order cap (default graphkp.DEFAULT_ORDER)."""
    monkeypatch.setenv("COLUMNS", "80")
    lines = {}
    for command in ("invariant", "series", "constants", "rescale", "kp-check", "tables", "hopf"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        lines[command] = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()
                          if line.lstrip().startswith("--order")]
    expected = f"--order N truncation order, 1..{MAX_ORDER} (default {DEFAULT_ORDER})"
    assert {command: found for command, found in lines.items() if found} == {
        command: [expected] for command in ("invariant", "series", "rescale", "kp-check")}


def test_help_lists_the_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    rows = re.findall(r"^  (\S+) +(\d+)  (.+)$", capsys.readouterr().out.split("size caps")[1], re.M)
    assert rows == [(name, str(cap), what) for name, (cap, what) in LIMITS.items()]


def test_readme_lists_the_table():
    readme = Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("### Size caps")[1].split("\n#")[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d+) \|", section, re.M)
    assert rows == [(name, str(cap)) for name, (cap, _) in LIMITS.items()]


def _size_limit_raises():
    """(module, enclosing function) of every ``raise SizeLimitError`` in the package."""
    for path in sorted(Path(graphkp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(exc, "id", getattr(exc, "attr", None)) != "SizeLimitError":
                continue
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            yield path.name, getattr(scope, "name", "<module>")


def test_every_cap_goes_through_the_table():
    # the one exception is a format limit, not a size: graph6 long form
    assert sorted(_size_limit_raises()) == [("errors.py", "check_limit"),
                                            ("graphs.py", "parse_graph6")]
