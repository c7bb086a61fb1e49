"""The size-cap table: every entry's cap is the largest accepted value,
``--help`` and the README print the table, and no cap is checked outside it."""

import ast
import re
from pathlib import Path

import pytest

import graphkp
from graphkp.cli import main
from graphkp.errors import LIMITS, SizeLimitError
from graphkp.graphs import Graph, all_graphs
from graphkp.hopf import expand_in_primitives, primitive_projection
from graphkp.series import TruncSeries
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
