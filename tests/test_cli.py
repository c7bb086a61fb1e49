"""CLI behavior: golden outputs, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graphkp
from graphkp.cli import main
from graphkp.errors import LIMITS
from graphkp.series import MAX_ORDER
from helpers import GRAPH6_TEXT

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "invariant_w_triangle": ["invariant", "--which", "W", "--graph6", "Bw"],
    "invariant_a_k4_json": ["invariant", "--which", "A", "--graph6", "C~",
                            "--order", "4", "--format", "json"],
    "series_w_connected_order4": ["series", "--which", "W", "--order", "4"],
    "series_a_all_order4": ["series", "--which", "A", "--order", "4", "--sum", "all"],
    "series_w_rescaled_order4": ["series", "--which", "W", "--order", "4", "--rescaled"],
    "constants_w_max5": ["constants", "--which", "W", "--max-n", "5"],
    "constants_a_max5": ["constants", "--which", "A", "--max-n", "5"],
    "rescale_w_k4": ["rescale", "--which", "W", "--graph6", "C~", "--order", "4"],
    "rescale_a_series_order4": ["rescale", "--which", "A", "--order", "4"],
    "kp_check_s_order5": ["kp-check", "--series", "S", "--order", "5"],
    "tables_max4": ["tables", "--max-n", "4"],
    "hopf_coproduct_edge": ["hopf", "--op", "coproduct", "--graph6", "A_"],
    "hopf_primitive_p3": ["hopf", "--op", "primitive", "--graph6", "Bo"],
    "hopf_expand_triangle": ["hopf", "--op", "expand", "--graph6", "Bw"],
}


@pytest.mark.parametrize("name", CASES, ids=str)
def test_golden_output(name, capsys):
    assert main(CASES[name]) == 0
    captured = capsys.readouterr().out
    assert captured == (GOLDEN / f"{name}.txt").read_text()


def test_output_is_deterministic(capsys):
    argv = CASES["series_w_connected_order4"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_triangle_invariant_line(capsys):
    main(["invariant", "--which", "W", "--graph6", "Bw"])
    assert capsys.readouterr().out == "q1^3 + 3 q1 q2 + 2 q3\n"


def test_constants_rows(capsys):
    main(["constants", "--which", "A", "--max-n", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,i_n,lambda_n"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "2", "18", "512"]


def test_corpus_file_invariant(tmp_path, capsys):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("A_\nBw\n")
    assert main(["invariant", "--which", "W", "--input", str(corpus)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["A_\tq1^2 + q2", "Bw\tq1^3 + 3 q1 q2 + 2 q3"]


class TestExitCodes:
    def test_malformed_graph6_exits_2(self, capsys):
        assert main(["invariant", "--which", "W", "--graph6", "B@@"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_size_cap_exits_3(self, capsys):
        assert main(["invariant", "--which", "W",
                     "--graph6", chr(63 + 13)]) == 3
        capsys.readouterr()

    def test_order_8_needs_no_flag(self, capsys):
        assert main(["series", "--which", "W", "--order", "8"]) == 0
        assert capsys.readouterr().err == ""

    def test_order_above_cap_exits_3(self, capsys):
        assert main(["kp-check", "--series", "W", "--order", str(MAX_ORDER + 1)]) == 3
        assert main(["constants", "--which", "A", "--max-n", str(MAX_ORDER + 1)]) == 3
        assert "size cap" in capsys.readouterr().err

    def test_order_out_of_range_exits_3(self, capsys):
        assert main(["series", "--which", "W", "--order", "0"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--allow-order-8"]])
    def test_removed_knobs_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kp-check", "--series", "W", "--order", "5", *flag])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("term", [
        {"exponents": {"1": 1}, "numerator": 1, "denominator": 0},
        {"exponents": {"1": 1.5}, "numerator": 1.5, "denominator": 1},
    ], ids=["zero_denominator", "float_values"])
    def test_malformed_series_json_exits_2(self, term, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"var": "p", "order": 7, "terms": [term]}))
        assert main(["kp-check", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "malformed series object" in captured.err
        assert "NONZERO" not in captured.out

    def test_nonzero_kp_residual_exits_1(self, tmp_path, capsys):
        bad = {"var": "p", "order": 7,
               "terms": [{"exponents": {"2": 2}, "numerator": 1, "denominator": 1}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["kp-check", "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert "NONZERO" in out

    @pytest.mark.parametrize("exponents", ['{"1": 1, "01": 1}', '{"1": 1, "1": 1}'],
                             ids=["aliased_key", "repeated_key"])
    def test_two_keys_for_one_variable_exit_2(self, exponents, tmp_path, capsys):
        # {"1": 2} is p1^2, whose kp1 residual is nonzero; two spellings of
        # the exponent of p1 must not load as p1, whose residual is zero
        doc = '{"var": "p", "order": 7, "terms": [{"exponents": %s, "numerator": 1, ' \
              '"denominator": 1}]}'
        path = tmp_path / "series.json"
        path.write_text(doc % '{"1": 2}')
        assert main(["kp-check", "--input", str(path)]) == 1
        assert "kp1: residual NONZERO through weight 3: 2\n" in capsys.readouterr().out
        path.write_text(doc % exponents)
        assert main(["kp-check", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed series object" in captured.err

    def test_kp_check_json_round_trip_ok(self, tmp_path, capsys):
        from graphkp import series
        from graphkp.schurkp import target_series
        good = series.log(target_series(6)).to_json_obj()
        path = tmp_path / "good.json"
        path.write_text(json.dumps(good))
        assert main(["kp-check", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kp1: residual zero through weight 2" in out
        assert "kp2: residual zero through weight 1" in out

    def test_kp_check_drops_a_term_of_huge_exponent(self, tmp_path, capsys):
        # the term's weight is above the order, so it is dropped unexpanded
        from graphkp import series
        from graphkp.schurkp import target_series
        good = series.log(target_series(6)).to_json_obj()
        path = tmp_path / "series.json"
        path.write_text(json.dumps(good))
        assert main(["kp-check", "--input", str(path)]) == 0
        want = capsys.readouterr().out
        good["terms"].append({"exponents": {"1": 2 ** 64}, "numerator": 1, "denominator": 1})
        path.write_text(json.dumps(good))
        assert main(["kp-check", "--input", str(path)]) == 0
        assert capsys.readouterr().out == want

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["kp-check", "--input", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_kp_check_series_below_order_4_exits_2(self, capsys):
        assert main(["kp-check", "--series", "S", "--order", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs order >= 4" in captured.err

    def test_kp_check_input_below_order_4_exits_2(self, tmp_path, capsys):
        from graphkp import series
        from graphkp.schurkp import target_series
        path = tmp_path / "order3.json"
        path.write_text(json.dumps(series.log(target_series(3)).to_json_obj()))
        assert main(["kp-check", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs order >= 4" in captured.err

    @pytest.mark.parametrize("order, code", [(MAX_ORDER + 1, 3), (-1, 2)])
    def test_kp_check_input_order_out_of_range(self, order, code, tmp_path, capsys):
        # an order above the cap is a size cap; a negative one is malformed
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"var": "p", "order": order, "terms": []}))
        assert main(["kp-check", "--input", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("size cap" in captured.err) == (code == 3)

    @pytest.mark.parametrize("argv", [["--input", "F", "--order", str(MAX_ORDER + 8)],
                                      ["--order", "5", "--input", "F"]],
                             ids=["above_cap", "before_input"])
    def test_kp_check_input_rejects_order(self, argv, tmp_path, capsys):
        # the file fixes the order, so an explicit --order is malformed
        from graphkp import series
        from graphkp.schurkp import target_series
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series.log(target_series(6)).to_json_obj()))
        argv = [str(path) if arg == "F" else arg for arg in argv]
        assert main(["kp-check", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--order" in captured.err

    def test_kp_check_series_order_defaults_to_7(self, capsys):
        assert main(["kp-check", "--series", "S"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("checking log of the one-part Schur reference series at order 7\n")
        assert main(["kp-check", "--series", "S", "--order", "7"]) == 0
        assert capsys.readouterr().out == out

    def test_missing_input_file_exits_2(self, capsys):
        assert main(["kp-check", "--input", "/nonexistent.json"]) == 2
        capsys.readouterr()


@pytest.mark.parametrize("which", ["W", "A"])
def test_invariant_of_k12_at_order_12(which, capsys):
    assert main(["invariant", "--which", which, "--order", "12",
                 "--graph6", "K~~~~~~~~~~~"]) == 0
    top = {"W": "39916800 q12", "A": f"{12 ** 11} q12"}[which]
    assert capsys.readouterr().out.rstrip("\n").endswith(top)


@settings(max_examples=200, deadline=None)
@given(text=GRAPH6_TEXT, which=st.sampled_from(["W", "A"]))
def test_invariant_graph6_exit_contract(text, which):
    """Any --graph6 text exits 0, 2 or 3 without a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["invariant", "--which", which, f"--graph6={text}"])
    assert rc in (0, 2, 3)
    assert (rc == 0) == (err.getvalue() == "")


def test_primitive_of_empty_graph_is_zero(capsys):
    assert main(["hopf", "--op", "primitive", "--graph6", "?"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("0\n", "")


@settings(max_examples=150, deadline=None)
@given(text=GRAPH6_TEXT, op=st.sampled_from(["coproduct", "primitive", "expand"]))
def test_hopf_graph6_exit_contract(text, op):
    """Any --graph6 text exits 0, 2 or 3 without a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["hopf", "--op", op, f"--graph6={text}"])
    assert rc in (0, 2, 3)
    assert (rc == 0) == (err.getvalue() == "")


#: Standard-library modules ``import graphkp.cli`` may load beyond what the
#: interpreter has at start-up.  Every CLI run pays for each module on this
#: list in start-up time and memory, so growing it is a deliberate choice.
CLI_IMPORT_ALLOWLIST = {"__future__", "argparse", "gettext", "json", "_json",
                        "fractions", "decimal", "_decimal", "numbers"}


def test_cli_import_footprint():
    code = ("import sys; before = set(sys.modules); import graphkp.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(graphkp.__file__).parents[1])}
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "graphkp.cli" in added
    stray = [m for m in added if m not in CLI_IMPORT_ALLOWLIST
             and m.partition(".")[0] not in ("graphkp", "json")]
    assert stray == []


def test_kp_check_builtins_pass(capsys):
    assert main(["kp-check", "--series", "S", "--order", "7"]) == 0
    assert main(["kp-check", "--series", "W", "--order", "5"]) == 0
    assert main(["kp-check", "--series", "A", "--order", "5"]) == 0
    capsys.readouterr()


def test_kp_check_reference_at_order_12(capsys):
    assert main(["kp-check", "--series", "S", "--order", "12"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "kp1: residual zero through weight 8", "kp2: residual zero through weight 7"]


def _not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


def _numeric_argv(prefix: list, option: str, ints):
    values = ints.map(str) | st.text(max_size=6).filter(_not_an_int)
    return values.map(lambda v: [*prefix, f"{option}={v}"])


# series and rescale at orders 13..MAX_ORDER are valid but take 0.05-0.8 s,
# beyond the deadline; test_limits and TestExitCodes probe the cap itself
_ORDERS = st.integers(-3, 12) | st.integers(MAX_ORDER + 1, MAX_ORDER + 8)

_NUMERIC_ARGV = st.one_of(
    _numeric_argv(["series", "--which", "W"], "--order", _ORDERS),
    _numeric_argv(["constants", "--which", "A"], "--max-n", st.integers(-3, MAX_ORDER + 8)),
    _numeric_argv(["rescale", "--which", "A"], "--order", _ORDERS),
    # tables at its cap is valid but takes about 0.3 s, beyond the deadline
    _numeric_argv(["tables"], "--max-n",
                  st.integers(-3, 20).filter(lambda n: n != LIMITS["tables"].cap)),
)


@settings(max_examples=200)
@given(argv=_NUMERIC_ARGV)
def test_numeric_options_exit_contract(argv):
    """Any value of a numeric option exits 0, 2 or 3 without a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a value that is not an int
            rc = exc.code
    assert rc in (0, 2, 3)
    assert (rc == 0) == (err.getvalue() == "")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_SMALL_INT = st.integers(-2, 14)
_TERM = st.fixed_dictionaries({
    "exponents": st.dictionaries(st.sampled_from(["1", "2", "3", "5", "01", "0", "x", "1.0"]),
                                 _SMALL_INT | _JSON, max_size=3) | _JSON,
    "numerator": _SMALL_INT | _JSON,
    "denominator": _SMALL_INT | _JSON,
})
_SERIES_LIKE = st.fixed_dictionaries({
    "var": st.sampled_from(["p", "q"]) | _JSON,
    "order": _SMALL_INT | _JSON,
    "terms": st.lists(_TERM | _JSON, max_size=4) | _JSON,
})
# well-formed p-series, so that exits 0 and 1 are reached as well as 2
_VALID = st.fixed_dictionaries({
    "var": st.just("p"),
    "order": st.integers(0, MAX_ORDER + 2),
    "terms": st.lists(st.fixed_dictionaries({
        "exponents": st.dictionaries(st.sampled_from(["1", "2", "3", "4", "5"]),
                                     st.integers(0, 3), max_size=3),
        "numerator": st.integers(-3, 3),
        "denominator": st.integers(1, 3),
    }), max_size=4),
})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_VALID | _SERIES_LIKE | _JSON)
def test_kp_check_input_exit_contract(obj, tmp_path):
    """Any JSON document exits 0, 1 or 2 without a traceback, exit 3 is
    allowed only when its order is an integer above the cap, and exit 1
    comes only with a NONZERO residual line."""
    path = tmp_path / "series.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["kp-check", "--input", str(path)])
    over_cap = isinstance(obj, dict) and type(obj.get("order")) is int \
        and obj["order"] > MAX_ORDER
    assert rc in ((2, 3) if over_cap else (0, 1, 2))
    assert (rc == 1) == ("NONZERO" in out.getvalue())
