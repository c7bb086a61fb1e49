"""graphkp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is loaded from ``src/`` next to this
directory, so nothing needs installing.  Each run makes its inputs from the
seed, measures for S seconds in a closed loop (one operation at a time, the
next starting when the previous one ends), checks every output against the
independent oracles in ``oracles.py``, and prints one JSON object as its last
line of stdout.  The lines above it are a readable summary.

Workloads (see README.md for why each exists):

    kp-order7   graphkp kp-check --series W|A --order 7, alternating
    corpus-7    graphkp invariant --which W|A --input FILE on a seeded corpus
    hopf-7      graphkp hopf --op primitive --graph6 G on seeded graphs
    tau-order8  in-process certification of seeded candidate tau-functions

Every CLI operation is a fresh interpreter running ``graphkp.cli`` as
``__main__``, as ``python -m graphkp.cli`` does, so it costs what a user
pays; a small wrapper (``report_peak``) adds its peak resident size.  With ``--trace 0`` the JSON holds the end-to-end metrics;
with ``--trace 1`` each operation is instead run twice more in fresh
processes, once timing ``graphkp.cli.main`` in-process and once replaying
its public calls under spans (``probe.py``), and the JSON holds the
per-layer metrics.  The spans are written to ``perfbench/out/`` at the end.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import statistics
import signal
import sys
from pathlib import Path
from time import perf_counter

import gen
import oracles
from probe import coeff_bits
from spans import Spans, self_times
from speed import REF_SECONDS, Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PROBE = Path(__file__).resolve().parent / "probe.py"
ORDER = 7
SETUP_REPEATS = 9

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

RSS_MARK = "perfbench-vmhwm-kb"


def report_peak(body: str) -> str:
    """Source for ``python -c`` that runs ``body`` and then writes the
    process's own peak resident size (VmHWM, kB) to stderr.  ``wait4``'s
    ru_maxrss would not do: a child started by posix_spawn carries the
    spawning process's high-water mark across exec, so every child would
    read at least the driver's peak."""
    return (f"import sys\ntry:\n    {body}\nfinally:\n"
            "    hwm = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            f"    print('{RSS_MARK}', *hwm, file=sys.stderr)\n")


#: ``python -m graphkp.cli ARGS``, reporting its peak resident size.
CLI = report_peak("import runpy; runpy.run_module('graphkp.cli', run_name='__main__', "
                  "alter_sys=True)")
#: A bare interpreter under the same wrapper: the floor of ``peak_rss_mb``.
CONTROL = report_peak("pass")


def own_peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


#: Spans whose longest single call is reported as ``<name>.max_graph_s``.
PER_GRAPH_SPANS = ("invariants.w", "invariants.a", "hopf.primitive_projection")


# -- child processes -----------------------------------------------------------


class Child:
    """One finished child process: wall time, exit code, output, and its
    peak resident size in kB if it ran under ``report_peak``."""

    def __init__(self, wall, rc, stdout, stderr):
        self.wall, self.rc, self.stdout = wall, rc, stdout
        lines = stderr.splitlines(keepends=True)
        peaks = [line.split()[1:] for line in lines if line.startswith(RSS_MARK)]
        self.rss_kb = int(peaks[-1][0]) if peaks and peaks[-1] else None
        self.stderr = "".join(line for line in lines if not line.startswith(RSS_MARK))

    def problem(self) -> str | None:
        if self.rc != 0:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {self.rc}: {tail[0]}"
        if "Traceback" in self.stderr:
            return "traceback on stderr"
        return None


class Runner:
    """Spawns Python children one at a time and keeps the run's tallies."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        self.env = env
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failures: list[str] = []

    def python(self, *args: str) -> Child:
        out, err = OUT / "child.stdout", OUT / "child.stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        try:
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = perf_counter() - start
        child = Child(wall, os.waitstatus_to_exitcode(status), out.read_text(), err.read_text())
        if child.rss_kb is not None:
            self.peak_rss_kb = max(self.peak_rss_kb, child.rss_kb)
        return child

    def cli(self, *args: str) -> Child:
        """``python -m graphkp.cli ARGS``, counting its peak resident size."""
        return self.python("-c", CLI, *args)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")
            print(f"FAIL {what}: {problem}", file=sys.stderr)


# -- workloads ------------------------------------------------------------------


class CliWorkload:
    """A workload whose operations are graphkp CLI invocations.

    Subclasses define ``kinds`` (main kind first), ``ops()`` yielding
    ``(kind, label, cli_args, replay_args)``, ``check(label, stdout)`` and
    optionally ``final_checks()`` and ``static_layers``."""

    kinds: tuple[str, str]
    static_layers: dict = {}

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.seed = seed

    def final_checks(self) -> None:
        pass

    def run(self, op) -> float:
        _, label, cli_args, _ = op
        child = self.runner.cli(*cli_args)
        self.runner.record(label, child.problem() or self.check(label, child.stdout))
        return child.wall

    def trace(self, op) -> tuple[dict, list]:
        _, label, cli_args, replay_args = op
        plain = self.runner.python(str(PROBE), "main", *cli_args)
        traced = self.runner.python(str(PROBE), *replay_args)
        values, spans, problem = {}, [], plain.problem() or traced.problem()
        if problem is None:
            timed, replay = json.loads(plain.stdout), json.loads(traced.stdout)
            problem = (f"exit code {timed['rc']}" if timed["rc"] else None) \
                or self.check(label, timed["stdout"]) \
                or self.check(label + " (replay)", replay["stdout"])
            spans = replay["spans"]
            values = layer_values(spans)
            values.update(replay["counts"])
            values["cli.main.s"] = timed["main_s"]
            replay_s = next(end - start for name, start, end, _ in spans if name == "replay")
            values["trace.overhead_s"] = replay_s - timed["main_s"]
        self.runner.record(label + " (traced)", problem)
        return values, spans


class KpOrder7(CliWorkload):
    kinds = ("W", "A")
    describe = {"W": "kp-check --series W --order 7", "A": "kp-check --series A --order 7"}

    def ops(self):
        first = self.seed % 2
        for which in itertools.cycle(self.kinds[first:] + self.kinds[:first]):
            yield (which, f"kp-check {which}",
                   ["kp-check", "--series", which, "--order", str(ORDER)],
                   ["kp-check", which, str(ORDER)])

    def check(self, label, stdout):
        return oracles.check_kp_report(stdout, ORDER)

    def final_checks(self):
        """Untimed: the rescaled all-graphs W series must be the target."""
        child = self.runner.cli("series", "--which", "W", "--sum", "all", "--rescaled",
                                "--order", str(ORDER), "--format", "json")
        self.runner.record("series W rescaled", child.problem() or oracles.check_rescaled_all(
            child.stdout, gen.rescaled_all_target(ORDER), ORDER))


class Corpus7(CliWorkload):
    kinds = ("W", "A")
    describe = {"W": "invariant --which W --input corpus",
                "A": "invariant --which A --input corpus"}

    def __init__(self, runner, seed):
        super().__init__(runner, seed)
        self.graph6s = gen.corpus_graphs(seed)
        self.path = OUT / f"corpus-{seed}.g6"
        self.path.write_text("".join(g6 + "\n" for g6 in self.graph6s))
        self.oracle = oracles.CorpusOracle(self.graph6s, seed)
        self.items = len(self.graph6s)
        self.static_layers = {"corpus.edge_subsets": sum(2 ** m for _, m in gen.CORPUS_SHAPE)}

    def ops(self):
        first = self.seed % 2
        for which in itertools.cycle(self.kinds[first:] + self.kinds[:first]):
            yield (which, f"invariant {which}",
                   ["invariant", "--which", which, "--input", str(self.path)],
                   ["invariant", which, str(self.path), str(ORDER)])

    def check(self, label, stdout):
        return self.oracle.check(label.split()[1], stdout)


class Hopf7(CliWorkload):
    kinds = ("dense", "sparse")
    describe = {"dense": "hopf --op primitive, denser half",
                "sparse": "hopf --op primitive, sparser half"}

    def __init__(self, runner, seed):
        super().__init__(runner, seed)
        self.graph6s = gen.hopf_graphs(seed)
        self.oracle = oracles.HopfOracle(self.graph6s)

    def ops(self):
        """Sparse and dense graphs alternate; the seed orders each half."""
        rng = random.Random(f"hopf-7/{self.seed}")
        half = len(self.graph6s) // 2
        sparse, dense = self.graph6s[:half], self.graph6s[half:]
        rng.shuffle(sparse)
        rng.shuffle(dense)
        for g6, kind in itertools.cycle([(g, k) for pair in zip(sparse, dense)
                                         for g, k in zip(pair, ("sparse", "dense"))]):
            yield (kind, f"hopf {g6}", ["hopf", "--op", "primitive", "--graph6", g6],
                   ["hopf", g6])

    def check(self, label, stdout):
        return self.oracle.check(label.split()[1], stdout)


class TauOrder8:
    """In-process: each operation certifies one candidate series tau."""

    kinds = ("positive", "negative")
    describe = {"positive": "certify 1 + sum c_n h_n (a tau-function)",
                "negative": "certify a candidate with an injected two-row s_lambda"}
    static_layers: dict = {}

    def __init__(self, runner: Runner, seed: int):
        sys.path.insert(0, str(SRC))
        from graphkp import schurkp, series

        self.runner = runner
        self.series, self.schurkp = series, schurkp
        self.candidates = gen.tau_candidates(seed)
        # Untimed warm-up: fills the one-part Schur cache schur_expand uses.
        self.run((None, 0))

    def ops(self):
        for index in itertools.cycle(range(len(self.candidates))):
            yield ("positive" if self.candidates[index][2] else "negative", index)

    def certify(self, index: int, rec: Spans | None):
        series, schurkp = self.series, self.schurkp
        terms, expected, is_tau = self.candidates[index]
        call = rec.call if rec else (lambda name, fn, *args: fn(*args))
        tau = series.TruncSeries(gen.TAU_ORDER, "p", terms)
        F = call("series.log", series.log, tau)
        r1 = call("schurkp.kp1_residual", schurkp.kp1_residual, F)
        r2 = call("schurkp.kp2_residual", schurkp.kp2_residual, F)
        expansion = call("schurkp.schur_expand", schurkp.schur_expand, tau)
        self.runner.record(f"tau candidate {index}" + (" (traced)" if rec else ""),
                           oracles.check_certificate(is_tau, bool(r1 or r2), expansion, expected))
        return F, expansion

    def run(self, op) -> float:
        start = perf_counter()
        self.certify(op[1], None)
        return perf_counter() - start

    def trace(self, op) -> tuple[dict, list]:
        plain = self.run(op)
        rec = Spans()
        start = perf_counter()
        with rec.span("certify"):
            F, expansion = self.certify(op[1], rec)
        values = layer_values(rec.spans)
        values["trace.overhead_s"] = perf_counter() - start - plain
        values["series.log.terms"] = len(F.terms)
        values["series.coeff_bits.max"] = coeff_bits(F.terms)
        values["schurkp.schur_expand.coeffs"] = len(expansion)
        return values, rec.spans

    def final_checks(self) -> None:
        pass


WORKLOADS = {"kp-order7": KpOrder7, "corpus-7": Corpus7, "hopf-7": Hopf7,
             "tau-order8": TauOrder8}


# -- aggregation ----------------------------------------------------------------


def layer_values(spans: list) -> dict:
    """Per-layer self times of one operation, keyed by metric name."""
    total, longest = self_times(spans)
    values: dict = {}
    for name, seconds in total.items():
        piece = re.fullmatch(r"ensemble\.piece_([wa])\.k(\d+)", name)
        if piece:
            key = f"ensemble.pieces_{piece[1]}.s"
            values[key] = values.get(key, 0.0) + seconds
            if piece[2] == str(ORDER):
                values[f"ensemble.piece_{piece[1]}.k{ORDER}.s"] = seconds
        elif f"{name}.s" in PER_LAYER:
            values[f"{name}.s"] = seconds
        if name in PER_GRAPH_SPANS:
            values[f"{name}.max_graph_s"] = longest[name]
    return values


def per_input_median(samples: list[tuple[object, float]]) -> float:
    """Mean over the distinct inputs of each input's median time.  A kind
    mixes inputs of different cost (four hopf graphs, sixteen candidates),
    and a plain median over all samples would jump between them as the
    run's end cuts the last round short."""
    by_input: dict[object, list[float]] = {}
    for label, seconds in samples:
        by_input.setdefault(label, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail(values: list[float]) -> str:
    """The highest of p90/p99 with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            return f" p{pct}={cut:.4f}"
    return ""


def per_layer_metrics(workload, traced: dict[str, list[dict]]) -> dict:
    """Maxima are taken over every traced operation; every other value is
    the median over the operations of the main kind that produced it,
    falling back to the side kind for layers only the side kind calls."""
    main, side = workload.kinds
    out = {}
    for name in PER_LAYER:
        if name in workload.static_layers:
            out[name] = workload.static_layers[name]
        elif name.endswith(".max") or name.endswith("max_graph_s"):
            out[name] = max((v[name] for k in (main, side) for v in traced[k] if name in v),
                            default=0)
        else:
            found = [v[name] for v in traced[main] if name in v] \
                or [v[name] for v in traced[side] if name in v]
            out[name] = statistics.median(found) if found else 0
    return out


def setup_time(runner: Runner) -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    child = runner.python("-c", "import graphkp.cli")
    runner.record("import graphkp.cli", child.problem())
    return child.wall


def aliases(name: str, workload, medians: dict) -> str:
    """The issue-level names of the two end-to-end timings."""
    main, side = medians["main_op_s"], medians["side_op_s"]
    if name == "kp-order7":
        return f"verdict_w_s={main:.4f} verdict_a_s={side:.4f}"
    if name == "corpus-7":
        return (f"w_graphs_per_s={workload.items / main:.3f} "
                f"a_graphs_per_s={workload.items / side:.3f}")
    if name == "hopf-7":
        return f"primitives_per_s={2 / (main + side):.3f}"
    return f"certify_per_s={3 / (2 * main + side):.3f}"


def measure(args, runner: Runner, workload, speed: Speed) -> tuple[dict, dict, list]:
    """The closed loop.  Returns every timed operation and set-up sample
    as (input label, scaled seconds, raw seconds) by kind, plus the traced
    values and spans."""
    timings = {kind: [] for kind in workload.kinds + ("setup",)}
    traced = {kind: [] for kind in workload.kinds}
    spans_out = []
    start = perf_counter()
    for op_id, op in enumerate(workload.ops()):
        elapsed = perf_counter() - start
        done = traced if args.trace else timings
        if elapsed >= args.seconds and all(done[kind] for kind in workload.kinds):
            break
        # Set-up samples are spread over the run, so that a slow stretch of
        # a shared machine cannot land on all of them at once.
        if len(timings["setup"]) < SETUP_REPEATS * elapsed / args.seconds:
            wall = setup_time(runner)
            timings["setup"].append(("setup", speed.scale(wall), wall))
        if args.trace:
            values, spans = workload.trace(op)
            traced[op[0]].append(values)
            spans_out.extend({"op": op_id, "kind": op[0], "name": n, "start": s, "end": e,
                              "parent": p} for n, s, e, p in spans)
        else:
            wall = workload.run(op)
            timings[op[0]].append((op[1], speed.scale(wall), wall))
    while len(timings["setup"]) < SETUP_REPEATS:
        wall = setup_time(runner)
        timings["setup"].append(("setup", speed.scale(wall), wall))
    return timings, traced, spans_out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "graphkp" / "cli.py").is_file():
        print(f"run.py: no graphkp sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    runner = Runner()
    setup_time(runner)  # may compile bytecode; not counted
    workload = WORKLOADS[args.workload](runner, args.seed)
    speed = Speed()
    timings, traced, spans_out = measure(args, runner, workload, speed)
    workload.final_checks()

    # In-process workloads run graphkp in this process; CLI workloads in
    # the children, whose own peaks the runner collected.
    peak_kb = own_peak_kb() if isinstance(workload, TauOrder8) else runner.peak_rss_kb
    control = runner.python("-c", CONTROL)
    print(f"graphkp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  calibration loop: median {statistics.median(speed.loops) * 1000:.3f} ms over "
          f"{len(speed.loops)} samples (reference {REF_SECONDS * 1000:g} ms); timings are at "
          f"the reference speed, raw medians in brackets")
    rows = [("setup_s", "setup", "import graphkp.cli")]
    if not args.trace:
        rows += [("main_op_s", workload.kinds[0], workload.describe[workload.kinds[0]]),
                 ("side_op_s", workload.kinds[1], workload.describe[workload.kinds[1]])]
    medians = {}
    for metric, kind, text in rows:
        medians[metric] = per_input_median([(label, scaled) for label, scaled, _ in timings[kind]])
        raw = per_input_median([(label, wall) for label, _, wall in timings[kind]])
        values = [scaled for _, scaled, _ in timings[kind]]
        q1, _, q3 = quartiles(values)
        print(f"  {metric:10s} {text:36s} n={len(values):3d} value={medians[metric]:.4f} "
              f"q1={q1:.4f} q3={q3:.4f}{tail(values)} [{raw:.4f}]")
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in per_layer_metrics(workload, traced).items()}
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(spans_out))
    else:
        print(f"  {aliases(args.workload, workload, medians)} peak_rss_mb={peak_kb / 1024:.1f} "
              f"(bare interpreter: {control.rss_kb / 1024:.1f})")
        medians["peak_rss_mb"] = peak_kb / 1024
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = len(runner.failures)
    print(f"  fail_ratio = {failed}/{runner.attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
