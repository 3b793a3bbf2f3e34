"""The pflyub benchmark: four workloads, timed end to end, checked, traced.

Usage (from the root of a checkout; the package is used from ``src``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there):

* ``tables_large``  ``pflyub lyubeznik --format json`` for every k at n = 52, 53
* ``tables_sweep``  one library process: every table with 2 <= n <= 32, as JSON, CSV, LaTeX
* ``verify``        ``pflyub verify --n-max 13``
* ``gaussian_cold`` ``pflyub gaussian --power 4`` at large a, one cold process each

One process generates all the load and runs one operation at a time: a CLI
operation is one ``python -m pflyub.cli`` process, timed from launch to exit.
The run and every process it starts are pinned to one CPU.  On a shared host
that CPU's speed drifts by tens of percent over minutes, so every timed
operation (every pass, for the library workload) is followed by a
calibration: a fixed stretch of pure-Python work like the workload's own
that shares no code with the program (``CALIBRATIONS``).  Each reported time
is the measured time scaled to the reference speed: measured seconds times
the calibration's reference time over the median of the calibrations around
it (three before, three after).  The measured times are in the run's
``record`` line.

The seed fixes the order of the operations within each pass.  The number of
passes is fixed by ``--seconds`` and the workload's reference pass time, so a
run does the same work on every version of the program.  Every output is
checked (``checks.py``); an operation fails if it exits nonzero, prints a
traceback, or fails a check.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs half the passes untraced and half with spans around
every layer call (``spans.py``), and reports the per-layer numbers of the
traced passes and the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
# Set-up launches per run, spread evenly over the run's operations so that
# they sample the same machine conditions as the operations do.
SETUP_REPEATS = 15
# Calibrations on each side of a timed operation that set its speed factor.
CALIBRATION_WINDOW = 3
# Reported in place of a latency percentile that lands on a failed operation:
# a failure counts as missing every latency limit, and the result stays JSON.
MISSING_REPORTED = 1e9


@dataclass(frozen=True)
class Workload:
    ops: tuple
    tiny_ops: tuple
    # seconds per pass at the reference speed, at the commit that defined the
    # benchmark; it turns --seconds into a fixed pass count
    pass_s: float
    # what one output item is: table "entries", Gaussian "terms" or verify "checks"
    items: str
    library: bool = False
    # operations run once per run, outside the timed passes, to report a
    # known defect without counting it as a failure of the workload
    probe: tuple = ()
    # the CALIBRATIONS kernel whose speed tracks the workload's
    calibration: str = "arith"


def _tables(ns, fmt="json"):
    return tuple(("table", n, k, fmt) for n in ns for k in range(n // 2))


WORKLOADS = {
    "tables_large": Workload(_tables((52, 53)), _tables((12, 13)), pass_s=18.9, items="entries"),
    "tables_sweep": Workload(
        tuple((n, k) for n in range(2, 33) for k in range(n // 2)),
        tuple((n, k) for n in range(2, 9) for k in range(n // 2)),
        pass_s=2.0,
        items="entries",
        library=True,
    ),
    "verify": Workload((("verify", 13),), (("verify", 5),), pass_s=2.0, items="checks", calibration="objects"),
    "gaussian_cold": Workload(
        tuple(("gaussian", a, b) for a, b in ((200, 2), (400, 2), (60, 30), (80, 40), (100, 50))),
        (("gaussian", 20, 2), ("gaussian", 12, 6)),
        pass_s=2.9,
        items="terms",
        # a >= 600 raises RecursionError today (ROADMAP item 4)
        probe=(("gaussian", 600, 2), ("gaussian", 800, 2)),
    ),
}
SETUP_CLI_OP = ("table", 2, 0, "json")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TRACED_COUNTS = ("lyubeznik.entries", "lyubeznik.emit_bytes", "verify.checks")


def cli_args(op) -> list[str]:
    kind = op[0]
    if kind == "table":
        _, n, k, fmt = op
        return ["lyubeznik", "--n", str(n), "--k", str(k), "--format", fmt]
    if kind == "gaussian":
        _, a, b = op
        return ["gaussian", "--a", str(a), "--b", str(b), "--power", "4"]
    return ["verify", "--n-max", str(op[1])]


def digest_key(op) -> str:
    """The key of an operation's output in digests.json."""
    if op[0] == "table":
        _, n, k, fmt = op
        return f"{fmt}:{n}:{k}"
    _, a, b = op
    return f"gaussian:{a}:{b}:4"


@dataclass
class OpRun:
    # as measured; Runner.scale() turns it into seconds at the reference speed
    # and keeps the measured value in raw_seconds
    seconds: float
    ok: bool
    raw_seconds: float = 0.0
    # index of the calibration taken just before the operation
    calibration: int = 0
    items: int = 0
    out_bytes: int = 0
    maxrss_kb: int = 0
    error: str | None = None
    # the operation completed but its output failed a check
    wrong: bool = False


@dataclass
class Pass:
    ops: list[OpRun] = field(default_factory=list)
    span_files: list[str] = field(default_factory=list)
    # table entries, Gaussian terms or verify checks, and output bytes, of the ops that passed
    items: int = 0
    out_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def raw_wall(self) -> float:
        return sum(op.raw_seconds for op in self.ops)


def pass_orders(ops: tuple, passes: int, seed: int) -> list[list]:
    rng = random.Random(seed)
    orders = []
    for _ in range(passes):
        order = list(ops)
        rng.shuffle(order)
        orders.append(order)
    return orders


def _arith_kernel() -> None:
    """Work like the table and Gaussian workloads: dict updates, big-integer
    products, JSON of integer lists."""
    counts = {}
    for i in range(12000):
        counts[i % 251] = counts.get(i % 251, 0) + i * i
    x, m = 3 ** 2000, 7 ** 1500
    for _ in range(120):
        x = x * x % m
    json.dumps([[j * x % 1000003 for j in range(40)] for _ in range(60)])


class _Parts:
    __slots__ = ("parts",)

    def __init__(self, parts):
        if any(p < 0 for p in parts):
            raise ValueError(parts)
        self.parts = tuple(parts)


def _boxes(rows: int, cols: int, cap: int):
    """The partitions with at most ``rows`` parts, each at most min(cols, cap)."""
    if rows == 0:
        yield ()
        return
    for first in range(min(cols, cap) + 1):
        for rest in _boxes(rows - 1, cols, first):
            yield (first,) + rest


def _objects_kernel() -> None:
    """Work like ``verify``: many small objects, each validated through a
    generator expression, from a recursive enumeration."""
    for parts in _boxes(6, 7, 7):
        _Parts(parts)


# name: (kernel, median seconds of calibrate() on the 2-core reference
# machine); reported times are in seconds at that speed
CALIBRATIONS = {"arith": (_arith_kernel, 0.0136), "objects": (_objects_kernel, 0.0053)}


def calibrate(name: str) -> float:
    """Seconds this CPU takes for one calibration kernel: the median of three
    repeats, so that one interrupt does not move it."""
    kernel = CALIBRATIONS[name][0]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_process(argv: list[str], env: dict) -> tuple[float, int, bytes, bytes, int]:
    """Run one child from launch to exit; return (seconds, exit code, stdout,
    stderr, peak RSS in KiB from the child's own rusage)."""
    out_path, err_path = os.path.join(OUT_DIR, "op.out"), os.path.join(OUT_DIR, "op.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        return seconds, proc.returncode, out.read(), err.read(), usage.ru_maxrss


class Runner:
    """Runs the operations of one workload against the checkout's ``src``."""

    def __init__(self, workload: Workload, digests: dict):
        self.workload = workload
        self.digests = digests
        self.memo: dict[str, int] = {}
        # indices, among all operations of the run, before which a set-up launch is due
        self.setup_at: list[int] = []
        self.setups: list[OpRun] = []
        self.calibrations: list[float] = []
        self.timed_runs: list[OpRun] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), self.env.get("PYTHONPATH")]))

    def check_cli_output(self, op, stdout: bytes, recorded: bool) -> int:
        """Check one CLI output; return its items (table entries, Gaussian
        terms or verify checks).  Outputs that match their recorded digest are
        parsed and checked once per run: identical bytes pass identical checks.
        A probe has no recorded digest and is always checked in full."""
        kind, text = op[0], stdout.decode()
        if kind == "verify":
            return checks.check_verify(text, op[1])
        key = digest_key(op)
        if recorded:
            checks.check_digest(key, stdout, self.digests)
            if key in self.memo:
                return self.memo[key]
        if kind == "table":
            items = len(checks.check_table(text, op[3], op[1], op[2]))
        else:
            items = checks.check_gaussian(text, op[1], op[2], 4)
        if recorded:
            self.memo[key] = items
        return items

    def cli_op(self, op, spans_path: str | None = None, recorded: bool = True) -> OpRun:
        if spans_path is None:
            argv = [sys.executable, "-m", "pflyub.cli", *cli_args(op)]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracedcli.py"), spans_path, *cli_args(op)]
        seconds, code, stdout, stderr, maxrss = run_process(argv, self.env)
        run = OpRun(seconds, ok=False, maxrss_kb=maxrss)
        name = " ".join(cli_args(op))
        if code != 0 or b"Traceback" in stderr:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            run.error = f"{name}: exit {code}: {last[0]}"
            return run
        try:
            run.items = self.check_cli_output(op, stdout, recorded)
        except (checks.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            run.error, run.wrong = f"{name}: {type(exc).__name__}: {exc}", True
            return run
        run.ok, run.out_bytes = True, len(stdout)
        return run

    def timed(self, runs: list[OpRun]) -> None:
        """Note operations just timed, back to back, and calibrate after them."""
        if not self.calibrations:
            raise RuntimeError("timed operations before the first calibration")
        for run in runs:
            run.calibration = len(self.calibrations) - 1
        self.timed_runs.extend(runs)
        self.calibrations.append(calibrate(self.workload.calibration))

    def scale(self) -> None:
        """Scale every timed operation to the reference speed."""
        reference = CALIBRATIONS[self.workload.calibration][1]
        for run in self.timed_runs:
            i = run.calibration
            near = self.calibrations[max(0, i + 1 - CALIBRATION_WINDOW):i + 1 + CALIBRATION_WINDOW]
            run.raw_seconds = run.seconds
            run.seconds = run.seconds * reference / statistics.median(near)

    def plan_setup(self, total_ops: int) -> None:
        """Measure set-up SETUP_REPEATS times, spread over the coming operations."""
        self.setup_at = [i * total_ops // SETUP_REPEATS for i in range(SETUP_REPEATS)]

    def setup_until(self, index: int) -> None:
        """Run the set-up launches due before the operation ``index``."""
        while self.setup_at and self.setup_at[0] <= index:
            self.setup_at.pop(0)
            run = OpRun(self.launch(), ok=True)
            self.setups.append(run)
            self.timed([run])

    def cli_passes(self, orders, spans_dir: str | None) -> list[Pass]:
        done = []
        index = 0
        for p, order in enumerate(orders):
            this = Pass()
            for i, op in enumerate(order):
                self.setup_until(index)
                index += 1
                path = None if spans_dir is None else os.path.join(spans_dir, f"pass-{p}-op-{i}.spans")
                run = self.cli_op(op, path)
                self.timed([run])
                this.ops.append(run)
                this.items += run.items
                this.out_bytes += run.out_bytes
                if path is not None:
                    this.span_files.append(path)
            done.append(this)
        return done

    def library_passes(self, orders, spans_dir: str | None) -> list[Pass]:
        """Run every pass in one warm library process, one pass at a time;
        the calibrations around a pass scale all of its operations."""
        argv = [sys.executable, os.path.join(HERE, "libworker.py")] + ([spans_dir] if spans_dir else [])
        done = []
        index = 0
        with open(os.path.join(OUT_DIR, "worker.err"), "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=self.env)
            try:
                for p, order in enumerate(orders):
                    index += len(order)
                    self.setup_until(index - 1)
                    proc.stdin.write(json.dumps(order).encode() + b"\n")
                    proc.stdin.flush()
                    line = proc.stdout.readline()
                    if not line:
                        break
                    report = json.loads(line)
                    this = Pass(items=report["items"], out_bytes=report["bytes"])
                    for seconds, status, error in report["ops"]:
                        this.ops.append(OpRun(seconds, status == "ok", error=error, wrong=status == "wrong"))
                    self.timed(this.ops)
                    if spans_dir:
                        this.span_files.append(os.path.join(spans_dir, f"pass-{p}.spans"))
                    done.append(this)
            finally:
                proc.stdin.close()
                proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or len(done) != len(orders):
            with open(os.path.join(OUT_DIR, "worker.err"), errors="replace") as err:
                raise RuntimeError(f"library worker exited {proc.returncode}: {err.read()[-2000:]}")
        for this in done:
            for op in this.ops:
                op.maxrss_kb = usage.ru_maxrss
        return done

    def passes(self, ops: tuple, count: int, seed: int, spans_dir: str | None = None) -> list[Pass]:
        orders = pass_orders(ops, count, seed)
        if self.workload.library:
            return self.library_passes(orders, spans_dir)
        return self.cli_passes(orders, spans_dir)

    def launch(self) -> float:
        """Time from launch until the first operation can run: a trivial CLI
        call, or a fresh interpreter importing the library."""
        if self.workload.library:
            seconds, code, _, stderr, _ = run_process([sys.executable, "-c", "import pflyub"], self.env)
            if code != 0:
                raise RuntimeError(f"import pflyub failed: {stderr.decode(errors='replace')[-2000:]}")
            return seconds
        op = self.cli_op(SETUP_CLI_OP)
        if not op.ok:
            raise RuntimeError(f"set-up operation failed: {op.error}")
        return op.seconds


# -- the machine ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_jiffies() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (read only): user nice system
    idle iowait irq softirq steal ..."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def machine_sample() -> dict:
    return {"loadavg": list(os.getloadavg()), "cpu_jiffies": _cpu_jiffies()}


def steal_share(before: dict, after: dict) -> float | None:
    """Share of CPU time stolen by the hypervisor between two samples."""
    a, b = before["cpu_jiffies"], after["cpu_jiffies"]
    if len(a) < 8 or len(b) < 8 or sum(b) == sum(a):
        return None
    return (b[7] - a[7]) / (sum(b) - sum(a))


# -- statistics -----------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it, and
    its value; the median when there are too few samples for any."""
    for p in TAIL_LADDER:
        if len(values) * (1 - p / 100) >= 10:
            return p, percentile(values, p)
    return 50.0, statistics.median(values)


def reported(value: float) -> float:
    return MISSING_REPORTED if math.isinf(value) else value


def end_to_end(passes: list[Pass], setups: list[OpRun]) -> tuple[dict, dict]:
    ops = [op for p in passes for op in p.ops]
    latencies = [op.seconds if op.ok else math.inf for op in ops]
    walls = [p.wall for p in passes]
    failed = sum(not op.ok for op in ops)
    tail_p, tail_value = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(run.seconds for run in setups), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "op_p50_s": (reported(statistics.median(latencies)), "s"),
        "op_tail_s": (reported(tail_value), "s"),
        "entries_per_s": (sum(p.items for p in passes) / sum(walls), "1/s"),
        "peak_rss_mb": (max(op.maxrss_kb for op in ops) / 1024, "MB"),
        "ok_ratio": (1 - failed / len(ops), "ratio"),
    }
    summary = {"passes": len(passes), "ops": len(ops), "failed": failed, "fail_ratio": failed / len(ops),
               "op_tail_percentile": tail_p, "op_samples": len(latencies), "pass_walls": walls,
               "measured": {"setup_s": statistics.median(run.raw_seconds for run in setups),
                            "pass_walls": [p.raw_wall for p in passes],
                            "op_p50_s": statistics.median(op.raw_seconds for op in ops)}}
    return metrics, summary


def per_layer(traced: list[Pass], untraced: list[Pass], items: str) -> dict:
    """Median over the traced passes of each per-layer number of a pass."""
    tables = items == "entries"
    rows = []
    for p in traced:
        row = spans.layer_metrics(p.span_files)
        row["lyubeznik.entries"] = p.items if tables else 0
        row["lyubeznik.emit_bytes"] = p.out_bytes if tables else 0
        row["verify.checks"] = p.items if items == "checks" else 0
        rows.append(row)
    metrics = {}
    for name in spans.metric_names() + list(TRACED_COUNTS):
        unit = "s" if name.endswith("_s") else "B" if name.endswith("_bytes") else "count"
        metrics[name] = (statistics.median(row[name] for row in rows), unit)
    ratio = statistics.fmean(p.wall for p in traced) / statistics.fmean(p.wall for p in untraced)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


# -- main -----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pflyub", "cli.py")):
        print("error: run from the root of a pflyub checkout (src/pflyub not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ops = workload.tiny_ops if args.tiny else workload.ops
    with open(os.path.join(HERE, "digests.json")) as f:
        runner = Runner(workload, json.load(f))
    os.makedirs(OUT_DIR, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "cpu_model": _cpu_model(), "before": machine_sample()}
    # one CPU for the run and every process it starts, so that the
    # calibrations measure the CPU the operations run on
    record["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["cpu"]})
    passes = max(1, round(args.seconds / workload.pass_s))
    if args.trace:
        spans_dir = os.path.join(OUT_DIR, "spans", args.workload)
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        half = max(1, round(passes / 2))
        runner.launch()  # compiles bytecode before the timed passes
        runner.calibrations.append(calibrate(workload.calibration))
        untraced = runner.passes(ops, half, args.seed)
        traced = runner.passes(ops, half, args.seed, spans_dir)
        runner.scale()
        done = untraced + traced
        metrics = per_layer(traced, untraced, workload.items)
    else:
        runner.launch()  # compiles bytecode before anything is timed
        runner.calibrations.append(calibrate(workload.calibration))
        runner.plan_setup(passes * len(ops))
        done = runner.passes(ops, passes, args.seed)
        runner.scale()
        metrics, record["summary"] = end_to_end(done, runner.setups)

    # a probe may fail (the known defect) but must never print a wrong answer
    probes = [runner.cli_op(op, recorded=False) for op in workload.probe]
    if probes:
        record["known_defect_probe"] = [{"op": cli_args(op), "ok": run.ok, "error": run.error}
                                        for op, run in zip(workload.probe, probes)]
    record["after"] = machine_sample()
    record["steal_share"] = steal_share(record["before"], record["after"])
    ops_run = [op for p in done for op in p.ops]
    failed = [op for op in ops_run if not op.ok]
    record["errors"] = [op.error for op in failed[:5]]

    print("record " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failed and not any(run.wrong for run in probes),
        "attempted": len(ops_run),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
