"""Benchmark for shapesphere: a CLI session and planar and spatial batches.

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 30 --trace 0

Runs one workload from the root of a source checkout, against the package
in its src/ directory, and prints one JSON line last on stdout:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones, from spans recorded around calls into the package.  A readable
summary goes to stderr.  See perfbench/README.md.
"""

import os

# one BLAS/OpenMP thread for this process and every child it starts; set
# before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli_session", "planar_batch", "spatial_batch")
SETUP_REPS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import shapesphere; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def scipy_import_seconds(importtime_log: str) -> float:
    """Time of the outermost scipy imports in a `python -X importtime` log.

    Each log line carries self and cumulative microseconds and the module,
    indented by nesting depth; a module's parent is the next line with a
    smaller indent.  Summing the cumulative time of scipy modules whose
    parent is not a scipy module counts every scipy import exactly once.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(fields[1])))
    total_us = 0
    for i, (depth, name, cumulative) in enumerate(entries):
        if not (name == "scipy" or name.startswith("scipy.")):
            continue
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if not (parent == "scipy" or parent.startswith("scipy.")):
            total_us += cumulative
    return total_us * 1e-6


class Run:
    """One benchmark run: set-up, warm-up, timed rounds and their results."""

    def __init__(self, args, tracer, workdir):
        self.args = args
        self.tracer = tracer
        self.workdir = workdir
        self.op_phase = {}  # op id -> (phase, round)
        self.times = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = defaultdict(int)
        self.unexpected = []
        self.import_s = []
        self.import_scipy_s = []
        self.probe_peak_mb = None

    def begin_op(self, phase, round_no):
        op_id = len(self.op_phase)
        self.op_phase[op_id] = (phase, round_no)
        if self.tracer is not None:
            self.tracer.op = op_id

    def end_op(self):
        if self.tracer is not None:
            self.tracer.op = -1

    def setup(self):
        import workloads

        name = self.args.workload
        self.setup_s = []
        for rep in range(SETUP_REPS):
            inputs = None
            gc.collect()
            self.begin_op("setup", rep)
            start = time.perf_counter()
            if name == "cli_session":
                inputs = workloads.cli_setup(self.args.seed, self.workdir)
            elif name == "planar_batch":
                inputs = workloads.planar_setup(self.args.seed)
            else:
                inputs = workloads.spatial_setup(self.args.seed)
            self.setup_s.append(time.perf_counter() - start)
            self.end_op()
        if name == "cli_session":
            workloads.cli_write_files(inputs)
        self.rss_after_setup_mb = max_rss_mb(resource.RUSAGE_SELF)
        if name == "cli_session":
            self.cli = workloads.CliRunner(ROOT, self.workdir, self.tracer)
            return workloads.cli_workload(inputs, self.cli)
        if name == "planar_batch":
            return workloads.planar_workload(inputs)
        return workloads.spatial_workload(inputs)

    def run_op(self, op, round_no):
        self.begin_op("round", round_no)
        start = time.perf_counter()
        error = None
        try:
            out = op.run()
        except Exception:
            out, error = None, traceback.format_exc()
        self.times[op.name].append(time.perf_counter() - start)
        self.end_op()
        ok = False
        if error is None:
            try:
                ok = bool(op.check(out))
            except Exception:
                error = traceback.format_exc()
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[op.name] += 1
            if op.known_fault is None and op.name not in self.unexpected:
                self.unexpected.append(op.name)
                detail = error or "output did not pass its check"
                print(f"FAILED {op.name}\n{detail}", file=sys.stderr)

    def probe_imports(self):
        out = self.cli.probe(["-c", IMPORT_PROBE])
        self.import_s.append(float(out.stdout.strip()))
        out = self.cli.probe(["-X", "importtime", "-c", "import shapesphere"])
        self.import_scipy_s.append(scipy_import_seconds(out.stderr))

    def rounds(self, workload):
        # one untimed warm-up operation, then whole rounds; a round starts
        # only while the last round's length still fits in the budget
        self.begin_op("warmup", 0)
        try:
            workload.ops[0].run()
        except Exception:
            print(f"warm-up failed\n{traceback.format_exc()}", file=sys.stderr)
        self.end_op()
        budget = self.args.seconds
        start = time.perf_counter()
        last = 0.0
        round_no = 0
        while round_no == 0 or time.perf_counter() - start + last <= budget:
            round_start = time.perf_counter()
            for op in workload.ops:
                self.run_op(op, round_no)
            if self.tracer is not None and self.args.workload == "cli_session":
                self.probe_imports()
            last = time.perf_counter() - round_start
            round_no += 1
        self.round_count = round_no

    def probe_memory(self, workload):
        import workloads

        peaks = [
            workloads.probe_peak_rss_mb(ROOT, self.workdir, op.memprobe)
            for op in workload.ops
            if op.memprobe
        ]
        self.probe_peak_mb = max(peaks) if peaks else None

    def medians(self) -> dict:
        return {name: statistics.median(ts) for name, ts in self.times.items()}

    def end_to_end(self, workload) -> dict:
        median = self.medians()
        small = [op for op in workload.ops if op.kind in workload.small_kinds]
        peak = self.cli.peak_mb if self.args.workload == "cli_session" else self.probe_peak_mb
        return {
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": peak,
            "max_err_rad": float(workload.max_err()),
            "pass_s": sum(median[op.name] for op in workload.ops),
            "msamples_per_s": sum(op.samples for op in small)
            / sum(median[op.name] for op in small)
            / 1e6,
        }

    def per_kind(self, workload) -> dict:
        """Per-kind medians for the readable summary."""
        median = self.medians()
        kinds = defaultdict(list)
        for op in workload.ops:
            kinds[op.kind].append(op)
        out = {}
        for kind, ops in kinds.items():
            seconds = sum(median[op.name] for op in ops)
            samples = sum(op.samples for op in ops)
            out[kind] = {
                "ops": len(ops),
                "median_op_s": statistics.median(median[op.name] for op in ops),
                "msamples_per_s": samples / seconds / 1e6 if samples else None,
            }
        return out

    def per_layer(self, names) -> dict:
        """Per-layer values from the spans: median over rounds of the
        per-round self time (or call count) per operation that reached the
        function.  A function a workload never reaches reads 0."""
        rounds = defaultdict(lambda: defaultdict(lambda: [0.0, 0, set()]))
        records = list(self.tracer.spans)
        records += [(name, op, 0.0) for name, op in self.tracer.counts]
        for name, op, self_s in records:
            phase = self.op_phase.get(op)
            if phase is not None and phase[0] in ("setup", "round"):
                slot = rounds[phase][name]
                slot[0] += self_s
                slot[1] += 1
                slot[2].add(op)
        probes = {"cli.import_s": self.import_s, "cli.import_scipy_s": self.import_scipy_s}
        values = {}
        for metric in names:
            if metric in probes:
                values[metric] = statistics.median(probes[metric]) if probes[metric] else 0.0
                continue
            phase, key = "round", metric
            if key.startswith("setup."):
                phase, key = "setup", key[len("setup."):]
            if key.endswith(".self_s"):
                key, field = key[: -len(".self_s")], 0
            elif key.endswith(".calls"):
                key, field = key[: -len(".calls")], 1
            else:
                field = 1
            per_round = [
                spans[key][field] / len(spans[key][2])
                for (p, _), spans in rounds.items()
                if p == phase and key in spans
            ]
            values[metric] = statistics.median(per_round) if per_round else 0.0
        return values


def max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shapesphere", "__init__.py")):
        print(f"error: no shapesphere package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)
    import shapesphere
    import tracing

    if os.path.dirname(os.path.abspath(shapesphere.__file__)) != os.path.join(SRC, "shapesphere"):
        print(f"error: shapesphere was imported from {shapesphere.__file__}", file=sys.stderr)
        return 2

    import workloads  # noqa: F401  (loads every module the wrappers patch)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, "work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run(args, tracer, workdir)
    try:
        workload = run.setup()
        run.rounds(workload)
        if not args.trace:  # peak_rss_mb is an end-to-end metric only
            run.probe_memory(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = run.end_to_end(workload)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": run.round_count,
        "setup_s": run.setup_s,
        "benchmark_rss_after_setup_mb": run.rss_after_setup_mb,
        "benchmark_rss_end_mb": max_rss_mb(resource.RUSAGE_SELF),
        "end_to_end": e2e,
        "per_kind": run.per_kind(workload),
        "failed_ops": dict(run.failures),
    }
    print(json.dumps(summary, indent=1), file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    if args.trace:
        values = run.per_layer(names)
    else:
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
