#!/usr/bin/env python3
"""graphsep benchmark: certified decompositions and predicate checks, end to end.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run generates the workload's graphs from ``--seed`` with ``graphsep gen``,
then repeats closed-loop passes over the workload's op list, calling
``graphsep.cli.main(argv)`` in this process one op at a time, for
``--seconds`` seconds.  Every outcome is checked (see ``workloads.py``) and
every record must stay byte-identical across passes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
medians over the run's passes of the pass wall time and of the per-kind op
time sums.  Set-up is repeated ``SETUPS`` times and its median reported.
The results file under ``.perfbench/`` keeps every pass and op time.

With ``--trace 1`` passes alternate untraced and traced, and the last line
reports the per-layer metrics of ``layers.py``.  ``--smoke`` runs tiny
profiles of every workload in both modes, asserts that every metric named in
BENCHMARK.json is emitted with its unit, and runs a negative control whose
tampered record must be counted as a failed op.

The program is imported from ``src/`` of the checkout, never from an
installed copy.  BLAS and OpenMP are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUPS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def import_program():
    """Import graphsep from this checkout's ``src/``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "graphsep" / "__init__.py").is_file():
        print(f"error: no graphsep sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import graphsep
    import graphsep.cli

    if Path(graphsep.__file__).resolve().parent != (src / "graphsep").resolve():
        print(f"error: graphsep imported from {graphsep.__file__}", file=sys.stderr)
        sys.exit(2)
    return graphsep.cli


def call(cli, argv):
    """Run one CLI op in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Bench:
    """One workload on one seed: set-up, passes, gate and metrics."""

    def __init__(self, cli, name: str, seed: int, smoke: bool = False):
        self.cli = cli
        self.seed = seed
        self.slots = (workloads.SMOKE if smoke else workloads.WORKLOADS)[name]
        self.workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
        self.graphs = []
        self.ops = []
        self.hashes = {}  # graph index -> record sha256 of the first pass
        self.terms = {}
        self.attempted = 0
        self.failures = []

    def setup(self) -> float:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        start = time.perf_counter()
        self.workdir.mkdir(parents=True)
        self.graphs = workloads.generate(
            self.slots, self.seed, self.workdir, lambda argv: call(self.cli, argv)
        )
        self.ops = workloads.op_list(self.graphs)
        warm = self.graphs[0]
        code, _, err, _ = call(
            self.cli, ["decompose", str(warm.path), str(self.workdir / "warmup.dec")]
        )
        if code != 0:
            raise RuntimeError(f"warm-up decompose exited {code}: {err.strip()}")
        return time.perf_counter() - start

    def run_pass(self, tracer=None, tamper=None) -> dict:
        outcomes = []
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if tamper is not None and op.kind == "verify":
                tamper(op.graph.record)
                tamper = None
            if tracer is not None:
                tracer.op = i
            code, stdout, _, seconds = call(self.cli, op.argv)
            outcomes.append(workloads.Outcome(op, code, stdout, seconds))
        wall = time.perf_counter() - start
        workloads.judge(outcomes)
        for o in outcomes:
            if o.op.kind == "decompose" and o.code == 0:
                index = o.op.graph.index
                digest = workloads.sha256_file(o.op.graph.record)
                first = self.hashes.setdefault(index, digest)
                if digest != first:
                    o.failures.append(f"record sha256 {digest} differs from {first}")
                self.terms[index] = workloads.kv(o.stdout).get("terms")
        self.attempted += len(outcomes)
        for o in outcomes:
            if o.failures:
                self.failures.append(
                    {"op": o.op.kind, "graph": o.op.graph.slot.label,
                     "argv": o.op.argv, "failures": o.failures}
                )
        result = {"pass_s": wall, "decompose_s": 0.0, "verify_s": 0.0, "check_s": 0.0}
        for o in outcomes:
            result[metric_of(o.op.kind)] += o.seconds
        result["op_s"] = [o.seconds for o in outcomes]
        result["outcomes"] = outcomes
        return result

    @property
    def failed(self) -> int:
        return len(self.failures)

    def graph_table(self) -> list[dict]:
        table = []
        for g in self.graphs:
            row = {"slot": g.slot.label, "family": g.slot.family, "dims": list(g.slot.dims),
                   "V": g.vertices, "E": g.edges, "gen_seed": g.seed,
                   "ops": list(g.slot.ops), "terms": None, "record_bytes": None,
                   "record_sha256": self.hashes.get(g.index)}
            if g.index in self.hashes:
                row["terms"] = int(self.terms[g.index])
                row["record_bytes"] = g.record.stat().st_size
            table.append(row)
        return table

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def metric_of(kind: str) -> str:
    """The end-to-end metric an op's time counts toward."""
    if kind.startswith("check:"):
        return "check_s"
    return "verify_s" if kind.startswith("verify") else "decompose_s"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(bench: Bench, seconds: float, setups: int, min_passes: int):
    setup_times = [bench.setup() for _ in range(setups)]
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(bench.run_pass())
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    for key in ("pass_s", "decompose_s", "verify_s", "check_s"):
        metrics[key] = (statistics.median(p[key] for p in passes), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    detail = {"setup_s_all": setup_times,
              "passes": [{k: v for k, v in p.items() if k != "outcomes"} for p in passes]}
    return metrics, detail


def run_traced(bench: Bench, seconds: float, min_passes: int):
    tracer = Tracer()
    tracer.install()
    try:
        bench.setup()
        setup_stats = tracer.snapshot()
    finally:
        tracer.uninstall()
    plain, traced = [], []
    start = time.perf_counter()
    while (len(traced) < min_passes
           or time.perf_counter() - start < seconds):
        plain.append(bench.run_pass())
        tracer.reset()
        first_span = len(tracer.spans)
        tracer.install()
        try:
            result = bench.run_pass(tracer=tracer)
        finally:
            tracer.uninstall()
        result["stats"] = tracer.snapshot()
        result["spans"] = (first_span, len(tracer.spans))
        traced.append(result)
    metrics = layers.per_layer_metrics(tracer, setup_stats, plain, traced)
    detail = {"plain_pass_s": [p["pass_s"] for p in plain],
              "traced_pass_s": [p["pass_s"] for p in traced]}
    return metrics, detail, tracer


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    task_dir = Path("/proc/self/task")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(cli, args) -> int:
    bench = Bench(cli, args.workload, args.seed)
    tracer = None
    try:
        if args.trace:
            metrics, detail, tracer = run_traced(bench, args.seconds, MIN_TRACED_PASSES)
        else:
            metrics, detail = run_untraced(bench, args.seconds, SETUPS, MIN_PASSES)
        graphs = bench.graph_table()
    finally:
        bench.cleanup()
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"provenance": provenance(args), "fail_ratio": bench.failed / bench.attempted,
              "graphs": graphs, "failures": bench.failures[:20], "detail": detail}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**report, "result": result}, handle, indent=1)
    if tracer is not None:
        layers.write_spans(tracer, bench, OUT / f"{stem}-spans.jsonl")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def smoke(cli) -> int:
    """Self-test on tiny profiles; exit 0 only when every assertion holds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.SMOKE:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            bench = Bench(cli, name, seed=1, smoke=True)
            try:
                if trace:
                    metrics = run_traced(bench, 0.0, 1)[0]
                else:
                    metrics = run_untraced(bench, 0.0, 1, 1)[0]
            finally:
                bench.cleanup()
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: u for k, (_, u) in metrics.items()}
            if got != wanted:
                problems.append(
                    f"{name} trace={trace}: missing {sorted(set(wanted) - set(got))},"
                    f" extra {sorted(set(got) - set(wanted))},"
                    f" unit mismatches {[k for k in wanted if k in got and got[k] != wanted[k]]}"
                )
            if bench.failed:
                problems.append(f"{name} trace={trace}: {bench.failures[:3]}")
            print(f"smoke {name} trace={trace}: {len(got)} metrics,"
                  f" {bench.attempted} ops, {bench.failed} failed")
        control = Bench(cli, name, seed=1, smoke=True)
        try:
            control.setup()
            control.run_pass()
            control.run_pass(tamper=tamper_weight)
        finally:
            control.cleanup()
        print(f"negative control {name}: {control.attempted} ops,"
              f" {control.failed} failed, fail_ratio"
              f" {control.failed / control.attempted:.3f}")
        if control.failed == 0:
            problems.append(f"{name}: tampered record was not counted as a failed op")
    for problem in problems:
        print("FAIL", problem)
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def tamper_weight(record: Path) -> None:
    """Scale the first term weight of a stored record by 1.5."""
    lines = record.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines):
        if line.startswith("weight "):
            lines[i] = f"weight {float(line.split()[1]) * 1.5:.16e}"
            break
    record.write_text("\n".join(lines), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test on tiny profiles, with a negative control")
    args = parser.parse_args(argv)
    cli = import_program()
    if args.smoke:
        return smoke(cli)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return run_one(cli, args)


if __name__ == "__main__":
    sys.exit(main())
