"""Benchmark of the sillkoop library and CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload generator-closure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process drives one workload as a closed loop: a single client, no
extra threads, BLAS pinned to one thread.  Each iteration runs the
workload's operations in order (see workloads.py) and checks their
outputs; every file of every ``--out`` directory must be byte-identical to
the first iteration's.  The loop runs for ``--seconds`` seconds and at
least a few iterations.

``wall_s`` and ``setup_s`` are seconds at a fixed host speed:

* ``wall_raw_s`` is one iteration with every operation at its fastest in
  the run (the sum over operations of each one's minimum), and
  ``setup_raw_s`` the fastest of several fresh-interpreter set-ups spread
  over the run;
* ``ref_s`` is the fastest run of a fixed kernel that uses no sillkoop
  code (``host_reference``), timed after every iteration and set-up;
* ``wall_s = wall_raw_s * REF_S / ref_s``, and the same for ``setup_s``.

The small shared host this was tuned on slows by up to half in spells of
seconds to minutes.  Within a run, interference only adds time, so the
fastest samples are the steady ones; a per-run median jumps between the
fast and the slow mode as the mix of spells shifts.  Between runs the
host's fastest speed itself drifts by 20-30% over tens of minutes, and
the reference kernel, measured in the same spells as the program,
cancels most of that drift.  A change to sillkoop moves the program's
times and never the kernel's.  The raw times and medians are printed
beside them (``wall_median_s``, ``setup_median_s``, ``ref_median_s``);
per-command and per-layer times are raw medians over iterations.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced (every public sillkoop function wrapped,
see tracing.py) and reports the per-layer metrics, including the traced ÷
untraced ``wall_raw_s``.  ``--workload all`` runs every workload in both modes,
each in its own process, and prints every metric.

Every metric is printed on its own line with its unit, followed by the
environment record.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; its
metrics are those that exist on every workload (END_TO_END with
``--trace 0``, PER_LAYER with ``--trace 1``), so per-command times and
the layer times a single workload reaches appear only on the lines above.
``report-trace<k>.json`` (every metric, the environment, iteration times)
and ``spans.csv`` (the last traced iteration's spans) go to
``.perfbench_work/<workload>/``.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("generator-closure", "sampling-stats")
LAYERS = ("dictionary", "regression", "closure", "stats", "bench", "cli")
SETUP_REPEATS = {"full": 8, "toy": 1}

# Per-layer metrics printed for every workload (zero where a workload does
# not reach the function).  Counts are exact per iteration.
LAYER_REPORT = (
    "dictionary.stable_sigmoid.self_s",
    "dictionary.stable_sigmoid.calls",
    "dictionary.stable_sigmoid.elems",
    "dictionary.stable_sigmoid.bytes_computed",
    "dictionary.self_s",
    "dictionary.conj_values.self_s",
    "dictionary.eval_conjunctive.calls",
    "dictionary.join_completion.self_s",
    "dictionary.join_completion.n_out",
    "dictionary.join_completion.join_calls",
    "dictionary.join_completion.useful_ratio",
    "bench.make_snapshots.self_s",
    "bench.self_s",
    "closure.self_s",
    "closure.compute_bounds.self_s",
    "closure.lie_derivative_exact.calls",
    "closure.product_approx_decay.self_s",
    "regression.self_s",
    "regression.lift_derivatives.self_s",
    "regression.solve_koopman_ls.self_s",
    "regression.residual.self_s",
    "regression.load_snapshots.self_s",
    "regression.predict_ct.self_s",
    "regression.project_state.calls",
    "cli.self_s",
    "stats.self_s",
    "stats.expected_error_rates.self_s",
    "stats.mc_conjunctive.self_s",
    "stats.mc_expected_logistic.self_s",
    "stats.expected_logistic.self_s",
    "stats.product_pdf.calls",
    "trace.overhead_ratio",
)

# The metrics the last line carries; they exist on every workload.
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "dictionary.self_s",
    "dictionary.stable_sigmoid.self_s",
    "dictionary.stable_sigmoid.calls",
    "dictionary.stable_sigmoid.elems",
    "dictionary.stable_sigmoid.bytes_computed",
    "dictionary.eval_conjunctive.calls",
    "dictionary.join_completion.n_out",
    "dictionary.join_completion.join_calls",
    "closure.lie_derivative_exact.calls",
    "regression.project_state.calls",
    "stats.product_pdf.calls",
    "cli.self_s",
    "trace.overhead_ratio",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_sillkoop():
    """Import sillkoop from this checkout's src/, never from elsewhere."""
    if not (SRC / "sillkoop" / "__init__.py").is_file():
        fail(f"no sillkoop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sillkoop
    import sillkoop.cli  # noqa: F401

    if SRC not in Path(sillkoop.__file__).resolve().parents:
        fail(f"imported sillkoop from {sillkoop.__file__}, not from {SRC}")
    return sillkoop


def environment(sillkoop) -> dict:
    import numpy as np
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "sillkoop": sillkoop.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "src_lines": src_lines,
    }


def measure_setup() -> float:
    """Seconds a fresh interpreter takes to import sillkoop.cli."""
    code = (
        "import time; t = time.perf_counter(); import sillkoop.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# The reference kernel's fastest time on the host the benchmark was tuned
# on (Intel Xeon, Sapphire Rapids, 2 vCPU); wall_s and setup_s are scaled
# to that speed.
REF_S = 0.05


def host_reference() -> float:
    """Seconds of a fixed kernel that runs no sillkoop code.

    Small-array numpy calls in a Python loop, large-array numpy and dict
    updates, like the mix of work in the workloads and in an import.
    """
    import numpy as np

    small = np.linspace(-1.0, 1.0, 24).reshape(12, 2)
    big = np.linspace(-8.0, 8.0, 400_000)
    t = time.perf_counter()
    acc = 0.0
    for i in range(4500):
        acc += float((0.5 * (1.0 + np.tanh(small * (1e-3 * i) - 0.5))).prod(axis=1).sum())
    for _ in range(12):
        acc += float(np.tanh(big).sum())
    counts = {}
    for i in range(60_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return time.perf_counter() - t


def digest(out: Path) -> dict:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


class Loop:
    """Runs iterations of a workload and records times and failures."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def iteration(self, tracer=None) -> dict:
        times = {}
        codes = {}
        first_span = len(tracer.spans) if tracer else 0
        t_start = time.perf_counter()
        with tracer.span("iteration") if tracer else contextlib.nullcontext():
            for k, op in enumerate(self.ops):
                t0 = time.perf_counter()
                span = tracer.span("cli.main") if tracer and op.is_cli else None
                try:
                    with span or contextlib.nullcontext():
                        codes[k] = op.run()
                except Exception:  # a crash is a failed operation, not a dead run
                    codes[k] = traceback.format_exc(limit=3)
                times[k] = time.perf_counter() - t0
        wall = time.perf_counter() - t_start
        for k, op in enumerate(self.ops):
            self.attempted += 1
            reason = self._verify(k, op, codes[k])
            if reason:
                self.failures.append(f"{op.name}: {reason}")
        cli = sum(t for k, t in times.items() if self.ops[k].is_cli)
        spans = (first_span, len(tracer.spans) if tracer else 0)
        return {"wall": wall, "cli": cli, "times": times, "spans": spans}

    def _verify(self, k, op, code):
        if code != 0:
            return f"exit {code}" if isinstance(code, int) else code.strip().splitlines()[-1]
        try:
            reason = op.check(op.out) if op.check else None
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"output unreadable: {exc!r}"
        if reason or op.out is None:
            return reason
        files = digest(op.out)
        if k not in self.reference:
            self.reference[k] = files
        elif files != self.reference[k]:
            ref = self.reference[k]
            changed = sorted(f for f in set(files) | set(ref) if files.get(f) != ref.get(f))
            return f"outputs differ from the first iteration: {changed}"
        return None

    def run(self, seconds: float, min_iterations: int, tracer=None, between=None) -> list:
        """Iterates for ``seconds``; ``between(progress)`` runs after each iteration."""
        results = []
        start = time.perf_counter()
        while len(results) < min_iterations or time.perf_counter() < start + seconds:
            results.append(self.iteration(tracer))
            if between:
                between((time.perf_counter() - start) / seconds if seconds else 1.0)
        return results


def fastest_iteration(results) -> float:
    """Seconds per iteration with each operation at its fastest."""
    return sum(min(r["times"][k] for r in results) for k in results[0]["times"])


def command_medians(ops, results) -> dict:
    """Median over iterations of the mean seconds per call of each operation.

    An operation run on several configs also gets one median per config.
    """
    groups = {}
    for k, op in enumerate(ops):
        groups.setdefault(f"{op.name}_s", []).append(k)
        if op.tag:
            groups[f"{op.name}.{op.tag}_s"] = [k]
    return {
        name: statistics.median(sum(r["times"][k] for k in idx) / len(idx) for r in results)
        for name, idx in sorted(groups.items())
    }


def layer_metrics(summaries) -> dict:
    """Per-layer metrics: medians over the traced iterations' summaries."""

    def median(fn):
        return statistics.median(fn(s) for s in summaries)

    def count(fn):  # counts repeat exactly; keep them whole numbers
        return statistics.median_low(fn(s) for s in summaries)

    def work(s, name, key):
        return s.get(name, {}).get("work", {}).get(key, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = median(
            lambda s, p=layer + ".": sum(v["self_s"] for k, v in s.items() if k.startswith(p))
        )
    for name in sorted({k for s in summaries for k in s}):
        out[f"{name}.self_s"] = median(lambda s, n=name: s.get(n, {}).get("self_s", 0.0))
        out[f"{name}.total_s"] = median(lambda s, n=name: s.get(n, {}).get("total_s", 0.0))
        out[f"{name}.calls"] = count(lambda s, n=name: s.get(n, {}).get("calls", 0))
    sig = "dictionary.stable_sigmoid"
    out[f"{sig}.elems"] = count(lambda s: work(s, sig, "elems"))
    out[f"{sig}.bytes_computed"] = 16 * out[f"{sig}.elems"]  # 8 B read + 8 B written
    jc = "dictionary.join_completion"
    out[f"{jc}.n_out"] = count(lambda s: work(s, jc, "n_out"))
    calls = count(
        lambda s: s.get(jc, {}).get("children", {}).get("dictionary.join_params", 0)
    )
    out[f"{jc}.join_calls"] = calls
    out[f"{jc}.useful_ratio"] = count(lambda s: work(s, jc, "n_new")) / calls if calls else 0.0
    return out


def unsteady_counts(summaries) -> list:
    """Names whose call or work counts differ between traced iterations."""

    def counts(s):
        return {(k, "calls"): v["calls"] for k, v in s.items()} | {
            (k, w): n for k, v in s.items() for w, n in v["work"].items()
        }

    first = counts(summaries[0])
    return sorted(
        {k for s in summaries[1:] for c in [counts(s)] for k in set(c) | set(first)
         if c.get(k) != first.get(k)}
    )


def write_spans(path: Path, spans, offset: int) -> None:
    """One CSV row per span; indices and parents count from offset."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, t0, t1, parent, _) in enumerate(spans, start=offset):
            fh.write(f"{i},{name},{t0!r},{t1!r},{parent}\n")


def run_workload(args) -> dict:
    sillkoop = import_sillkoop()
    import tracing
    import workloads

    env = environment(sillkoop)
    reports = WORK / args.workload
    work = reports / "run"  # inputs and --out directories, fresh each run
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = []
    ref = []
    ops = workloads.WORKLOADS[args.workload](work, args.seed, args.size)
    loop = Loop(ops)
    report = {}
    if args.trace == 0:
        repeats = SETUP_REPEATS[args.size]

        def sample_host(progress):
            # set-ups are spread over the run, since a slow spell of the
            # host can outlast several set-ups in a row, and the reference
            # kernel runs in the same spells as the program
            while len(setup) < min(repeats, math.ceil(repeats * progress)):
                setup.append(measure_setup())
                ref.append(host_reference())
            ref.append(host_reference())

        results = loop.run(args.seconds, 3, between=sample_host)
        sample_host(1.0)
        scale = REF_S / min(ref)
        report.update(
            wall_s=fastest_iteration(results) * scale,
            wall_raw_s=fastest_iteration(results),
            wall_median_s=statistics.median(r["wall"] for r in results),
            cli_s=statistics.median(r["cli"] for r in results),
            setup_s=min(setup) * scale,
            setup_raw_s=min(setup),
            setup_median_s=statistics.median(setup),
            ref_s=min(ref),
            ref_median_s=statistics.median(ref),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        report.update(command_medians(ops, results))
        public = END_TO_END
    else:
        plain = loop.run(args.seconds / 2.0, 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = loop.run(args.seconds / 2.0, 2, tracer)
        finally:
            tracer.uninstall()
        spans = [r["spans"] for r in traced]
        summaries = [tracing.summarize(tracer.spans[a:b], a) for a, b in spans]
        report.update(layer_metrics(summaries))
        report["trace.overhead_ratio"] = (
            fastest_iteration(traced) / fastest_iteration(plain)
        )
        loop.attempted += 1  # the counts must repeat across traced iterations
        unsteady = unsteady_counts(summaries)
        if unsteady:
            loop.failures.append(f"trace: counts differ between iterations: {unsteady}")
        start, stop = spans[-1]
        write_spans(reports / "spans.csv", tracer.spans[start:stop], start)
        results = plain
        public = PER_LAYER
    report["failed_ratio"] = len(loop.failures) / loop.attempted
    iterations = len(results)
    for key in [k for k in report if k.startswith(("cmd.", "lib."))]:
        print(f"{args.workload} {key} {report[key]!r} s")
    extra = ("wall_raw_s", "wall_median_s", "setup_raw_s", "setup_median_s", "ref_s",
             "ref_median_s", "cli_s")
    shown = END_TO_END + extra if args.trace == 0 else LAYER_REPORT
    for key in shown + ("failed_ratio",):
        print(f"{args.workload} {key} {report.get(key, 0)!r} {unit_of(key)}")
    for reason in loop.failures:
        print(f"{args.workload} FAILED {reason}")
    for key, val in env.items():
        print(f"{args.workload} env.{key} {val}")
    print(f"{args.workload} iterations {iterations}")
    (reports / f"report-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "environment": env, "setup_s_samples": setup, "ref_s_samples": ref,
                    "iteration_wall_s": [r["wall"] for r in results], "metrics": report,
                    "failures": loop.failures}, indent=2, sort_keys=True) + "\n"
    )
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": report.get(k, 0), "unit": unit_of(k)} for k in public},
    }


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{name} --trace {trace} exited {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for key, val in result["metrics"].items():
                total["metrics"][f"{name}/{key}"] = val
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy inputs for the harness self-test")
    args = parser.parse_args(argv)
    # one BLAS thread; numpy reads these when it is first imported, later
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
