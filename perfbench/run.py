"""End-to-end benchmark: cold solves, served traffic and process-transport CG.

Usage (from the repository root)::

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick          # a few operations of every workload

A run sets the workload up, runs one untimed warm-up pass, then repeats
whole passes of the same seeded operations until ``--seconds`` of
operation time have elapsed.  Every answer is checked against a direct
``splu`` solve (``oracle.py``) between operations, with the clock stopped.
``--trace 1`` alternates untraced and traced passes and reports per-layer
figures (``tracing.py``) instead of the end-to-end ones.  The last line of
standard output is the result object; the line before it records the
machine.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: before any import of the package

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

ALL_CPUS = os.sched_getaffinity(0)
BENCH_CPU = min(ALL_CPUS)
"""Every process of the workload (and of the set-up samples) runs on this
one CPU.  On the 2-vCPU box a second busy vCPU saw 7-24% hypervisor steal
and made dist-sweep operations 1.3-2.4x slower and unsteady; pinned to one
CPU the same operations saw 2-3% steal.  The checker runs on all CPUs."""

SETUP_SAMPLES = 5  # this process plus four fresh interpreters
QUICK_OPS = 3


def _import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)


def machine_record() -> dict:
    import numpy
    import scipy

    from repro import kernels

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(ALL_CPUS),
        "pinned_cpu": BENCH_CPU,
        "kernel_backend": kernels.active_backend(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it: the 11th
    largest value (the largest when there are fewer than 11)."""
    s = sorted(values)
    return s[-11] if len(s) >= 11 else s[-1]


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


class Run:
    """One workload run: warm-up, timed passes, checks, figures."""

    def __init__(self, workload, checker, ops, tracer=None) -> None:
        self.w = workload
        self.checker = checker
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unconverged_labels = 0
        self.answers: list[tuple[float, int, bool]] = []  # seconds, iterations, traced
        self.op_seconds = 0.0
        self.pass_throughput: list[float] = []
        self.traced_ops = 0
        self.traced_wall = 0.0
        self.errors: list[str] = []

    def check(self, answers) -> list[bool]:
        verdicts = []
        for a in answers:
            good = a.ok and a.x is not None
            if good:
                anorm_err, backward = self.checker.check(
                    a.model, a.scale, a.penalty, a.rhs, a.x)
                good = oracle.passes(anorm_err, backward)
                if not good:
                    self.errors.append(
                        f"{a.model}@{a.scale:g} lambda={a.penalty:g}: A-norm error "
                        f"{anorm_err:.2e}, backward error {backward:.2e}")
            else:
                self.errors.append(f"{a.model}@{a.scale:g} lambda={a.penalty:g}: {a.error}")
            verdicts.append(good)
        return verdicts

    def warm_up(self) -> dict:
        """One untimed pass while the checker factors the references;
        returns the assembly defects the checker found."""
        answers = []
        for op in self.ops:
            gc.collect()
            answers.append(self.w.run(op))
        defects = self.checker.prepared()
        for a in answers:
            self.check(a)
        return defects

    def timed(self, seconds: float, min_passes: int) -> int:
        passes = 0
        while passes < min_passes or self.op_seconds < seconds or (
                self.tracer is not None and passes % 2):
            traced = self.tracer is not None and passes % 2 == 1
            if traced:
                self.tracer.install()
            pass_seconds = 0.0
            pass_answered = len(self.answers)
            try:
                for op in self.ops:
                    gc.collect()  # no collector pause inside a timed operation
                    answers = self.w.run(op)
                    wall = max(a.seconds for a in answers)
                    pass_seconds += wall
                    if traced:
                        self.traced_ops += 1
                        self.traced_wall += wall
                    for a, good in zip(answers, self.check(answers)):
                        self.attempted += 1
                        if not good:
                            self.failed += 1
                            continue
                        self.unconverged_labels += not a.converged
                        self.answers.append((a.seconds, a.iterations, traced))
            finally:
                if traced:
                    self.tracer.uninstall()
            self.op_seconds += pass_seconds
            self.pass_throughput.append((len(self.answers) - pass_answered) / pass_seconds)
            passes += 1
        return passes

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict:
        secs = [s for s, _, _ in self.answers]
        iters = [i for _, i, _ in self.answers]
        return {
            "time_to_solution_s": {"value": statistics.median(secs), "unit": "s"},
            "time_to_solution_tail_s": {"value": tail(secs), "unit": "s"},
            "throughput_per_s": {"value": statistics.median(self.pass_throughput),
                                 "unit": "1/s"},
            "iterations_per_answer": {"value": sum(iters) / len(iters), "unit": "count"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    def per_layer(self) -> dict:
        t = self.tracer
        n = self.traced_ops
        out = {}
        for bucket in tracing.SELF_BUCKETS:
            out[bucket] = {"value": t.self_s.get(bucket, 0.0) / n, "unit": "s/op"}
        for counter in tracing.COUNTERS:
            unit = "bytes/op" if counter.endswith("bytes") else "count/op"
            out[counter] = {"value": t.counts.get(counter, 0.0) / n, "unit": unit}
        out["solvers.krylov_s"] = {"value": t.krylov_s / n, "unit": "s/op"}
        out["serve.coalesced_width"] = {
            "value": t.krylov_columns / t.krylov_calls if t.krylov_calls else 0.0,
            "unit": "count"}
        unattributed = (self.traced_wall - t.covered_s) / n
        out["unattributed_s"] = {"value": unattributed, "unit": "s/op"}
        out["traced_wall_s"] = {"value": self.traced_wall / n, "unit": "s/op"}
        traced = [s for s, _, tr in self.answers if tr]
        untraced = [s for s, _, tr in self.answers if not tr]
        out["tracing_overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
        return out


def run_workload(args, name: str, t_start: float) -> dict:
    w = workloads.make(name, workloads.work_dir(ROOT), args.seed)
    try:
        w.setup()
        setup_main = time.perf_counter() - t_start
        if args.setup_only:
            return {"setup_s": setup_main}
        ops = w.ops(args.seed)
        if args.quick:
            ops = ops[:QUICK_OPS]
        checker = oracle.Checker(SRC, ALL_CPUS)
        try:
            wanted = sorted({(m, s, lam, json.dumps(rhs))
                             for op in ops for m, s, lam, _, rhs in op.requests})
            checker.prepare([(m, s, lam, json.loads(r)) for m, s, lam, r in wanted])
            run = Run(w, checker, ops, tracing.Tracer() if args.trace else None)
            defects = checker.prepared() if args.quick else run.warm_up()
            passes = run.timed(0.0 if args.quick else args.seconds,
                               2 if args.trace else 1)
            peak = w.peak_rss_mb()
        finally:
            checker.close()
    finally:
        w.close()
    if args.trace:
        metrics = run.per_layer()
        layer_sum = sum(v["value"] for k, v in metrics.items()
                        if k in tracing.SELF_BUCKETS or k == "unattributed_s")
        gap = abs(layer_sum - metrics["traced_wall_s"]["value"])
        accounted = gap <= 1e-9 * max(1.0, metrics["traced_wall_s"]["value"])
    else:
        samples = [setup_main]
        if not args.quick:
            samples += [setup_sample(name, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = run.end_to_end(statistics.median(samples), peak)
        accounted = True
    assembly_ok = not any(defects.values())
    print(json.dumps({
        "workload": name, "seed": args.seed, "passes": passes,
        "ops_per_pass": len(ops), "operation_seconds": run.op_seconds,
        "converged_label_false": run.unconverged_labels,
        "assembly_defects": defects, "errors": run.errors[:5],
        "machine": machine_record(),
    }))
    return {"correct": assembly_ok and accounted, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help=f"{QUICK_OPS} operations of each workload, no timing loop")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not args.quick:
        p.error("--workload is required unless --quick is given")

    _import_package()
    os.sched_setaffinity(0, {BENCH_CPU})  # inherited by every child process
    try:
        if args.quick and args.workload is None:
            ok = True
            for name in workloads.WORKLOADS:
                result = run_workload(args, name, time.perf_counter())
                print(json.dumps(result))
                ok = ok and result["correct"] and not result["failed"]
            return 0 if ok else 1
        result = run_workload(args, args.workload, T0)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(os.path.join(HERE, ".work"), ignore_errors=True)
        # spawning the checker started multiprocessing's resource tracker;
        # stop it and wait for it rather than leave it to exit after us
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
