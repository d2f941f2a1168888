"""Run one densgeo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload shoot-2d --seed 1 --seconds 35 --trace 0

Run from anywhere; the benchmark imports densgeo from `src/` of the checkout
that holds this file and works in `.perfbench_work/` there. With --trace 0 it
measures the end-to-end metrics with tracing off; with --trace 1 it alternates
untraced and traced runs and reports the per-layer metrics. The metric names
and units are those of BENCHMARK.json. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Earlier lines,
starting with '#', record the environment and the sample counts.
"""
from __future__ import annotations

import argparse
import copy
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = 1  # at most nproc on any machine; 2 threads on 2 cores ran slower
MIN_SAMPLES = 3
SETUP_PROBES = 3  # set-up probes after each wall_s sample
REFERENCE_REPS = 40  # about 0.1 s of the reference kernel
# the reference kernel's median time on the baseline machine; the timed
# metrics are given at this speed, see speed_factor
REFERENCE_S = 0.11
PROBE_TIMEOUT_S = 120
RECORDED_SEED = 1  # the seed of perfbench/BASELINE.json
HELD_OUT_SEED = 2  # must pass every gate too; see selftest.py


def bootstrap():
    """Fix the BLAS/OpenMP pool size and put SRC on the import path.

    Must run before numpy, densgeo or workloads is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment():
    import numpy as np

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    env["caches"] = caches
    return env


class Runner:
    """Runs the workload's CLI command in this process and gates each run."""

    def __init__(self, workload, config, workdir):
        from densgeo import cli

        self.cli = cli
        self.workload = workload
        self.config = config
        self.workdir = workdir
        self.attempted = self.failed = 0
        self.errors = []  # solution_error of each passing run

    def gate(self, rc, outdir):
        """Count one attempted run; True when it passed every gate."""
        self.attempted += 1
        if rc != 0:
            missed = [f"exit status {rc}"]
        else:
            try:
                missed = self.workload.check(outdir)
                if not missed:
                    self.errors.append(self.workload.solution_error(outdir))
            except (OSError, KeyError, ValueError) as exc:
                missed = [f"unreadable artifacts: {exc!r}"]
        if missed:
            self.failed += 1
            print(f"# run {self.attempted} failed: {'; '.join(missed)}",
                  file=sys.stderr)
        return not missed

    def run(self, keep=False):
        """One timed CLI run; returns its wall time, or None when it failed.

        The run's output directory is deleted unless `keep` is set.
        """
        outdir = str(self.workdir / f"run{self.attempted:04d}")
        argv = [self.workload.command, "--config", self.config,
                "--output-dir", outdir, "--quiet"]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # a crash is a failed run, not a benchmark error
            traceback.print_exc()
            rc = "exception"
        wall = time.perf_counter() - t0
        ok = self.gate(rc, outdir)
        self.last_outdir = outdir
        if not keep:
            shutil.rmtree(outdir, ignore_errors=True)
        return wall if ok else None


def repeat(seconds, step):
    """Call step() while the next call should still end within `seconds`,
    and at least MIN_SAMPLES times."""
    start = time.perf_counter()
    calls, last = 0, 0.0
    while calls < MIN_SAMPLES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        calls += 1


class ReferenceKernel:
    """A fixed numpy computation whose time tracks the machine's speed.

    On a shared virtual machine the speed of a process drifts by +-15 %
    over tens of seconds and at times for minutes, far more than the
    seed-to-seed differences of the workloads. The kernel, a dense Fourier
    evaluation at fixed points (complex exp and a small complex matmul),
    followed that drift on the three workloads as well as or better than a
    plain Python loop, a 2-D FFT or many tiny numpy calls. It uses no densgeo
    code, so a change to the program cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.points = rng.uniform(0.0, 2.0 * np.pi, size=(2, 1024))
        self.modes = np.arange(-15, 16, dtype=np.float64)
        self.coeffs = rng.normal(size=(31, 31)) + 1j * rng.normal(size=(31, 31))
        self.last = self.time()

    def time(self):
        np = self.np
        t0 = time.perf_counter()
        for _ in range(REFERENCE_REPS):
            e0 = np.exp(1j * np.outer(self.points[0], self.modes))
            e1 = np.exp(1j * np.outer(self.points[1], self.modes))
            ((e0 @ self.coeffs) * e1).sum(axis=1)
        return time.perf_counter() - t0

    def speed_factor(self):
        """REFERENCE_S over the kernel's time around the work just done.

        Call it right after the work: it times the kernel again and averages
        with the previous timing, taken right before the work. A time
        multiplied by it reads as on the baseline machine at its usual speed.
        """
        before, self.last = self.last, self.time()
        return REFERENCE_S / (0.5 * (before + self.last))


def setup_time(config, workdir):
    """Seconds from before `import densgeo` to the end of the one-step shoot
    of `config`, in a fresh interpreter."""
    outdir = str(workdir / "setup")
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "shoot", config, outdir],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with status {proc.returncode}")
    return float(proc.stdout.split()[-1])


def solver_alloc_mb(runner):
    """Peak memory the workload's solver call allocates, in MB.

    One extra untraced run under tracemalloc, to which numpy reports its
    array buffers. The peak counts from the solver's entry, so what the
    process already held and the CLI's own reading and hashing buffers are
    left out.
    """
    module = importlib.import_module(f"densgeo.{runner.workload.solver[0]}")
    name = runner.workload.solver[1]
    solver = getattr(module, name)
    peaks = []

    def measured(*args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return solver(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - start)

    outdir = str(runner.workdir / "memory")
    argv = [runner.workload.command, "--output-dir", outdir, "--quiet",
            "--config", runner.workload.memory_config(runner.config)]
    gc.collect()  # else earlier runs' garbage is freed at varying times
    setattr(module, name, measured)
    tracemalloc.start()
    try:
        rc = runner.cli.main(argv)
    finally:
        tracemalloc.stop()
        setattr(module, name, solver)
        shutil.rmtree(outdir, ignore_errors=True)
    if rc != 0 or not peaks:
        raise RuntimeError(f"memory run exited with status {rc}")
    return max(peaks) / 2.0 ** 20


def measure_end_to_end(runner, seconds):
    setup_ini = runner.workload.write_setup_config(
        str(runner.workdir / "setup.ini"))
    runner.run()  # warm-up
    alloc_mb = solver_alloc_mb(runner)
    walls, setup = [], []  # as measured
    walls_ref, setup_ref = [], []  # at the reference speed
    kernel = ReferenceKernel()

    def sample():
        wall = runner.run()
        speed = kernel.speed_factor()
        if wall is not None:
            walls.append(wall)
            walls_ref.append(wall * speed)
        # probes after every sample spread over the whole window; a single
        # probe varies by +-30 %, so only the median of many is steady
        probes = [setup_time(setup_ini, runner.workdir)
                  for _ in range(SETUP_PROBES)]
        speed = kernel.speed_factor()
        setup.extend(probes)
        setup_ref.extend(p * speed for p in probes)

    repeat(seconds, sample)
    passed = runner.attempted - runner.failed
    # every run happened in this process, so its peak is the largest run's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# samples wall_s={len(walls)} setup_s={len(setup)} "
          f"peak_rss_mb={runner.attempted} solver_alloc_mb=1 "
          f"solution_error={len(runner.errors)} "
          f"success_rate={runner.attempted} attempted={runner.attempted}")
    for name, values in (("wall_s", walls), ("setup_s", setup)):
        if values:
            print(f"# {name} as measured: min={min(values):.4f} "
                  f"median={statistics.median(values):.4f} "
                  f"max={max(values):.4f}")
    if not walls or not runner.errors:
        return None
    return {
        "setup_s": statistics.median(setup_ref),
        "wall_s": statistics.median(walls_ref),
        "peak_rss_mb": peak_rss_mb,
        "solver_alloc_mb": alloc_mb,
        "solution_error": statistics.median(runner.errors),
        "success_rate": passed / runner.attempted,
    }


def measure_layers(runner, seconds, dim):
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    runner.run()  # warm-up
    plain, traced = [], []

    def sample_pair():
        wall = runner.run()
        tracer.install()
        try:
            wall_traced = runner.run()
        finally:
            tracer.uninstall()
        if wall is not None and wall_traced is not None:
            plain.append(wall)
            traced.append(layer_metrics(tracer.spans, tracer.run, dim))

    repeat(seconds, sample_pair)
    tracer.write(runner.workdir / "trace.jsonl")
    print(f"# samples untraced={len(plain)} traced={len(traced)} "
          f"attempted={runner.attempted}")
    if not traced:
        return None
    metrics = {key: statistics.median(m[key] for m in traced)
               for key in traced[0]}
    metrics["trace.overhead_s"] = metrics["cli.main.s"] - statistics.median(plain)
    return metrics


def prepare(name, seed, tag, base_seed=None):
    """Import densgeo from SRC and write the seed's inputs.

    `base_seed` replaces the workload's own base fields by another problem.
    Returns a Runner working in a fresh .perfbench_work/ directory, or None
    for an unknown workload name.
    """
    bootstrap()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        print(f"error: unknown workload {name!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return None
    workload = WORKLOADS[name]
    if base_seed is not None:
        workload = copy.copy(workload)
        workload.base_seed = base_seed
    workdir = ROOT / ".perfbench_work" / f"{name}-seed{seed}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "inputs").mkdir(parents=True)
    config = workload.prepare(seed, workdir / "inputs")
    return Runner(workload, config, workdir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "densgeo" / "__init__.py").is_file():
        print(f"error: no densgeo sources under {SRC}", file=sys.stderr)
        return 2
    runner = prepare(args.workload, args.seed, f"trace{args.trace}")
    if runner is None:
        return 2
    workload = runner.workload
    env = environment()
    env.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    print("# env " + json.dumps(env, sort_keys=True))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = measure_layers(runner, args.seconds, workload.dim)
        names = spec["per_layer"]
    else:
        values = measure_end_to_end(runner, args.seconds)
        names = spec["end_to_end"]
    if values is None:
        print("error: no run passed its correctness gates", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
