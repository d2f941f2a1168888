"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload it checks that
1. two traced runs of the recorded seed give identical counts (COUNTS below);
2. a traced run's artifacts are byte-identical to an untraced run's, except
   the wall time in status.json, so the wrappers change no result;
3. the held-out seed passes every correctness gate, on the workload's own
   base fields and on another problem (base seed OTHER_BASE_OFFSET higher).
   The seeds of one base move and perturb one problem; the other base is a
   different problem, so the gates are not only tried on relabellings.
Prints one line per check and exits with status 1 if any fails.
"""
from __future__ import annotations

import json
import os
import sys

from run import HELD_OUT_SEED, RECORDED_SEED, ROOT, bootstrap, prepare

COUNTS = ["spectral.fft.calls", "geodesic.step_rk4.calls",
          "geodesic.shoot.calls", "matching.iters",
          "epdiff.eval_periodic.calls", "io.write.bytes"]
OTHER_BASE_OFFSET = 1


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def artifact_differences(a, b):
    """Files that differ between two run directories, wall time excepted."""
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    differ = []
    for name in names:
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            differ.append(name)
        elif name == "status.json":
            ja, jb = (json.loads(read_bytes(p)) for p in (pa, pb))
            ja.pop("wall_time"), jb.pop("wall_time")
            if ja != jb:
                differ.append(name)
        elif read_bytes(pa) != read_bytes(pb):
            differ.append(name)
    return differ


def check_workload(workload):
    name = workload.name
    runner = prepare(name, RECORDED_SEED, "selftest")
    from spans import Tracer, layer_metrics

    ok = True
    plain = runner.run(keep=True)
    plain_dir = runner.last_outdir
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.install()
        try:
            traced = runner.run(keep=True)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer.spans, tracer.run, runner.workload.dim)
        counts.append({key: metrics[key] for key in COUNTS})
    same = counts[0] == counts[1]
    print(f"{name}: traced counts repeat exactly: {same} {counts[0]}")
    ok &= same

    differ = artifact_differences(plain_dir, runner.last_outdir)
    print(f"{name}: traced artifacts identical to untraced: {not differ}"
          + (f" (differ: {', '.join(differ)})" if differ else ""))
    ok &= not differ and plain is not None and traced is not None

    for base_seed in (workload.base_seed,
                      workload.base_seed + OTHER_BASE_OFFSET):
        held = prepare(name, HELD_OUT_SEED, f"selftest-base{base_seed}",
                       base_seed=base_seed)
        passed = held.run() is not None
        print(f"{name}: held-out seed {HELD_OUT_SEED} on base seed "
              f"{base_seed} passes every gate: {passed}")
        ok &= passed
    return ok


def main():
    if not (ROOT / "src" / "densgeo" / "__init__.py").is_file():
        print("error: no densgeo sources under src/", file=sys.stderr)
        return 2
    bootstrap()
    from workloads import WORKLOADS

    results = [check_workload(w) for w in WORKLOADS.values()]
    print("selftest " + ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
