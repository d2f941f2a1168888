"""Run every workload and print its metrics, sample counts and predictions.

    python3 perfbench/report.py [--out FILE]

For each workload: one untraced run (run.py --trace 0) on the recorded seed
and one on the held-out seed, and one traced run (--trace 1) on the recorded
seed, each as long as BENCHMARK.json's run_seconds. Prints setup_s, wall_s,
peak_rss_mb, solver_alloc_mb, solution_error and fail_rate with units and
sample counts, the times as measured, the per-layer metrics, and whether
the traced shares confirm each workload's stated purpose. --out writes all
of it as JSON (the committed baseline is perfbench/BASELINE.json).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HELD_OUT_SEED, RECORDED_SEED

HERE = Path(__file__).resolve().parent
SEEDS = [RECORDED_SEED, HELD_OUT_SEED]
TIMEOUT_S = 600


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# env "):
            result["env"] = json.loads(line[len("# env "):])
        elif line.startswith("# samples "):
            result["samples"] = {k: int(v) for k, v in
                                 (kv.split("=") for kv in line.split()[2:])}
        elif " as measured: " in line:
            name, stats = line[2:].split(" as measured: ")
            result.setdefault("as_measured", {})[name] = {
                k: float(v) for k, v in (kv.split("=") for kv in stats.split())}
    return result


def predictions(layers):
    """The workloads' stated purposes, checked against the traced shares."""
    def share(w, name):
        return layers[w][name]["value"]

    io_bytes = {w: share(w, "io.write.bytes") for w in layers}
    idle_in_shoot = [name for name, m in layers["shoot-2d"].items()
                     if name.split(".")[0] in ("matching", "epdiff")
                     and m["value"] != 0]
    return [
        ("FFT self time is the majority of shoot-2d",
         share("shoot-2d", "spectral.fft.share") > 0.5,
         f"spectral.fft.share {share('shoot-2d', 'spectral.fft.share'):.3f}"),
        ("FFT self time is the majority of match-1d",
         share("match-1d", "spectral.fft.share") > 0.5,
         f"spectral.fft.share {share('match-1d', 'spectral.fft.share'):.3f}"),
        ("eval_periodic is the majority of xval-2d",
         share("xval-2d", "epdiff.eval_periodic.share") > 0.5,
         "epdiff.eval_periodic.share "
         f"{share('xval-2d', 'epdiff.eval_periodic.share'):.3f}"),
        ("matching and epdiff spans are absent from shoot-2d",
         not idle_in_shoot,
         "nonzero: " + (", ".join(idle_in_shoot) or "none")),
        ("io.write.bytes is small (< 1 % of shoot-2d's) on match-1d and xval-2d",
         max(io_bytes["match-1d"], io_bytes["xval-2d"])
         < 0.01 * io_bytes["shoot-2d"],
         ", ".join(f"{w} {b:.0f} B" for w, b in io_bytes.items())),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    report = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    layers = {}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = report["workloads"][workload] = {"end_to_end": {}}
        for seed in SEEDS:
            result = run(workload, seed, seconds, 0)
            env = result.pop("env")
            report["env"] = {key: env[key] for key in env
                             if key not in ("workload", "seed", "seconds", "trace")}
            result["fail_rate"] = result["failed"] / result["attempted"]
            entry["end_to_end"][str(seed)] = result
            print(f"\n{workload}  seed {seed}  attempted {result['attempted']}"
                  f"  failed {result['failed']}"
                  f"  fail_rate {result['fail_rate']:.3f}")
            for name, m in result["metrics"].items():
                samples = result["samples"].get(name, "-")
                print(f"  {name:<16} {m['value']:>12.6g} {m['unit']:<3}"
                      f"  samples {samples}")
            for name, stats in result.get("as_measured", {}).items():
                print(f"  {name} as measured: " + "  ".join(
                    f"{k} {v:.4f}" for k, v in stats.items()))
        traced = run(workload, RECORDED_SEED, seconds, 1)
        traced.pop("env")
        entry["per_layer"] = traced
        layers[workload] = traced["metrics"]
        print(f"{workload}  traced, seed {RECORDED_SEED}"
              f"  ({traced['samples']['traced']} traced runs)")
        for name, m in traced["metrics"].items():
            print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")

    report["predictions"] = []
    print("\npredictions")
    for claim, holds, evidence in predictions(layers):
        verdict = "confirmed" if holds else "REFUTED"
        report["predictions"].append(
            {"claim": claim, "verdict": verdict, "evidence": evidence})
        print(f"  {verdict:<9} {claim}: {evidence}")
    print("\nenv " + json.dumps(report["env"], sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
