"""Byte identity of the benchmark workloads' artifacts between two checkouts.

    python tests/compare_artifacts.py PARENT CHANGE [--workdir DIR]

For each workload of perfbench/workloads.py and seeds 1 and 2, each checkout
runs, in a Python process of its own, the workload's `prepare` and then
its CLI command, with densgeo from that checkout's src/. perfbench is only
imported: its `run.bootstrap` pins the BLAS threads and puts src/ on the
import path, as the benchmark does, and no bytecode is written there.

The two checkouts run in turn in the same directory, so the absolute paths
that the configs and manifests name, and the configs' checksums, agree.
Each run's directory (the inputs, match-1d's target shoot and the
artifacts) is then compared file by file with the other checkout's:
identical, or the files that differ or that only one run wrote.
status.json's wall_time is left out. The runs are kept under --workdir
when it is given. Exits 0 when every run is identical.

Not part of the test suite (the name does not match test_*.py).
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("shoot-2d", "match-1d", "xval-2d")
SEEDS = (1, 2)

# prepare and run one workload in a checkout: argv is root, name, seed, dir
RUN = """
import sys
sys.dont_write_bytecode = True
root, name, seed, workdir = sys.argv[1:]
sys.path.insert(0, root + "/perfbench")
import run
run.bootstrap()
from workloads import WORKLOADS
from densgeo import cli
workload = WORKLOADS[name]
config = workload.prepare(int(seed), workdir)
sys.exit(cli.main([workload.command, "--config", config, "--output-dir",
                   workdir + "/out", "--quiet"]))
"""


def run(root, name, seed, workdir):
    """The exit status of one workload run of the checkout at root, which
    leaves its inputs and artifacts in workdir."""
    os.makedirs(workdir)
    return subprocess.run(
        [sys.executable, "-c", RUN, os.path.abspath(root), name, str(seed),
         workdir], cwd=workdir).returncode


def files(top):
    """The paths of the files under top, relative to it."""
    return {os.path.relpath(os.path.join(parent, f), top)
            for parent, _, names in os.walk(top) for f in names}


def same(a, b):
    """Whether files a and b are identical; status.json apart from its
    wall_time."""
    if os.path.basename(a) != "status.json":
        return filecmp.cmp(a, b, shallow=False)
    loaded = []
    for path in (a, b):
        with open(path) as fh:
            status = json.load(fh)
        status.pop("wall_time", None)
        loaded.append(status)
    return loaded[0] == loaded[1]


def compare(a, b):
    """(differing, only in a, only in b): sorted relative paths."""
    fa, fb = files(a), files(b)
    differ = [f for f in sorted(fa & fb)
              if not same(os.path.join(a, f), os.path.join(b, f))]
    return differ, sorted(fa - fb), sorted(fb - fa)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workdir", help="keep the runs here")
    args = parser.parse_args(argv)

    top = args.workdir or tempfile.mkdtemp(prefix="compare-artifacts-")
    shared = os.path.join(top, "run")
    identical = True
    try:
        for name in WORKLOADS:
            for seed in SEEDS:
                dirs, codes = {}, {}
                for label in ("parent", "change"):
                    codes[label] = run(getattr(args, label), name, seed,
                                       shared)
                    dirs[label] = os.path.join(top, label, f"{name}-{seed}")
                    os.makedirs(os.path.dirname(dirs[label]), exist_ok=True)
                    shutil.rmtree(dirs[label], ignore_errors=True)
                    os.rename(shared, dirs[label])
                differ, only_parent, only_change = compare(
                    dirs["parent"], dirs["change"])
                problems = [f"differ: {', '.join(differ)}"] if differ else []
                for label, only in (("parent", only_parent),
                                    ("change", only_change)):
                    if only:
                        problems.append(f"only in {label}: {', '.join(only)}")
                if codes["parent"] != codes["change"]:
                    problems.append(f"exit status {codes['parent']} vs "
                                    f"{codes['change']}")
                identical = identical and not problems
                print(f"{name} seed {seed}: " + ("; ".join(problems) or
                      f"identical ({len(files(dirs['parent']))} files, "
                      f"exit status {codes['parent']})"), flush=True)
    finally:
        if args.workdir is None:
            shutil.rmtree(top, ignore_errors=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
