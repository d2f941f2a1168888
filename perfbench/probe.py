"""Set-up time of densgeo: one CLI run in a fresh interpreter.

    python3 perfbench/probe.py COMMAND CONFIG OUTDIR

Prints the seconds from before `import densgeo` to the end of the run, and
exits with the CLI's status. The benchmark runs it on a one-step `shoot`.
"""
import sys
import time
from pathlib import Path


def main(argv):
    command, config, outdir = argv
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from densgeo import cli

    rc = cli.main([command, "--config", config, "--output-dir", outdir,
                   "--quiet"])
    print(time.perf_counter() - t0)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
