"""Write bench/reference_hashes.json: artifact sha256s of known-good runs.

    PYTHONPATH=src python3 bench/make_references.py

Runs the CLI calls of the first ``ITERATIONS`` iterations of every
workload for each of ``SEEDS``, untimed, and records the sha256 of each data
artifact under the key of its command line.  Benchmark runs report
whether their artifacts match this table and do not fail on a mismatch;
the table shows which runs still reproduce the reference outputs byte for
byte.  Regenerate it only from the commit the benchmark was defined on.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil

from adqcsim import cli

import worker
from workloads import WORKLOADS

SEEDS = range(21)
ITERATIONS = 3


def main() -> int:
    scratch = worker.ROOT / ".bench_out" / "references"
    table: dict[str, dict[str, str]] = {}
    for seed in SEEDS:
        for i in range(ITERATIONS):
            for cls in WORKLOADS.values():
                inp = cls().inputs(seed, i)
                for op, argv in inp["cli"].items():
                    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                        rc = cli.main(argv + ["--out-dir", str(scratch / op)])
                    if rc != 0:
                        raise SystemExit(f"{argv} exited {rc}")
                table.update(worker.artifacts(scratch, inp)[1])
                shutil.rmtree(scratch)
    worker.REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} command lines recorded in {worker.REFERENCES}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
