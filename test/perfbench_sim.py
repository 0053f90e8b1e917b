#!/usr/bin/env python3
"""Print the simulated outputs of the benchmark's workloads, one per line.

  python3 test/perfbench_sim.py PATH/TO/perfbench/main.exe

Runs `main.exe --run-one W --seed S --scale full` for every workload on
seeds 1 and 2, and once more `--traced` on seed 2, and keeps only the
fields that are exact for a given build of the simulator: the digest,
the attempted and failed counts, and every sim_*, xen.*, devices.*,
drivers.* and swarm.* metric; a traced run adds trace.*, path.* and
sim.pending_*.  Host times, heap sizes and allocation counts are left
out.  `dune runtest` diffs the output against golden/perfbench-sim.out.
"""

import json
import subprocess
import sys

WORKLOADS = ["net-rx-udp", "blk-seq", "swarm-kv", "net-rx-udp-obs"]
RUNS = [(w, s, False) for s in (1, 2) for w in WORKLOADS] + [
    (w, 2, True) for w in WORKLOADS
]
PLAIN = ("sim_", "xen.", "devices.", "drivers.", "swarm.")
TRACED = PLAIN + ("trace.", "path.", "sim.pending_")


def main():
    exe = sys.argv[1]
    for workload, seed, traced in RUNS:
        args = [exe, "--run-one", workload, "--seed", str(seed),
                "--scale", "full"] + (["--traced"] if traced else [])
        out = subprocess.run(args, check=True, capture_output=True, text=True)
        # Numbers stay the text main.exe printed (%.17g), so the diff is
        # exact and needs no float formatting of its own.
        r = json.loads(out.stdout.splitlines()[-1],
                       parse_float=str, parse_int=str)
        run = "%s seed %d%s" % (workload, seed, " traced" if traced else "")
        for field in ("digest", "attempted", "failed"):
            print(run, field, r[field])
        keep = TRACED if traced else PLAIN
        for name, value in r["metrics"].items():
            if name.startswith(keep):
                print(run, name, value)


if __name__ == "__main__":
    main()
