"""Record the golden fingerprint of every benchmark command.

    python3 perfbench/make_golden.py

Runs every command of every workload once for each beta of its pool, applies
the independent output checks of workloads.check_output, and writes
golden.json (exit code and stdout sha256 per command) only if every check
passes.  Stderr, where caveats are printed, is not fingerprinted.  Rerun it
only on a commit whose outputs are known to be right: a change that claims a
speed-up must leave golden.json untouched.
"""

import json
import sys

import run
import workloads as wl


def main() -> int:
    golden, bad = {}, []

    def record(step, sample):
        failure = wl.check_output(step.command, sample.rc, sample.stdout)
        print(f"{'ok ' if failure is None else 'BAD'} {step.key}"
              + ("" if failure is None else f": {failure}"))
        if failure is not None:
            bad.append(step.key)
        golden[step.key] = {"rc": sample.rc, "sha256": wl.sha256(sample.stdout)}

    for workload in wl.WORKLOADS:
        bench = run.Bench(workload, 0, golden={})
        for step in wl.pool_steps(workload):
            producer = step.producer
            if producer is not None and producer.key not in bench.inputs:
                record(producer, bench.produce(producer))
            record(step, bench.gkz(step))
    if bad:
        print(f"{len(bad)} commands failed their checks; golden.json not written",
              file=sys.stderr)
        return 1
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(dict(sorted(golden.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden)} fingerprints to {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
