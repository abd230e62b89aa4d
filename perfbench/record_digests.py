"""Record the stdout digests the benchmark compares against at its default
seed.

    python3 perfbench/record_digests.py

Runs every workload's request list for the default seed once, checks each
output, and writes the SHA-256 of each stdout to perfbench/digests.json.
Rerun it only when the CLI's output is meant to change: the digests pin the
output of the commit they were recorded at.
"""
from __future__ import annotations

import hashlib
import json
import sys

import harness
from run import DIGESTS, ROOT
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    cli = harness.load_permdom(ROOT)
    isolation = harness.Isolation(harness.permdom_modules())
    digests = {}
    for workload in WORKLOADS.values():
        outcomes = []
        for argv in workload.requests(DEFAULT_SEED):
            isolation.reset()
            outcomes.append(harness.execute(cli, argv, limit=120.0))
        parsed = {o.argv: json.loads(o.stdout) for o in outcomes if o.rc == 0}
        for o in outcomes:
            reason = o.error or (f"exit code {o.rc}" if o.rc else None) or \
                workload.check(o.argv, parsed[o.argv], parsed)
            if reason:
                print(f"{workload.name}: {' '.join(o.argv)[:100]}: {reason}",
                      file=sys.stderr)
                return 1
        digests[workload.name] = {
            " ".join(o.argv): hashlib.sha256(o.stdout.encode()).hexdigest()
            for o in outcomes
        }
        print(f"{workload.name}: {len(outcomes)} requests recorded")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
