"""Record the expected outputs of the ops checked by digest.

    python3 perfbench/record.py

Run from the repository root, at the commit whose outputs are the
reference.  Writes perfbench/expected.json: the exit code and stdout digest
of every CLI argv that any seed can draw from a digest-checked pool, the
digests of the fans outputs, and the fingerprints of the batches of the
development seed and the held-out seed.  Every recorded CLI call must exit 0.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from run import DEV_SEED, EXPECTED, HELDOUT_SEED  # noqa: E402


def main() -> int:
    cli = {}
    for family, pool in workloads.POOLS.items():
        for argv in pool:
            out = workloads.run_cli(argv)
            if out[0] != 0:
                print(f"record: {' '.join(argv)} exits {out[0]}",
                      file=sys.stderr)
                return 1
            cli[workloads.cli_key(argv)] = workloads.cli_record(out)
    fans = {}
    for seed in (DEV_SEED, HELDOUT_SEED):
        for op in workloads.build("fans", seed):
            out = op.run()
            if op.record is None:
                continue
            value = op.record(out)
            if fans.setdefault(op.label, value) != value:
                print(f"record: {op.label} depends on the seed",
                      file=sys.stderr)
                return 1
    expected = {"cli": cli, "fans": fans, "batches": {}}
    for name in workloads.WORKLOADS:
        expected["batches"][name] = {
            str(seed): workloads.batch_fingerprint(
                workloads.build(name, seed, expected))
            for seed in (DEV_SEED, HELDOUT_SEED)}
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(cli)} CLI digests and {len(fans)} fan digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
