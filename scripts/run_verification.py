#!/usr/bin/env python3
"""Run every CLI verification suite and exit nonzero on any failure.

Usage: python3 scripts/run_verification.py [--seed SEED] [--count COUNT]
"""

import argparse
import sys

from drinfan.cli import main as cli_main


def run(argv):
    print(f"$ drinfan {' '.join(argv)}", file=sys.stderr)
    return cli_main(argv)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", default="0")
    ap.add_argument("--count", default="200")
    args = ap.parse_args()

    # the identities suite covers q = 2 and 3 in one run
    rc = run(["verify", "identities", "--seed", args.seed,
              "--count", args.count])
    rc |= run(["verify", "tate", "--precision", "64"])
    rc |= run(["verify", "sigk3"])
    rc |= run(["satake-check"])
    return rc


if __name__ == "__main__":
    sys.exit(main())
