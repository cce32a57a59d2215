"""Write the default-seed reference digests of every workload's stream.

    python3 certbench/make_reference.py

Run from the root of a checkout.  Each stream round is issued once, every
output check must pass, and the SHA-256 of each certificate (toolVersion cut
out) is stored in certbench/reference/<workload>.json.  The reference pins
the certificates of the commit that produced it.
"""

import json
import os
import sys

import workloads
from worker import import_cli, run_pass

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    cli = import_cli()
    for name in workloads.WORKLOADS:
        rounds = workloads.stream(name, workloads.DEFAULT_SEED)
        records = run_pass(cli, rounds, round_limit=len(rounds))
        failures = [r["failure"] for r in records if r["failure"]]
        if failures:
            sys.stderr.write(f"{name}: {len(failures)} failed checks, first: {failures[0]}\n")
            return 1
        digests = iter(r["digest"] for r in records)
        doc = {"workload": name, "seed": workloads.DEFAULT_SEED,
               "digests": [[next(digests) for _ in rnd] for rnd in rounds]}
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w") as fh:
            json.dump(doc, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {len(records)} certificates in {len(rounds)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
