#!/usr/bin/env python3
"""Gate simulated behaviour on the perf ledger's workload fingerprints.

A workload's fingerprint digests everything its worlds simulated and does
not depend on ``--seconds``, so a change that is only faster leaves all
four as they are, and a change that alters behaviour has to edit the
expected file in its own diff — which is where a reviewer sees it.

Usage: python3 scripts/check_fingerprints.py EXPECTED.json LEDGER.json
"""

import json
import sys


def main(expected_path, ledger_path):
    with open(expected_path, encoding="utf-8") as handle:
        expected = json.load(handle)
    with open(ledger_path, encoding="utf-8") as handle:
        ledger = json.load(handle)

    if ledger.get("seed") != expected["seed"]:
        print(f"FAIL the ledger was run at seed {ledger.get('seed')}, "
              f"{expected_path} pins seed {expected['seed']}")
        return 1

    ok = True
    workloads = ledger.get("workloads", {})
    for name, want in expected["fingerprints"].items():
        got = workloads.get(name, {}).get("fingerprint")
        if got == want:
            print(f"ok   {name}: {got}")
        else:
            ok = False
            print(f"FAIL {name}: fingerprint {got}, expected {want}")
    for name in sorted(set(workloads) - set(expected["fingerprints"])):
        ok = False
        print(f"FAIL {name}: in the ledger but not in {expected_path}")
    if not ok:
        print("Simulated behaviour changed. If that is the point of the change, "
              f"update {expected_path} in the same diff and say why.")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
