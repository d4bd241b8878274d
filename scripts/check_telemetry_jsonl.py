#!/usr/bin/env python3
"""Schema check for the telemetry subsystem's JSONL exports.

Validates flight-recorder traces, metrics-hub series and block-journey
spans line by line, so CI can gate the ``trace_probe`` output on schema,
not just on existing.

Usage: python3 scripts/check_telemetry_jsonl.py {trace|series|journeys} FILE...
"""

import json
import sys

# Required keys per telemetry JSONL kind, with the type every line must
# carry for each. ``series`` values may be fractional; everything else
# the recorder emits is an integer count or microsecond timestamp.
JSONL_SCHEMAS = {
    "trace": {"t_us": int, "node": int, "kind": str},
    "series": {"series": str, "t_secs": (int, float), "value": (int, float)},
    "journeys": {
        "seq": int,
        "sealed_us": int,
        "accepts": int,
        "tree_pushes": int,
        "mesh_serves": int,
        "mesh_recovery_hops": int,
        "duplicates": int,
        # null when the block never reached that fraction of receivers
        # before the run ended — a truncated journey, not a bad line.
        "reach_p50_us": (int, type(None)),
        "reach_p95_us": (int, type(None)),
    },
}


def fail(path, message):
    print(f"FAIL {path}: {message}")
    return False


def check_jsonl(kind, path):
    def reject_non_finite(token):
        raise ValueError(f"non-finite number {token!r}")

    schema = JSONL_SCHEMAS[kind]
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
    except OSError as err:
        return fail(path, f"not readable: {err}")

    if not lines:
        return fail(path, f"empty {kind} export — the recorder emitted nothing")

    for number, line in enumerate(lines, start=1):
        try:
            doc = json.loads(line, parse_constant=reject_non_finite)
        except ValueError as err:
            return fail(path, f"line {number}: not valid JSON: {err}")
        if not isinstance(doc, dict):
            return fail(path, f"line {number}: not a JSON object")
        for key, want in schema.items():
            if key not in doc:
                return fail(path, f"line {number}: missing key {key!r}")
            value = doc[key]
            # bool is an int subclass in Python; a true/false where a
            # count belongs is a schema break, not a number.
            if isinstance(value, bool) or not isinstance(value, want):
                return fail(
                    path, f"line {number}: {key!r} has wrong type {type(value).__name__}"
                )

    print(f"ok   {path}: {len(lines)} {kind} line(s)")
    return True


def main(argv):
    if len(argv) < 2 or argv[0] not in JSONL_SCHEMAS:
        kinds = "|".join(sorted(JSONL_SCHEMAS))
        print(f"usage: check_telemetry_jsonl.py {{{kinds}}} FILE...")
        return 2
    kind, paths = argv[0], argv[1:]
    ok = all([check_jsonl(kind, path) for path in paths])
    print(f"checked {len(paths)} {kind} file(s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
