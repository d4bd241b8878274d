#!/usr/bin/env python3
"""Lists every value that moved between two renders of one golden.

    python3 scripts/render_moves.py OLD.txt NEW.txt

Both files must have the same lines in the same order (a golden under
`tests/goldens/` and the fresh render a failing test writes to
`target/tmp/goldens/`). Each differing line is split into tokens at
whitespace and `,{}()[]`; a moved token is reported with the field name
before it (`name:` in a `{:?}` struct, or a row render's first word), the
line's label (the summary label in the suite render), old, new and the
difference. The last line names every field that moved, so "only
`timers_fired` moved" reads off one line. Exits 1 if the line structure
differs or a token count changes.
"""

import re
import sys

TOKEN = re.compile(r"[^\s,{}()\[\]]+")


def moves(old, new):
    for number, (was, now) in enumerate(zip(old, new), 1):
        if was == now:
            continue
        a, b = TOKEN.findall(was), TOKEN.findall(now)
        if len(a) != len(b):
            sys.exit(f"line {number}: token count {len(a)} -> {len(b)}")
        label = re.search(r'"[^"]*"', was)
        label = label.group(0) if label else a[0]
        for i, (x, y) in enumerate(zip(a, b)):
            if x == y:
                continue
            field = next((t[:-1] for t in reversed(a[:i]) if t.endswith(":")), a[0])
            try:
                delta = f"{float(y) - float(x):+g}"
            except ValueError:
                delta = "?"
            yield number, label, field, x, y, delta


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = (open(path).read().splitlines() for path in sys.argv[1:])
    if len(old) != len(new):
        sys.exit(f"line count {len(old)} -> {len(new)}")
    fields = set()
    for number, label, field, x, y, delta in moves(old, new):
        fields.add(field)
        print(f"line {number} {label} {field}: {x} -> {y} ({delta})")
    print("moved fields:", " ".join(sorted(fields)) or "none")


if __name__ == "__main__":
    main()
