"""Compare two prediction dumps written by the benchmark.

    python3 perfbench/diff_predictions.py OLD.predictions.json NEW.predictions.json

Two dumps agree when they hold the same images, every image keeps its label
and predicted class, and every support value moves by at most 1e-12. Prints
each disagreement; exits 0 when there is none and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SUPPORT_TOL = 1e-12


def differences(old: list, new: list) -> list[str]:
    old_by_path = {p["path"]: p for p in old}
    new_by_path = {p["path"]: p for p in new}
    out = [f"{path}: only in the old dump" for path in sorted(old_by_path.keys() - new_by_path)]
    out += [f"{path}: only in the new dump" for path in sorted(new_by_path.keys() - old_by_path)]
    for path in sorted(old_by_path.keys() & new_by_path.keys()):
        a, b = old_by_path[path], new_by_path[path]
        for key in ("label", "predicted"):
            if a[key] != b[key]:
                out.append(f"{path}: {key} {a[key]!r} -> {b[key]!r}")
        if len(a["support"]) != len(b["support"]):
            out.append(f"{path}: support has {len(a['support'])} -> {len(b['support'])} classes")
            continue
        delta = max(abs(x - y) for x, y in zip(a["support"], b["support"]))
        if not delta <= SUPPORT_TOL:
            out.append(f"{path}: support moved by {delta:.3g}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    found = differences(old, new)
    for line in found:
        print(line)
    print(f"{len(found)} difference(s) over {len(new)} predictions")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
