#!/usr/bin/env python3
"""List every `val` exported by a lib/**/*.mli that nothing outside its
own module and test/ calls, and fail when that list holds an entry the
committed allow-list does not.

A val counts as called when its name appears as a whole word in some
.ml or .mli under lib/, bin/, bench/, benchmark/ or examples/ other than
its own module's two files. That over-counts calls (a name shared with
another module's val is taken as a call), so the list only ever misses
unused vals; it never names a called one.

Usage, from the repository root:
  python3 .github/scripts/unused_exports.py          # check
  python3 .github/scripts/unused_exports.py --list   # print the list
"""
import os
import re
import sys

ROOTS = ["lib", "bin", "bench", "benchmark", "examples"]
ALLOW = os.path.join(os.path.dirname(__file__), "unused_exports.allow")
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def sources():
    for root in ROOTS:
        for d, _, files in os.walk(root):
            if "_build" in d.split(os.sep):
                continue
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(d, f)


def main():
    words = {}
    for path in sources():
        with open(path) as fh:
            for w in set(WORD.findall(fh.read())):
                words.setdefault(w, set()).add(path)
    unused = []
    for path in sorted(p for p in sources() if p.startswith("lib") and p.endswith(".mli")):
        own = {path, path[:-1]}
        with open(path) as fh:
            for name in VAL.findall(fh.read()):
                if not (words.get(name, set()) - own):
                    unused.append(f"{path}: {name}")
    unused = sorted(set(unused))
    if "--list" in sys.argv:
        print("\n".join(unused))
        return 0
    with open(ALLOW) as fh:
        allowed = {l.strip() for l in fh if l.strip() and not l.startswith("#")}
    new = [u for u in unused if u not in allowed]
    gone = sorted(allowed - set(unused))
    for u in gone:
        print(f"now called (drop it from the allow-list): {u}")
    for u in new:
        print(f"exported but only its own module and test/ call it: {u}")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
