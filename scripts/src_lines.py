#!/usr/bin/env python3
"""Count the code lines of src/, per directory and in total.

A code line is a line of a src/**/*.h or src/**/*.cc file that, once
stripped, is not blank, does not start with `//`, and is not part of a
`/* ... */` block that starts a line. This is the count ROADMAP.md and
CHANGES.md quote for src/'s size.

Usage: python3 scripts/src_lines.py [--root DIR] [--markdown]

--root is the repository root (default: this script's parent
directory). --markdown prints a table for a CI job summary.
"""

import argparse
import pathlib
import sys


def code_lines(text):
    """Return the number of code lines in one source file's text."""
    count = 0
    in_block = False
    for raw in text.splitlines():
        line = raw.strip()
        if in_block:
            if "*/" in line:
                in_block = False
            continue
        if not line or line.startswith("//"):
            continue
        if line.startswith("/*"):
            in_block = "*/" not in line[2:]
            continue
        count += 1
    return count


def count_tree(src):
    """Map each directory under src (relative, posix) to its code lines."""
    per_dir = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        rel = path.parent.relative_to(src.parent).as_posix()
        n = code_lines(path.read_text(encoding="utf-8", errors="replace"))
        per_dir[rel] = per_dir.get(rel, 0) + n
    return per_dir


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent)
    ap.add_argument("--markdown", action="store_true")
    args = ap.parse_args(argv)

    src = args.root / "src"
    if not src.is_dir():
        print(f"no src/ directory under {args.root}", file=sys.stderr)
        return 2
    per_dir = count_tree(src)
    total = sum(per_dir.values())
    if args.markdown:
        print("| directory | code lines |")
        print("|---|---:|")
        for d, n in per_dir.items():
            print(f"| `{d}` | {n:,} |")
        print(f"| **`src/` total** | **{total:,}** |")
    else:
        for d, n in per_dir.items():
            print(f"{d:<16} {n:>7,}")
        print(f"{'src/ total':<16} {total:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
