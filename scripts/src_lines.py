"""Count the non-blank, non-comment lines of each module in src/quantale/.

A line counts unless it is blank or holds only a comment; docstring lines
count.  Prints one line per module, in name order, then the total.

Usage: python scripts/src_lines.py
"""

import argparse
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quantale"


def count(path: Path) -> int:
    """The lines of ``path`` that hold code or docstring text."""
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    counts = {path.name: count(path) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts)) + 2
    for name, lines in counts.items():
        print(f"{name:<{width}}{lines:>5}")
    print(f"{'total':<{width}}{sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
