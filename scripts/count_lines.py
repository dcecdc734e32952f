#!/usr/bin/env python3
"""Non-test source lines per crate, and a ceiling on them.

A file's non-test lines are the lines of `crates/<crate>/src/**/*.rs` before
its `#[cfg(test)]` attribute that is followed by `mod tests` (every line, in
a file without one): unit tests sit at the end of the file they test, or in
a `tests/` directory beside it, whose files are test code throughout.

    scripts/count_lines.py                      # the table
    scripts/count_lines.py --max rts+wire=12490 # exit 1 above the ceiling
    scripts/count_lines.py --max-file crates/rts/src=1200  # no file above it

ROADMAP item 2 is an argument about these numbers; the `check` CI job holds
`crates/rts` + `crates/wire` to what the last PR reached, so the engine
cannot quietly grow back, and every file of `crates/rts/src` to a size a
reader can hold.
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def non_test_lines(path: pathlib.Path) -> int:
    if "tests" in path.relative_to(ROOT).parts[3:-1]:
        return 0
    lines = path.read_text(encoding="utf-8").splitlines()
    for at, line in enumerate(lines):
        tests_next = at + 1 < len(lines) and lines[at + 1].lstrip().startswith("mod tests")
        if line.strip() == "#[cfg(test)]" and tests_next:
            return at
    return len(lines)


def crate_lines() -> dict[str, int]:
    counts = {}
    for src in sorted(ROOT.glob("crates/*/src")):
        counts[src.parent.name] = sum(non_test_lines(path) for path in src.rglob("*.rs"))
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max",
        action="append",
        default=[],
        metavar="CRATE[+CRATE...]=N",
        help="fail when the named crates together exceed N non-test lines",
    )
    parser.add_argument(
        "--max-file",
        action="append",
        default=[],
        metavar="DIR=N",
        help="fail when a file under DIR has more than N non-test lines",
    )
    args = parser.parse_args()
    counts = crate_lines()
    for crate, count in counts.items():
        print(f"{crate:<12}{count:>8}")
    print(f"{'total':<12}{sum(counts.values()):>8}")
    failed = False
    for ceiling in args.max:
        names, _, limit = ceiling.partition("=")
        unknown = [name for name in names.split("+") if name not in counts]
        if unknown or not limit.isdigit():
            parser.error(f"--max {ceiling}: expected CRATE[+CRATE...]=N over {sorted(counts)}")
        total = sum(counts[name] for name in names.split("+"))
        verdict = "ok" if total <= int(limit) else "TOO MANY"
        print(f"{names}: {total} non-test lines, ceiling {limit}: {verdict}")
        failed |= total > int(limit)
    for ceiling in args.max_file:
        name, _, limit = ceiling.partition("=")
        if not (ROOT / name).is_dir() or not limit.isdigit():
            parser.error(f"--max-file {ceiling}: expected DIR=N, DIR under the repository root")
        sizes = {path: non_test_lines(path) for path in sorted((ROOT / name).rglob("*.rs"))}
        longest = max(sizes, key=sizes.get)
        print(f"{name}: longest file {longest.relative_to(ROOT)}, {sizes[longest]} non-test lines")
        for path, size in sizes.items():
            if size > int(limit):
                print(f"{path.relative_to(ROOT)}: {size} non-test lines, ceiling {limit}: TOO MANY")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
