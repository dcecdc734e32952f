#!/usr/bin/env python3
"""Fail when the operation-batch codec spends more bytes than its budget.

`ledger probes` prints one `name value unit` row per layer probe;
`wire.batch64_bytes` is the encoded size of the ledger's sample batch (64
`Put`s of ~23 bytes on one object, the partition changing every op). It is
a count, identical on every run, so any rise is a codec regression — this
script turns it into a CI failure instead of a ledger footnote.

Usage: ledger probes | check_wire_budget.py
"""

import sys

METRIC = "wire.batch64_bytes"

# 64 ops x (23 payload + flags + partition + length) plus the first op's
# object, epoch and trace come to 1725 bytes; the budget leaves one byte
# per op of slack. (The layout this replaced took 2802.)
BUDGET_BYTES = 1800


def main() -> int:
    for line in sys.stdin:
        fields = line.split()
        if len(fields) >= 2 and fields[0] == METRIC:
            size = float(fields[1])
            if size > BUDGET_BYTES:
                print(f"FAIL: {METRIC} = {size:g} B exceeds the budget of {BUDGET_BYTES} B")
                return 1
            print(f"ok: {METRIC} = {size:g} B (budget {BUDGET_BYTES} B)")
            return 0
    print(f"FAIL: no {METRIC} row on stdin (pipe `ledger probes` into this script)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
