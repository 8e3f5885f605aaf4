#!/usr/bin/env python3
"""Check that every Phase-1 pick in a journal beat its warehouse price.

Each ``phase1-assigned`` event of a JSONL request journal (written by
``--journal-out``) records the chosen copy's ``psi_d`` and ``psi_c`` and
the cheapest routable home warehouse the greedy priced it against
(``warehouse``, ``warehouse_psi_d``; both null when no home was
routable).  The greedy serves from the cheapest copy, so every event must
hold:

* ``psi_d + psi_c <= warehouse_psi_d``;
* a warehouse pick is that warehouse at that price (``source ==
  warehouse`` and ``psi_d == warehouse_psi_d``);
* a null warehouse comes with a null price and a cache pick.

Usage: ``python tools/check_warehouse_price.py JOURNAL.jsonl [...]``.
Prints one summary line per journal; exits 1 listing the violations, or
when a journal holds no ``phase1-assigned`` event.
"""

from __future__ import annotations

import json
import sys


def violations(attrs: dict) -> list[str]:
    """What one ``phase1-assigned`` event's attributes break."""
    warehouse, price = attrs["warehouse"], attrs["warehouse_psi_d"]
    if warehouse is None:
        if price is None and attrs["source_kind"] == "cache":
            return []
        return ["no routable home, yet not a cache pick with a null price"]
    out = []
    if attrs["psi_d"] + attrs["psi_c"] > price:
        out.append("the pick costs more than the warehouse")
    if attrs["source_kind"] == "warehouse" and (
        attrs["source"] != warehouse or attrs["psi_d"] != price
    ):
        out.append("a warehouse pick is not the journaled warehouse at its price")
    return out


def check(path) -> tuple[dict, list[str]]:
    """``({"events", "cache_picks", "warehouses"}, violation lines)`` of
    one journal."""
    events = cache = 0
    warehouses = set()
    bad = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            event = json.loads(line)
            if event["event"] != "phase1-assigned":
                continue
            attrs = event["attrs"]
            events += 1
            cache += attrs["source_kind"] == "cache"
            if attrs["warehouse"] is not None:
                warehouses.add(attrs["warehouse"])
            bad.extend(f"{path}:{lineno}: {v}" for v in violations(attrs))
    summary = {
        "events": events,
        "cache_picks": cache,
        "warehouses": sorted(warehouses),
    }
    return summary, bad


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_warehouse_price.py JOURNAL.jsonl [...]", file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        summary, bad = check(path)
        print(
            f"{path}: {summary['events']} phase1-assigned events, "
            f"{summary['cache_picks']} cache picks, warehouses "
            f"{','.join(summary['warehouses']) or '-'}"
        )
        for line in bad:
            print(line)
        if bad or not summary["events"]:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
