#!/usr/bin/env python3
"""Running the whole service: reservations in, schedules + invoices out.

The flagship end-to-end scenario.  A provider operates the paper's
infrastructure through :class:`repro.VORService`: customers book titles a
few hours ahead; at midnight the operator closes the cycle, which

* schedules every due reservation with the two-phase algorithm,
* validates the plan in the discrete-event simulator,
* plans tape-to-disk staging inside the hierarchical warehouse,
* bills every customer their exact share of Ψ(S), and
* rolls still-draining caches into the next day.

Run:  python examples/vor_operator.py
"""

import numpy as np

from repro import (
    StagingPlanner,
    VORService,
    WarehouseSpec,
    paper_catalog,
    paper_topology,
    units,
)
from repro.analysis import format_table


def main() -> None:
    topology = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(8),
    )
    catalog = paper_catalog(150, seed=77)
    service = VORService(topology, catalog, lead_time=units.HOUR)
    staging_planner = StagingPlanner(
        WarehouseSpec(
            disk_capacity=units.gb(300),
            tape_drives=6,
            tape_bandwidth=60 * units.MB,
        ),
        catalog,
    )

    rng = np.random.default_rng(77)
    storages = [s.name for s in topology.storages]
    zipf_ranks = (rng.pareto(1.2, size=400) * 3).astype(int).clip(0, len(catalog) - 1)

    # two days of bookings, evening-heavy showings
    bookings = 0
    for day in range(2):
        day_start = day * units.DAY
        for k in range(200):
            showing = day_start + float(
                rng.normal(20 * units.HOUR, 2.5 * units.HOUR)
            ) % units.DAY
            if showing < day_start + units.HOUR:
                continue
            try:
                service.reserve(
                    f"cust{day}{k:03d}",
                    catalog.by_rank(int(zipf_ranks[day * 200 + k])).video_id,
                    showing,
                    local_storage=str(rng.choice(storages)),
                    now=day_start,
                )
                bookings += 1
            except Exception:
                continue  # lead-time misses etc. -- the customer retries

        report = service.close_cycle(cycle_end=(day + 1) * units.DAY)
        print(f"== closing day {day} ==")
        print(report.summary())
        staging = staging_planner.plan(report.cycle.schedule)
        print(
            f"  warehouse: {len(staging.tasks)} stagings, "
            f"{staging.hits} hits, {len(staging.misses)} misses"
        )
        top = report.billing.top_payers(3)
        print(
            format_table(
                ["customer", "services", "network ($)", "storage ($)", "total ($)"],
                [
                    [i.user_id, i.services, i.network, i.storage, i.total]
                    for i in top
                ],
                title="top invoices",
                float_fmt="{:,.2f}",
            )
        )
        print()
    print(f"{bookings} reservations processed over two days")


if __name__ == "__main__":
    main()
