#!/usr/bin/env python3
"""Quickstart: the paper's Fig. 2 worked example, end to end.

Builds the two-storage topology, prices the paper's two hand-made schedules
(Ψ(S1) = $259.20, Ψ(S2) = $138.975), then lets the two-phase scheduler find
its own schedule -- which turns out cheaper than both -- and prints each
request's journaled decision: the copy it was served from and the cheapest
home warehouse that copy was priced against.

Run:  python examples/quickstart.py
"""

from repro import (
    CostModel,
    Request,
    RequestBatch,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    units,
    worked_example_topology,
)
from repro.experiments.worked_example import paper_schedule_s1, paper_schedule_s2
from repro.obs import Observability, request_key


def main() -> None:
    # -- the environment: VW -- IS1 -- IS2, rates straight from Fig. 2 ------
    topology = worked_example_topology()
    movie = VideoFile(
        "movie",
        size=units.gb(2.5),
        playback=units.minutes(90),
        bandwidth=units.mbps(6),
    )
    catalog = VideoCatalog([movie])

    # -- three reservations: U1 at 1:00 pm (IS1), U2 2:30 pm, U3 4:00 pm ----
    one_pm = 13 * units.HOUR
    batch = RequestBatch(
        [
            Request(one_pm, "movie", "U1", "IS1"),
            Request(one_pm + 1.5 * units.HOUR, "movie", "U2", "IS2"),
            Request(one_pm + 3.0 * units.HOUR, "movie", "U3", "IS2"),
        ]
    )

    # -- price the paper's hand-made schedules under the Eq. 1-4 cost model -
    cost_model = CostModel(topology, catalog)
    psi_s1 = cost_model.total(paper_schedule_s1())
    psi_s2 = cost_model.total(paper_schedule_s2())
    print(f"paper S1 (all direct from warehouse): ${psi_s1:.3f}   (paper: $259.200)")
    print(f"paper S2 (cache at IS1):              ${psi_s2:.3f}   (paper: $138.975)")

    # -- now let the two-phase scheduler decide ------------------------------
    obs = Observability.on(journal=True)
    result = VideoScheduler(topology, catalog, obs=obs).solve(batch)
    print(f"two-phase scheduler:                  ${result.total_cost:.3f}")
    print()
    print("chosen deliveries:")
    for d in sorted(result.schedule.deliveries, key=lambda d: d.start_time):
        hops = " -> ".join(d.route) if d.hops else f"{d.route[0]} (local cache)"
        print(f"  {d.request.user_id} at t={d.start_time / units.HOUR:.1f} h via {hops}")
    print("cache residencies:")
    for c in result.schedule.residencies:
        print(
            f"  {c.video_id} at {c.location}: "
            f"[{c.t_start / units.HOUR:.1f} h, {c.t_last / units.HOUR:.1f} h], "
            f"serves {list(c.service_list)}"
        )
    print()
    print(
        "the scheduler beats the paper's S2 by also caching at IS2: U3 is\n"
        "served from its own neighborhood at zero network cost."
    )

    # -- audit the decisions: what each copy saved against the warehouse -----
    for r in batch:
        print()
        print(obs.journal.format_timeline(request_key(r)))


if __name__ == "__main__":
    main()
