"""The environment file the CLI tests schedule."""

from __future__ import annotations


def paper_env(tmp_path, *, n_videos=20, users=2, seed=2, requests=True):
    """Write the paper topology (5 GB caches), a seeded catalog and --
    unless ``requests=False`` -- a seeded booking batch; returns the path."""
    from repro import WorkloadGenerator, paper_catalog, paper_topology, units
    from repro.io import save_environment

    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(n_videos, seed=seed)
    batch = (
        WorkloadGenerator(topo, catalog, users_per_neighborhood=users).generate(
            seed
        )
        if requests
        else None
    )
    path = tmp_path / "env.json"
    save_environment(path, topology=topo, catalog=catalog, batch=batch)
    return path
