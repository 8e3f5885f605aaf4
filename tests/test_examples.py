"""Smoke tests: every example script must run to completion.

Examples are part of the deliverable surface; running them in-process (via
runpy) keeps them from silently rotting as the API evolves.  Each example
asserts its own invariants internally, so completion == healthy.
"""

from __future__ import annotations

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_inventory():
    """The repo ships (at least) the documented example set."""
    expected = {
        "quickstart.py",
        "neighborhood_vod.py",
        "capacity_planning.py",
        "bandwidth_provisioning.py",
        "storage_timeline.py",
        "warehouse_staging.py",
        "rolling_week.py",
        "offpeak_pricing.py",
        "vor_operator.py",
        "batching_tradeoff.py",
    }
    assert expected <= set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"


def test_quickstart_journals_what_the_cache_saved(capsys):
    """U3 is served from IS2's own cache at zero network cost, priced
    against the warehouse VW."""
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    u3 = lines[lines.index("timeline for U3/movie@57600.0->IS2:") + 1]
    assert "phase1-assigned" in u3
    for field in ("source=IS2", "psi_d=0,", "warehouse=VW,"):
        assert field in u3, u3
