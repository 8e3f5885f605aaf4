"""Every public name and keyword option in ``src/repro`` must have a caller.

``tools/check_reach.py`` is the CI lint entry point; these tests run the
same scan under pytest so an unreached name also fails the tier-1 suite,
and pin, on a small synthetic tree, what the scan counts as a caller.
"""

import importlib.util
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_reach.py"
_spec = importlib.util.spec_from_file_location("check_reach", _TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


class TestRepository:
    def test_nothing_unreached(self):
        findings = reach.scan()
        assert not findings, "\n".join(map(str, findings))

    def test_every_allowlist_entry_gives_a_reason(self):
        assert len(reach.ALLOWED) <= 15
        assert all(reason.strip() for reason in reach.ALLOWED.values())


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def _tree(root: Path) -> None:
    _write(
        root,
        "src/repro/mod.py",
        '''
        from repro.other import helper

        __all__ = ["unreached", "Thing", "make", "Built", "kept"]


        def unreached():
            """Nothing outside tests calls this."""


        def make(*, knob=1, passed=2):
            return knob + passed


        def splat(*, anything=0):
            return anything


        def staged(*, via_ci=0):
            return via_ci


        def kept(*, seam=None):
            return seam


        class Thing:
            def lonely(self):
                return 1

            def bound(self):
                return 2


        class Built:
            def __init__(self, *, size=1):
                self.size = size

            @classmethod
            def create(cls):
                return cls(size=2)
        ''',
    )
    _write(
        root,
        "benchmarks/bench_mod.py",
        """
        from repro.mod import Built, kept, make, splat

        make(passed=3)
        splat(**{"anything": 1})
        Built.create()
        kept()
        """,
    )
    # vorbench binds methods by "Class.method" strings
    _write(root, "vorbench/layers.py", 'LAYERS = [("x", "repro.mod", "Thing.bound")]\n')
    _write(
        root,
        ".github/workflows/ci.yml",
        """
        jobs:
          smoke:
            steps:
              - run: |
                  PYTHONPATH=src python - <<'EOF'
                  from repro.mod import staged
                  staged(via_ci=1)
                  EOF
        """,
    )
    # tests are no callers
    _write(root, "tests/test_mod.py", "from repro.mod import unreached\nunreached()\n")


class TestSyntheticTree:
    ALLOWED = {"kept(seam=)": "a test seam"}

    def test_reports_exactly_the_unreached(self, tmp_path):
        _tree(tmp_path)
        found = reach.scan(tmp_path, allowed=self.ALLOWED)
        assert {f.name for f in found} == {"unreached", "Thing.lonely", "make(knob=)"}
        (option,) = [f for f in found if f.name == "make(knob=)"]
        assert str(option) == f"src/repro/mod.py:{option.line} make(knob=)"

    def test_callers_the_scan_must_see(self, tmp_path):
        _tree(tmp_path)
        names = {f.name for f in reach.scan(tmp_path, allowed=self.ALLOWED)}
        assert "Built(size=)" not in names  # passed through cls(...)
        assert "Thing.bound" not in names  # bound by a vorbench string
        assert "splat(anything=)" not in names  # called with **kwargs
        assert "staged(via_ci=)" not in names  # set in a workflow script
        assert "kept(seam=)" not in names  # allowlisted

    def test_stale_allowlist_entry_reported(self, tmp_path):
        _tree(tmp_path)
        allowed = {**self.ALLOWED, "make(passed=)": "set by a benchmark"}
        names = {f.name for f in reach.scan(tmp_path, allowed=allowed)}
        assert "make(passed=) (allowlisted, but reached)" in names
