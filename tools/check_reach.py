#!/usr/bin/env python3
"""Lint: every public name and keyword option in src/repro has a caller.

A caller is code outside ``tests/``: the package itself, the
benchmarks, the examples, the declared benchmark (``vorbench/``), the
tools and the CI workflow.  Two kinds of finding are reported, one
``path:line name`` line each:

* a public function, class, method or property under ``src/repro``
  whose name appears as a word in no caller file.  In ``src/`` the
  definition itself, ``import`` lines and ``__all__`` lists do not
  count; anywhere else any mention does, so vorbench's
  ``"VideoScheduler.solve"``-style string bindings are callers;
* a keyword-only parameter with a default that no call in a caller's
  Python file, or in a workflow's ``python - <<'EOF'`` script, passes by
  name.  Calls are resolved by callee name only:
  ``f(...)`` and ``x.f(...)`` both call ``f``, ``C(...)`` calls
  ``C.__init__``, ``cls(...)`` inside class ``C`` calls ``C`` and
  ``super().__init__(...)`` calls the enclosing class's bases.  A
  callee that is ever called with ``**kwargs`` counts as passed every
  keyword.

``ALLOWED`` names the few findings kept on purpose, each with its
reason.  An allowlist entry that no longer matches a finding is itself
reported, so the list cannot go stale.

Exit status: 0 when nothing is found, 1 otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
import textwrap
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "vorbench", "tools", ".github")
CALLER_SUFFIXES = {".py", ".yml", ".yaml"}

#: Findings kept on purpose, by the name the tool prints, with the reason.
ALLOWED = {
    "OnlineAmendmentLoop(clock=)": (
        "test seam: tests substitute a fake clock for time.monotonic"
    ),
    "OnlineAmendmentLoop(sleep=)": (
        "test seam: tests substitute a recording sleep for the retry backoff"
    ),
    "Observability.on(clock=)": (
        "test seam: tests substitute a fake clock for span timing"
    ),
    "configure_logging(stream=)": (
        "test seam: tests capture the log lines in a StringIO"
    ),
    "resolve_overflows(max_iterations=)": (
        "safety guard: tests drive the loop guard that stops a SORP cycle"
    ),
    "RecoveryResult.sla_summary": (
        "README.md and docs/REPLICATION.md tell users to call it"
    ),
    "OptimalScheduler.solve(respect_capacity=)": (
        "only a test reaches the capacity-free optimum: it bounds the Phase-1"
        " greedy, which ignores capacity (tests/baselines/test_baselines.py::"
        "TestOptimal::test_never_worse_than_greedy)"
    ),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITION = re.compile(r"\b(?:def|class)\s+[A-Za-z_][A-Za-z0-9_]*")
#: A Python script fed to the interpreter on stdin in a workflow step.
_HEREDOC = re.compile(r"python3? - <<'EOF'\n(.*?)\n\s*EOF\n", re.DOTALL)


class Finding(NamedTuple):
    path: str
    line: int
    name: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line} {self.name}"


class Definition(NamedTuple):
    path: str
    line: int
    name: str  # the bare name callers use
    qualname: str  # Class.method or function
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    owner: str | None  # the enclosing class's name, for members


def _definitions(tree: ast.Module, path: str) -> list[Definition]:
    """Module-level functions and classes, and the members of classes."""
    found: list[Definition] = []

    def visit(body: list[ast.stmt], prefix: str, owner: str | None) -> None:
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            qualname = prefix + node.name
            found.append(Definition(path, node.lineno, node.name, qualname, node, owner))
            if isinstance(node, ast.ClassDef):
                visit(node.body, qualname + ".", node.name)

    visit(tree.body, "", None)
    return found


def _excluded_lines(tree: ast.Module) -> set[int]:
    """Lines of ``import`` statements and ``__all__`` assignments."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _callee_names(call: ast.Call, cls: ast.ClassDef | None) -> list[str]:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and cls is not None:
            return [cls.name]
        return [func.id]
    if isinstance(func, ast.Attribute):
        is_super = (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        )
        if is_super and func.attr == "__init__" and cls is not None:
            return [b.id for b in cls.bases if isinstance(b, ast.Name)]
        return [func.attr]
    return []


class _Calls(ast.NodeVisitor):
    """Keyword names passed to each callee name."""

    def __init__(self) -> None:
        self.keywords: dict[str, set[str]] = {}
        self.splatted: set[str] = set()
        self._classes: list[ast.ClassDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        cls = self._classes[-1] if self._classes else None
        for name in _callee_names(node, cls):
            passed = self.keywords.setdefault(name, set())
            for kw in node.keywords:
                if kw.arg is None:
                    self.splatted.add(name)
                else:
                    passed.add(kw.arg)
        self.generic_visit(node)


def _caller_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for top in CALLER_DIRS:
        base = root / top
        if base.is_dir():
            files += sorted(
                p
                for p in base.rglob("*")
                if p.suffix in CALLER_SUFFIXES and "__pycache__" not in p.parts
            )
    # the allowlist names what it allows; that is no call
    return [p for p in files if p != root / "tools" / "check_reach.py"]


def scan(root: Path = ROOT, allowed: dict[str, str] = ALLOWED) -> list[Finding]:
    package = root / PACKAGE
    words: Counter[str] = Counter()
    calls = _Calls()
    definitions: list[Definition] = []
    for path in _caller_files(root):
        text = path.read_text()
        if path.suffix != ".py":
            words.update(_WORD.findall(text))
            for script in _HEREDOC.findall(text):
                calls.visit(ast.parse(textwrap.dedent(script)))
            continue
        tree = ast.parse(text, filename=str(path))
        calls.visit(tree)
        if package in path.parents:
            rel = str(path.relative_to(root))
            definitions += _definitions(tree, rel)
        if (root / "src") in path.parents:
            skip = _excluded_lines(tree)
            text = "\n".join(
                _DEFINITION.sub("", line)
                for n, line in enumerate(text.splitlines(), 1)
                if n not in skip
            )
        words.update(_WORD.findall(text))

    findings: list[Finding] = []
    for d in definitions:
        public = not d.name.startswith("_") and not (d.owner or "").startswith("_")
        if public and words[d.name] == 0:
            findings.append(Finding(d.path, d.line, d.qualname))
        if isinstance(d.node, ast.ClassDef):
            continue
        # C(...) calls C.__init__; it is shown as C(option=)
        constructor = d.name == "__init__" and d.owner is not None
        callee = d.owner if constructor else d.name
        shown = d.qualname.rsplit(".", 1)[0] if constructor else d.qualname
        if callee in calls.splatted:
            continue
        passed = calls.keywords.get(callee, set())
        args = d.node.args
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and arg.arg not in passed:
                findings.append(Finding(d.path, arg.lineno, f"{shown}({arg.arg}=)"))

    seen = {f.name for f in findings}
    stale = [
        Finding("tools/check_reach.py", 0, f"{name} (allowlisted, but reached)")
        for name in allowed
        if name not in seen
    ]
    return [f for f in findings if f.name not in allowed] + stale


def main() -> int:
    findings = scan()
    for f in findings:
        print(f)
    if findings:
        print(f"{len(findings)} unreached name(s) or option(s)", file=sys.stderr)
        return 1
    print(f"reach OK: {len(ALLOWED)} allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
