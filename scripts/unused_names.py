"""List the public names under ``src/`` that no code outside the tests calls.

An AST walk; nothing is imported.  Every public (no leading underscore)
top-level function and class under ``src/``, and every public method of a
public class, is matched by bare name against the names the repository
references, and reported in one of two groups:

(a) called nowhere: no reference anywhere, other than from inside a
    definition of the same name (its own body, or a same-named delegate);
(b) called only from tests: every reference sits under ``tests/``, in a
    ``conftest.py`` or in a ``test_*.py`` file (``benchmarks/test_*.py``
    included).

Callers anywhere else count: ``src/`` itself, ``examples/``, ``scripts/`` and
``benchmarks/e2e/``.  An import is not a call, and neither is an ``__all__``
entry, so a name that only a package ``__init__`` re-exports reads as called
nowhere.  A string constant spelling a name counts as a reference, so
``getattr(obj, "name")`` dispatch does not read as dead.  Matching by bare
name is generous: any ``.describe`` anywhere keeps every ``describe`` method,
so group (a) lists only names nothing could be calling.

Usage::

    python scripts/unused_names.py [REPO_ROOT]

Prints both groups as ``path:line name`` and exits 0: it is a report, not a
gate.
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
#: Top-level directories scanned for callers; definitions come from ``src``.
SCANNED = ("src", "tests", "examples", "scripts", "benchmarks")


@dataclass(frozen=True)
class Definition:
    """One public function, class or method under ``src/``."""

    path: str
    line: int
    qualname: str

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def _public(node: ast.AST) -> bool:
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ) and not node.name.startswith("_")


def definitions(tree: ast.Module, path: str) -> Iterator[Definition]:
    """Public top-level functions and classes, and public methods of public classes."""
    for node in tree.body:
        if not _public(node):
            continue
        yield Definition(path, node.lineno, node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _public(item) and not isinstance(item, ast.ClassDef):
                    yield Definition(path, item.lineno, f"{node.name}.{item.name}")


class _References(ast.NodeVisitor):
    """Every name a module references, except inside a definition of that name."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self._enclosing: List[str] = []

    def _add(self, name: str) -> None:
        if name not in self._enclosing:
            self.names.add(name)

    def _visit_definition(self, node) -> None:
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def visit_Name(self, node: ast.Name) -> None:
        self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value)

    def visit_Import(self, node: ast.Import) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not (isinstance(node.target, ast.Name) and node.target.id == "__all__"):
            self.generic_visit(node)


def _is_test(relative: Path) -> bool:
    return (
        relative.parts[0] == "tests"
        or relative.name == "conftest.py"
        or relative.name.startswith("test_")
    )


def _python_files(root: Path) -> Iterator[Path]:
    yield from sorted(root.glob("*.py"))
    for top in SCANNED:
        yield from sorted((root / top).rglob("*.py"))


def scan(root: Path) -> Tuple[List[Definition], List[Definition]]:
    """Return (called nowhere, called only from tests) for the tree at ``root``."""
    runtime: Set[str] = set()
    tested: Set[str] = set()
    found: List[Definition] = []
    for path in _python_files(root):
        relative = path.relative_to(root)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(relative))
        if relative.parts[0] == "src":
            found.extend(definitions(tree, relative.as_posix()))
        references = _References()
        references.visit(tree)
        (tested if _is_test(relative) else runtime).update(references.names)
    uncalled = [d for d in found if d.name not in runtime and d.name not in tested]
    test_only = [d for d in found if d.name not in runtime and d.name in tested]
    return uncalled, test_only


def main(argv: List[str]) -> int:
    root = Path(argv[0]).resolve() if argv else REPO
    uncalled, test_only = scan(root)
    for title, group in (
        ("(a) called nowhere", uncalled),
        ("(b) called only from tests", test_only),
    ):
        print(f"{title}: {len(group)}")
        for definition in group:
            print(f"  {definition.path}:{definition.line} {definition.qualname}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``): the report is still a success.
        # Point stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
