"""Cache-coherence rule (COH001): guarded mutations must bump their version.

Incremental state in this repo hangs caches off monotonic counters or
derived fields — ``WorkingSet.version``, ``BulletMesh``'s depth levels,
``ClusteredBullet``'s receivers list — and a mutation that forgets its bump
produces a stale cache that only a determinism-matrix flake would catch.
Each module owning such a cache declares a module-level ``CACHE_INVARIANTS``
table *next to the cache*:

    CACHE_INVARIANTS = {
        "WorkingSet": {
            "scope": "module",        # the only scope: the declaring module
            "attrs": {                # attribute (or item of it) stored -> bumps
                "_sequences": ["version"],
            },
            "calls": {                # "receiver.method" call (or on an item of it) -> bumps
                "_ordered.append": ["version", "_writable"],
            },
            "exempt": ["_writable"],  # functions whose *callers* bump
        },
    }

The analyzer literal-evals the table (it must be a pure literal) and then
verifies, for every function of the declaring module, that each guarded
mutation has every required bump **on the same control-flow path**: a bump
statement counts if it sits in the mutation's own statement list or any
enclosing statement list of the same function — i.e. it unconditionally
executes with the mutation — and not if it only appears in a different
branch.  ``__init__``/``__new__``
are exempt by construction (no cache can predate construction).

A bump is either an assignment/augmented assignment to an attribute of the
required name (``self.version += 1``) or to an item of it
(``self._owner_of[node] = host``), or a call whose terminal name matches
(``self._rebuild_depth_levels()``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import Finding

_TABLE_NAME = "CACHE_INVARIANTS"
_AUTO_EXEMPT = ("__init__", "__new__", "__copy__", "__deepcopy__")


@dataclass
class GuardTable:
    """One class's invariants, as declared in its module's table."""

    owner: str
    source_path: str
    attrs: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    calls: Dict[Tuple[str, str], Tuple[str, ...]] = field(default_factory=dict)
    exempt: Tuple[str, ...] = ()


def load_tables(tree: ast.Module, path: str) -> Tuple[List[GuardTable], List[Finding]]:
    """Extract and validate the module's ``CACHE_INVARIANTS`` declaration."""
    node = _find_table(tree)
    if node is None:
        return [], []
    try:
        raw = ast.literal_eval(node.value)
        tables = _validate(raw, path)
    except (ValueError, SyntaxError, TypeError, KeyError) as exc:
        finding = Finding(
            rule="TBL001",
            path=path,
            line=node.lineno,
            message=f"malformed {_TABLE_NAME}: {exc}",
        )
        return [], [finding]
    return tables, []


def _find_table(tree: ast.Module) -> Optional[ast.Assign]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == _TABLE_NAME
            for target in stmt.targets
        ):
            return stmt
    return None


def _validate(raw: object, path: str) -> List[GuardTable]:
    if not isinstance(raw, dict):
        raise ValueError("table must be a dict of class name -> spec")
    tables: List[GuardTable] = []
    for owner, spec in sorted(raw.items()):
        if not isinstance(owner, str) or not isinstance(spec, dict):
            raise ValueError("each entry must map a class name to a spec dict")
        unknown = sorted(set(spec) - {"scope", "attrs", "calls", "exempt"})
        if unknown:
            raise ValueError(f"{owner}: unknown spec keys {unknown}")
        if spec.get("scope", "module") != "module":
            raise ValueError(f"{owner}: scope must be 'module'")
        attrs: Dict[str, Tuple[str, ...]] = {}
        for name, bumps in sorted(spec.get("attrs", {}).items()):
            attrs[str(name)] = _bump_tuple(owner, name, bumps)
        calls: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        for key, bumps in sorted(spec.get("calls", {}).items()):
            receiver, sep, method = str(key).partition(".")
            if not sep or not receiver or not method:
                raise ValueError(f"{owner}: call key {key!r} must be 'receiver.method'")
            calls[(receiver, method)] = _bump_tuple(owner, key, bumps)
        if not attrs and not calls:
            raise ValueError(f"{owner}: spec guards nothing")
        tables.append(
            GuardTable(
                owner=owner,
                source_path=path,
                attrs=attrs,
                calls=calls,
                exempt=tuple(str(name) for name in spec.get("exempt", [])),
            )
        )
    return tables


def _bump_tuple(owner: str, key: object, bumps: object) -> Tuple[str, ...]:
    if (
        not isinstance(bumps, list)
        or not bumps
        or not all(isinstance(bump, str) for bump in bumps)
    ):
        raise ValueError(f"{owner}: bumps for {key!r} must be a non-empty string list")
    return tuple(bumps)


# ---------------------------------------------------------------- checking
class CoherenceChecker:
    """Checks one module against the applicable guard tables."""

    def __init__(self, tree: ast.Module, path: str, tables: List[GuardTable]) -> None:
        self._tree = tree
        self._path = path
        self._tables = tables
        self._findings: List[Finding] = []

    def run(self) -> List[Finding]:
        if not self._tables:
            return []
        for node in ast.walk(self._tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node)
        return self._findings

    def _check_function(self, func: ast.AST) -> None:
        name = func.name
        if name in _AUTO_EXEMPT:
            return
        tables = [table for table in self._tables if name not in table.exempt]
        if not tables:
            return
        parent_stmts = _statement_parents(func)
        for node in ast.walk(func):
            for table, what, bumps in self._guarded_mutations(node, tables):
                missing = [
                    bump
                    for bump in bumps
                    if not _bump_on_path(node, bump, func, parent_stmts)
                ]
                if missing:
                    self._findings.append(
                        Finding(
                            rule="COH001",
                            path=self._path,
                            line=getattr(node, "lineno", func.lineno),
                            message=(
                                f"{what} in {name}() without bumping "
                                f"{', '.join(missing)} on the same control-flow "
                                f"path ({table.owner} invariant, declared in "
                                f"{table.source_path})"
                            ),
                        )
                    )

    def _guarded_mutations(self, node: ast.AST, tables: List[GuardTable]):
        """Yield (table, description, required-bumps) for guarded events."""
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                # ``obj.attr[i] = x`` mutates what ``obj.attr`` holds just as
                # ``obj.attr = x`` does.
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    for table in tables:
                        bumps = table.attrs.get(target.attr)
                        # Storing the counter itself is the bump, not a guarded
                        # mutation, even when names collide across tables.
                        if bumps and target.attr not in bumps:
                            yield table, f"store to .{target.attr}", bumps
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    for table in tables:
                        bumps = table.attrs.get(target.attr)
                        if bumps:
                            yield table, f"del .{target.attr}", bumps
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver = node.func.value
            # ``obj.attr[i].append(x)`` mutates what ``obj.attr`` holds too.
            while isinstance(receiver, ast.Subscript):
                receiver = receiver.value
            receiver_name = None
            if isinstance(receiver, ast.Name):
                receiver_name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                receiver_name = receiver.attr
            if receiver_name is not None:
                for table in tables:
                    bumps = table.calls.get((receiver_name, method))
                    if bumps:
                        yield table, f"{receiver_name}.{method}() call", bumps


def _statement_parents(func: ast.AST) -> Dict[int, ast.stmt]:
    """Map every AST node (by id) to its nearest enclosing statement."""
    parents: Dict[int, ast.stmt] = {}

    def visit(node: ast.AST, enclosing: Optional[ast.stmt]) -> None:
        current = node if isinstance(node, ast.stmt) else enclosing
        for child in ast.iter_child_nodes(node):
            if current is not None:
                parents[id(child)] = current
            visit(child, current)

    visit(func, None)
    return parents


def _enclosing_chain(
    node: ast.AST, func: ast.AST, parent_stmts: Dict[int, ast.stmt]
) -> List[ast.stmt]:
    """The statement ancestors of ``node`` inside ``func``, innermost first."""
    chain: List[ast.stmt] = []
    current: Optional[ast.AST] = node
    if isinstance(node, ast.stmt):
        chain.append(node)
    while True:
        parent = parent_stmts.get(id(current))
        if parent is None or parent is current:
            break
        chain.append(parent)
        current = parent
    return chain


def _statement_lists(owner: ast.AST) -> List[List[ast.stmt]]:
    """The direct statement lists of one compound statement (or function)."""
    lists = []
    for field_name in ("body", "orelse", "finalbody"):
        stmts = getattr(owner, field_name, None)
        if isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt):
            lists.append(stmts)
    for handler in getattr(owner, "handlers", []) or []:
        lists.append(handler.body)
    return lists


def _bump_on_path(
    node: ast.AST, bump: str, func: ast.AST, parent_stmts: Dict[int, ast.stmt]
) -> bool:
    """True if a ``bump`` statement shares an unconditional path with ``node``.

    A bump qualifies when it appears (anywhere inside a statement) in the
    statement list holding the mutation, or in any enclosing statement list
    up to the function body — those lists execute whenever the mutation's
    list is entered.  A bump nested in a *different* branch never qualifies.
    """
    chain = _enclosing_chain(node, func, parent_stmts)
    if not chain:
        return False
    chain_ids = {id(stmt) for stmt in chain}
    for owner in [func] + list(chain):
        for stmt_list in _statement_lists(owner):
            # Only lists that actually lie on the mutation's chain count
            # (e.g. the else-branch of an enclosing `if` does not).
            if not any(id(stmt) in chain_ids for stmt in stmt_list):
                continue
            for stmt in stmt_list:
                if id(stmt) in chain_ids:
                    # The mutation's own statement may also contain the bump
                    # (single-statement mutate+bump helpers).
                    if stmt is chain[0] and _contains_bump(stmt, bump):
                        return True
                    continue
                # A bump hidden inside a sibling branch/loop is conditional
                # and does not count; only statements that execute whenever
                # this list is entered qualify.
                if isinstance(
                    stmt, (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try)
                ):
                    continue
                if _contains_bump(stmt, bump):
                    return True
    return False


def _contains_bump(stmt: ast.stmt, bump: str) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                # ``obj.bump[key] = x`` writes the guarded bookkeeping too.
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute) and target.attr == bump:
                    return True
                if isinstance(target, ast.Name) and target.id == bump:
                    return True
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == bump:
                return True
            if isinstance(func, ast.Name) and func.id == bump:
                return True
    return False
