"""Lightweight per-module set-type inference for the iteration-order rule.

The unsorted-iteration rule only fires on expressions the inferencer *knows*
are unordered — ``set``/``frozenset`` values and dicts keyed from sets — so
unknown types never produce noise.  Knowledge comes from four places:

* literal/constructor expressions (``{…}``, ``set(…)``, ``frozenset(…)``,
  set operators, ``.union(…)`` et al., the shakeout ``tracked_set``);
* annotations (``Set[int]``, ``set[int]``, dataclass fields, parameters);
* local assignment tracking inside each function;
* instance-attribute assignments anywhere in the module (``self.failed =
  set()`` makes ``<anything>.failed`` set-typed module-wide — attribute
  names inside one module are assumed not to pun between set and non-set,
  and a conflict downgrades the name to unknown).

What static inference cannot see (cross-module attribute types, values
flowing through calls) the runtime shakeout sanitizer covers dynamically.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional

#: expr_kind results.
SET = "set"
SETKEYED = "setkeyed"  # a dict whose keys were produced by set iteration
NONSET = "nonset"

_SET_CONSTRUCTORS = {"set", "frozenset", "tracked_set"}
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
_SET_ANNOTATIONS = {
    "set",
    "frozenset",
    "Set",
    "FrozenSet",
    "MutableSet",
    "AbstractSet",
}
#: Constructors that definitely yield an ordered (non-set) value; an
#: assignment through one of these clears a name's set-typedness.
_ORDERED_CONSTRUCTORS = {"sorted", "list", "tuple", "dict"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _annotation_kind(annotation: Optional[ast.expr]) -> Optional[str]:
    """SET when an annotation names a set type (through Optional/Union too)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return SET if annotation.id in _SET_ANNOTATIONS else None
    if isinstance(annotation, ast.Attribute):
        return SET if annotation.attr in _SET_ANNOTATIONS else None
    if isinstance(annotation, ast.Subscript):
        base = _annotation_kind(annotation.value)
        if base is not None:
            return base
        # Optional[Set[int]] / Union[Set[int], None]
        slices: Iterable[ast.expr]
        if isinstance(annotation.slice, ast.Tuple):
            slices = annotation.slice.elts
        else:
            slices = (annotation.slice,)
        for element in slices:
            if _annotation_kind(element) is not None:
                return SET
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # PEP 604 unions: set[int] | None
        if _annotation_kind(annotation.left) or _annotation_kind(annotation.right):
            return SET
    return None


class SetTypeInference:
    """Set-type knowledge for one module's AST."""

    def __init__(self, tree: ast.Module) -> None:
        #: attribute name -> SET / SETKEYED, merged over every class in the
        #: module (conflicting evidence removes the name).
        self.attr_kinds: Dict[str, str] = {}
        self._collect_attrs(tree)

    # -------------------------------------------------------------- attributes
    def _note_attr(self, name: str, kind: Optional[str]) -> None:
        if kind in (SET, SETKEYED):
            existing = self.attr_kinds.get(name)
            if existing is not None and existing != kind:
                del self.attr_kinds[name]
            else:
                self.attr_kinds[name] = kind
        elif kind == NONSET and name in self.attr_kinds:
            del self.attr_kinds[name]

    def _collect_attrs(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    # dataclass fields: `held: Set[int] = field(...)`
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        self._note_attr(
                            stmt.target.id, _annotation_kind(stmt.annotation)
                        )
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Attribute
            ):
                kind = _annotation_kind(node.annotation)
                if kind is None and node.value is not None:
                    kind = self.expr_kind(node.value, {})
                self._note_attr(node.target.attr, kind)
            elif isinstance(node, ast.Assign):
                kind = self.expr_kind(node.value, {})
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        self._note_attr(target.attr, kind)

    # ------------------------------------------------------------------ locals
    def function_env(self, func: ast.AST) -> Dict[str, str]:
        """name -> kind for the locals (and parameters) of one function."""
        env: Dict[str, str] = {}
        args = getattr(func, "args", None)
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                kind = _annotation_kind(arg.annotation)
                if kind is not None:
                    env[arg.arg] = kind
        for node in ast.walk(func):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                kind = _annotation_kind(node.annotation)
                if kind is None and node.value is not None:
                    kind = self.expr_kind(node.value, env) or NONSET
                self._note_local(env, node.target.id, kind)
            elif isinstance(node, ast.Assign):
                kind = self.expr_kind(node.value, env) or self._definite_nonset(
                    node.value
                )
                if kind is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._note_local(env, target.id, kind)
        return env

    @staticmethod
    def _note_local(env: Dict[str, str], name: str, kind: Optional[str]) -> None:
        if kind in (SET, SETKEYED):
            # Mixed evidence (set on one path, ordered on another) downgrades
            # to unknown rather than flagging a possibly-ordered value.
            env[name] = NONSET if env.get(name) == NONSET else kind
        elif kind == NONSET:
            env[name] = NONSET

    @staticmethod
    def _definite_nonset(node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.List, ast.Tuple, ast.Dict, ast.ListComp, ast.DictComp)):
            return NONSET
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDERED_CONSTRUCTORS
        ):
            return NONSET
        return None

    # ------------------------------------------------------------- expressions
    def expr_kind(self, node: ast.expr, env: Dict[str, str]) -> Optional[str]:
        """SET / SETKEYED when the expression is known-unordered, else None."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return SET
        if isinstance(node, ast.Name):
            kind = env.get(node.id)
            return kind if kind in (SET, SETKEYED) else None
        if isinstance(node, ast.Attribute):
            return self.attr_kinds.get(node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return SET
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_CONSTRUCTORS:
                    return SET  # shakeout.tracked_set(...)
                if func.attr == "fromkeys" and node.args:
                    first = node.args[0]
                    if self.expr_kind(first, env) == SET:
                        return SETKEYED
                if func.attr in _SET_METHODS:
                    if self.expr_kind(func.value, env) == SET:
                        return SET
                if func.attr in ("keys", "values", "items") and (
                    self.expr_kind(func.value, env) == SETKEYED
                ):
                    return SET  # iterating a set-keyed dict's views
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            left = self.expr_kind(node.left, env)
            right = self.expr_kind(node.right, env)
            if SET in (left, right):
                return SET
            return None
        if isinstance(node, ast.IfExp):
            return self.expr_kind(node.body, env) or self.expr_kind(node.orelse, env)
        if isinstance(node, ast.DictComp):
            first = node.generators[0].iter if node.generators else None
            if first is not None and self.expr_kind(first, env) == SET:
                return SETKEYED
            return None
        return None
