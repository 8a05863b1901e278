"""RA5xx — API hygiene: small sharp edges on public surfaces.

* ``RA501``: mutable default argument (``def f(x=[])``) — the default is
  created once and shared across calls.
* ``RA502``: a package ``__init__.py`` that re-exports names (has import
  statements) but declares no ``__all__`` — the public surface is then
  whatever happens to be imported, and ``from pkg import *`` re-exports
  submodule namespaces.
* ``RA503``: a builtin shadowed by a parameter or a local/module
  assignment (``def f(list, id): ...``) — later code in the same scope
  silently calls the wrong thing.  Class-body attributes are exempt
  (dataclass fields like ``LatencyHistogram.max`` are legitimate API).
"""

from __future__ import annotations

import ast
import builtins
from typing import Sequence

from ..engine import LintPass, Module
from ..findings import Finding, Rule, Severity
from . import register
from ._lockmodel import call_name

_MUTABLE_DEFAULT_FACTORIES = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter",
}

_BUILTIN_NAMES = frozenset(
    name for name in dir(builtins) if not name.startswith("_")
)


def _is_mutable_default(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.List, ast.Dict, ast.Set)):
        return True
    return call_name(expr) in _MUTABLE_DEFAULT_FACTORIES


@register
class ApiHygienePass(LintPass):
    name = "api-hygiene"
    rules = (
        Rule("RA501", Severity.ERROR, "mutable default argument"),
        Rule("RA502", Severity.WARNING, "re-exporting __init__ lacks __all__"),
        Rule("RA503", Severity.WARNING, "builtin shadowed"),
    )

    def run(self, modules: Sequence[Module]) -> list[Finding]:
        findings: list[Finding] = []
        for module in modules:
            findings.extend(self._check_defaults(module))
            findings.extend(self._check_all(module))
            findings.extend(self._check_shadows(module))
        return findings

    def _check_defaults(self, module: Module) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is not None and _is_mutable_default(default):
                    findings.append(
                        Finding(
                            path=module.rel,
                            line=default.lineno,
                            col=default.col_offset,
                            rule="RA501",
                            severity=Severity.ERROR,
                            message=(
                                "mutable default is created once and shared "
                                "across calls; default to None and build "
                                "inside the function"
                            ),
                            symbol=module.qualname(node),
                        )
                    )
        return findings

    def _check_all(self, module: Module) -> list[Finding]:
        if not module.rel.endswith("__init__.py"):
            return []
        has_imports = any(
            isinstance(n, (ast.Import, ast.ImportFrom)) for n in module.tree.body
        )
        declares_all = any(
            isinstance(n, (ast.Assign, ast.AugAssign))
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
            )
            for n in module.tree.body
        )
        if has_imports and not declares_all:
            return [
                Finding(
                    path=module.rel,
                    line=1,
                    col=0,
                    rule="RA502",
                    severity=Severity.WARNING,
                    message=(
                        "package __init__ re-exports names but declares no "
                        "__all__; the public surface is implicit"
                    ),
                    symbol="<module>",
                )
            ]
        return []

    def _check_shadows(self, module: Module) -> list[Finding]:
        findings: list[Finding] = []

        def flag(name: str, loc: ast.AST, what: str) -> None:
            if name in _BUILTIN_NAMES and not name.startswith("_"):
                findings.append(
                    Finding(
                        path=module.rel,
                        line=loc.lineno,
                        col=loc.col_offset,
                        rule="RA503",
                        severity=Severity.WARNING,
                        message=f"{what} '{name}' shadows the builtin",
                        symbol=module.qualname(loc),
                    )
                )

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                    if arg.arg != "self":
                        flag(arg.arg, arg, "parameter")
                for arg in (args.vararg, args.kwarg):
                    if arg is not None:
                        flag(arg.arg, arg, "parameter")
                for stmt in ast.walk(node):
                    targets: list[ast.AST] = []
                    if isinstance(stmt, ast.Assign):
                        targets = list(stmt.targets)
                    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                        targets = [stmt.target]
                    elif isinstance(stmt, ast.For):
                        targets = [stmt.target]
                    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                        targets = [
                            i.optional_vars
                            for i in stmt.items
                            if i.optional_vars is not None
                        ]
                    for target in targets:
                        for t in ast.walk(target):
                            if isinstance(t, ast.Name) and isinstance(
                                t.ctx, ast.Store
                            ):
                                flag(t.id, t, "assignment to")
        # nested defs are walked once per enclosing scope: dedupe by location
        return sorted(set(findings))
