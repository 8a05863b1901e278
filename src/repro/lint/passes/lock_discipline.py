"""RL1xx — lock discipline: guarded state is only mutated under its lock.

A class that owns a ``threading.Lock``/``RLock`` attribute (``ControlPlane``,
``TieredWitnessCache``, ``Mailbox``, ...) is declaring that its mutable
state is shared between threads; every mutation of its attributes must therefore
happen inside a ``with <instance>.<lock>`` block.  ``__init__`` is exempt
(the instance is not published yet), as is assigning the lock attribute
itself.  The same applies at module granularity: a module that owns a
module-level lock (the factory build cache) must mutate its module-level
containers under it — import-time top-level statements are exempt
(imports are serialized by the interpreter).

Mutations tracked: attribute assignment/augmentation, item assignment on
an attribute (``m.counters[k] += 1``), and in-place mutator calls
(``m.pending.append(...)``).  Reads are deliberately not checked — the
codebase's atomic-reference-swap reads are a documented pattern; where a
*write* is intentionally lock-free it needs a
``# repro: allow[RL101]`` with its justification.
"""

from __future__ import annotations

import ast
from typing import Sequence

from ..engine import LintPass, Module
from ..findings import Finding, Rule, Severity
from . import register
from ._lockmodel import (
    ClassInfo,
    LockModel,
    ModuleInfo,
    collect,
    instance_env,
    iter_functions,
    iter_mutations,
    local_names,
    lock_acquired,
)


@register
class LockDisciplinePass(LintPass):
    name = "lock-discipline"
    rules = (
        Rule(
            "RL101",
            Severity.ERROR,
            "attribute of a lock-owning class mutated outside its lock",
        ),
        Rule(
            "RL102",
            Severity.ERROR,
            "module-level state mutated outside the module lock",
        ),
    )

    def run(self, modules: Sequence[Module]) -> list[Finding]:
        model = collect(modules)
        findings: list[Finding] = []
        for module in modules:
            minfo = model.info(module)
            for owner, func in iter_functions(minfo):
                findings.extend(
                    _check_function(func, owner, module, minfo, model)
                )
        return findings


# the mutation walker moved into the shared model (the guard-model
# extraction and the race detector need the identical notion of "write")
_mutations = iter_mutations


def _check_function(
    func: ast.FunctionDef,
    owner: ClassInfo | None,
    module: Module,
    minfo: ModuleInfo,
    model: LockModel,
) -> list[Finding]:
    env = instance_env(func, owner, model)
    bound = local_names(func)
    findings: list[Finding] = []
    is_init = owner is not None and func.name == "__init__"

    def check(node: ast.AST, held_vars: frozenset, held_module: bool) -> None:
        for base, attr, loc in _mutations(node):
            if attr is not None:
                t = env.get(base)
                cinfo = model.classes.get(t) if t else None
                if cinfo is None or not cinfo.lock_attrs:
                    continue
                if attr in cinfo.lock_attrs:
                    continue
                if is_init and owner is cinfo and base == "self":
                    continue
                if base in held_vars:
                    continue
                lock = sorted(cinfo.lock_attrs)[0]
                findings.append(
                    Finding(
                        path=module.rel,
                        line=loc.lineno,
                        col=loc.col_offset,
                        rule="RL101",
                        severity=Severity.ERROR,
                        message=(
                            f"'{t}.{attr}' belongs to a lock-owning class; "
                            f"mutate it inside 'with {base}.{lock}'"
                        ),
                        symbol=module.qualname(node),
                    )
                )
            else:
                # bare name: module-level container mutated in a function
                if not minfo.locks or base not in minfo.mutables or base in bound:
                    continue
                if held_module:
                    continue
                lock = sorted(minfo.locks)[0]
                findings.append(
                    Finding(
                        path=module.rel,
                        line=loc.lineno,
                        col=loc.col_offset,
                        rule="RL102",
                        severity=Severity.ERROR,
                        message=(
                            f"module-level '{base}' is guarded by '{lock}'; "
                            f"mutate it inside 'with {lock}'"
                        ),
                        symbol=module.qualname(node),
                    )
                )

    def walk(node: ast.AST, held_vars: frozenset, held_module: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_vars = set(held_vars)
            new_module = held_module
            for item in node.items:
                acq = lock_acquired(item.context_expr, env, minfo, model)
                if acq is not None:
                    _, holder = acq
                    if holder is None:
                        new_module = True
                    else:
                        new_vars.add(holder)
            for stmt in node.body:
                walk(stmt, frozenset(new_vars), new_module)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            # nested defs may run under any lock state; assume none held
            for stmt in node.body:
                walk(stmt, frozenset(), False)
            return
        check(node, held_vars, held_module)
        for child in ast.iter_child_nodes(node):
            walk(child, held_vars, held_module)

    for stmt in func.body:
        walk(stmt, frozenset(), False)
    return findings
