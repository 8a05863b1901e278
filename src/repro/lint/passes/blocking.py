"""RB7xx — blocking discipline: nothing slow happens while a lock is held.

The control plane drains every network on one shared worker pool and
answers queries from lock-free snapshots; a lock held across a blocking
call stalls not one request but every worker and reader that needs the
same lock.  This pass computes path-sensitive
held-lock sets over the CFG (:func:`repro.lint.cfg.held_locks`) and
flags, at every program point where at least one lock is provably held:

* **RB701** (error) — calls that can block indefinitely: ``sleep``,
  ``Future.result()``/``.join()``/``.wait()``/``.get()``/``.recv()``
  without a timeout, and an untimed ``.acquire()`` of another lock.
  Also reported when a call site under a lock reaches such an operation
  *transitively*, via the same name-based call-graph fixpoint the
  lock-order pass uses.
* **RB702** (warning) — file or database I/O (``open``, ``connect``,
  ``execute*``, ``commit``) under a lock owned by a *different* class
  than the method's own.  Holding your own monitor while touching your
  own storage is the classic (accepted) monitor pattern —
  ``WitnessStore`` works exactly that way — but doing I/O under someone
  else's lock couples their critical section to disk latency.
"""

from __future__ import annotations

import ast
from typing import Sequence

from .. import cfg as cfglib
from ..engine import LintPass, Module
from ..findings import Finding, Rule, Severity
from . import register
from ._lockmodel import (
    ClassInfo,
    LockModel,
    ModuleInfo,
    attr_chain,
    call_name,
    collect,
    instance_env,
    iter_functions,
    lock_acquired,
)
from .lock_order import _callee_keys

#: ``.meth()`` calls that block until an event with no local deadline
_UNTIMED_BLOCKERS = frozenset({"result", "join", "wait", "get", "recv"})
_IO_CALLS = frozenset(
    {"open", "connect", "execute", "executemany", "executescript", "commit"}
)


@register
class BlockingPass(LintPass):
    name = "blocking-discipline"
    rules = (
        Rule(
            "RB701",
            Severity.ERROR,
            "potentially unbounded blocking call while holding a lock",
        ),
        Rule(
            "RB702",
            Severity.WARNING,
            "file/database I/O while holding another class's lock",
        ),
    )

    def run(self, modules: Sequence[Module]) -> list[Finding]:
        model = collect(modules)
        summaries = _blocking_summaries(modules, model)
        findings: list[Finding] = []
        for module in modules:
            minfo = model.info(module)
            for owner, func in iter_functions(minfo):
                findings.extend(
                    _check(func, owner, module, minfo, model, summaries)
                )
        return findings


def _fn_key(owner: ClassInfo | None, minfo: ModuleInfo, func: ast.FunctionDef) -> str:
    return f"{owner.name}.{func.name}" if owner else f"{minfo.stem}:{func.name}"


def _blocking_op(call: ast.Call, resolve_lock) -> str | None:
    """Describe *call* when it can block without a deadline."""
    name = call_name(call)
    if name is None and isinstance(call.func, ast.Name):
        name = call.func.id
    if name == "sleep":
        return "sleep()"
    has_timeout = bool(call.args) or any(
        kw.arg in {"timeout", "block", "blocking"} for kw in call.keywords
    )
    if name in _UNTIMED_BLOCKERS and not has_timeout and not call.keywords:
        if name == "get" and not isinstance(call.func, ast.Attribute):
            return None
        return f".{name}() with no timeout"
    if name == "acquire" and isinstance(call.func, ast.Attribute):
        if not has_timeout and resolve_lock(call.func.value) is not None:
            return "untimed .acquire()"
    return None


def _io_op(call: ast.Call) -> str | None:
    name = call_name(call)
    if name is None and isinstance(call.func, ast.Name):
        name = call.func.id
    if name in _IO_CALLS:
        return f"{name}()"
    return None


def _blocking_summaries(
    modules: Sequence[Module], model: LockModel
) -> dict[str, dict[str, set[str]]]:
    """Per-function transitive summaries: which RB701 blocking ops and
    which I/O ops a call to the function may reach (fixpoint over the
    name-resolvable call graph, like the lock-order pass)."""
    block: dict[str, set[str]] = {}
    io: dict[str, set[str]] = {}
    calls: dict[str, set[str]] = {}
    for module in modules:
        minfo = model.info(module)
        for owner, func in iter_functions(minfo):
            key = _fn_key(owner, minfo, func)
            env = instance_env(func, owner, model)
            resolve = lambda e: _label(e, env, minfo, model)  # noqa: E731
            direct_block: set[str] = set()
            direct_io: set[str] = set()
            callee_keys: set[str] = set()
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                op = _blocking_op(node, resolve)
                if op:
                    direct_block.add(op)
                op = _io_op(node)
                if op:
                    direct_io.add(op)
                callee_keys.update(_callee_keys(node, env, owner, minfo, model))
            block[key] = direct_block
            io[key] = direct_io
            calls[key] = callee_keys
    for _ in range(len(calls) + 1):
        changed = False
        for key, callees in calls.items():
            for callee in callees:
                for summary in (block, io):
                    extra = summary.get(callee, set()) - summary[key]
                    if extra:
                        summary[key].update(extra)
                        changed = True
        if not changed:
            break
    return {"block": block, "io": io}


def _label(expr: ast.AST, env, minfo, model) -> str | None:
    acq = lock_acquired(expr, env, minfo, model)
    return acq[0] if acq else None


def _foreign(held: frozenset, owner: ClassInfo | None, minfo: ModuleInfo) -> list[str]:
    """Held labels owned by someone other than the enclosing class/module
    (the monitor-pattern exemption for I/O)."""
    own = owner.name if owner is not None else None
    out = []
    for label in held:
        lock_owner = label.split(".", 1)[0]
        if lock_owner != own and lock_owner != minfo.stem:
            out.append(label)
    return sorted(out)


def _check(
    func: ast.FunctionDef,
    owner: ClassInfo | None,
    module: Module,
    minfo: ModuleInfo,
    model: LockModel,
    summaries: dict[str, dict[str, set[str]]],
) -> list[Finding]:
    env = instance_env(func, owner, model)
    resolve = lambda e: _label(e, env, minfo, model)  # noqa: E731
    out: list[Finding] = []
    graph = cfglib.build_cfg(func)
    held = cfglib.held_locks(graph, resolve)
    for bid, idx, instr in graph.points():
        state = held.get((bid, idx), frozenset())
        if not state:
            continue
        for root in cfglib.instr_exprs(instr):
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                symbol = module.qualname(node)
                locks = ", ".join(sorted(state))
                op = _blocking_op(node, resolve)
                if op == "untimed .acquire()" and resolve(node.func.value) in state:
                    op = None  # re-acquisition is RL202's finding, not ours
                if op:
                    out.append(
                        Finding(
                            path=module.rel, line=node.lineno, col=node.col_offset,
                            rule="RB701", severity=Severity.ERROR,
                            message=f"{op} while holding {locks}",
                            symbol=symbol,
                        )
                    )
                    continue
                io = _io_op(node)
                foreign = _foreign(state, owner, minfo)
                if io and foreign:
                    out.append(
                        Finding(
                            path=module.rel, line=node.lineno, col=node.col_offset,
                            rule="RB702", severity=Severity.WARNING,
                            message=(
                                f"{io} while holding "
                                + ", ".join(foreign)
                                + " (owned elsewhere): I/O couples that "
                                "critical section to disk latency"
                            ),
                            symbol=symbol,
                        )
                    )
                    continue
                # transitive: the callee may block
                for callee in _callee_keys(node, env, owner, minfo, model):
                    ops = summaries["block"].get(callee, set())
                    if ops:
                        out.append(
                            Finding(
                                path=module.rel, line=node.lineno,
                                col=node.col_offset,
                                rule="RB701", severity=Severity.ERROR,
                                message=(
                                    f"call to '{callee}' may block "
                                    f"({', '.join(sorted(ops))}) while "
                                    f"holding {locks}"
                                ),
                                symbol=symbol,
                            )
                        )
                        break
                    ios = summaries["io"].get(callee, set())
                    if ios and foreign:
                        out.append(
                            Finding(
                                path=module.rel, line=node.lineno,
                                col=node.col_offset,
                                rule="RB702", severity=Severity.WARNING,
                                message=(
                                    f"call to '{callee}' performs I/O "
                                    f"({', '.join(sorted(ios))}) while "
                                    "holding "
                                    + ", ".join(foreign)
                                    + " (owned elsewhere)"
                                ),
                                symbol=symbol,
                            )
                        )
                        break
    return out
