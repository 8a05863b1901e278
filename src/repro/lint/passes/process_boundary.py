"""RC6xx — process-boundary safety: what crosses a fork must pickle.

The exhaustive verifier fans Gray-code rank ranges out to
``multiprocessing`` workers, and everything shipped to a worker — task
arguments, initializer arguments, ``Process`` targets — is pickled.
Locks, sqlite connections, tracers, open files and locally-defined
callables all fail at dispatch time (or worse, appear to work under the
fork start method and break under spawn).  This pass types process-pool
receivers through reaching definitions, then checks every payload
expression flowing into them:

* **RC601** — a provably unpicklable value (a lock, an instance of a
  lock-owning project class, an open file/connection, a thread or
  executor) appears in a worker payload or ``initargs``.
* **RC602** — a lambda or function defined inside the enclosing function
  is used as a worker payload/target/initializer (pickle serializes
  callables by qualified name; local callables have none that the child
  can import).
* **RC603** — a lock is held at the point a ``Pool``/``Process`` is
  created (or ``os.fork()`` is called): under the fork start method the
  child inherits a copy of the lock in whatever state it was in, which
  deadlocks the child if the parent held it.

``ThreadPoolExecutor`` receivers are exempt (no serialization), and an
untypable receiver contributes nothing — the pass under-reports rather
than guessing, like the rest of the lock model.

The project's own shared-memory worker pool
(:class:`repro.core.verify.shm.ShmWorkerPool`) is a process boundary
too: its ``worker_body``/``init_args`` are pickled into forked children
and ``.submit()`` payloads cross the same line.  ``SharedMemory``
segments themselves do not pickle — the *name* crosses the boundary and
the child re-attaches — and a ``.buf`` memoryview is parent-process
memory, so both are RC601 payloads.
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
    is_lock_call,
    iter_functions,
    lock_acquired,
)

#: constructors whose result is a worker *process* container
_PROCESS_FACTORIES = frozenset(
    {"Pool", "ProcessPoolExecutor", "Process", "ShmWorkerPool"}
)
_THREAD_FACTORIES = frozenset({"ThreadPoolExecutor", "Thread"})

#: Pool methods whose positional arguments are pickled into workers
_POOL_PAYLOAD_METHODS = frozenset(
    {"apply", "apply_async", "map", "map_async", "imap",
     "imap_unordered", "starmap", "starmap_async", "submit"}
)
#: methods distinctive enough to imply a process pool even untyped
_POOL_ONLY_METHODS = frozenset(
    {"apply_async", "apply", "imap", "imap_unordered",
     "starmap", "starmap_async", "map_async"}
)
#: keyword arguments evaluated in the *parent*, not shipped to workers
_PARENT_SIDE_KWARGS = frozenset({"callback", "error_callback", "chunksize"})

#: constructor names whose result can never cross a pickle boundary
_UNPICKLABLE_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
     "Barrier", "Thread", "ThreadPoolExecutor", "ProcessPoolExecutor",
     "Pool", "SanitizedLock", "open", "connect", "SharedMemory",
     "ShmWorkerPool", "memoryview"}
)
_FACTORY_KIND = {
    "open": "an open file", "connect": "a database connection",
    "Thread": "a thread", "Pool": "a process pool",
    "ThreadPoolExecutor": "an executor", "ProcessPoolExecutor": "an executor",
    "SharedMemory": "a shared-memory segment (ship its .name, re-attach "
    "in the child)",
    "ShmWorkerPool": "a worker pool", "memoryview": "a memoryview",
}


@register
class ProcessBoundaryPass(LintPass):
    name = "process-boundary"
    rules = (
        Rule(
            "RC601",
            Severity.ERROR,
            "unpicklable value flows into a worker-process payload",
        ),
        Rule(
            "RC602",
            Severity.ERROR,
            "locally-defined callable shipped to a worker process",
        ),
        Rule(
            "RC603",
            Severity.ERROR,
            "lock held while creating a worker process (fork inherits it)",
        ),
    )

    def run(self, modules: Sequence[Module]) -> list[Finding]:
        model = collect(modules)
        findings: list[Finding] = []
        for module in modules:
            minfo = model.info(module)
            for owner, func in iter_functions(minfo):
                findings.extend(_check(func, owner, module, minfo, model))
        return findings


def _check(
    func: ast.FunctionDef,
    owner: ClassInfo | None,
    module: Module,
    minfo: ModuleInfo,
    model: LockModel,
) -> list[Finding]:
    env = instance_env(func, owner, model)
    local_defs = {
        node.name
        for node in ast.walk(func)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node is not func
    }
    out: list[Finding] = []
    for fn in _own_and_nested(func):
        graph = cfglib.build_cfg(fn)
        rdefs = cfglib.reaching_definitions(graph)
        held = cfglib.held_locks(
            graph, lambda e: _lock_label(e, env, minfo, model)
        )
        for bid, idx, instr in graph.points():
            point = (bid, idx)
            for root in cfglib.instr_exprs(instr):
                for node in ast.walk(root):
                    if not isinstance(node, ast.Call):
                        continue
                    out.extend(
                        _check_call(
                            node, rdefs.get(point, {}), held.get(point, frozenset()),
                            env, local_defs, module, model,
                        )
                    )
    return out


def _own_and_nested(func: ast.FunctionDef):
    yield func
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            yield node


def _lock_label(expr: ast.AST, env, minfo, model) -> str | None:
    acq = lock_acquired(expr, env, minfo, model)
    return acq[0] if acq else None


def _pool_kind(expr: ast.AST | None) -> str | None:
    """"process" / "thread" when *expr* constructs a worker container."""
    name = call_name(expr) if expr is not None else None
    if name in _PROCESS_FACTORIES:
        return "process"
    if name in _THREAD_FACTORIES:
        return "thread"
    return None


def _receiver_kind(recv: ast.AST, rdefs: dict) -> str | None:
    if isinstance(recv, ast.Call):
        return _pool_kind(recv)
    if isinstance(recv, ast.Name):
        kinds = set()
        for d in rdefs.get(recv.id, frozenset()):
            kind = _pool_kind(d.value) if d.value is not None else None
            if kind:
                kinds.add(kind)
        if "process" in kinds:
            return "process"
        if kinds:
            return "thread"
    return None


def _check_call(
    call: ast.Call,
    rdefs: dict,
    held: frozenset,
    env: dict[str, str],
    local_defs: set[str],
    module: Module,
    model: LockModel,
) -> list[Finding]:
    out: list[Finding] = []
    name = call_name(call)

    payload: list[tuple[ast.AST, str]] = []  # (expr, sink description)
    fork_site = None

    if isinstance(call.func, ast.Attribute) and call.func.attr in _POOL_PAYLOAD_METHODS:
        meth = call.func.attr
        kind = _receiver_kind(call.func.value, rdefs)
        if kind == "process" or (kind is None and meth in _POOL_ONLY_METHODS):
            sink = f"worker payload of '.{meth}()'"
            payload.extend((arg, sink) for arg in call.args)
            payload.extend(
                (kw.value, sink)
                for kw in call.keywords
                if kw.arg not in _PARENT_SIDE_KWARGS
            )
    if name in {"Pool", "ProcessPoolExecutor"}:
        fork_site = f"'{name}(...)'"
        for kw in call.keywords:
            if kw.arg in {"initializer", "initargs"}:
                payload.append((kw.value, f"worker '{kw.arg}'"))
    elif name == "Process":
        fork_site = "'Process(...)'"
        for kw in call.keywords:
            if kw.arg in {"target", "args", "kwargs"}:
                payload.append((kw.value, f"Process '{kw.arg}'"))
    elif name == "ShmWorkerPool":
        # the project's shared-memory pool: workers fork at construction
        # and worker_body/init_args are pickled into each child
        fork_site = "'ShmWorkerPool(...)'"
        payload.extend(
            (arg, "ShmWorkerPool init payload") for arg in call.args[1:]
        )
        for kw in call.keywords:
            if kw.arg in {"worker_body", "init_args", "fault_spec"}:
                payload.append((kw.value, f"ShmWorkerPool '{kw.arg}'"))
    elif name == "fork":
        chain = attr_chain(call.func)
        if chain == ["os", "fork"]:
            fork_site = "'os.fork()'"

    line, col = call.lineno, call.col_offset
    symbol = module.qualname(call)

    if fork_site and held:
        locks = ", ".join(sorted(held))
        out.append(
            Finding(
                path=module.rel, line=line, col=col, rule="RC603",
                severity=Severity.ERROR,
                message=(
                    f"{fork_site} while holding {locks}: a forked child "
                    "inherits the held lock and deadlocks on first acquire"
                ),
                symbol=symbol,
            )
        )

    for expr, sink in payload:
        for leaf in _payload_leaves(expr):
            local = _local_callable(leaf, rdefs, local_defs)
            if local is not None:
                out.append(
                    Finding(
                        path=module.rel, line=leaf.lineno, col=leaf.col_offset,
                        rule="RC602", severity=Severity.ERROR,
                        message=(
                            f"{local} in {sink}: pickle serializes callables "
                            "by qualified name; define it at module level"
                        ),
                        symbol=symbol,
                    )
                )
                continue
            reason = _unpicklable(leaf, rdefs, env, model, depth=2)
            if reason is not None:
                out.append(
                    Finding(
                        path=module.rel, line=leaf.lineno, col=leaf.col_offset,
                        rule="RC601", severity=Severity.ERROR,
                        message=(
                            f"{reason} in {sink}: it cannot be pickled "
                            "across the process boundary"
                        ),
                        symbol=symbol,
                    )
                )
    return out


def _payload_leaves(expr: ast.AST):
    """Flatten tuple/list/dict payloads (``initargs=(a, b)``) to leaves."""
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for elt in expr.elts:
            yield from _payload_leaves(elt)
    elif isinstance(expr, ast.Dict):
        for value in expr.values:
            if value is not None:
                yield from _payload_leaves(value)
    elif isinstance(expr, ast.Starred):
        yield from _payload_leaves(expr.value)
    else:
        yield expr


def _local_callable(expr: ast.AST, rdefs: dict, local_defs: set[str]) -> str | None:
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.Name):
        if expr.id in local_defs:
            return f"locally-defined function '{expr.id}'"
        for d in rdefs.get(expr.id, frozenset()):
            if d.kind == "assign" and isinstance(d.value, ast.Lambda):
                return f"a lambda (bound to '{expr.id}')"
    return None


def _unpicklable(
    expr: ast.AST, rdefs: dict, env: dict[str, str], model: LockModel, depth: int
) -> str | None:
    """A human-readable reason when *expr* provably cannot pickle."""
    if is_lock_call(expr):
        return "a lock"
    name = call_name(expr)
    if name in _UNPICKLABLE_FACTORIES:
        return _FACTORY_KIND.get(name, "a lock/synchronization primitive")
    if isinstance(expr, ast.Attribute) and expr.attr == "buf":
        # shm.buf is a memoryview over parent-process memory; the child
        # must re-attach by segment name and map its own view
        base = expr.value
        if call_name(base) == "SharedMemory":
            return "a shared-memory '.buf' memoryview"
        if isinstance(base, ast.Name):
            for d in rdefs.get(base.id, frozenset()):
                if (
                    d.kind in {"assign", "with"}
                    and d.value is not None
                    and call_name(d.value) == "SharedMemory"
                ):
                    return (
                        f"the shared-memory memoryview '{base.id}.buf'"
                    )
    if name in model.classes and model.classes[name].lock_attrs:
        return f"an instance of lock-owning class '{name}'"
    chain = attr_chain(expr)
    if chain and len(chain) == 2:
        t = env.get(chain[0])
        cinfo = model.classes.get(t) if t else None
        if cinfo is not None:
            if chain[1] in cinfo.lock_attrs:
                return f"the lock '{t}.{chain[1]}'"
            held_type = cinfo.attr_types.get(chain[1])
            if held_type in model.classes and model.classes[held_type].lock_attrs:
                return f"an instance of lock-owning class '{held_type}'"
    if isinstance(expr, ast.Name):
        t = env.get(expr.id)
        if t in model.classes and model.classes[t].lock_attrs:
            return f"an instance of lock-owning class '{t}'"
        if depth > 0:
            for d in rdefs.get(expr.id, frozenset()):
                if d.kind in {"assign", "with"} and d.value is not None:
                    reason = _unpicklable(d.value, rdefs, env, model, depth - 1)
                    if reason is not None:
                        return f"{reason} (via '{expr.id}')"
    return None
