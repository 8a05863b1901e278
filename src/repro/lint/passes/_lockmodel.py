"""Shared static model of lock ownership and instance typing.

Both lock passes need the same three questions answered from the AST:

* which classes own locks (``self._lock = threading.Lock()`` in a
  method), and which module globals are locks;
* which variables in a given function refer to instances of those
  classes (``self`` in methods, annotated parameters, constructor calls,
  and lookups through annotated container attributes such as
  ``self._managed: dict[str, ManagedNetwork]``);
* which ``with`` items acquire which lock, labeled at class granularity
  (``ManagedNetwork.lock``) so static edges line up with the runtime
  sanitizer's labels.

The inference is deliberately shallow — one forward pass per function, no
interprocedural types — which keeps it predictable: a variable the model
cannot type is simply not checked (the analyzer under-reports rather than
guessing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from ..engine import Module

#: constructor names whose result is treated as a lock
LOCK_FACTORIES = frozenset({"Lock", "RLock", "SanitizedLock"})

#: constructor names whose result is a mutable container (module-global rule)
MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "OrderedDict", "deque", "defaultdict", "Counter"}
)

#: method names that mutate their receiver in place
MUTATORS = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "setdefault",
        "sort", "update", "move_to_end",
    }
)

#: generic containers whose subscript/values() yields their element type
_CONTAINERS = frozenset({"dict", "Dict", "OrderedDict", "defaultdict",
                         "list", "List", "deque", "tuple", "Tuple"})


def attr_chain(node: ast.AST) -> list[str] | None:
    """``m.lock`` -> ``["m", "lock"]``; ``None`` for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def call_name(node: ast.AST) -> str | None:
    """The final identifier a call targets (``threading.Lock`` -> ``Lock``)."""
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        if chain:
            return chain[-1]
    return None


def is_lock_call(expr: ast.AST | None) -> bool:
    return expr is not None and call_name(expr) in LOCK_FACTORIES


def is_mutable_literal(expr: ast.AST | None) -> bool:
    if expr is None:
        return False
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    return call_name(expr) in MUTABLE_FACTORIES


def resolve_annotation(node: ast.AST | None, known: set[str]) -> str | None:
    """The known class name an annotation refers to, unwrapping
    ``C | None``, ``Optional[C]`` and string annotations."""
    if node is None:
        return None
    if isinstance(node, ast.Name) and node.id in known:
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in known else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return resolve_annotation(node.left, known) or resolve_annotation(
            node.right, known
        )
    if isinstance(node, ast.Subscript):
        base = attr_chain(node.value)
        if base and base[-1] == "Optional":
            return resolve_annotation(node.slice, known)
    return None


def resolve_elem_annotation(node: ast.AST | None, known: set[str]) -> str | None:
    """The element class of a container annotation, e.g.
    ``dict[str, ManagedNetwork]`` -> ``ManagedNetwork``."""
    if not isinstance(node, ast.Subscript):
        return None
    base = attr_chain(node.value)
    if not base or base[-1] not in _CONTAINERS:
        return None
    slc = node.slice
    if isinstance(slc, ast.Tuple) and slc.elts:
        return resolve_annotation(slc.elts[-1], known)
    return resolve_annotation(slc, known)


@dataclass
class ClassInfo:
    """Lock/typing facts about one class definition."""

    name: str
    rel: str
    node: ast.ClassDef
    lock_attrs: set[str] = field(default_factory=set)
    attr_types: dict[str, str] = field(default_factory=dict)
    attr_elem_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Module-level lock facts."""

    module: Module
    locks: set[str] = field(default_factory=set)
    mutables: set[str] = field(default_factory=set)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def stem(self) -> str:
        return Path(self.module.rel).stem


@dataclass
class LockModel:
    """The project-wide lock model (see module docstring)."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def info(self, module: Module) -> ModuleInfo:
        return self.modules[module.rel]


def _constructed_class(expr: ast.AST, known: set[str]) -> str | None:
    """A known class constructed anywhere inside *expr* (handles
    ``self.cache = cache or TieredWitnessCache(...)``)."""
    for node in ast.walk(expr):
        name = call_name(node)
        if name in known:
            return name
    return None


def _collect_class(node: ast.ClassDef, rel: str, known: set[str]) -> ClassInfo:
    info = ClassInfo(name=node.name, rel=rel, node=node)
    for sub in node.body:
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[sub.name] = sub
    for meth in info.methods.values():
        for stmt in ast.walk(meth):
            target = value = annotation = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if is_lock_call(value):
                info.lock_attrs.add(attr)
                continue
            t = resolve_annotation(annotation, known)
            if t:
                info.attr_types.setdefault(attr, t)
            elem = resolve_elem_annotation(annotation, known)
            if elem:
                info.attr_elem_types.setdefault(attr, elem)
            if value is not None and attr not in info.attr_types:
                built = _constructed_class(value, known)
                if built:
                    info.attr_types[attr] = built
    return info


def collect(modules: Sequence[Module]) -> LockModel:
    """Build the lock model over the whole module set."""
    known: set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                known.add(node.name)
    model = LockModel()
    for module in modules:
        minfo = ModuleInfo(module=module)
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if is_lock_call(stmt.value):
                        minfo.locks.add(target.id)
                    elif is_mutable_literal(stmt.value):
                        minfo.mutables.add(target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                minfo.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                cinfo = _collect_class(stmt, module.rel, known)
                minfo.classes[stmt.name] = cinfo
                model.classes[stmt.name] = cinfo
        model.modules[module.rel] = minfo
    return model


def iter_functions(
    minfo: ModuleInfo,
) -> Iterator[tuple[ClassInfo | None, ast.FunctionDef]]:
    """Every top-level function and method, with its owning class."""
    for func in minfo.functions.values():
        yield None, func
    for cinfo in minfo.classes.values():
        for meth in cinfo.methods.values():
            yield cinfo, meth


def _type_of(expr: ast.AST, env: dict[str, str], model: LockModel) -> str | None:
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    name = call_name(expr)
    if name in model.classes:
        return name
    chain = attr_chain(expr)
    if chain and len(chain) == 2:
        owner = env.get(chain[0])
        if owner in model.classes:
            return model.classes[owner].attr_types.get(chain[1])
    if isinstance(expr, ast.Subscript):
        chain = attr_chain(expr.value)
        if chain and len(chain) == 2:
            owner = env.get(chain[0])
            if owner in model.classes:
                return model.classes[owner].attr_elem_types.get(chain[1])
    if isinstance(expr, ast.BoolOp):
        for value in expr.values:
            t = _type_of(value, env, model)
            if t:
                return t
    return None


def _elem_type_of(expr: ast.AST, env: dict[str, str], model: LockModel) -> str | None:
    # for X in <owner>.<attr>.values() / <owner>.<attr>
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        if chain and chain[-1] in {"values", "keys", "items"}:
            chain = chain[:-1]
    else:
        chain = attr_chain(expr)
    if chain and len(chain) == 2:
        owner = env.get(chain[0])
        if owner in model.classes:
            return model.classes[owner].attr_elem_types.get(chain[1])
    return None


def instance_env(
    func: ast.FunctionDef, owner: ClassInfo | None, model: LockModel
) -> dict[str, str]:
    """Map variable names in *func* to the class they are instances of."""
    known = set(model.classes)
    env: dict[str, str] = {}
    if owner is not None:
        env["self"] = owner.name
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        t = resolve_annotation(arg.annotation, known)
        if t:
            env[arg.arg] = t
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                t = _type_of(node.value, env, model)
                if t:
                    env[target.id] = t
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            t = _elem_type_of(node.iter, env, model)
            if t:
                env[node.target.id] = t
    return env


def lock_acquired(
    expr: ast.AST,
    env: dict[str, str],
    minfo: ModuleInfo,
    model: LockModel,
) -> tuple[str, str | None] | None:
    """``(label, holder_var)`` for a lock-acquiring ``with`` item.

    ``holder_var`` is the variable the lock hangs off (``"m"`` in
    ``with m.lock``), or ``None`` for module-level locks and deeper
    chains.
    """
    chain = attr_chain(expr)
    if not chain:
        return None
    if len(chain) == 1 and chain[0] in minfo.locks:
        return f"{minfo.stem}.{chain[0]}", None
    if len(chain) == 2:
        t = env.get(chain[0])
        if t in model.classes and chain[1] in model.classes[t].lock_attrs:
            return f"{t}.{chain[1]}", chain[0]
    if len(chain) == 3:
        t = env.get(chain[0])
        if t in model.classes:
            mid = model.classes[t].attr_types.get(chain[1])
            if mid in model.classes and chain[2] in model.classes[mid].lock_attrs:
                return f"{mid}.{chain[2]}", None
    return None


def iter_mutations(node: ast.AST) -> Iterator[tuple[str, str | None, ast.AST]]:
    """Yield ``(base_name, attr_or_None, loc)`` for each mutation rooted at
    *node* itself (not its children): attr mutations give the attribute,
    bare-name mutations give ``None``."""

    def _target(t: ast.AST) -> Iterator[tuple[str, str | None, ast.AST]]:
        if isinstance(t, (ast.Tuple, ast.List)):
            for elt in t.elts:
                yield from _target(elt)
        elif isinstance(t, ast.Starred):
            yield from _target(t.value)
        elif isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name):
            yield t.value.id, t.attr, t
        elif isinstance(t, ast.Subscript):
            if isinstance(t.value, ast.Attribute) and isinstance(
                t.value.value, ast.Name
            ):
                yield t.value.value.id, t.value.attr, t
            elif isinstance(t.value, ast.Name):
                yield t.value.id, None, t
        elif isinstance(t, ast.Name):
            yield t.id, None, t

    if isinstance(node, ast.Assign):
        for t in node.targets:
            yield from _target(t)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if not (isinstance(node, ast.AnnAssign) and node.value is None):
            yield from _target(node.target)
    elif isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
            base = node.func.value
            if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                yield base.value.id, base.attr, node
            elif isinstance(base, ast.Name):
                yield base.id, None, node


def guard_label(cinfo: ClassInfo) -> str:
    """The sanitizer-compatible label of a class's guarding lock
    (``"ManagedNetwork.lock"``); ties broken by sorted attr name."""
    return f"{cinfo.name}.{sorted(cinfo.lock_attrs)[0]}"


def guarded_attributes(modules: Sequence[Module]) -> dict[str, dict[str, str]]:
    """The RL1xx static guard model: for every lock-owning class, the
    attributes its methods mutate outside ``__init__`` mapped to the lock
    label that must guard them.  This is exactly the set of fields the
    RL101 rule polices statically; the runtime race detector instruments
    the same fields so dynamic locksets can be cross-checked against it.

    Attributes ending in ``_published`` are exempt: by convention (see
    :mod:`repro.service.mailbox`) they hold immutable values rebound
    atomically and read lock-free, so tracking them would turn the
    intentional atomic-publication pattern into a false torn-read under
    ``RaceDetector(track_reads=True)``.
    """
    model = collect(modules)
    out: dict[str, dict[str, str]] = {}
    for module in modules:
        minfo = model.info(module)
        for owner, func in iter_functions(minfo):
            if owner is not None and func.name == "__init__":
                continue  # pre-publication writes, same exemption as RL101
            env = instance_env(func, owner, model)
            for node in ast.walk(func):
                for base, attr, _loc in iter_mutations(node):
                    if attr is None or attr.endswith("_published"):
                        continue
                    t = env.get(base)
                    cinfo = model.classes.get(t) if t else None
                    if cinfo is None or not cinfo.lock_attrs:
                        continue
                    if attr in cinfo.lock_attrs:
                        continue
                    out.setdefault(cinfo.name, {}).setdefault(
                        attr, guard_label(cinfo)
                    )
    return {cname: out[cname] for cname in sorted(out)}


def local_names(func: ast.FunctionDef) -> set[str]:
    """Names bound inside *func* (shadow detection for module globals)."""
    args = func.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                names.add(node.name)
    # names declared global are *not* local, even though they are stored to
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            names.difference_update(node.names)
    return names
