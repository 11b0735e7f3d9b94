"""Phase-1 whole-program context: modules, classes, attributes, calls.

One :class:`ProjectContext` is built per lint run from every parsed
:class:`repro.lint.engine.FileContext` and answers the questions the
cross-module rules (RL007–RL009) ask:

* **module/symbol index** — which dotted module does each file implement,
  and what does a name such as ``pkg.Base`` actually resolve to once
  ``__init__`` re-export chains are followed;
* **class table** — every class with its base classes resolved across
  modules, its per-method ``self.*`` attribute-write sets (inherited
  sets included, so a subclass inherits its base's mutable surface), and
  best-effort attribute *types* recovered from ``self.x = ClassName(...)``
  constructor assignments and annotated ``__init__`` parameters;
* **call graph** — intraprocedural resolution of each function's
  outgoing calls onto project functions and methods, including
  ``self.helper()`` dispatch through the MRO, one level of
  ``self.attr.method()`` dispatch via the recovered attribute types,
  ``functools.partial(f, ...)`` wrapping, and bare method/function
  references passed as callbacks.

Everything here is deliberately *syntactic* resolution, not type
inference: the simulator's structure is static enough (components are
constructed once, wired by name) that this recovers the real graph, and
where it cannot resolve a call it simply drops the edge — rules built on
top over-look rather than over-report.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext

#: method names whose *call* mutates the receiver in place — the
#: conservative set RL007 uses to decide an attribute is mutable state.
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "pop", "popleft",
        "popitem", "remove", "clear", "update", "add", "discard",
        "setdefault", "sort", "reverse", "setstate", "reset",
    }
)

#: method-name prefixes treated like MUTATOR_METHODS.  The RL004 stats
#: discipline routes counter bumps through owner methods named
#: ``record_*`` (``self.stats.record_walk(...)``), so such a call marks
#: the receiver as mutable state.
MUTATOR_PREFIXES = ("record",)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attribute_of(node: ast.AST) -> str | None:
    """The first attribute above ``self`` in an access chain, else None.

    ``self.stats.hits`` → ``stats``; ``self._sets[i]`` → ``_sets``;
    ``other.stats`` → ``None``.
    """
    attr: str | None = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attr = node.attr
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self":
        return attr
    return None


def _unwrap_annotation(node: ast.AST) -> ast.AST:
    """Strip ``X | None`` / ``Optional[X]`` / string quotes down to X."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return node
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left, right = node.left, node.right
        if isinstance(right, ast.Constant) and right.value is None:
            return _unwrap_annotation(left)
        if isinstance(left, ast.Constant) and left.value is None:
            return _unwrap_annotation(right)
        return node
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value) or ""
        if base.rsplit(".", 1)[-1] == "Optional":
            return _unwrap_annotation(node.slice)
    return node


def _is_abstract(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the body is only a docstring and/or ``raise NotImplementedError``."""
    for decorator in func.decorator_list:
        name = dotted_name(decorator) or ""
        if name.rsplit(".", 1)[-1] == "abstractmethod":
            return True
    real = [
        stmt
        for stmt in func.body
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        and not isinstance(stmt, ast.Pass)
    ]
    if not real:
        return True
    if len(real) == 1 and isinstance(real[0], ast.Raise):
        exc = real[0].exc
        name = dotted_name(exc.func if isinstance(exc, ast.Call) else exc) if exc else None
        return name == "NotImplementedError"
    return False


class FunctionInfo:
    """One function or method, with its resolved outgoing call edges."""

    __slots__ = ("node", "module", "owner", "name", "qualname")

    def __init__(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        module: "ModuleInfo",
        owner: "ClassInfo | None",
    ) -> None:
        self.node = node
        self.module = module
        self.owner = owner
        self.name = node.name
        prefix = owner.qualname if owner is not None else module.name
        self.qualname = f"{prefix}.{node.name}" if prefix else node.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """One class: methods, resolved bases, attribute writes and types."""

    def __init__(self, module: "ModuleInfo", node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.name = node.name
        self.qualname = f"{module.name}.{node.name}" if module.name else node.name
        self.methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt
        #: resolved project-internal bases, in definition order (filled by
        #: ProjectContext once every module is indexed).
        self.bases: list[ClassInfo] = []
        #: method name -> set of ``self.*`` attributes that method writes
        #: (direct assignment, subscript store, or mutator-method call).
        self.method_writes: dict[str, set[str]] = {
            name: _self_writes(func) for name, func in self.methods.items()
        }
        #: attribute -> qualified class-name string, recovered from
        #: ``self.x = ClassName(...)`` and annotated ``__init__`` params.
        self.attr_type_names: dict[str, str] = _attr_type_names(self)
        #: attrs declared via ``_CHECKPOINT_DERIVED = (...)`` as rebuilt
        #: from primary state in load_state_dict, not serialized (RL007).
        self.derived_attrs: set[str] = _derived_attrs(node)

    # ------------------------------------------------------------------
    def mro(self) -> list["ClassInfo"]:
        """Self plus resolved bases, depth-first, left-to-right, deduped."""
        order: list[ClassInfo] = []
        seen: set[int] = set()
        stack: list[ClassInfo] = [self]
        while stack:
            cls = stack.pop(0)
            if id(cls) in seen:
                continue
            seen.add(id(cls))
            order.append(cls)
            stack = list(cls.bases) + stack
        return order

    def resolve_method(
        self, name: str
    ) -> tuple["ClassInfo", ast.FunctionDef | ast.AsyncFunctionDef] | None:
        """First definition of ``name`` along the MRO, or None."""
        for cls in self.mro():
            if name in cls.methods:
                return cls, cls.methods[name]
        return None

    def method_chain(
        self, name: str
    ) -> list[tuple["ClassInfo", ast.FunctionDef | ast.AsyncFunctionDef]]:
        """Every MRO definition of ``name`` (covers ``super()`` chains)."""
        return [(cls, cls.methods[name]) for cls in self.mro() if name in cls.methods]

    def attribute_writes(self, include_bases: bool = True) -> dict[str, set[str]]:
        """attr -> methods writing it, optionally over the whole MRO.

        Method names are qualified as ``Class.method`` so a rule (or a
        human reading a finding) can see where an inherited write came
        from.
        """
        classes = self.mro() if include_bases else [self]
        writes: dict[str, set[str]] = {}
        for cls in classes:
            for method, attrs in cls.method_writes.items():
                for attr in attrs:
                    writes.setdefault(attr, set()).add(f"{cls.name}.{method}")
        return writes

    def attribute_types(self) -> dict[str, str]:
        """attr -> qualified type name over the MRO (subclass wins)."""
        types: dict[str, str] = {}
        for cls in reversed(self.mro()):
            types.update(cls.attr_type_names)
        return types

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassInfo {self.qualname}>"


def _self_writes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """``self.*`` attributes mutated anywhere in ``func``."""
    writes: set[str] = set()

    def add_target(target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                add_target(element)
            return
        if isinstance(target, ast.Starred):
            add_target(target.value)
            return
        attr = self_attribute_of(target)
        if attr is not None:
            writes.add(attr)

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                add_target(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            add_target(node.target)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name in MUTATOR_METHODS or name.startswith(MUTATOR_PREFIXES):
                attr = self_attribute_of(node.func.value)
                if attr is not None:
                    writes.add(attr)
        elif isinstance(node, (ast.Delete,)):
            for target in node.targets:
                add_target(target)
    return writes


def _derived_attrs(node: ast.ClassDef) -> set[str]:
    """String constants from a class-level ``_CHECKPOINT_DERIVED`` tuple."""
    derived: set[str] = set()
    for stmt in node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == "_CHECKPOINT_DERIVED" for t in targets
        ):
            continue
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    derived.add(element.value)
    return derived


def _attr_type_names(cls: ClassInfo) -> dict[str, str]:
    """Recover ``self.attr`` -> class-name strings from the constructor."""
    init = cls.methods.get("__init__")
    types: dict[str, str] = {}
    if init is None:
        return types
    # Parameter annotations: ``def __init__(self, walker: PageWalker)``.
    params: dict[str, str] = {}
    args = list(init.args.posonlyargs) + list(init.args.args) + list(
        init.args.kwonlyargs
    )
    for arg in args:
        if arg.annotation is not None:
            name = dotted_name(_unwrap_annotation(arg.annotation))
            if name is not None:
                params[arg.arg] = name
    for node in ast.walk(init):
        if isinstance(node, ast.AnnAssign):
            attr = self_attribute_of(node.target)
            if attr is not None and node.annotation is not None:
                name = dotted_name(_unwrap_annotation(node.annotation))
                if name is not None:
                    types[attr] = name
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            attr = self_attribute_of(node.targets[0])
            if attr is None:
                continue
            value = node.value
            if isinstance(value, ast.Call):
                name = dotted_name(value.func)
                if name is not None and name[:1].isupper() or (
                    name is not None and name.rsplit(".", 1)[-1][:1].isupper()
                ):
                    types[attr] = name
            elif isinstance(value, ast.Name) and value.id in params:
                types[attr] = params[value.id]
            elif isinstance(value, ast.IfExp):
                # ``x if x is not None else Fallback()`` — common default.
                for branch in (value.body, value.orelse):
                    if isinstance(branch, ast.Call):
                        name = dotted_name(branch.func)
                        if name and name.rsplit(".", 1)[-1][:1].isupper():
                            types[attr] = name
                    elif isinstance(branch, ast.Name) and branch.id in params:
                        types[attr] = params[branch.id]
    return types


class ModuleInfo:
    """One parsed file as a module: bindings and import targets."""

    def __init__(self, ctx: FileContext, name: str) -> None:
        self.ctx = ctx
        self.name = name
        #: package the module's relative imports resolve against.
        if ctx.path.name == "__init__.py":
            self.package = name
        else:
            self.package = name.rsplit(".", 1)[0] if "." in name else ""
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        #: local binding -> fully qualified imported target.
        self.imports: dict[str, str] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = ClassInfo(self, stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self.imports[local] = target
            elif isinstance(stmt, ast.ImportFrom):
                base = self._import_base(stmt)
                if base is None:
                    continue
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _import_base(self, stmt: ast.ImportFrom) -> str | None:
        """Absolute dotted prefix a ``from X import`` pulls names from."""
        if stmt.level == 0:
            return stmt.module
        parts = self.package.split(".") if self.package else []
        drop = stmt.level - 1
        if drop > len(parts):
            return None
        if drop:
            parts = parts[:-drop]
        if stmt.module:
            parts.append(stmt.module)
        return ".".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModuleInfo {self.name}>"


class CallEdge:
    """One resolved outgoing call/reference from a function."""

    __slots__ = ("target", "kind", "line")

    def __init__(self, target: FunctionInfo, kind: str, line: int) -> None:
        self.target = target
        self.kind = kind  # 'call' | 'partial' | 'ref'
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CallEdge {self.kind} -> {self.target.qualname}>"


class ProjectContext:
    """The whole-program index phase-2 rules run against."""

    def __init__(self, contexts: list[FileContext]) -> None:
        self.contexts = list(contexts)
        self.modules: dict[str, ModuleInfo] = {}
        for ctx in self.contexts:
            module = ModuleInfo(ctx, _module_name(ctx))
            # Last write wins on duplicate names (shadowed fixtures); the
            # repo package itself never collides.
            self.modules[module.name] = module
        #: qualified class name -> ClassInfo
        self.classes: dict[str, ClassInfo] = {}
        for module in self.modules.values():
            for cls in module.classes.values():
                self.classes[cls.qualname] = cls
        self._resolve_bases()
        #: FunctionInfo per function/method ast node (id-keyed).
        self.functions: dict[int, FunctionInfo] = {}
        for module in self.modules.values():
            for func in module.functions.values():
                info = FunctionInfo(func, module, None)
                self.functions[id(func)] = info
            for cls in module.classes.values():
                for func in cls.methods.values():
                    self.functions[id(func)] = FunctionInfo(func, module, cls)
        self._edges: dict[int, list[CallEdge]] = {}
        for info in list(self.functions.values()):
            self._edges[id(info.node)] = list(self._resolve_calls(info))

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def resolve(self, qualified: str, _seen: frozenset[str] = frozenset()):
        """Resolve a dotted name to a ModuleInfo/ClassInfo/FunctionInfo.

        Follows re-export chains (``from .impl import Base`` in a package
        ``__init__`` makes ``pkg.Base`` resolve to ``pkg.impl.Base``).
        Returns ``None`` for names outside the analysed project.
        """
        if qualified in _seen:
            return None
        parts = qualified.split(".")
        module: ModuleInfo | None = None
        split = 0
        for index in range(len(parts), 0, -1):
            candidate = ".".join(parts[:index])
            if candidate in self.modules:
                module = self.modules[candidate]
                split = index
                break
        if module is None:
            return None
        rest = parts[split:]
        if not rest:
            return module
        head = rest[0]
        if head in module.classes:
            cls = module.classes[head]
            if len(rest) == 1:
                return cls
            resolved = cls.resolve_method(rest[1])
            return self.functions[id(resolved[1])] if resolved else None
        if head in module.functions:
            return self.functions[id(module.functions[head])]
        if head in module.imports:
            target = module.imports[head]
            if rest[1:]:
                target += "." + ".".join(rest[1:])
            return self.resolve(target, _seen | {qualified})
        return None

    def resolve_local(self, module: ModuleInfo, name: str):
        """Resolve a module-local (possibly dotted) binding."""
        head, _, tail = name.partition(".")
        if not tail:
            if head in module.classes:
                return module.classes[head]
            if head in module.functions:
                return self.functions[id(module.functions[head])]
        if head in module.imports:
            target = module.imports[head] + (f".{tail}" if tail else "")
            return self.resolve(target)
        if tail and head in module.classes:
            # ClassName.method reference
            resolved = module.classes[head].resolve_method(tail)
            if resolved is not None:
                return self.functions[id(resolved[1])]
        return None

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------
    def callees(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[CallEdge]:
        """Resolved outgoing edges of one function node."""
        return self._edges.get(id(func), [])

    def callees_of(self, qualname: str) -> list[str]:
        """Qualified names a function calls/references (test convenience)."""
        resolved = self.resolve(qualname)
        if isinstance(resolved, FunctionInfo):
            return [edge.target.qualname for edge in self.callees(resolved.node)]
        if isinstance(resolved, ClassInfo):
            return []
        return []

    # ------------------------------------------------------------------
    def _resolve_bases(self) -> None:
        for cls in self.classes.values():
            for base in cls.node.bases:
                name = dotted_name(base)
                if name is None:
                    continue
                resolved = self.resolve_local(cls.module, name)
                if isinstance(resolved, ClassInfo):
                    cls.bases.append(resolved)

    def _resolve_calls(self, info: FunctionInfo) -> Iterator[CallEdge]:
        module = info.module
        owner = info.owner
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = self._resolve_callee(node.func, module, owner)
            if target is not None:
                kind = "call"
                yield CallEdge(target, kind, node.lineno)
            # functools.partial(f, ...) and callback references in args.
            func_name = dotted_name(node.func) or ""
            is_partial = func_name.rsplit(".", 1)[-1] == "partial"
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for position, argument in enumerate(arguments):
                referenced = self._resolve_callee(argument, module, owner)
                if referenced is None:
                    continue
                kind = "partial" if is_partial and position == 0 else "ref"
                yield CallEdge(referenced, kind, node.lineno)

    def _resolve_callee(
        self, expr: ast.AST, module: ModuleInfo, owner: ClassInfo | None
    ) -> FunctionInfo | None:
        """Resolve a call/reference expression to a project function."""
        if isinstance(expr, ast.Name):
            resolved = self.resolve_local(module, expr.id)
            if isinstance(resolved, FunctionInfo):
                return resolved
            return None
        if not isinstance(expr, ast.Attribute):
            return None
        name = dotted_name(expr)
        if name is None:
            return None
        parts = name.split(".")
        if parts[0] == "self" and owner is not None:
            if len(parts) == 2:
                resolved = owner.resolve_method(parts[1])
                return self.functions[id(resolved[1])] if resolved else None
            if len(parts) == 3:
                # self.attr.method() through the recovered attribute type.
                type_name = owner.attribute_types().get(parts[1])
                if type_name is None:
                    return None
                target = self.resolve_local(owner.module, type_name)
                if not isinstance(target, ClassInfo):
                    target = self.resolve(type_name)
                if isinstance(target, ClassInfo):
                    resolved = target.resolve_method(parts[2])
                    if resolved is not None:
                        return self.functions[id(resolved[1])]
            return None
        resolved = self.resolve_local(module, name)
        if isinstance(resolved, FunctionInfo):
            return resolved
        return None


def _module_name(ctx: FileContext) -> str:
    """Dotted module name, walking up while ``__init__.py`` marks packages."""
    path = ctx.path
    parts: list[str] = []
    if path.name == "__init__.py":
        parts.append(path.parent.name)
        directory = path.parent.parent
    else:
        parts.append(path.stem)
        directory = path.parent
        if (directory / "__init__.py").exists():
            parts.append(directory.name)
            directory = directory.parent
        else:
            return parts[0]
    while (directory / "__init__.py").exists():
        parts.append(directory.name)
        directory = directory.parent
    return ".".join(reversed(parts))
