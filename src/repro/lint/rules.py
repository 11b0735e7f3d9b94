"""The per-file reprolint rules (RL001–RL006).

Each rule is one AST visitor pinning one contract the runtime
InvariantAuditor can only check after the fact.  The rules are grounded
in hazards this repo actually had: the PageTable VPN-wraparound bug was
found by fault injection, unthreaded RNGs hid in ``mem/process.py``, and
the energy model silently under-counts if a structure's counters bypass
``TLBStats``.

The whole-program rules (RL007–RL010) live in
:mod:`repro.lint.rules_project`; :func:`default_rules` registers both
sets.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext, LintRule
from .findings import Finding, Severity
from .project import dotted_name

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Names the file binds to ``module`` (``import random as rnd`` → rnd)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _imported_names(tree: ast.Module, module: str) -> dict[str, str]:
    """``from module import x as y`` → {y: x}."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


# ---------------------------------------------------------------------------
# RL001 — determinism
# ---------------------------------------------------------------------------

#: ``random.<fn>`` calls that use the hidden module-level RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "randbytes", "getrandbits",
        "choice", "choices", "shuffle", "sample", "uniform", "triangular",
        "betavariate", "expovariate", "gammavariate", "gauss",
        "lognormvariate", "normalvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "seed",
    }
)

#: ``numpy.random.<fn>`` legacy calls that use the hidden global state.
_NUMPY_GLOBAL_FNS = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "standard_normal", "zipf", "poisson", "exponential",
    }
)

#: wall-clock reads that must never feed an RNG or a seed.
_TIME_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.now", "datetime.utcnow",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    }
)

#: Seeded named-stream constructors (the fuzzer's blessed idiom): the
#: helper derives an independent ``default_rng`` from an explicit seed
#: plus crc32'd path elements, so calls *with* arguments are
#: deterministic by construction.  A call with no seed material at all,
#: or with a wall-clock read inside its arguments, defeats that and is
#: flagged like any other RNG constructor.
_STREAM_HELPERS = frozenset({"rng_stream"})


class DeterminismRule(LintRule):
    """RL001: every random draw must come from an explicitly seeded RNG.

    Flags (a) module-level ``random.*`` / legacy ``numpy.random.*``
    calls, which share hidden global state between unrelated components,
    also through names imported from either module; (b)
    ``random.Random()`` / ``default_rng()`` constructed without a seed
    argument; (c) wall-clock reads feeding an RNG constructor or a
    ``*seed*`` variable.  ``random.Random(seed)`` threaded from the
    owning object's parameters (the ``core/lite.py`` pattern) is the
    blessed idiom; so is ``rng_stream(seed, *path)``
    (:func:`repro.resilience.fuzz.rng_stream`), the fuzzer's seeded
    named-stream constructor — recognized here so fuzz code lints clean,
    while an ``rng_stream()`` call with no seed material (or with a
    wall-clock read in its arguments) is still flagged.
    """

    rule_id = "RL001"
    title = "determinism"
    severity = Severity.ERROR
    hint = "thread an explicit seed from params into a local random.Random/default_rng"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        random_aliases = _module_aliases(ctx.tree, "random")
        from_random = _imported_names(ctx.tree, "random")
        from_numpy = _imported_names(ctx.tree, "numpy.random")
        numpy_aliases = _module_aliases(ctx.tree, "numpy") | _module_aliases(
            ctx.tree, "numpy.random"
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(
                    ctx, node, random_aliases, from_random, from_numpy, numpy_aliases
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                yield from self._check_seed_assignment(ctx, node)

    # -- helpers --------------------------------------------------------
    def _check_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        random_aliases: set[str],
        from_random: dict[str, str],
        from_numpy: dict[str, str],
        numpy_aliases: set[str],
    ) -> Iterator[Finding]:
        func = node.func
        where = ctx.qualified_context(node)
        # from random import choice; choice(...)
        if isinstance(func, ast.Name) and from_random.get(func.id) in _GLOBAL_RANDOM_FNS:
            yield self.finding(
                ctx,
                node,
                f"module-level random.{from_random[func.id]}() in {where} "
                "uses the hidden global RNG",
            )
            return
        # from numpy.random import default_rng; default_rng()
        if isinstance(func, ast.Name) and func.id in from_numpy:
            yield from self._check_numpy_call(ctx, node, from_numpy[func.id], where)
            return
        # rng_stream(seed, *path) — the fuzzer's seeded stream helper.
        helper = None
        if isinstance(func, ast.Name) and func.id in _STREAM_HELPERS:
            helper = func.id
        elif isinstance(func, ast.Attribute) and func.attr in _STREAM_HELPERS:
            helper = func.attr
        if helper is not None:
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    f"seeded stream helper {helper}() called without seed "
                    f"material in {where}",
                )
            else:
                yield from self._check_time_seed(ctx, node, where)
            return
        if not isinstance(func, ast.Attribute):
            return
        base = dotted_name(func.value)
        # random.choice(...) on the module object
        if base in random_aliases:
            if func.attr in _GLOBAL_RANDOM_FNS:
                yield self.finding(
                    ctx,
                    node,
                    f"module-level random.{func.attr}() in {where} "
                    "uses the hidden global RNG",
                )
            elif func.attr in ("Random", "SystemRandom") and not node.args:
                yield self.finding(
                    ctx,
                    node,
                    f"unseeded random.{func.attr}() in {where}",
                )
            elif func.attr == "Random" and node.args:
                yield from self._check_time_seed(ctx, node, where)
            return
        # numpy.random.* — legacy global-state fns, unseeded default_rng
        if base is not None and (
            base in {f"{alias}.random" for alias in numpy_aliases}
            or base in numpy_aliases and func.attr == "default_rng"
        ):
            yield from self._check_numpy_call(ctx, node, func.attr, where)

    def _check_numpy_call(
        self, ctx: FileContext, node: ast.Call, name: str, where: str
    ) -> Iterator[Finding]:
        """A call of ``numpy.random.<name>``, however the name was bound."""
        if name in _NUMPY_GLOBAL_FNS:
            yield self.finding(
                ctx,
                node,
                f"legacy numpy.random.{name}() in {where} "
                "uses the hidden global state",
            )
        elif name == "default_rng":
            if not node.args:
                yield self.finding(
                    ctx, node, f"unseeded numpy default_rng() in {where}"
                )
            else:
                yield from self._check_time_seed(ctx, node, where)

    def _check_time_seed(
        self, ctx: FileContext, call: ast.Call, where: str
    ) -> Iterator[Finding]:
        """Wall-clock reads anywhere inside an RNG constructor's arguments."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call):
                    name = dotted_name(sub.func)
                    if name in _TIME_CALLS:
                        yield self.finding(
                            ctx,
                            sub,
                            f"time-derived RNG seed ({name}()) in {where}",
                        )

    def _check_seed_assignment(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        """``seed = time.time()``-style nondeterministic seed material."""
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            targets = [node.target]
        named_seed = any(
            isinstance(t, ast.Name) and "seed" in t.id.lower()
            or isinstance(t, ast.Attribute) and "seed" in t.attr.lower()
            for t in targets
        )
        if not named_seed or node.value is None:
            return
        for sub in ast.walk(node.value):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name in _TIME_CALLS:
                    yield self.finding(
                        ctx,
                        sub,
                        f"seed derived from wall clock ({name}()) in "
                        f"{ctx.qualified_context(node)}",
                    )


# ---------------------------------------------------------------------------
# RL002 — exception taxonomy
# ---------------------------------------------------------------------------

#: built-ins that should be a ReproError subclass inside the package.
_RAW_EXCEPTIONS = frozenset(
    {
        "ValueError", "KeyError", "RuntimeError", "TypeError", "IndexError",
        "Exception", "OSError", "IOError", "FileNotFoundError", "LookupError",
        "ArithmeticError", "OverflowError", "ZeroDivisionError",
    }
)


class ExceptionTaxonomyRule(LintRule):
    """RL002: raises inside the package use the ``repro.errors`` taxonomy.

    Structured errors let the CLI, the resilient sweep runner, and test
    harnesses react by *kind*; a raw ``ValueError`` can only be
    string-matched.  ``NotImplementedError`` (abstract methods) and bare
    ``raise`` (re-raise) stay legal.
    """

    rule_id = "RL002"
    title = "exception taxonomy"
    severity = Severity.WARNING
    hint = "raise a ReproError subclass from repro.errors (double-derive for compat)"

    #: files exempt from the rule (the taxonomy itself).
    exempt_suffixes = ("repro/errors.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.relpath.endswith(self.exempt_suffixes):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call):
                name = dotted_name(exc.func)
            else:
                name = dotted_name(exc)
            if name in _RAW_EXCEPTIONS:
                yield self.finding(
                    ctx,
                    node,
                    f"raise {name} outside the ReproError taxonomy in "
                    f"{ctx.qualified_context(node)}",
                )


# ---------------------------------------------------------------------------
# RL003 — hot-path purity
# ---------------------------------------------------------------------------

#: method names that form the simulator's per-access fast path.
_HOT_METHODS = frozenset({"access", "lookup", "fill", "insert"})

#: allocation-heavy builtins priced once per *call*, fatal once per access.
_HOT_ALLOC_CALLS = frozenset({"sorted", "list", "dict", "set", "tuple", "deepcopy"})

#: telemetry call leaves banned from the per-access path: timers and
#: span plumbing move at boundary granularity (one bump per drain
#: segment — see docs/observability.md), never per access.
_TELEMETRY_LEAVES = frozenset({"trace_span", "perf_counter", "monotonic"})

#: dotted-name segments that mark a call as telemetry plumbing
#: (``self.obs.spans.begin(...)``, ``observability.registry.counter(...)``, ...).
_TELEMETRY_SEGMENTS = frozenset({"obs", "observability", "telemetry"})


def iter_purity_violations(func: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(node, description)`` for every purity violation in ``func``.

    Shared by RL003 (direct hot methods) and RL008 (helpers reached from
    hot methods); the caller formats the location context around the
    description.
    """
    for node in ast.walk(func):
        if isinstance(node, ast.ExceptHandler):
            caught = dotted_name(node.type) if node.type is not None else None
            if node.type is None or caught in ("Exception", "BaseException"):
                label = caught or "bare except"
                yield node, f"broad exception handler ({label})"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            yield node, f"allocation-heavy {type(node).__name__}"
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            head = name.split(".", 1)[0]
            leaf = name.rsplit(".", 1)[-1]
            if name == "print" or head in ("logging", "logger", "log"):
                yield node, f"logging/printing ({name})"
            elif leaf in _HOT_ALLOC_CALLS and "." not in name:
                yield node, f"allocation-heavy call ({name}())"
            elif leaf in _TELEMETRY_LEAVES or _TELEMETRY_SEGMENTS & set(
                name.split(".")
            ):
                yield node, f"telemetry in the per-access path ({name})"


class HotPathPurityRule(LintRule):
    """RL003: the per-access fast path stays allocation- and I/O-free.

    ``Simulator.run`` drains every trace reference through
    ``hierarchy.access`` → TLB ``lookup``/``fill``; one comprehension or
    log call there executes hundreds of thousands of times per run.
    Broad ``except Exception`` handlers are also banned — fault
    tolerance belongs to the simulator's ``on_fault="record"`` loop,
    which records faults per access; a swallow inside the structure
    silently corrupts the energy accounting instead.
    """

    rule_id = "RL003"
    title = "hot-path purity"
    severity = Severity.ERROR
    hint = "hoist work out of the per-access path (batch into sync_stats) or disable with justification"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name not in _HOT_METHODS:
                continue
            if ctx.enclosing_class(node) is None:
                continue
            yield from self._check_body(ctx, node)

    def _check_body(self, ctx: FileContext, func: ast.FunctionDef) -> Iterator[Finding]:
        where = ctx.qualified_context(func)
        for node, description in iter_purity_violations(func):
            yield self.finding(ctx, node, f"{description} in hot path {where}")


# ---------------------------------------------------------------------------
# RL004 — stats discipline
# ---------------------------------------------------------------------------

#: methods allowed to write through a ``stats`` object.
_STATS_WRITER_METHODS = frozenset(
    {"sync_stats", "reset_stats", "reset", "snapshot", "__init__"}
)


class StatsDisciplineRule(LintRule):
    """RL004: counters on ``stats`` objects are written only by owners.

    The energy accountant prices accesses from ``TLBStats`` histograms;
    a counter bumped from arbitrary code bypasses the pending-count
    batching (``sync_stats``) and silently skews ``E = A·E_read +
    M·E_write``.  Writes through ``*.stats.*`` are legal only inside
    ``sync_stats``/``reset_stats``/``reset``/``snapshot``/``__init__``
    or inside a ``*Stats`` class itself.
    """

    rule_id = "RL004"
    title = "stats discipline"
    severity = Severity.WARNING
    hint = "accumulate pending counts locally and flush them in sync_stats()"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if self._writes_through_stats(target) and not self._allowed(ctx, node):
                        yield self.finding(
                            ctx,
                            node,
                            f"stats counter mutated outside its owner in "
                            f"{ctx.qualified_context(node)}",
                        )
                        break

    @staticmethod
    def _writes_through_stats(target: ast.expr) -> bool:
        """True when the assignment target routes through ``<x>.stats``."""
        node: ast.AST = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
            if isinstance(node, ast.Attribute) and node.attr == "stats":
                return True
            if isinstance(node, ast.Name) and node.id == "stats":
                return True
        return False

    @staticmethod
    def _allowed(ctx: FileContext, node: ast.AST) -> bool:
        func = ctx.enclosing_function(node)
        if func is not None and func.name in _STATS_WRITER_METHODS:
            return True
        cls = ctx.enclosing_class(node)
        return cls is not None and cls.name.endswith("Stats")


# ---------------------------------------------------------------------------
# RL005 — power-of-two configuration guards
# ---------------------------------------------------------------------------

#: constructor parameters that must be validated as powers of two.
_POW2_PARAMS = frozenset({"ways", "banks", "num_sets", "sets"})

#: callable names that count as validation when passed the parameter.
_VALIDATOR_HINTS = ("power_of_two", "validate", "check")


class PowerOfTwoGuardRule(LintRule):
    """RL005: way/bank/set counts are validated at construction.

    Way-disabling halves associativity in powers of two and bank/set
    selection masks address bits, so a non-power-of-two count corrupts
    indexing silently (entries alias or vanish).  A constructor taking
    ``ways``/``banks``/``num_sets`` must mention the parameter in an
    ``if``/``assert`` test or pass it to a ``*power_of_two*``-style
    validator before trusting it.
    """

    rule_id = "RL005"
    title = "power-of-two config guards"
    severity = Severity.WARNING
    hint = "guard with _is_power_of_two(...) and raise ConfigurationError at construction"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.FunctionDef) and node.name == "__init__"):
                continue
            if ctx.enclosing_class(node) is None:
                continue
            params = {
                arg.arg
                for arg in list(node.args.args) + list(node.args.kwonlyargs)
                if arg.arg in _POW2_PARAMS
            }
            if not params:
                continue
            validated = self._validated_names(node)
            for param in sorted(params - validated):
                yield self.finding(
                    ctx,
                    node,
                    f"constructor parameter {param!r} of "
                    f"{ctx.qualified_context(node)} is never validated as a "
                    "power of two",
                )

    @staticmethod
    def _validated_names(func: ast.FunctionDef) -> set[str]:
        """Parameter names that appear in a validation context in ``func``."""
        validated: set[str] = set()

        def names_in(node: ast.AST) -> Iterator[str]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    yield sub.id

        for node in ast.walk(func):
            if isinstance(node, ast.If):
                validated.update(names_in(node.test))
            elif isinstance(node, ast.Assert):
                validated.update(names_in(node.test))
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                if any(hint in name.lower() for hint in _VALIDATOR_HINTS):
                    for arg in node.args:
                        validated.update(names_in(arg))
        return validated


# ---------------------------------------------------------------------------
# RL006 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "Counter", "defaultdict"})


class MutableDefaultRule(LintRule):
    """RL006: no mutable default arguments.

    A default evaluated once at ``def`` time is shared by every call;
    for simulator components that means state leaking between runs —
    the exact failure mode the determinism contract exists to prevent.
    """

    rule_id = "RL006"
    title = "mutable default arguments"
    severity = Severity.ERROR
    hint = "default to None and construct the container inside the function"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, _MUTABLE_LITERALS) or (
                    isinstance(default, ast.Call)
                    and dotted_name(default.func) in _MUTABLE_CALLS
                ):
                    kind = (
                        f"{dotted_name(default.func)}()"
                        if isinstance(default, ast.Call)
                        else type(default).__name__
                    )
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument ({kind}) in "
                        f"{ctx.qualified_context(node)}",
                    )


# ---------------------------------------------------------------------------

ALL_RULES: tuple[type[LintRule], ...] = (
    DeterminismRule,
    ExceptionTaxonomyRule,
    HotPathPurityRule,
    StatsDisciplineRule,
    PowerOfTwoGuardRule,
    MutableDefaultRule,
)


def default_rules() -> list[LintRule]:
    """Fresh instances of every registered rule, in id order.

    Includes the whole-program rules (RL007–RL010) from
    :mod:`repro.lint.rules_project`; imported late because that module
    needs the shared helpers defined here.
    """
    from .rules_project import PROJECT_RULES

    return [rule() for rule in ALL_RULES + PROJECT_RULES]
