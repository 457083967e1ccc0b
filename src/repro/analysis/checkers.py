"""The RPR rule catalog — the repo's domain invariants as AST checks.

Each rule guards an invariant the simulators' credibility rests on (see
docs/ANALYSIS.md for the full catalog with examples):

* RPR001 — simulation code runs on a virtual clock and seeded RNG
  streams; wall-clock reads and unseeded global RNG make traces
  non-reproducible.
* RPR002 — autograd graph nodes are immutable after construction;
  mutating ``.data``/``.grad`` outside optimizer/init sites corrupts
  gradients, and late-binding loop captures in ``backward`` closures
  silently differentiate the wrong tensor.
* RPR003 — roofline/collective arithmetic must not mix unit scales
  (bytes vs GiB, s vs us, FLOPs vs TFLOPs) without a named conversion.
* RPR004 — API hygiene: no ``__all__`` drift, no mutable default
  arguments.
* RPR005 — ``==``/``!=`` on computed float expressions is almost never
  the intended comparison in an analytical model.
* RPR006 — exception hygiene: bare ``except:`` and broad handlers that
  silently swallow (``except Exception: pass``) hide the descriptive
  errors the simulators go out of their way to raise.
"""

from __future__ import annotations

import ast

from .base import Checker, FileContext, dotted_name, register

__all__ = ["VirtualClockChecker", "AutogradContractChecker",
           "UnitsHygieneChecker", "ApiHygieneChecker",
           "FloatEqualityChecker", "ExceptionHygieneChecker"]


# ----------------------------------------------------------------------
# RPR001 — virtual-clock purity
# ----------------------------------------------------------------------

#: Call targets that read the wall clock.
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: ``numpy.random`` attributes that are *not* the unseeded global RNG.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64",
                 "PCG64DXSM", "Philox", "SFC64", "RandomState",
                 "BitGenerator"}


@register
class VirtualClockChecker(Checker):
    """RPR001: no wall clock or unseeded global RNG in simulation code."""

    rule = "RPR001"
    severity = "error"
    title = "virtual-clock purity (no wall clock / unseeded global RNG)"
    scopes = ("serving", "parallel", "frontier")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        name = dotted_name(node.func)
        if not name:
            return
        if name in _WALL_CLOCK:
            ctx.report(self, node,
                       f"wall-clock call {name}() in simulation code; "
                       f"advance the virtual clock instead")
            return
        parts = name.split(".")
        if len(parts) >= 3 and parts[-2] == "random" \
                and parts[0] in ("np", "numpy") \
                and parts[-1] not in _NP_RANDOM_OK:
            ctx.report(self, node,
                       f"unseeded global NumPy RNG {name}(); use "
                       f"np.random.default_rng(seed)")
        elif len(parts) == 2 and parts[0] == "random" \
                and parts[1] not in ("Random", "SystemRandom"):
            ctx.report(self, node,
                       f"unseeded global RNG {name}(); use a seeded "
                       f"random.Random(seed) or NumPy Generator")


# ----------------------------------------------------------------------
# RPR002 — autograd contract
# ----------------------------------------------------------------------

#: Files allowed to mutate ``.data``/``.grad``: the autograd engine
#: itself, the optimizers, and the mixed-precision master-weight store.
_MUTATION_FILES = {"tensor.py", "optimizers.py", "precision.py"}

#: Function names allowed to mutate anywhere (init / state loading).
_MUTATION_FUNCS = {"__init__", "zero_grad", "load_state_dict",
                   "init_weights", "reset_parameters"}


@register
class AutogradContractChecker(Checker):
    """RPR002: graph nodes are frozen; backward closures bind early."""

    rule = "RPR002"
    severity = "error"
    title = "autograd contract (no node mutation / late-binding capture)"
    scopes = ("models", "training")

    def __init__(self) -> None:
        #: stack of loop-target name sets for enclosing ``for`` loops
        self._loop_targets: list[set[str]] = []

    # -- part 1: in-place mutation of Tensor payloads ------------------
    def _mutation_allowed(self, ctx: FileContext) -> bool:
        if ctx.parts and ctx.parts[-1] in _MUTATION_FILES:
            return True
        allowed = _MUTATION_FUNCS
        return any(f in allowed or f.startswith("_init")
                   for f in ctx.func_stack)

    @staticmethod
    def _tensor_slot(target: ast.AST) -> str:
        """``"data"``/``"grad"`` if ``target`` writes such a slot."""
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in ("data",
                                                                 "grad"):
            return target.attr
        return ""

    def _check_write(self, node: ast.AST, targets: list[ast.AST],
                     ctx: FileContext) -> None:
        for target in targets:
            slot = self._tensor_slot(target)
            if slot and not self._mutation_allowed(ctx):
                ctx.report(self, node,
                           f"in-place mutation of Tensor.{slot} outside "
                           f"optimizer/init sites corrupts the autograd "
                           f"graph")

    def visit_Assign(self, node: ast.Assign, ctx: FileContext) -> None:
        self._check_write(node, node.targets, ctx)

    def visit_AugAssign(self, node: ast.AugAssign,
                        ctx: FileContext) -> None:
        self._check_write(node, [node.target], ctx)

    def visit_AnnAssign(self, node: ast.AnnAssign,
                        ctx: FileContext) -> None:
        if node.value is not None:
            self._check_write(node, [node.target], ctx)

    # -- part 2: late-binding loop captures in backward closures -------
    @staticmethod
    def _target_names(target: ast.AST) -> set[str]:
        return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}

    def visit_For(self, node: ast.For, ctx: FileContext) -> None:
        self._loop_targets.append(self._target_names(node.target))

    def leave_For(self, node: ast.For, ctx: FileContext) -> None:
        self._loop_targets.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef,
                          ctx: FileContext) -> None:
        if node.name != "backward" or not self._loop_targets:
            return
        in_scope = set().union(*self._loop_targets)
        params = {a.arg for a in (node.args.args + node.args.kwonlyargs
                                  + node.args.posonlyargs)}
        bound = params | {
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        captured = sorted(
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            and n.id in in_scope and n.id not in bound)
        for name in dict.fromkeys(captured):
            ctx.report(self, node,
                       f"backward closure captures loop variable "
                       f"{name!r} late; bind it via a default argument "
                       f"({name}={name})")


# ----------------------------------------------------------------------
# RPR003 — units hygiene
# ----------------------------------------------------------------------

#: suffix -> (dimension, canonical unit).  Suffix = the trailing
#: ``_``-separated token of an identifier, lowercased.
_UNITS = {
    # data size
    "bytes": ("size", "bytes"), "byte": ("size", "bytes"),
    "kb": ("size", "kb"), "mb": ("size", "mb"), "gb": ("size", "gb"),
    "tb": ("size", "tb"), "kib": ("size", "kib"), "mib": ("size", "mib"),
    "gib": ("size", "gib"), "tib": ("size", "tib"),
    # time
    "s": ("time", "s"), "sec": ("time", "s"), "secs": ("time", "s"),
    "seconds": ("time", "s"), "ms": ("time", "ms"),
    "us": ("time", "us"), "usec": ("time", "us"), "ns": ("time", "ns"),
    # compute
    "flops": ("compute", "flops"), "kflops": ("compute", "kflops"),
    "mflops": ("compute", "mflops"), "gflops": ("compute", "gflops"),
    "tflops": ("compute", "tflops"), "pflops": ("compute", "pflops"),
}

_MIXABLE_OPS = (ast.Add, ast.Sub)
_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _unit_of(node: ast.AST) -> tuple[str, str, str] | None:
    """(identifier, dimension, unit) when ``node`` is a plain unit name.

    Only bare ``Name``/``Attribute`` chains qualify: any arithmetic on
    the operand (``x_gb * GB``) counts as the "intervening named
    conversion" the rule asks for, so it is deliberately not resolved.
    """
    name = dotted_name(node)
    if not name:
        return None
    tail = name.rsplit(".", 1)[-1].rsplit("_", 1)[-1].lower()
    if tail in _UNITS:
        dim, unit = _UNITS[tail]
        return name, dim, unit
    return None


@register
class UnitsHygieneChecker(Checker):
    """RPR003: no +,-,comparison across conflicting unit suffixes."""

    rule = "RPR003"
    severity = "warning"
    title = "units hygiene (no mixed-unit arithmetic)"

    def _check_pair(self, node: ast.AST, left: ast.AST, right: ast.AST,
                    what: str, ctx: FileContext) -> None:
        lhs, rhs = _unit_of(left), _unit_of(right)
        if lhs is None or rhs is None:
            return
        (lname, ldim, lunit), (rname, rdim, runit) = lhs, rhs
        if ldim == rdim and lunit != runit:
            ctx.report(self, node,
                       f"{what} mixes {ldim} units: {lname} [{lunit}] "
                       f"vs {rname} [{runit}]; convert through a named "
                       f"constant first")

    def visit_BinOp(self, node: ast.BinOp, ctx: FileContext) -> None:
        if isinstance(node.op, _MIXABLE_OPS):
            self._check_pair(node, node.left, node.right, "arithmetic",
                             ctx)

    def visit_AugAssign(self, node: ast.AugAssign,
                        ctx: FileContext) -> None:
        if isinstance(node.op, _MIXABLE_OPS):
            self._check_pair(node, node.target, node.value,
                             "augmented assignment", ctx)

    def visit_Compare(self, node: ast.Compare, ctx: FileContext) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, _COMPARE_OPS):
                self._check_pair(node, left, right, "comparison", ctx)


# ----------------------------------------------------------------------
# RPR004 — API hygiene
# ----------------------------------------------------------------------

@register
class ApiHygieneChecker(Checker):
    """RPR004: ``__all__`` drift, mutable defaults."""

    rule = "RPR004"
    severity = "error"
    title = "API hygiene (__all__ drift, mutable defaults)"

    def __init__(self) -> None:
        self._all_node: ast.AST | None = None
        self._all_names: list[str] = []
        self._top_level: set[str] = set()
        self._public_defs: dict[str, ast.AST] = {}
        self._star_import = False

    # -- mutable default arguments -------------------------------------
    def _check_defaults(self, node, ctx: FileContext) -> None:
        for default in node.args.defaults + node.args.kw_defaults:
            if default is None:
                continue
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call) and \
                    dotted_name(default.func) in ("list", "dict", "set"):
                bad = True
            if bad:
                ctx.report(self, default,
                           f"mutable default argument in "
                           f"{node.name}(); use None and initialise "
                           f"inside")

    def visit_FunctionDef(self, node: ast.FunctionDef,
                          ctx: FileContext) -> None:
        self._check_defaults(node, ctx)
        if ctx.at_module_level:
            self._remember(node.name, node, is_def=True)

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- __all__ drift --------------------------------------------------
    def _remember(self, name: str, node: ast.AST,
                  is_def: bool = False) -> None:
        self._top_level.add(name)
        if is_def and not name.startswith("_"):
            self._public_defs[name] = node

    def visit_ClassDef(self, node: ast.ClassDef,
                       ctx: FileContext) -> None:
        if ctx.at_module_level:
            self._remember(node.name, node, is_def=True)

    def visit_Assign(self, node: ast.Assign, ctx: FileContext) -> None:
        if not ctx.at_module_level:
            return
        for target in node.targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name):
                    self._remember(n.id, node)
                    if n.id == "__all__":
                        self._record_all(node)

    def visit_AnnAssign(self, node: ast.AnnAssign,
                        ctx: FileContext) -> None:
        if ctx.at_module_level and isinstance(node.target, ast.Name):
            self._remember(node.target.id, node)

    def _record_all(self, node: ast.Assign) -> None:
        self._all_node = node
        value = node.value
        if isinstance(value, (ast.List, ast.Tuple)):
            self._all_names = [
                e.value for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value,
                                                              str)]

    def visit_Import(self, node: ast.Import, ctx: FileContext) -> None:
        if not ctx.at_module_level:
            return
        for alias in node.names:
            self._remember(alias.asname or alias.name.split(".")[0],
                           node)

    def visit_ImportFrom(self, node: ast.ImportFrom,
                         ctx: FileContext) -> None:
        if not ctx.at_module_level:
            return
        for alias in node.names:
            if alias.name == "*":
                self._star_import = True
            else:
                self._remember(alias.asname or alias.name, node)

    def end_module(self, ctx: FileContext) -> None:
        if self._star_import:
            return
        if self._all_node is None:
            if self._public_defs:
                first = min(self._public_defs.values(),
                            key=lambda n: getattr(n, "lineno", 0))
                ctx.report(self, first,
                           f"module defines public API "
                           f"({len(self._public_defs)} public def(s)) "
                           f"but no __all__; declare the export list")
            return
        for name in self._all_names:
            if name not in self._top_level:
                ctx.report(self, self._all_node,
                           f"__all__ names {name!r} which is not "
                           f"defined in the module")
        exported = set(self._all_names)
        for name, node in sorted(self._public_defs.items()):
            if name not in exported:
                ctx.report(self, node,
                           f"public definition {name!r} missing from "
                           f"__all__; export it or rename it _"
                           f"{name}")


# ----------------------------------------------------------------------
# RPR005 — float equality
# ----------------------------------------------------------------------

def _is_computed_float(node: ast.AST) -> bool:
    """True for arithmetic whose result is float-valued in practice.

    Divisions and ``**`` produce floats; any other arithmetic counts
    only when a float literal appears in its subtree.  Bare names and
    constants never match — comparing a variable against a literal
    sentinel (``if x == 0.0`` after ``x = 0.0``) is commonplace and
    deliberate.
    """
    if not isinstance(node, (ast.BinOp, ast.UnaryOp)):
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op,
                                                     (ast.Div, ast.Pow)):
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
    return False


@register
class FloatEqualityChecker(Checker):
    """RPR005: ``==``/``!=`` on computed float expressions."""

    rule = "RPR005"
    severity = "warning"
    title = "float equality on computed expressions"
    exclude_scopes = ("tests",)

    def visit_Compare(self, node: ast.Compare, ctx: FileContext) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_computed_float(left) or _is_computed_float(right):
                ctx.report(self, node,
                           "float equality on a computed expression; "
                           "compare with math.isclose / np.isclose or "
                           "an explicit tolerance")
                return


# ----------------------------------------------------------------------
# RPR006 — exception hygiene
# ----------------------------------------------------------------------

#: Catch-all exception classes a swallowing handler must not hide.
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _catches_broadly(node: ast.ExceptHandler) -> bool:
    """True when the handler's type includes Exception/BaseException."""
    types = node.type.elts if isinstance(node.type, ast.Tuple) \
        else [node.type]
    return any(dotted_name(t).rsplit(".", 1)[-1] in _BROAD_EXCEPTIONS
               for t in types if t is not None)


def _swallows(body: list[ast.stmt]) -> bool:
    """True when the handler body discards the exception silently.

    Only no-op bodies count — ``pass``, a bare ``...``, or a lone
    ``continue``.  A handler that logs, re-raises, wraps (``raise X
    from exc``), returns a fallback, or does *any* real work is fine.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant) and \
                stmt.value.value is Ellipsis:
            continue
        return False
    return True


@register
class ExceptionHygieneChecker(Checker):
    """RPR006: no bare ``except:`` / silent broad-exception swallowing."""

    rule = "RPR006"
    severity = "error"
    title = "exception hygiene (bare except, silent broad swallowing)"
    exclude_scopes = ("tests",)

    def visit_ExceptHandler(self, node: ast.ExceptHandler,
                            ctx: FileContext) -> None:
        if node.type is None:
            ctx.report(self, node,
                       "bare except: catches SystemExit/KeyboardInterrupt "
                       "too; name the exception types (or use "
                       "'except Exception' and handle it)")
            return
        if _catches_broadly(node) and _swallows(node.body):
            ctx.report(self, node,
                       "broad exception handler silently swallows the "
                       "error; narrow the type, log it, or re-raise a "
                       "descriptive error")
