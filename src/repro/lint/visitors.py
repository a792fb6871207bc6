"""Per-rule AST visitors for ``repro.lint``.

Each visitor walks one parsed module and appends :class:`Finding`s. The
visitors are deliberately *syntactic*: they flag patterns a reviewer
could point at in a diff, and they prefer false negatives over noise —
the runtime sanitizer (:mod:`repro.lint.sanitize`) backstops what the
syntax cannot see (views, slices, dynamically chosen buffers).
"""

from __future__ import annotations

import ast

from .rules import (
    Finding,
    in_hot_path,
    in_precision_scope,
    in_timing_scope,
)


class _RuleVisitor(ast.NodeVisitor):
    """Shared plumbing: source lines, finding collection."""

    rule = "RL000"

    def __init__(self, path: str, source_lines: list[str]) -> None:
        self.path = path
        self._lines = source_lines
        self.findings: list[Finding] = []

    def add(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        text = ""
        if 1 <= line <= len(self._lines):
            text = self._lines[line - 1].strip()
        self.findings.append(
            Finding(
                rule=self.rule,
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                line_text=text,
            )
        )


def _dtype_literal(node: ast.expr) -> str | None:
    """The source form of a hardcoded dtype literal, or None.

    Recognized: the builtin ``float``, ``np.float64``/``np.float32``
    (also via ``numpy.``), the strings ``"float64"``/``"float32"``, and
    ``np.dtype(<any of those>)``.
    """
    if isinstance(node, ast.Name) and node.id == "float":
        return "float"
    if isinstance(node, ast.Attribute) and node.attr in ("float64", "float32"):
        value = node.value
        if isinstance(value, ast.Name) and value.id in ("np", "numpy"):
            return f"{value.id}.{node.attr}"
    if isinstance(node, ast.Constant) and node.value in ("float64", "float32"):
        return repr(node.value)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dtype"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and len(node.args) == 1
    ):
        inner = _dtype_literal(node.args[0])
        if inner is not None:
            return f"np.dtype({inner})"
    return None


class DtypePolicyVisitor(_RuleVisitor):
    """RL001: dtype literals inside precision-threaded modules."""

    rule = "RL001"

    @classmethod
    def applies(cls, path: str) -> bool:
        return in_precision_scope(path)

    #: Constructors whose second positional argument is ``dtype``.
    _POSITIONAL_DTYPE = frozenset({"asarray", "array"})

    def visit_Call(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                literal = _dtype_literal(keyword.value)
                if literal is not None:
                    self.add(
                        keyword.value,
                        f"dtype={literal} hardcodes a dtype in a "
                        "precision-threaded module; derive it from the "
                        "precision policy (a resolve_precision dtype / "
                        "EVALUATION_DTYPE)",
                    )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._POSITIONAL_DTYPE
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and len(node.args) >= 2
        ):
            literal = _dtype_literal(node.args[1])
            if literal is not None:
                self.add(
                    node.args[1],
                    f"np.{node.func.attr}(..., {literal}) hardcodes a "
                    "dtype in a precision-threaded module; derive it "
                    "from the precision policy (a resolve_precision "
                    "dtype / EVALUATION_DTYPE)",
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and len(node.args) == 1
        ):
            literal = _dtype_literal(node.args[0])
            if literal is not None:
                self.add(
                    node.args[0],
                    f"astype({literal}) hardcodes a dtype in a "
                    "precision-threaded module; derive it from the "
                    "precision policy (a resolve_precision dtype / "
                    "EVALUATION_DTYPE)",
                )
        self.generic_visit(node)


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _expr_key(node: ast.expr) -> str:
    """Structural key of an expression, ignoring load/store context."""
    return ast.dump(node, annotate_fields=False, include_attributes=False)


class KernelAliasVisitor(_RuleVisitor):
    """RL002: syntactic aliasing at ``*_into`` kernel call sites.

    Cross-references ``repro.core.batching.KERNEL_CONTRACTS``: binds the
    call's arguments to the contract's parameter names and flags any
    clobbered parameter (writes/inout/scratch) whose expression is
    structurally identical to another argument's, unless the contract
    lists the pair in ``may_alias``.
    """

    rule = "RL002"

    @classmethod
    def applies(cls, path: str) -> bool:
        return True

    def visit_Call(self, node: ast.Call) -> None:
        from repro.core.batching import KERNEL_CONTRACTS

        name = _call_name(node.func)
        contract = KERNEL_CONTRACTS.get(name) if name else None
        if contract is not None and not any(
            isinstance(a, ast.Starred) for a in node.args
        ):
            bound: dict[str, ast.expr] = dict(zip(contract.params, node.args))
            for keyword in node.keywords:
                if keyword.arg is not None:
                    bound[keyword.arg] = keyword.value
            clobbered = contract.writes + contract.inout + contract.scratch
            allowed = {frozenset(pair) for pair in contract.may_alias}
            reported: set[frozenset] = set()
            for target in clobbered:
                expr = bound.get(target)
                if expr is None:
                    continue
                key = _expr_key(expr)
                for other, other_expr in bound.items():
                    if other == target:
                        continue
                    pair = frozenset((target, other))
                    if pair in allowed or pair in reported:
                        continue
                    if _expr_key(other_expr) == key:
                        reported.add(pair)
                        self.add(
                            expr,
                            f"{name}: argument '{target}' aliases "
                            f"'{other}' (both are "
                            f"`{ast.unparse(expr)}`) but the kernel "
                            "contract forbids this pair "
                            "(see KERNEL_CONTRACTS in repro.core."
                            "batching)",
                        )
        self.generic_visit(node)


#: Calls on numpy's *global* RNG (legacy seeded-module API). The
#: Generator API (np.random.default_rng / Generator methods) is the
#: sanctioned path and is not flagged.
_GLOBAL_RNG_FNS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "exponential",
        "poisson",
    }
)

#: Wall-clock readers in the ``time`` module.
_WALL_CLOCK_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)


def _is_set_expr(node: ast.expr) -> bool:
    """Set literals, set comprehensions, and bare ``set(...)`` calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "set"
    return False


class DeterminismVisitor(_RuleVisitor):
    """RL003: global RNG, set-order dependence, stray wall-clock."""

    rule = "RL003"

    @classmethod
    def applies(cls, path: str) -> bool:
        return True

    def __init__(self, path: str, source_lines: list[str]) -> None:
        super().__init__(path, source_lines)
        self._timing_ok = in_timing_scope(path)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
                and func.attr in _GLOBAL_RNG_FNS
            ):
                self.add(
                    node,
                    f"np.random.{func.attr} uses numpy's unseeded global "
                    "RNG; thread an np.random.Generator (default_rng) "
                    "through instead",
                )
            if (
                not self._timing_ok
                and isinstance(value, ast.Name)
                and value.id == "time"
                and func.attr in _WALL_CLOCK_FNS
            ):
                self.add(
                    node,
                    f"time.{func.attr} reads the wall clock outside the "
                    "timing-designated modules; results become "
                    "run-dependent (baseline with a justification if the "
                    "timing is the point)",
                )
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple", "enumerate")
            and len(node.args) == 1
            and _is_set_expr(node.args[0])
        ):
            self.add(
                node,
                f"{func.id}(...) over a set materializes "
                "iteration-order-dependent output; sort first "
                "(sorted(...)) or keep a list",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time" and not self._timing_ok:
            clocks = sorted(
                alias.name
                for alias in node.names
                if alias.name in _WALL_CLOCK_FNS
            )
            if clocks:
                self.add(
                    node,
                    f"importing {', '.join(clocks)} from time in a "
                    "non-timing module invites wall-clock reads off the "
                    "designated paths",
                )
        self.generic_visit(node)

    def _check_iter(self, node: ast.expr) -> None:
        if _is_set_expr(node):
            self.add(
                node,
                "iterating a set: element order is hash-randomized "
                "run to run; sort first (sorted(...)) before feeding "
                "reductions or serialization",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)


class DispatchSeamVisitor(_RuleVisitor):
    """RL004: direct matmul/einsum/@/.dot or raw np.empty/np.zeros in
    hot-path modules (the kernel module itself, core/batching.py, is
    exempted by :func:`in_hot_path`)."""

    rule = "RL004"

    #: Raw numpy allocators: hot-path scratch must come from
    #: ``Workspace.buffer`` so repeated calls stop allocating.
    _RAW_ALLOCATORS = frozenset({"empty", "zeros"})

    @classmethod
    def applies(cls, path: str) -> bool:
        return in_hot_path(path)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.MatMult):
            self.add(
                node,
                "`@` in a hot-path module bypasses the fused-kernel "
                "dispatch seam; route through a core/batching kernel "
                "(csr_matmul_into / linear_into / pair_linear_into)",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                func.attr in ("matmul", "einsum")
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
            ):
                self.add(
                    node,
                    f"np.{func.attr} in a hot-path module bypasses the "
                    "fused-kernel dispatch seam; route through a "
                    "core/batching kernel",
                )
            elif (
                func.attr in self._RAW_ALLOCATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
            ):
                self.add(
                    node,
                    f"np.{func.attr} in a hot-path module allocates a "
                    "fresh buffer per call; take scratch from "
                    "Workspace.buffer (repro.core.batching) or baseline "
                    "a result allocation with a justification",
                )
            elif func.attr == "dot":
                self.add(
                    node,
                    ".dot(...) in a hot-path module bypasses the "
                    "fused-kernel dispatch seam; route through a "
                    "core/batching kernel",
                )
        self.generic_visit(node)


ALL_VISITORS = (
    DtypePolicyVisitor,
    KernelAliasVisitor,
    DeterminismVisitor,
    DispatchSeamVisitor,
)
