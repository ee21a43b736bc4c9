"""NUM001 — no float equality in deadline/statistics math.

Eq. 2/3 (window and completion probabilities) and the power-law MLE all
produce floats whose exact bit patterns depend on evaluation order — the
vectorized kernels are only guaranteed equivalent to the reference within
tolerance at the *suite* level (tests/core_matching/test_kernel_equivalence
pins the cases where they are bit-equal).  An ``==``/``!=`` against a float
literal in ``repro.core`` or ``repro.stats`` therefore encodes an accidental
bit-pattern assumption; use ``math.isclose`` / ``np.isclose`` or an explicit
tolerance.

The rule flags comparisons in which either operand is a float literal
(including negated literals like ``-1.0``).  Sentinel comparisons against
``0``/integers and identity tests are untouched; a deliberate exact-float
contract (e.g. testing an exact IEEE value like ``0.5``) can carry an inline
``# reprolint: disable=NUM001`` with a comment saying why exactness holds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..modinfo import ModuleInfo, enclosing_symbols
from .base import Rule


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


class FloatEqualityRule(Rule):
    """NUM001: require tolerance helpers instead of float-literal ==/!=."""

    id = "NUM001"
    title = "no ==/!= against float literals in core/ and stats/"
    rationale = (
        "Deadline probabilities and MLE exponents are floating point; exact "
        "equality silently depends on evaluation order (reference loop vs. "
        "optimised or vectorized kernel).  Use math.isclose/np.isclose."
    )
    scope = ("repro.core", "repro.stats")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(left) or _is_float_literal(right):
                    op_text = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"float-literal `{op_text}` comparison; use "
                        "math.isclose/np.isclose or an explicit tolerance",
                        symbols.get(id(node), ""),
                    )
                    break  # one finding per comparison chain
