"""EXC001 — broad excepts in handler code must re-raise or count.

The event loop (DES engine dispatch) and the live gateway both run
handler callbacks inside dispatch machinery that must survive a crashing
handler.  The idiomatic shield is ``except Exception:`` — and the idiomatic
failure mode is that shield silently eating real bugs: a typo in an event
handler turns into zero completed tasks and a clean-looking run.

EXC001 accepts the shield but demands an exhaust path: a broad handler
(``except:``, ``except Exception``, ``except BaseException``, or a tuple
containing either) must re-raise *or* increment an observability counter
(any ``....inc()`` call — the ``repro.obs`` registry idiom, e.g.
``self._errors.labels(reason="handler").inc()``) so crashes show up on the
dashboards even when the process survives them.

Scope is the layers that wrap foreign callables: ``repro.service`` (HTTP
connections, region-server event handlers), ``repro.sim`` (event
dispatch) and ``repro.platform`` (worker-pool callbacks).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..findings import Finding
from ..modinfo import ModuleInfo, enclosing_symbols
from .base import Rule

#: Exception names counting as "broad" when caught.
BROAD_EXCEPTIONS = frozenset(
    {"Exception", "BaseException", "builtins.Exception", "builtins.BaseException"}
)


def _broad_name(module: ModuleInfo, handler: ast.ExceptHandler) -> Optional[str]:
    """Display name when ``handler`` catches broadly, else None."""
    if handler.type is None:
        return "<bare>"
    candidates = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for candidate in candidates:
        name = module.qualified_name(candidate)
        if name is not None and name in BROAD_EXCEPTIONS:
            return name
    return None


def _walk_handler_body(handler: ast.ExceptHandler) -> Iterator[ast.AST]:
    """Walk the handler body without descending into nested defs."""
    stack: list[ast.AST] = list(handler.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _has_exhaust_path(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or increments an obs counter."""
    for node in _walk_handler_body(handler):
        if isinstance(node, ast.Raise):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inc"
        ):
            return True
    return False


class BroadExceptRule(Rule):
    """EXC001: broad handler-shield excepts must re-raise or count."""

    id = "EXC001"
    title = "broad except in dispatch/handler code must re-raise or inc() a counter"
    rationale = (
        "Event dispatch wraps foreign handler code, so a broad "
        "except is legitimate there — but swallowing the exception without "
        "a trace turns handler bugs into silently-missing results.  Either "
        "re-raise after cleanup or increment an obs registry counter "
        "(errors_total.labels(reason=...).inc()) so the failure is visible "
        "on the run summary; purely-diagnostic catches may carry an inline "
        "suppression with a justification."
    )
    scope = ("repro.service", "repro.sim", "repro.platform")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            name = _broad_name(module, node)
            if name is None or _has_exhaust_path(node):
                continue
            caught = "bare `except:`" if name == "<bare>" else f"broad `except {name}`"
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"{caught} neither re-raises nor increments an "
                "obs error counter; handler crashes vanish silently — add "
                "`<counter>.inc()` (repro.obs registry) or re-raise",
                symbols.get(id(node), ""),
            )
