"""ASYNC001/ASYNC002/ASYNC003 — async-safety rules for the live gateway.

``repro.service`` put an asyncio wall-clock gateway in front of the REACT
middleware.  Three bug classes there are invisible to single-statement AST
matching and fatal to the paper's real-time deadline semantics (Eq. 2/3):

* **ASYNC001** — a *blocking* call (``time.sleep``, sync socket/file I/O,
  ``subprocess``) reachable from an ``async def`` stalls the entire event
  loop: every in-flight task deadline slips by the blocked duration.  The
  rule checks direct calls and, via the syntactic call graph, sync helper
  chains up to a small depth.
* **ASYNC002** — calling a coroutine function without awaiting, storing,
  or gathering the result silently drops the work (CPython warns at GC
  time, far from the bug).  Flagged for bare expression statements whose
  call resolves to an ``async def`` or a known asyncio awaitable factory.
* **ASYNC003** — check-then-act staleness: a guard over shared state
  (``self._inbox``, ``task.phase``…) validated *before* an await point
  with the guarded mutation *after* it.  Any other task may run during the
  suspension, so the guard is stale on the resume edge unless re-tested.
  This is a path property, so the rule runs a forward dataflow analysis
  over the function CFG: branch tests mark their facts fresh, await-point
  nodes decay every fact to stale, and a shared-state mutation inside a
  block control-dependent on a stale fact is a race.
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..callgraph import CallGraph, calls_in, transitive_blocking_path
from ..cfg import CFG, Block, Guard, function_cfgs
from ..dataflow import (
    EMPTY_STATE,
    DataflowDivergence,
    TaintState,
    canonical,
    solve_forward,
    taint_equal,
    taint_get,
    taint_join,
    taint_set,
)
from ..findings import Finding
from ..modinfo import ModuleInfo, walk_with_symbols
from .base import Rule

#: Calls that block the calling thread — poison inside a coroutine.
#: Resolved through the import-alias map like every call-site rule.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "socket.gethostbyaddr",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.getoutput",
        "subprocess.getstatusoutput",
        "subprocess.Popen",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.delete",
        "requests.head",
        "requests.request",
        "open",
        "io.open",
        "input",
    }
)

#: How deep the sync-helper chain walk descends before giving up.
MAX_CHAIN_DEPTH = 4


def _enclosing_class(symbol: str) -> Optional[str]:
    """Class part of a dotted method symbol (``Server.run`` → ``Server``)."""
    prefix = symbol.rpartition(".")[0]
    return prefix or None


class BlockingCallRule(Rule):
    """ASYNC001: no blocking calls reachable from an ``async def``."""

    id = "ASYNC001"
    title = "no blocking calls (sleep/socket/subprocess/file) in async defs"
    rationale = (
        "The live gateway runs every region server, heartbeat and HTTP "
        "connection on one event loop.  A single time.sleep() or sync "
        "socket read freezes all of them at once, so every task deadline "
        "(the paper's Eq. 2/3 guarantees) slips by the blocked duration.  "
        "Use asyncio.sleep, loop.run_in_executor or asyncio.to_thread; "
        "deliberate blocking (e.g. startup-only file reads) may carry an "
        "inline suppression with a justification."
    )
    scope = ("repro.service",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        graph = CallGraph(module)
        for node, symbol in walk_with_symbols(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            enclosing = _enclosing_class(symbol)
            for call in calls_in(node):
                name = module.qualified_name(call.func)
                if name is not None and name in BLOCKING_CALLS:
                    yield self.finding(
                        module,
                        call.lineno,
                        call.col_offset,
                        f"blocking call `{name}(...)` inside `async def "
                        f"{node.name}` stalls the event loop; use the async "
                        "equivalent (asyncio.sleep, asyncio.to_thread, "
                        "loop.run_in_executor)",
                        symbol,
                    )
                    continue
                callee = graph.resolve_call(call, enclosing_class=enclosing)
                if callee is None or callee.is_async:
                    continue
                path = transitive_blocking_path(
                    graph, callee, set(BLOCKING_CALLS), max_depth=MAX_CHAIN_DEPTH
                )
                if path is not None:
                    chain = " -> ".join(path)
                    yield self.finding(
                        module,
                        call.lineno,
                        call.col_offset,
                        f"sync call chain `{chain}` reachable from `async def "
                        f"{node.name}` blocks the event loop; make the helper "
                        "async or push the blocking leaf into "
                        "asyncio.to_thread/run_in_executor",
                        symbol,
                    )


class UnawaitedCoroutineRule(Rule):
    """ASYNC002: coroutine calls must be awaited, stored, or gathered."""

    id = "ASYNC002"
    title = "coroutine call results must be awaited/stored/gathered"
    rationale = (
        "Calling an async def only builds a coroutine object; as a bare "
        "expression statement the work is silently dropped and CPython's "
        "'never awaited' warning fires at GC time, far from the bug.  In "
        "the gateway that means lost heartbeats or unsent responses with "
        "no traceback pointing at the call site."
    )
    scope = ("repro",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        graph = CallGraph(module)
        for node, symbol in walk_with_symbols(module.tree):
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            name = graph.is_coroutine_call(
                node.value, enclosing_class=_enclosing_class(symbol)
            )
            if name is None:
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"coroutine `{name}(...)` is called but its result is never "
                "awaited, stored, or gathered — the work is silently dropped; "
                "`await` it or wrap it in asyncio.create_task/gather",
                symbol,
            )


# ---------------------------------------------------------------------------
# ASYNC003 — check-then-act staleness across await points.
# ---------------------------------------------------------------------------

#: Staleness lattice labels for one guard fact.
STALE = "stale"
FRESH = "fresh"

#: Method names that mutate their receiver (collection/queue/lifecycle
#: verbs used across repro.service state containers).
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "complete",
        "deregister",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "push",
        "put",
        "put_nowait",
        "register",
        "release",
        "remove",
        "setdefault",
        "update",
        "withdraw",
    }
)


def _shared_root(name: str, module: ModuleInfo) -> bool:
    """Should chains rooted at ``name`` be tracked as guard facts?

    ``self``/``cls`` and lowercase locals qualify (they can alias shared
    state); imported modules and UPPERCASE enum/constant roots do not —
    ``TaskPhase.ASSIGNED`` is a constant, not revalidatable state.
    """
    if name in ("self", "cls"):
        return True
    if name in module.imports:
        return False
    first = name.lstrip("_")[:1]
    return bool(first) and first.islower()


def _guard_facts(test: ast.expr, module: ModuleInfo) -> FrozenSet[str]:
    """Canonical attribute/subscript chains a branch test reads.

    Only maximal chains are kept (``task.phase``, ``self._inbox[wid]``),
    since those are the units a revalidating re-test would read again.
    Bare names are excluded — locals rebound only by this coroutine cannot
    go stale during its own suspension.
    """
    facts: Set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            root: ast.AST = node
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and _shared_root(root.id, module):
                facts.add(canonical(node))
                if isinstance(node, ast.Subscript):
                    visit(node.slice)
                return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(test)
    return frozenset(facts)


def _chains_overlap(a: str, b: str) -> bool:
    """Do two canonical chains read/write the same state?

    ``self._inbox`` vs ``self._inbox[wid]`` overlap (prefix at a ``.``/``[``
    boundary); ``stop.is_set`` vs ``report.errors`` do not.  This is what
    makes a mutation *guarded*: ASYNC003 flags writes to the state the
    stale guard read, not unrelated writes that merely sit inside the
    branch.
    """
    if a == b:
        return True
    shorter, longer = (a, b) if len(a) < len(b) else (b, a)
    return longer.startswith(shorter + ".") or longer.startswith(shorter + "[")


def _contains_attribute(node: ast.AST) -> bool:
    return any(isinstance(child, ast.Attribute) for child in ast.walk(node))


def _flatten_targets(targets: List[ast.expr]) -> Iterator[ast.expr]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(list(target.elts))
        else:
            yield target


def _mutation_target(stmt: ast.stmt) -> Optional[ast.expr]:
    """The shared-state expression ``stmt`` mutates, or None.

    Shared means the target chain contains an attribute access — plain
    local rebinding (``x = ...``) is private to the coroutine and cannot
    race.  Covers assignment/deletion of attributes and subscripts plus
    mutator-verb method calls on attribute receivers.
    """
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = stmt.targets
    elif (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr in MUTATOR_METHODS
        and _contains_attribute(stmt.value.func.value)
    ):
        return stmt.value.func.value
    for target in _flatten_targets(targets):
        if isinstance(target, (ast.Attribute, ast.Subscript)) and _contains_attribute(
            target
        ):
            return target
    return None


#: One collected race: (mutation stmt, mutated target, [(fact, guard line)]).
_Race = Tuple[ast.stmt, ast.expr, List[Tuple[str, int]]]


def _staleness_races(cfg: CFG, module: ModuleInfo) -> List[_Race]:
    """Run the staleness analysis over one async function's CFG."""

    def transfer_with(
        collect: Optional[List[_Race]],
    ) -> Callable[[Block, TaintState], TaintState]:
        def transfer(block: Block, state: TaintState) -> TaintState:
            for element in block.elements:
                node = element.node
                if element.awaits:
                    # Crossing a suspension point: every validated fact
                    # may have been changed by another task.
                    state = {key: frozenset({STALE}) for key in state}
                if (
                    collect is not None
                    and not element.is_test
                    and isinstance(node, ast.stmt)
                ):
                    target = _mutation_target(node)
                    if target is not None:
                        stale = _stale_guards(block.guards, state, canonical(target))
                        if stale:
                            collect.append((node, target, stale))
                if element.is_test and isinstance(node, ast.expr):
                    # A (re-)test refreshes the facts it reads.
                    for fact in _guard_facts(node, module):
                        state = taint_set(state, fact, frozenset({FRESH}))
            return state

        return transfer

    def _stale_guards(
        guards: Tuple[Guard, ...], state: TaintState, target: str
    ) -> List[Tuple[str, int]]:
        stale: List[Tuple[str, int]] = []
        seen: Set[str] = set()
        for guard in guards:
            for fact in sorted(_guard_facts(guard.test, module)):
                if fact in seen or not _chains_overlap(fact, target):
                    continue
                if STALE in taint_get(state, fact):
                    seen.add(fact)
                    stale.append((fact, guard.test.lineno))
        return stale

    try:
        in_states = solve_forward(
            cfg,
            entry_state=EMPTY_STATE,
            bottom=EMPTY_STATE,
            join=taint_join,
            transfer=transfer_with(None),
            equals=taint_equal,
        )
    except DataflowDivergence:  # pragma: no cover - defensive; CFGs are reducible
        return []
    races: List[_Race] = []
    collecting = transfer_with(races)
    for block in cfg.blocks:
        collecting(block, in_states.get(block.id, EMPTY_STATE))
    return races


class StalenessRaceRule(Rule):
    """ASYNC003: guards validated before an await are stale after it."""

    id = "ASYNC003"
    title = "no check-then-act on shared state across an await point"
    rationale = (
        "Between a guard read (task phase, inbox membership, backlog "
        "depth) and the resume edge of an await, any other event-loop "
        "task may mutate the guarded state: the assignment dispatched "
        "for an ASSIGNED task that a concurrent withdrawal already "
        "completed, the inbox entry popped twice.  Re-test the guard "
        "after the await or mutate before suspending."
    )
    scope = ("repro.service",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for cfg in function_cfgs(module.tree):
            if not cfg.is_async or not any(block.awaits for block in cfg.blocks):
                continue
            for stmt, target, stale in _staleness_races(cfg, module):
                guards = ", ".join(
                    f"`{fact}` (line {lineno})" for fact, lineno in stale
                )
                yield self.finding(
                    module,
                    stmt.lineno,
                    stmt.col_offset,
                    f"mutation of `{canonical(target)}` relies on guard "
                    f"{guards} validated before an await point; the guard is "
                    "stale on the resume edge — re-test it after the await "
                    "or mutate before suspending",
                    cfg.name,
                )
