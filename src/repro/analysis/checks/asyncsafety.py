"""REP011–REP013 — async-safety pack for the serving frontend.

PR 8's sharded frontend moved the request path onto asyncio, which has
failure modes the thread-era rules (REP002/REP003) never had to model:

* **REP011** — ``await`` while holding a *synchronous* lock.  A
  ``threading.Lock`` held across an await blocks the entire event loop
  for every other connection until the awaited I/O completes — and
  deadlocks outright if the resuming callback needs the same lock.
  Async code must use ``asyncio.Lock`` with ``async with``.
* **REP012** — blocking calls inside ``async def``.  ``time.sleep``,
  ``socket.*``, ``sqlite3``, ``subprocess``, and synchronous file I/O
  stall the event loop; they belong behind ``run_in_executor`` /
  ``asyncio.to_thread`` (calls inside those wrappers are exempt).
* **REP013** — fire-and-forget tasks.  A ``create_task`` /
  ``ensure_future`` result that is neither awaited, retained, nor
  returned can be garbage-collected mid-flight, and its exceptions
  vanish; keep a reference and await or explicitly cancel it.

All three scope to ``service/`` and only inspect ``async def`` bodies,
so the sync socketserver stack stays untouched by construction. No
async code remains in ``src/`` (the shard router is synchronous); the
rules stay so any future async serving code starts under them.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.checks.blocking import in_service_layer
from repro.analysis.rules import FileContext, Rule, dotted_name, register

__all__ = [
    "AwaitUnderSyncLockRule",
    "BlockingInAsyncRule",
    "UnretainedTaskRule",
]


def _enclosing_function(
    ancestors: list[ast.AST],
) -> Optional[ast.AST]:
    """Innermost (Async)FunctionDef enclosing the dispatch point."""
    for node in reversed(ancestors):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


def _in_async_def(ancestors: list[ast.AST]) -> bool:
    return isinstance(_enclosing_function(ancestors), ast.AsyncFunctionDef)


#: Lock-ish constructor paths (resolved through the import map).
_SYNC_LOCK_TYPES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)

#: Attribute suffixes that conventionally name a synchronous lock.
_LOCK_NAME_SUFFIXES = ("lock", "mutex")


def _looks_like_sync_lock(expr: ast.expr, ctx: FileContext) -> bool:
    """Heuristic: does this ``with`` context expression grab a sync lock?"""
    if isinstance(expr, ast.Call):
        resolved = ctx.imports.resolve(expr.func)
        if resolved in _SYNC_LOCK_TYPES:
            return True
        expr = expr.func  # `with self._lock.acquire_timeout(...)` etc.
    name = dotted_name(expr)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1].lower().lstrip("_")
    return any(last == s or last.endswith("_" + s) for s in _LOCK_NAME_SUFFIXES)


@register
class AwaitUnderSyncLockRule(Rule):
    rule_id = "REP011"
    name = "await-under-sync-lock"
    description = (
        "await inside a synchronous `with <lock>:` block stalls the event "
        "loop and can deadlock; use asyncio.Lock with `async with`"
    )
    node_types = (ast.Await,)

    def applies_to(self, path: str) -> bool:
        return in_service_layer(path)

    def visit(self, node: ast.Await, ctx: FileContext) -> None:
        holding: Optional[ast.withitem] = None
        # Walk outwards until the enclosing function boundary: a `with`
        # in an *outer* function does not span this await.
        for ancestor in reversed(ctx.ancestors):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    if _looks_like_sync_lock(item.context_expr, ctx):
                        holding = item
                        break
            if holding is not None:
                break
        if holding is None:
            return
        held = dotted_name(holding.context_expr) or "a synchronous lock"
        ctx.report(
            self,
            node,
            f"await while holding {held} blocks every other coroutine "
            "until the awaited I/O completes; use asyncio.Lock with "
            "`async with`",
        )


#: Blocking callable paths (exact or prefix) banned inside async defs.
_BLOCKING_EXACT = frozenset(
    {
        "time.sleep",
        "open",
        "io.open",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "socket.socket",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "sqlite3.connect",
        "urllib.request.urlopen",
    }
)
_BLOCKING_PREFIXES = ("socket.", "sqlite3.", "requests.")

#: Wrappers that legitimately carry blocking work off the event loop.
_EXECUTOR_CALLS = frozenset(
    {"run_in_executor", "to_thread"}
)


def _inside_executor_handoff(ancestors: list[ast.AST]) -> bool:
    """Whether the dispatch point sits inside a run_in_executor(...) /
    asyncio.to_thread(...) argument list."""
    for ancestor in reversed(ancestors):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        if isinstance(ancestor, ast.Call):
            func = ancestor.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in _EXECUTOR_CALLS:
                return True
    return False


@register
class BlockingInAsyncRule(Rule):
    rule_id = "REP012"
    name = "blocking-in-async"
    description = (
        "blocking calls (time.sleep, socket.*, sqlite3, sync file I/O, "
        "subprocess) inside `async def` stall the event loop; hand them "
        "to run_in_executor or asyncio.to_thread"
    )
    node_types = (ast.Call,)

    def applies_to(self, path: str) -> bool:
        return in_service_layer(path)

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        if not _in_async_def(ctx.ancestors):
            return
        resolved = ctx.imports.resolve(node.func)
        if resolved is None:
            return
        blocking = resolved in _BLOCKING_EXACT or any(
            resolved.startswith(prefix) for prefix in _BLOCKING_PREFIXES
        )
        if not blocking:
            return
        if _inside_executor_handoff(ctx.ancestors):
            return
        ctx.report(
            self,
            node,
            f"blocking call {resolved}() inside `async def` stalls the "
            "event loop; wrap it in loop.run_in_executor or "
            "asyncio.to_thread",
        )


#: Task-spawning callables whose result must be retained.
_TASK_SPAWNERS = frozenset(
    {
        "asyncio.create_task",
        "asyncio.ensure_future",
        "loop.create_task",
    }
)


@register
class UnretainedTaskRule(Rule):
    rule_id = "REP013"
    name = "unretained-task"
    description = (
        "create_task/ensure_future results must be awaited, retained, or "
        "returned — a dropped task can be garbage-collected mid-flight "
        "and its exceptions are lost"
    )
    node_types = (ast.Expr,)

    def applies_to(self, path: str) -> bool:
        return in_service_layer(path)

    def visit(self, node: ast.Expr, ctx: FileContext) -> None:
        value = node.value
        if not isinstance(value, ast.Call):
            return
        func = value.func
        resolved = ctx.imports.resolve(func)
        spawner = resolved in _TASK_SPAWNERS or (
            isinstance(func, ast.Attribute)
            and func.attr in ("create_task", "ensure_future")
        )
        if not spawner:
            return
        name = resolved or dotted_name(func) or "create_task"
        ctx.report(
            self,
            node,
            f"{name}(...) result is discarded; keep a reference and "
            "await or cancel it, or its exceptions disappear",
        )
