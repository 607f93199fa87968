"""repro-lint: static AST rules for task-submitting code.

TileSan (:mod:`.sanitizer`) only checks footprints that *execute*;
this pass checks the source itself, so a broken footprint is caught at
review time even on paths no test exercises.  All rules are
best-effort static analysis over ``ast`` — helper-mediated tile
accesses and dynamically built footprints are skipped, never guessed.

Rules (a ``submit`` call here means ``<runtime>.submit(TaskKind.X,
...)`` — the first argument must literally be a ``TaskKind``
attribute, so executor/thread-pool ``submit`` calls are not matched):

=======  =================================================================
REP001   ``submit(..., fn=...)`` must declare a footprint: at least one
         of ``reads=`` / ``writes=``.
REP002   Payload closures must not call ``.tile(`` on tiles absent
         from the declared footprint, and must not call ``.set_tile(``
         at all (driver-level; a payload writes through the array
         ``.tile(`` returned).  Matching is
         best-effort: receivers must be plain names, coordinates are
         compared structurally, names are resolved through simple
         assignments (including tuple unpacking and conditional
         expressions) in enclosing scopes; footprints built from
         generator expressions or concatenation are treated as opaque
         and skipped.
REP004   No ``.to_array()`` call and no ``.value`` read of a known
         scalar result inside a payload — both are sync points, and a
         re-entrant sync inside a payload is suppressed on deferred
         runtimes, yielding stale data.
REP005   A function that calls ``.incref(`` on a shared-memory store
         must also call ``.decref(`` (or hand the segment to a
         ``close``/``release`` path) somewhere in the same function —
         an acquire with no release in scope leaks ``/dev/shm``
         segments on every early exit.
REP006   No blocking ``.recv(`` on a comm-like receiver inside a
         ``with <lock>`` block: the distributed executor's reader
         threads and completion path share those locks, so a recv
         under a lock can deadlock the event loop.
REP007   ``Process(...)`` spawns must not capture fork-unsafe state in
         ``args=``/``kwargs=``: locks, sockets, comms, listeners or
         threads captured at fork time are dead weight (or deadlocks)
         in the child.
REP008   ``backend=`` string literals at call sites must name a known
         runtime backend (``dense``/``eager``/``threads``/
         ``processes``) — a typo like ``"proceses"`` otherwise
         surfaces only at runtime as a fallback to the default path.
=======  =================================================================

REP005–REP008 target the distributed runtime
(:mod:`repro.runtime.distributed`) but apply everywhere, so user code
driving the processes backend is linted by the same pass.

Suppression: put ``# repro-lint: ignore`` (all rules) or
``# repro-lint: ignore[REP002]`` / ``ignore[REP002, REP004]`` on the
offending line or on the line of the enclosing ``submit`` call.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

FOOTPRINT_MISSING = "REP001"
PAYLOAD_FOOTPRINT = "REP002"
SYNC_IN_PAYLOAD = "REP004"
SHM_UNRELEASED = "REP005"
RECV_UNDER_LOCK = "REP006"
FORK_UNSAFE_ARG = "REP007"
BACKEND_UNKNOWN = "REP008"

ALL_RULES = (FOOTPRINT_MISSING, PAYLOAD_FOOTPRINT, SYNC_IN_PAYLOAD,
             SHM_UNRELEASED, RECV_UNDER_LOCK, FORK_UNSAFE_ARG,
             BACKEND_UNKNOWN)

#: Valid values for a ``backend=`` string literal (REP008).
KNOWN_BACKENDS = frozenset({"dense", "eager", "threads", "processes"})

#: Identifier tokens marking a lock-like object (REP006 ``with``
#: context) — matched against ``_``-split tokens so ``_recv_lock``
#: hits but ``block`` does not.
_LOCK_TOKENS = frozenset({"lock", "rlock", "mutex"})

#: Identifier tokens marking a comm-like receiver (REP006).
_COMM_TOKENS = frozenset({"comm", "conn", "channel", "sock", "socket"})

#: Identifier tokens marking fork-unsafe captured state (REP007).
_FORK_UNSAFE_TOKENS = frozenset({
    "lock", "rlock", "mutex", "sock", "socket", "comm", "listener",
    "thread", "threads", "queue", "cond", "condition", "event",
    "semaphore",
})

#: Factory call names whose result is fork-unsafe (REP007).
_FORK_UNSAFE_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore",
    "BoundedSemaphore", "Barrier", "socket", "Queue", "Thread",
    "connect", "listen",
})

#: Release-path method names that satisfy REP005 within a scope.
_RELEASE_ATTRS = frozenset({"decref", "release", "close",
                            "_decref_name", "_release_many"})

#: Methods returning pseudo-tile refs (scalars).  Entries built from
#: these carry data the payload reads through captured Python objects,
#: not through ``.tile()``, so they are ignorable for REP002 matching
#: (neither a match target nor a reason to go opaque).
_PSEUDO_REF_ATTRS = frozenset({"new_scalar_ref"})

#: Functions returning ScalarResult: a ``.value`` read of their result
#: inside a payload is REP004.
_SCALAR_FUNCS = frozenset({
    "norm_one", "norm_inf", "norm_fro", "norm_max", "_tile_reduce",
    "landed_scalar", "norm2est_tiled", "trcondest_tiled", "_r_norm1",
    "gecondest_tiled",
})

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([^\]]*)\])?")

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


@dataclass(frozen=True)
class LintFinding:
    """One static-rule violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# A matrix-tile entry is (receiver name, coord0 dump, coord1 dump).
_Entry = Tuple[str, str, str]


def _dump(node: ast.AST) -> str:
    return ast.dump(node)


class _Scope:
    """One lexical function (or module) scope."""

    def __init__(self, node: ast.AST, parent: Optional["_Scope"]):
        self.node = node
        self.parent = parent
        # name -> ordered list of (lineno, function node)
        self.defs: Dict[str, List[Tuple[int, _FuncNode]]] = {}
        # name -> (entries, opaque); entries are matrix-tile triples
        self.ref_env: Dict[str, Tuple[FrozenSet[_Entry], bool]] = {}
        self.scalar_names: Set[str] = set()

    def lookup_ref(self, name: str) -> Optional[Tuple[FrozenSet[_Entry], bool]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.ref_env:
                return scope.ref_env[name]
            scope = scope.parent
        return None

    def lookup_def(self, name: str, before_line: int) -> Optional[_FuncNode]:
        scope: Optional[_Scope] = self
        while scope is not None:
            best: Optional[_FuncNode] = None
            best_line = -1
            for lineno, fnode in scope.defs.get(name, ()):
                if best_line < lineno <= before_line:
                    best, best_line = fnode, lineno
            if best is not None:
                return best
            scope = scope.parent
        return None

    def is_scalar_name(self, name: str) -> bool:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.scalar_names:
                return True
            scope = scope.parent
        return False


def _scope_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope's own nodes without entering nested function bodies."""

    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(n))


def _resolve_value(expr: ast.AST, scope: _Scope) -> Tuple[FrozenSet[_Entry], bool]:
    """Resolve an expression to matrix-tile entries.

    Returns ``(entries, opaque)``; ``opaque`` means the expression may
    denote refs we cannot enumerate, so membership checks against it
    must be skipped rather than flagged.
    """

    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        attr = expr.func.attr
        if attr == "ref" and isinstance(expr.func.value, ast.Name) \
                and len(expr.args) == 2 and not expr.keywords:
            recv = expr.func.value.id
            return frozenset({(recv, _dump(expr.args[0]), _dump(expr.args[1]))}), False
        if attr in _PSEUDO_REF_ATTRS:
            return frozenset(), False  # pseudo ref: ignorable, not opaque
        return frozenset(), True
    if isinstance(expr, ast.Name):
        hit = scope.lookup_ref(expr.id)
        if hit is None:
            return frozenset(), True
        return hit
    if isinstance(expr, ast.IfExp):
        b_e, b_o = _resolve_value(expr.body, scope)
        o_e, o_o = _resolve_value(expr.orelse, scope)
        return b_e | o_e, b_o or o_o
    if isinstance(expr, (ast.Tuple, ast.List)):
        entries: Set[_Entry] = set()
        opaque = False
        for elt in expr.elts:
            if isinstance(elt, ast.Starred):
                elt = elt.value
            e, o = _resolve_value(elt, scope)
            entries |= e
            opaque = opaque or o
        return frozenset(entries), opaque
    return frozenset(), True


def _collect_scope_env(scope: _Scope) -> None:
    """Record defs, ref-producing assignments, and scalar-result names."""

    for n in _scope_walk(scope.node):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.defs.setdefault(n.name, []).append((n.lineno, n))
        elif isinstance(n, ast.Assign):
            if len(n.targets) == 1 and isinstance(n.targets[0], ast.Name):
                name = n.targets[0].id
                entries, opaque = _resolve_value(n.value, scope)
                prev = scope.ref_env.get(name)
                if prev is not None:  # rebinding: union, keep any opacity
                    entries, opaque = entries | prev[0], opaque or prev[1]
                scope.ref_env[name] = (entries, opaque)
                if isinstance(n.value, ast.Call):
                    fname = None
                    if isinstance(n.value.func, ast.Name):
                        fname = n.value.func.id
                    elif isinstance(n.value.func, ast.Attribute):
                        fname = n.value.func.attr
                    if fname in _SCALAR_FUNCS:
                        scope.scalar_names.add(name)
            elif len(n.targets) == 1 and isinstance(n.targets[0], ast.Tuple) \
                    and isinstance(n.value, ast.Tuple) \
                    and len(n.targets[0].elts) == len(n.value.elts):
                for tgt, val in zip(n.targets[0].elts, n.value.elts):
                    if isinstance(tgt, ast.Name):
                        scope.ref_env[tgt.id] = _resolve_value(val, scope)


def _is_task_submit(call: ast.Call) -> bool:
    """True for ``<rt>.submit(TaskKind.X, ...)`` calls only."""

    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "submit"):
        return False
    kind = call.args[0] if call.args else None
    if kind is None:
        for kw in call.keywords:
            if kw.arg == "kind":
                kind = kw.value
    return (isinstance(kind, ast.Attribute)
            and isinstance(kind.value, ast.Name)
            and kind.value.id == "TaskKind")


def _kw(call: ast.Call, name: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


class _Linter:
    def __init__(self, path: str, source: str):
        self.path = path
        self.lines = source.splitlines()
        self.findings: List[LintFinding] = []

    # ----------------------------------------------------------- suppression

    def _suppressed(self, rule: str, *linenos: int) -> bool:
        for lineno in linenos:
            if not 1 <= lineno <= len(self.lines):
                continue
            m = _SUPPRESS_RE.search(self.lines[lineno - 1])
            if m is None:
                continue
            if m.group(1) is None:
                return True
            rules = {r.strip() for r in m.group(1).split(",")}
            if rule in rules:
                return True
        return False

    def _flag(self, rule: str, message: str, node: ast.AST,
              extra_lines: Sequence[int] = ()) -> None:
        if self._suppressed(rule, node.lineno, *extra_lines):
            return
        self.findings.append(
            LintFinding(self.path, node.lineno, node.col_offset, rule, message)
        )

    # ------------------------------------------------------------ scope pass

    def run(self, tree: ast.Module) -> None:
        self._visit_scope(_Scope(tree, None))
        self._check_recv_under_lock(tree)
        self._check_fork_args(tree)
        self._check_backend_literals(tree)

    def _visit_scope(self, scope: _Scope) -> None:
        _collect_scope_env(scope)
        for n in _scope_walk(scope.node):
            if isinstance(n, ast.Call) and _is_task_submit(n):
                self._check_submit(n, scope)
        self._check_shm_balance(scope)
        for n in _scope_walk(scope.node):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                self._visit_scope(_Scope(n, scope))

    # --------------------------------------------------------------- checks

    def _check_submit(self, call: ast.Call, scope: _Scope) -> None:
        fn = _kw(call, "fn")
        has_fn = fn is not None and not (
            isinstance(fn, ast.Constant) and fn.value is None)
        reads = _kw(call, "reads")
        writes = _kw(call, "writes")

        if has_fn and reads is None and writes is None:
            self._flag(FOOTPRINT_MISSING,
                       "submit(..., fn=...) without reads=/writes=: the "
                       "payload's tile footprint must be declared", call)

        if not has_fn:
            return
        payload = self._resolve_payload(fn, scope, call.lineno)
        if payload is None:
            return
        read_entries, reads_opaque = (
            _resolve_value(reads, scope) if reads is not None
            else (frozenset(), False))
        write_entries, writes_opaque = (
            _resolve_value(writes, scope) if writes is not None
            else (frozenset(), False))
        self._check_payload(payload, scope, call,
                            read_entries, reads_opaque,
                            write_entries, writes_opaque)

    def _resolve_payload(self, fn: ast.AST, scope: _Scope,
                         lineno: int) -> Optional[_FuncNode]:
        if isinstance(fn, ast.Lambda):
            return fn
        if isinstance(fn, ast.Name):
            return scope.lookup_def(fn.id, lineno)
        return None

    def _check_payload(self, payload: _FuncNode, scope: _Scope,
                       submit: ast.Call,
                       read_entries: FrozenSet[_Entry], reads_opaque: bool,
                       write_entries: FrozenSet[_Entry], writes_opaque: bool
                       ) -> None:
        receivers = {e[0] for e in read_entries | write_entries}
        body = payload.body if isinstance(payload, ast.Lambda) else payload
        for n in ast.walk(body):
            if not isinstance(n, ast.Call):
                if isinstance(n, ast.Attribute) and n.attr == "value" \
                        and isinstance(n.value, ast.Name) \
                        and isinstance(n.ctx, ast.Load) \
                        and scope.is_scalar_name(n.value.id):
                    self._flag(SYNC_IN_PAYLOAD,
                               f"ScalarResult '{n.value.id}.value' read "
                               "inside a payload (re-entrant sync hazard)",
                               n, (submit.lineno,))
                continue
            func = n.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "to_array":
                self._flag(SYNC_IN_PAYLOAD,
                           ".to_array() inside a payload (re-entrant sync "
                           "hazard)", n, (submit.lineno,))
                continue
            if func.attr not in ("tile", "set_tile"):
                continue
            if not isinstance(func.value, ast.Name) or len(n.args) < 2:
                continue
            recv = func.value.id
            entry = (recv, _dump(n.args[0]), _dump(n.args[1]))
            if func.attr == "set_tile":
                self._flag(PAYLOAD_FOOTPRINT,
                           f"payload calls {recv}.set_tile({_src(n.args[0])}, "
                           f"{_src(n.args[1])}, ...): set_tile is driver-level; "
                           "write through the declared tile's .tile(...) "
                           "array", n, (submit.lineno,))
            else:
                if entry in read_entries or entry in write_entries:
                    continue
                if reads_opaque or writes_opaque:
                    continue
                if recv not in receivers:
                    self._flag(PAYLOAD_FOOTPRINT,
                               f"payload accesses {recv}.tile(...) but no "
                               f"tile of '{recv}' appears in the declared "
                               "footprint", n, (submit.lineno,))
                else:
                    self._flag(PAYLOAD_FOOTPRINT,
                               f"payload calls {recv}.tile({_src(n.args[0])}, "
                               f"{_src(n.args[1])}) but that tile is not in "
                               "the declared reads=/writes=", n,
                               (submit.lineno,))


    # ----------------------------------------------- distributed rules

    def _check_shm_balance(self, scope: _Scope) -> None:
        """REP005: incref without any release path in the same scope."""
        increfs: List[ast.Call] = []
        released = False
        for n in _scope_walk(scope.node):
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)):
                continue
            if n.func.attr == "incref":
                increfs.append(n)
            elif n.func.attr in _RELEASE_ATTRS:
                released = True
        if released:
            return
        for call in increfs:
            self._flag(SHM_UNRELEASED,
                       "shm segment incref'd with no decref/release/"
                       "close in the same function: every early exit "
                       "leaks the /dev/shm segment", call)

    def _check_recv_under_lock(self, tree: ast.Module) -> None:
        """REP006: blocking comm recv inside a ``with <lock>`` body."""

        def visit(node: ast.AST, under: Optional[ast.AST]) -> None:
            for child in ast.iter_child_nodes(node):
                inner = under
                if isinstance(child, (ast.With, ast.AsyncWith)) and any(
                        _ident_matches(i.context_expr, _LOCK_TOKENS)
                        for i in child.items):
                    inner = child
                if (under is not None and isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "recv"
                        and _ident_matches(child.func.value,
                                           _COMM_TOKENS)):
                    self._flag(RECV_UNDER_LOCK,
                               f"blocking {_src(child.func.value)}"
                               ".recv(...) while holding "
                               f"{_src_with(under)}: reader threads "
                               "and the completion path share comm "
                               "locks, so this can deadlock the event "
                               "loop", child, (under.lineno,))
                visit(child, inner)

        visit(tree, None)

    def _check_fork_args(self, tree: ast.Module) -> None:
        """REP007: fork-unsafe state captured in Process payloads."""
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            fname = None
            if isinstance(n.func, ast.Name):
                fname = n.func.id
            elif isinstance(n.func, ast.Attribute):
                fname = n.func.attr
            if fname != "Process":
                continue
            payload: List[ast.AST] = []
            for kw in n.keywords:
                if kw.arg == "args" and isinstance(kw.value,
                                                   (ast.Tuple, ast.List)):
                    payload.extend(kw.value.elts)
                elif kw.arg == "kwargs" and isinstance(kw.value, ast.Dict):
                    payload.extend(v for v in kw.value.values
                                   if v is not None)
            for elt in payload:
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                if isinstance(elt, ast.Call):
                    cname = None
                    if isinstance(elt.func, ast.Name):
                        cname = elt.func.id
                    elif isinstance(elt.func, ast.Attribute):
                        cname = elt.func.attr
                    if cname in _FORK_UNSAFE_FACTORIES:
                        self._flag(FORK_UNSAFE_ARG,
                                   f"Process(...) captures {cname}() "
                                   "in its payload: locks/sockets/"
                                   "threads made in the parent are "
                                   "fork-unsafe in the child", elt,
                                   (n.lineno,))
                elif _ident_matches(elt, _FORK_UNSAFE_TOKENS):
                    self._flag(FORK_UNSAFE_ARG,
                               f"Process(...) captures {_src(elt)} in "
                               "its payload: lock/socket/thread state "
                               "does not survive fork", elt,
                               (n.lineno,))

    def _check_backend_literals(self, tree: ast.Module) -> None:
        """REP008: unknown ``backend=`` string literal at a call."""
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            val = _kw(n, "backend")
            if (isinstance(val, ast.Constant)
                    and isinstance(val.value, str)
                    and val.value not in KNOWN_BACKENDS):
                known = "/".join(sorted(KNOWN_BACKENDS))
                self._flag(BACKEND_UNKNOWN,
                           f"unknown backend {val.value!r} (known: "
                           f"{known}): a typo here silently falls "
                           "back to the default execution path", val,
                           (n.lineno,))


def _ident_tokens(name: str) -> Set[str]:
    return {t for t in re.split(r"[_\W\d]+", name.lower()) if t}


def _ident_matches(expr: ast.AST, tokens: FrozenSet[str]) -> bool:
    """True when the trailing identifier of a name/attribute chain
    carries one of ``tokens`` (``w.comm`` -> comm, ``self._recv_lock``
    -> recv+lock).  Non-name expressions never match."""
    if isinstance(expr, ast.Name):
        return bool(_ident_tokens(expr.id) & tokens)
    if isinstance(expr, ast.Attribute):
        return bool(_ident_tokens(expr.attr) & tokens)
    return False


def _src_with(node: ast.AST) -> str:
    items = getattr(node, "items", ())
    for item in items:
        if _ident_matches(item.context_expr, _LOCK_TOKENS):
            return _src(item.context_expr)
    return "a lock"


def _src(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is py>=3.9
        return "<expr>"


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Run all rules over one module's source text."""

    tree = ast.parse(source, filename=path)
    linter = _Linter(path, source)
    linter.run(tree)
    return linter.findings


def lint_paths(paths: Sequence[str]) -> List[LintFinding]:
    """Run all rules over ``.py`` files in the given files/directories."""

    files: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                files.extend(os.path.join(root, n) for n in sorted(names)
                             if n.endswith(".py"))
        elif p.endswith(".py"):
            files.append(p)
    findings: List[LintFinding] = []
    for f in sorted(set(files)):
        with open(f, "r", encoding="utf-8") as fh:
            findings.extend(lint_source(fh.read(), f))
    findings.sort(key=lambda x: (x.path, x.line, x.col, x.rule))
    return findings
