"""Span tracing by wrapping the public functions of ``repro`` modules.

Nothing inside ``src/`` is changed: :class:`Tracer` replaces a function or
method on its module or class with a timing wrapper and puts the original
back on :meth:`Tracer.uninstall`.  Each call becomes a span
``(name, start_ns, end_ns, parent, op, amount)`` in a per-thread list kept
in memory; :meth:`Tracer.dump` writes them out when the run ends.  ``parent``
is the index of the enclosing span on the same thread (``-1`` for a root),
``op`` the client operation id the thread was running (server spans carry
``None`` and are joined to client operations afterwards, by time, see
:func:`join_server_spans`), and ``amount`` an optional size such as the
number of node ids a store call was asked for.

Both processes use ``time.perf_counter_ns``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore comparable between the client and the server process on
one host.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

clock_ns = time.perf_counter_ns


class _ThreadState:
    __slots__ = ("number", "spans", "stack", "counts", "op")

    def __init__(self, number: int) -> None:
        self.number = number
        self.spans: List[Any] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None


class Tracer:
    """Install timing wrappers and collect their spans per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: ``(name, t_ns, value)`` points recorded by :meth:`mark`.
        self.marks: List[Tuple[str, int, Any]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    # -- installing wrappers ------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             amount: Optional[Callable[..., int]] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        self.patch(owner, attr, lambda func: self._timed(func, name, amount))

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Only count the calls of ``owner.attr`` (for very hot functions)."""
        self.patch(owner, attr, lambda func: self._counted(func, name))

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`uninstall`."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, property):
            replacement: Any = property(make(original.fget), original.fset,
                                        original.fdel, original.__doc__)
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _timed(self, func: Callable, name: str,
               amount: Optional[Callable[..., int]]) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            spans = state.spans
            index = len(spans)
            parent = state.stack[-1] if state.stack else -1
            size = amount(*args, **kwargs) if amount is not None else 0
            spans.append(None)
            state.stack.append(index)
            start = clock_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock_ns()
                state.stack.pop()
                spans[index] = (name, start, end, parent, state.op, size)
        return traced

    def _counted(self, func: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(func)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer._state().counts[name] += 1
            return func(*args, **kwargs)
        return counted

    # -- operations and marks -----------------------------------------------------
    def operation(self, op_id: int) -> "_Operation":
        """Context manager: a root ``op`` span; nested spans carry ``op_id``."""
        return _Operation(self, op_id)

    def mark(self, name: str, value: Any = None) -> None:
        with self._lock:
            self.marks.append((name, clock_ns(), value))

    # -- output ---------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Every finished span and count, plus the marks (JSON-ready)."""
        spans = []
        counts: Dict[str, int] = defaultdict(int)
        for state in list(self._threads):
            for index, span in enumerate(list(state.spans)):
                if span is not None:
                    spans.append([state.number, index, *span])
            for name, value in list(state.counts.items()):
                counts[name] += value
        return {"spans": spans, "counts": dict(counts),
                "marks": [list(mark) for mark in self.marks]}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, separators=(",", ":"))


class _Operation:
    def __init__(self, tracer: Tracer, op_id: int) -> None:
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self) -> None:
        state = self.tracer._state()
        self._saved = state.op
        state.op = self.op_id
        index = len(state.spans)
        state.spans.append(None)
        state.stack.append(index)
        self._index = index
        self._start = clock_ns()

    def __exit__(self, *exc_info: Any) -> None:
        end = clock_ns()
        state = self.tracer._state()
        state.stack.pop()
        parent = state.stack[-1] if state.stack else -1
        state.spans[self._index] = ("op", self._start, end, parent,
                                    self.op_id, 0)
        state.op = self._saved


# -- where the layers are --------------------------------------------------------------

def _node_count(_self: Any, node_ids: Any, *rest: Any, **kwargs: Any) -> int:
    return len(node_ids)


def _message_count(_self: Any, messages: Any) -> int:
    return len(messages)


def install_client(tracer: Tracer) -> None:
    """Wrap the client-side layers the benchmark process runs."""
    from repro.algebra.quotient import FpQuotientRing
    from repro.core import advanced
    from repro.core.advanced import AdvancedQueryExecutor
    from repro.core.query import QueryEngine
    from repro.core.share_tree import ClientShareGenerator
    from repro.net import channel
    from repro.net.channel import SocketChannel
    from repro.net.client import RemoteUpdatableTree
    from repro.net.messages import Message

    for method in ("lookup", "containment_frontier", "filter_containing",
                   "confirm_tag_nodes"):
        tracer.wrap(QueryEngine, method, "query")
    tracer.wrap(AdvancedQueryExecutor, "execute", "advanced")
    tracer.wrap(advanced, "compile_plan", "xpath.plan")
    tracer.wrap(ClientShareGenerator, "evaluate_many", "share_tree",
                amount=_node_count)
    tracer.count(ClientShareGenerator, "share_for", "share_tree.share_for")
    tracer.wrap(FpQuotientRing, "random_element_from_stream", "prg")
    tracer.wrap(FpQuotientRing, "recover_tag", "reconstruct")
    tracer.wrap(SocketChannel, "request", "channel")
    tracer.wrap(Message, "encode", "messages.client_encode")
    tracer.wrap(channel, "decode_message", "messages.client_decode")
    for method in ("insert_subtree", "delete_subtree", "rename_node"):
        tracer.wrap(RemoteUpdatableTree, method, "updates")


def install_server(tracer: Tracer) -> None:
    """Wrap the server-side layers (called in the server process)."""
    from repro.algebra.vkernels import VecFpKernel
    from repro.net import aio, server, store, wal
    from repro.net.engine import ServingCore
    from repro.net.messages import Message
    from repro.net.store import InMemoryShareStore, SQLiteShareStore

    tracer.wrap(ServingCore, "handle", "engine")
    tracer.wrap(ServingCore, "frontier_batch", "engine.batch",
                amount=_message_count)
    tracer.wrap(server, "decode_message", "messages.server_decode")
    tracer.wrap(aio, "decode_message", "messages.server_decode")
    tracer.wrap(Message, "encode", "messages.server_encode")
    for cls in (SQLiteShareStore, InMemoryShareStore):
        for method in ("child_ids", "parent_id", "node_count", "root_id",
                       "__contains__", "max_node_id"):
            tracer.wrap(cls, method, "store.structure")
        tracer.wrap(cls, "evaluate_many", "store.evaluate", amount=_node_count)
        tracer.wrap(cls, "share_of", "store.fetch")
    tracer.wrap(SQLiteShareStore, "apply_batch", "store.apply_batch")
    for name in ("decode_coefficients", "decode_coefficients_batch",
                 "join_pages"):
        tracer.wrap(store, name, "pages.decode")
    tracer.wrap(VecFpKernel, "evaluate_matrix", "kernels.evaluate")
    tracer.wrap(VecFpKernel, "evaluate_many", "kernels.evaluate")
    for name in ("write_intent", "apply_record", "mark_commit", "clear"):
        tracer.wrap(wal, name, "wal")


def ledger_size(core: Any) -> int:
    """Entries in the server's observation ledgers (global + per document)."""
    ledgers = [core.observations]
    ledgers += [core.registry.get(doc).observations
                for doc in core.registry.document_ids()]
    return sum(len(getattr(ledger, field)) for ledger in ledgers
               for field in ("points_seen", "pruned_nodes", "evaluated_nodes",
                             "polynomials_served", "constants_served"))


def install_ledger_marks(tracer: Tracer) -> None:
    """Record the ledger size whenever the server answers a ``stats`` probe.

    The benchmark probes at the start and the end of the timed phase, so the
    two marks bracket the ledger's growth during it.
    """
    from repro.net.engine import ServingCore

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def handle(self: Any, message: Any) -> Any:
            if message.kind == "stats":
                tracer.mark("ledger", ledger_size(self))
            return original(self, message)
        return handle

    tracer.patch(ServingCore, "handle", make)


# -- analysis ------------------------------------------------------------------------

def self_times(spans: Iterable[List[Any]]) -> Dict[Tuple[int, int], int]:
    """Each span's duration minus what its direct child spans cover (ns)."""
    spans = list(spans)
    own = {(s[0], s[1]): s[4] - s[3] for s in spans}
    for s in spans:
        if s[5] >= 0 and (s[0], s[5]) in own:
            own[(s[0], s[5])] -= s[4] - s[3]
    return own


def join_server_spans(server_spans: List[List[Any]],
                      channel_spans: List[List[Any]]
                      ) -> Tuple[Dict[Tuple[int, int], List[Tuple[Any, float]]], int]:
    """Join server root spans to the client requests that were waiting on them.

    A server span belongs to the client request (a ``channel`` span) whose
    send-to-receive window contains it.  When several sessions' windows
    contain it — a coalesced pass answers them together, or two sessions
    were waiting at once — it is shared equally between them.  Returns
    ``{server span key: [(channel span, share), ...]}`` for every root
    span, plus the number of root spans no window contained.
    """
    windows = sorted(channel_spans, key=lambda s: s[3])
    starts = [w[3] for w in windows]
    joined: Dict[Tuple[int, int], List[Tuple[Any, float]]] = {}
    unjoined = 0
    for span in server_spans:
        if span[5] >= 0:
            continue
        last = bisect.bisect_right(starts, span[3])
        # One session's windows never overlap, so only the last few windows
        # that started before the span can still be open.
        owners = [w for w in windows[max(0, last - 64):last]
                  if w[3] <= span[3] and span[4] <= w[4]]
        if not owners:
            unjoined += 1
            continue
        joined[(span[0], span[1])] = [(w, 1.0 / len(owners)) for w in owners]
    return joined, unjoined
