"""Span recording around the public functions of the ``wot`` modules.

The wrappers live in the benchmark, so the program under test is not
edited. ``install`` replaces every public module-level function of the
traced modules with a recording wrapper, and rebinds every name another
``wot`` module imported with ``from .x import f`` (for example
``wot.protocol.ot_respond`` or ``wot.net.run_session_sender``), so calls
made inside the program are recorded too.

A span is the list ``[id, name, start, end, parent, session, tag, nbytes]``:

* ``parent`` is the id of the enclosing traced call on the same thread;
* ``session`` is set by the caller with ``Tracer.set_session``; a thread
  that never set one (a server session thread) gets a fresh id on its
  first span, so one TCP connection is one session;
* ``tag`` and ``nbytes`` carry the message type or mode and the size
  of the data a call handled, for the functions listed in ``_DETAIL``.

Spans are kept in memory and written out once, with ``Tracer.write``.
Calls made inside ``with tracer.paused():`` run unrecorded on that thread.
``uninstall`` restores the original functions. ``span_cost`` measures what
one wrapper call adds, so a run can estimate its own tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

TRACED_MODULES = ("group", "base_ot", "protocol", "symcrypto", "catalog", "framing", "net")

# Private helpers that a per-layer metric needs: ``net._recv_exact`` is where
# a reader blocks on the socket, which separates waiting from decoding.
PRIVATE_TRACED = {"net": ("_recv_exact",)}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# (tag, nbytes) per call, computed from the arguments and the result.
_DETAIL = {
    "framing.encode_frame": lambda a, k, r: (type(_arg(a, k, 0, "msg")).__name__, len(r)),
    "framing.read_frame": lambda a, k, r: (type(r).__name__, 0),
    "net._recv_exact": lambda a, k, r: (None, len(r)),
    "catalog.ciphertext_digest": lambda a, k, r: (None, len(_arg(a, k, 0, "ciphertext"))),
    "symcrypto.encrypt": lambda a, k, r: (None, len(_arg(a, k, 1, "plaintext"))),
    "symcrypto.nested_encrypt": lambda a, k, r: (None, len(_arg(a, k, 1, "plaintext"))),
    "symcrypto.decrypt": lambda a, k, r: (None, len(_arg(a, k, 1, "ciphertext"))),
    "base_ot.ot_respond": lambda a, k, r: (None, r.n_secrets),
    "protocol.publish": lambda a, k, r: (_arg(a, k, 1, "mode"), 0),
}

_NO_RESULT = object()


class Tracer:
    """Records spans from the functions it wraps; one per process."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._sessions = itertools.count(1)
        self._local = threading.local()
        self._rebound: list = []  # (module, attribute, original) for uninstall

    def set_session(self, session: str):
        self._local.session = session

    @contextlib.contextmanager
    def paused(self):
        """Run the block's calls unrecorded on this thread."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def _session(self) -> int | str:
        local = self._local
        if not hasattr(local, "session"):
            local.session = next(self._sessions)
        return local.session

    def wrap(self, name: str, fn):
        detail = _DETAIL.get(name)
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(local, "paused", False):
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [next(ids), name, clock(), 0.0, stack[-1][0] if stack else None,
                    self._session(), None, 0]
            stack.append(span)
            result = _NO_RESULT
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if detail is not None and result is not _NO_RESULT:
                    span[6], span[7] = detail(args, kwargs, result)
                spans.append(span)

        return traced

    def install(self):
        """Wrap the traced modules' functions and rebind every imported name."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"wot.{short}")
            extra = PRIVATE_TRACED.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in extra:
                    continue
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wot" or mod_name.startswith("wot.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, obj))

    def uninstall(self):
        """Put the original functions back; recorded spans are kept."""
        for mod, attr, original in self._rebound:
            setattr(mod, attr, original)
        self._rebound.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def span_cost(calls: int = 20000, batches: int = 7) -> float:
    """Seconds one wrapper call adds to a call, median over ``batches``.

    Times a no-op function bare and wrapped, inside a session, as the
    measured operations run.
    """
    tracer = Tracer()
    tracer.set_session("calibration")

    def noop():
        return None

    traced = tracer.wrap("calibration.noop", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(batches):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return statistics.median(costs)
