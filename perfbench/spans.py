"""Spans around the runtime's public names, recorded from outside it.

A traced process replaces a name such as ``hprm.federate.serialize`` by a
wrapper that records one span per call: id, parent span id, name, start
and end (``time.monotonic_ns``, comparable across processes), the message
id ``[tag time, microstep, port]`` when one is known, and one number
chosen per name (bytes written, grants returned, a data-frame flag).  The
parent is the innermost open span on the calling thread, and a span
without a message id of its own inherits its parent's.  Spans stay in
memory and are written once, when the process ends.

A name that no longer exists is listed as missing; the metrics built on
it then read "not measured" and the run goes on.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, msg=None, extra=None) -> None:
        """Replace ``owner.attr`` by :meth:`traced` of it, or list it as
        missing."""
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.traced(original, name, msg=msg, extra=extra))

    def traced(self, fn, name: str, *, msg=None, extra=None):
        """``fn``, recording a span per call.  ``msg(args)`` gives the call's
        message id and ``extra(args, result)`` its number; both optional."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent, parent_msg = stack[-1] if stack else (0, None)
            sid = next(ids)
            mid = msg(args) if msg is not None else parent_msg
            stack.append((sid, mid))
            t0 = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.monotonic_ns()
                stack.pop()
            value = extra(args, result) if extra is not None else 0
            spans.append((sid, parent, name, t0, t1, mid, value))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "missing": self.missing}, f)


def wrap_transport(tracer: Tracer) -> None:
    """``FrameConnection.send_frame``; its number is 1 for a data frame."""
    from hprm import transport

    data = {transport.FrameType.TAGGED_MSG, transport.FrameType.OBJ_REF}
    tracer.wrap(
        getattr(transport, "FrameConnection", None),
        "send_frame",
        "transport.send",
        msg=lambda a: [a[1].tag.time, a[1].tag.microstep, a[1].port],
        extra=lambda a, r: 1 if a[1].type in data else 0,
    )


def wrap_federate(tracer: Tracer) -> None:
    """The names ``hprm.federate`` calls, as it binds them."""
    from hprm import federate, store

    for attr, name in (
        ("serialize", "serde.serialize"),
        ("deserialize", "serde.deserialize"),
        ("build_layout", "serde.layout"),
        ("payload_from_spans", "serde.layout"),
        ("encode_payload", "serde.inline_codec"),
        ("decode_payload", "serde.inline_codec"),
    ):
        tracer.wrap(federate, attr, name)
    client = getattr(federate, "StoreClient", None)
    for attr in ("create", "seal", "get", "release"):
        tracer.wrap(client, attr, f"store.{attr}")
    tracer.wrap(
        getattr(store, "WritableObject", None),
        "write",
        "store.write",
        extra=lambda a, r: memoryview(a[2]).nbytes,
    )
    tracer.wrap(getattr(federate, "Federate", None), "publish", "federate.publish")
    wrap_transport(tracer)


def wrap_rti(tracer: Tracer) -> None:
    """``RtiState.handle_net``/``handle_ltc``; the number is grants returned."""
    from hprm import rti

    state = getattr(rti, "RtiState", None)
    for attr in ("handle_net", "handle_ltc"):
        tracer.wrap(
            state,
            attr,
            "rti.handle",
            msg=lambda a: [a[2].time, a[2].microstep, None],
            extra=lambda a, r: len(r),
        )
    wrap_transport(tracer)


# -- summarizing, in the benchmark process -----------------------------------


def summarize(dumps: list[dict]) -> dict:
    """Fold per-process dumps into per-name samples and per-layer self time.

    Returns ``durations`` (name -> list of ns), ``extra_sum`` (name ->
    total of the per-span numbers), ``writes`` (per-object write time and
    bytes, grouped by the span that made them), ``self_ns`` (layer -> total
    self time) and ``missing`` (names that could not be wrapped)."""
    durations: dict[str, list[int]] = defaultdict(list)
    extra_sum: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    writes: list[tuple[int, int]] = []
    missing: set[str] = set()
    for dump in dumps:
        missing.update(dump["missing"])
        child_ns: dict[int, int] = defaultdict(int)
        per_object: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        for sid, parent, name, t0, t1, _mid, value in dump["spans"]:
            child_ns[parent] += t1 - t0
        for sid, parent, name, t0, t1, _mid, value in dump["spans"]:
            durations[name].append(t1 - t0)
            extra_sum[name] += value
            self_ns[name.split(".")[0]] += (t1 - t0) - child_ns.get(sid, 0)
            if name == "store.write":
                acc = per_object[parent]
                acc[0] += t1 - t0
                acc[1] += value
        writes.extend(tuple(v) for v in per_object.values())
    return {
        "durations": dict(durations),
        "extra_sum": dict(extra_sum),
        "writes": writes,
        "self_ns": dict(self_ns),
        "missing": missing,
    }

