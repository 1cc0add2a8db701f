"""Deterministic federated publish/subscribe middleware.

Subpackages and modules:

* :mod:`hprm.tags` -- superdense logical time (tags, delays).
* :mod:`hprm.topology` -- federation graphs and their validation.
* :mod:`hprm.serde` -- adaptive in-band / out-of-band serialization.
* :mod:`hprm.transport` -- eager framed transport over Unix and TCP sockets.
* :mod:`hprm.loop` -- the ``select`` loop that serves framed connections.
* :mod:`hprm.store` -- shared-memory object store (daemon + client).
* :mod:`hprm.rti` -- run-time coordination daemon (grants, start, stop).
* :mod:`hprm.federate` -- the federate runtime (queues, gates, reactions).
* :mod:`hprm.bench` -- benchmark scenarios and the ``hprm-bench`` CLI.
"""

from hprm.tags import FOREVER, NEVER, NO_DELAY, Delay, Tag, delay_tag

__all__ = [
    "Tag",
    "Delay",
    "NEVER",
    "FOREVER",
    "NO_DELAY",
    "delay_tag",
]

__version__ = "0.1.0"
