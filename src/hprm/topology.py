"""Federation graphs: who talks to whom, over which ports, at what delay.

A :class:`Topology` is the static wiring of a federation.  Connections are
directed edges ``(src federate, src port) -> (dst federate, dst port)``
carrying a logical :class:`~hprm.tags.Delay`.  The same structure is shared
by the coordination daemon (for its roster) and by federates (to route
published values and bound what can still arrive), so it can be serialized
to JSON and passed around as a file.

:meth:`Topology.build` rejects graphs the runtime cannot execute, with one
:class:`TopologyError` that names every violation: connections that
reference unknown federates, and cycles whose total logical delay is zero
(those admit no tag-ordered schedule; cycles broken by a positive delay
are fine).  The cycle check is the standard library's topological sort
over the zero-delay edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Iterable

from hprm.tags import NO_DELAY, Delay


class TopologyError(ValueError):
    """Raised when a graph fails validation."""


@dataclass(frozen=True, order=True, slots=True)
class Connection:
    """One directed, delayed edge between federate ports."""

    src: str
    src_port: str
    dst: str
    dst_port: str
    delay: Delay = NO_DELAY


@dataclass(frozen=True)
class Topology:
    """Immutable federation graph with derived routing indexes.

    Build instances through :meth:`build`, which validates the graph and
    normalizes ordering so that two topologies with the same edges compare
    equal and number their ports identically regardless of input order.
    """

    federates: tuple[str, ...]
    connections: tuple[Connection, ...]
    _in_edges: dict = field(default_factory=dict, repr=False, compare=False)
    _out_edges: dict = field(default_factory=dict, repr=False, compare=False)
    _port_numbers: dict = field(default_factory=dict, repr=False, compare=False)
    _port_names: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(
        cls, federates: Iterable[str], connections: Iterable[Connection] = ()
    ) -> "Topology":
        """A validated topology; raises one TopologyError that names every
        violation."""
        topo = cls(tuple(sorted(set(federates))), tuple(sorted(connections)))
        # Each federate's zero-delay predecessors: a cycle then comes out
        # of CycleError in edge order.
        preds: dict[str, list[str]] = {f: [] for f in topo.federates}
        violations = [
            f"unknown-endpoint: connection {c.src}.{c.src_port}->{c.dst}.{c.dst_port} "
            f"references undeclared federate {endpoint!r}"
            for c in topo.connections
            for endpoint in (c.src, c.dst)
            if endpoint not in preds
        ]
        for c in topo.connections:
            if c.delay.nanos == 0 and c.src in preds and c.dst in preds:
                preds[c.dst].append(c.src)
        try:
            TopologicalSorter(preds).prepare()
        except CycleError as exc:
            violations.append(
                "zero-delay-cycle: zero-delay cycle through " + " -> ".join(exc.args[1])
            )
        if violations:
            raise TopologyError("; ".join(violations))
        return topo

    def __post_init__(self) -> None:
        for fed in self.federates:
            self._in_edges[fed] = []
            self._out_edges[fed] = []
        for c in self.connections:
            if c.dst in self._in_edges:
                self._in_edges[c.dst].append(c)
            if c.src in self._out_edges:
                self._out_edges[c.src].append(c)
        # Destination endpoints get stable numeric ids for the wire format.
        endpoints = sorted({(c.dst, c.dst_port) for c in self.connections})
        for num, endpoint in enumerate(endpoints, start=1):
            self._port_numbers[endpoint] = num
            self._port_names[num] = endpoint

    def inputs_of(self, federate: str) -> tuple[Connection, ...]:
        return tuple(self._in_edges.get(federate, ()))

    def outputs_of(self, federate: str) -> tuple[Connection, ...]:
        return tuple(self._out_edges.get(federate, ()))

    def port_number(self, federate: str, port: str) -> int:
        """Numeric id of a destination endpoint, for frame headers."""
        return self._port_numbers[(federate, port)]

    def port_name(self, number: int) -> tuple[str, str]:
        """Inverse of :meth:`port_number`."""
        return self._port_names[number]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "federates": list(self.federates),
            "connections": [
                {
                    "src": c.src,
                    "src_port": c.src_port,
                    "dst": c.dst,
                    "dst_port": c.dst_port,
                    "delay_ns": c.delay.nanos,
                }
                for c in self.connections
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        return cls.build(
            data["federates"],
            [
                Connection(
                    c["src"],
                    c["src_port"],
                    c["dst"],
                    c["dst_port"],
                    Delay(c.get("delay_ns", 0)),
                )
                for c in data["connections"]
            ],
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "Topology":
        return cls.from_dict(json.loads(Path(path).read_text()))

