"""Launch the store daemon or the coordinator for one benchmark federation.

Run as ``python daemon.py store SOCKET CAPACITY_BYTES`` or ``python daemon.py rti
TOPOLOGY_FILE [SPANS_FILE]`` with ``src`` on the import path (``python
daemon.py echo`` serves one frame-echo connection for the ping probe).
Each prints
a ``ready`` event once it accepts connections and a ``final`` event with
its resource usage when it ends: the store on a ``stop`` command (its
``final`` carries the daemon's counters), the coordinator once every
federate has resigned.  With a spans file, the coordinator's grant logic
and frame sends are traced (see ``spans.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import child
import spans


def run_store(socket_path: str, capacity: int) -> None:
    from hprm.store.daemon import StoreDaemon

    # Backing files go beside the socket, inside the benchmark's run directory.
    daemon = StoreDaemon(
        socket_path, capacity, directory=Path(socket_path).parent / "objects"
    )
    child.serve_commands(on_stop=daemon.request_stop)
    child.emit("ready", policy=child.policy())
    daemon.run()
    child.emit("final", ru=child.rusage(), stats=daemon.state.stats())


def run_rti(topology_path: str, spans_path: str | None) -> None:
    from hprm.rti import RtiServer
    from hprm.topology import Topology

    tracer = None
    if spans_path:
        tracer = spans.Tracer()
        spans.wrap_rti(tracer)
    server = RtiServer(Topology.load(topology_path))
    child.serve_commands()
    child.emit("ready", policy=child.policy(), address=list(server.address))
    server.serve_forever()
    ru = child.rusage()
    if tracer is not None:
        tracer.dump(spans_path)
    child.emit("final", ru=ru)


def run_echo() -> None:
    from hprm.transport import FrameListener, serve_echo

    listener = FrameListener("127.0.0.1", 0)
    child.emit("ready", policy=child.policy(), address=list(listener.address))
    conn = listener.accept()
    listener.close()
    serve_echo(conn)
    conn.close()


def main(argv: list[str]) -> int:
    if argv[:1] == ["store"] and len(argv) == 3:
        run_store(argv[1], int(argv[2]))
    elif argv[:1] == ["rti"] and len(argv) in (2, 3):
        run_rti(argv[1], argv[2] if len(argv) == 3 else None)
    elif argv == ["echo"]:
        run_echo()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
