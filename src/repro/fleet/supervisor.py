"""Replica lifecycle: spawn, drain, and kill N inference servers.

The supervisor owns the replicas so the router does not have to — the
router only sees :class:`~repro.fleet.health.ReplicaEndpoint` addresses
and learns everything else from probes.  Two modes:

* **inproc** (default for tests and the chaos drills) — each
  replica is a full :class:`~repro.serve.server.InferenceServer` plus a
  real TCP listener *in this process*.  Replicas still talk JSON lines
  over loopback sockets, so the router path under test is byte-for-byte
  the production path; only the process boundary is elided.  Note that
  in-process replicas share the process-global metrics registry — the
  router's own per-replica accounting (``op: fleet``) is the per-replica
  view in this mode.
* **process** — each replica is a ``python -m repro serve`` child with
  its own interpreter, registry, and telemetry.  This is what ``repro
  fleet`` launches so ``repro top --fleet`` can show true per-replica
  gauges.

``kill()`` is deliberately violent in both modes: connections are
aborted (RST, not FIN) and queued work is dropped without drain, because
the kill drill (:mod:`repro.fleet.chaos`) needs a realistic crash
for the router to reroute around.  ``drain()`` is the graceful opposite
used by the autoscaler's scale-down path.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..obs import get_logger, get_registry
from ..serve.server import InferenceServer, ServeConfig
from ..serve.transport import MAX_LINE_BYTES, _handle_connection
from .health import ReplicaEndpoint

__all__ = ["ReplicaHandle", "FleetSupervisor", "free_port"]

_log = get_logger("fleet.supervisor")


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (race-y by nature; fine for tests/CLI)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


@dataclass
class ReplicaHandle:
    """One live replica as the supervisor sees it."""

    endpoint: ReplicaEndpoint
    mode: str                                   #: inproc | process
    server: Optional[InferenceServer] = None    #: inproc only
    tcp: Optional[asyncio.AbstractServer] = None
    process: Optional[asyncio.subprocess.Process] = None
    connections: Optional[set] = None           #: inproc: open writers

    @property
    def replica_id(self) -> str:
        return self.endpoint.replica_id

    @property
    def alive(self) -> bool:
        if self.mode == "process":
            return self.process is not None and self.process.returncode is None
        return self.server is not None


class FleetSupervisor:
    """Spawns and retires replicas; the autoscaler's actuator."""

    def __init__(
        self,
        base_config: Optional[ServeConfig] = None,
        host: str = "127.0.0.1",
        mode: str = "inproc",
        serve_argv: Optional[List[str]] = None,
    ) -> None:
        if mode not in ("inproc", "process"):
            raise ValueError(f"mode must be inproc|process, got {mode!r}")
        self.base_config = base_config or ServeConfig()
        self.host = host
        self.mode = mode
        #: ``repro serve`` argv tail for process replicas (models + flags);
        #: host/port are appended per replica.
        self.serve_argv = list(serve_argv or [])
        self._replicas: Dict[str, ReplicaHandle] = {}
        self._next_index = 0
        self._metrics = get_registry()

    # -------------------------------------------------------------- inventory

    @property
    def replicas(self) -> Dict[str, ReplicaHandle]:
        return self._replicas

    def __len__(self) -> int:
        return len(self._replicas)

    def next_replica_id(self) -> str:
        rid = f"r{self._next_index}"
        self._next_index += 1
        return rid

    # ------------------------------------------------------------------ spawn

    async def spawn(
        self,
        replica_id: Optional[str] = None,
        config: Optional[ServeConfig] = None,
        warm: bool = False,
    ) -> ReplicaEndpoint:
        """Start one replica and return its endpoint (ready to serve).

        ``warm=True`` spawns it behind the warm-up gate: health reports
        ``warming: true`` (the router holds it unroutable in STARTING)
        until someone — normally :func:`repro.fleet.warmup.warm_replica`
        via the autoscaler — drives its ``op: warmup``.
        """
        rid = replica_id or self.next_replica_id()
        if rid in self._replicas:
            raise ValueError(f"replica {rid!r} already exists")
        if self.mode == "inproc":
            if warm and config is None:
                config = replace(self.base_config, require_warmup=True)
            handle = await self._spawn_inproc(rid, config)
        else:
            handle = await self._spawn_process(rid, warm=warm)
        self._replicas[rid] = handle
        self._metrics.counter("fleet.replicas_spawned").inc()
        _log.info("replica spawned", replica=rid, mode=self.mode,
                  address=handle.endpoint.address())
        return handle.endpoint

    async def _spawn_inproc(
        self, rid: str, config: Optional[ServeConfig]
    ) -> ReplicaHandle:
        # dataclasses.replace gives each replica its own config object so
        # the autoscaler can tune one replica without aliasing the rest.
        server = InferenceServer(config or replace(self.base_config))
        await server.start()
        connections: set = set()

        async def handler(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
            # Track writers so kill() can abort() them: Python 3.11 has no
            # Server.close_clients(), and a graceful close would FIN the
            # socket — a crash must look like a crash to the router.
            connections.add(writer)
            try:
                await _handle_connection(server, reader, writer,
                                         MAX_LINE_BYTES)
            finally:
                connections.discard(writer)

        tcp = await asyncio.start_server(handler, self.host, 0)
        port = tcp.sockets[0].getsockname()[1]
        return ReplicaHandle(
            endpoint=ReplicaEndpoint(rid, self.host, port),
            mode="inproc", server=server, tcp=tcp, connections=connections,
        )

    async def _spawn_process(self, rid: str, warm: bool = False) -> ReplicaHandle:
        port = free_port(self.host)
        argv = [sys.executable, "-m", "repro", "serve", *self.serve_argv,
                "--host", self.host, "--port", str(port)]
        if warm:
            argv.append("--require-warmup")
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.DEVNULL,
        )
        endpoint = ReplicaEndpoint(rid, self.host, port)
        await self._wait_ready(endpoint, process)
        return ReplicaHandle(endpoint=endpoint, mode="process",
                             process=process)

    async def _wait_ready(
        self,
        endpoint: ReplicaEndpoint,
        process: asyncio.subprocess.Process,
        timeout_s: float = 60.0,
    ) -> None:
        from ..serve.transport import RemoteClient

        deadline = asyncio.get_running_loop().time() + timeout_s
        while True:
            if process.returncode is not None:
                raise RuntimeError(
                    f"replica {endpoint.replica_id} exited during startup "
                    f"(rc={process.returncode})"
                )
            try:
                client = RemoteClient(endpoint.host, endpoint.port,
                                      timeout_s=2.0)
                try:
                    payload = await client.health()
                    # A warm-gated replica reports ready: false until its
                    # op: warmup ran — it IS up as far as spawning goes;
                    # the router keeps it unroutable until warmed.
                    if payload.get("ready") or payload.get("warming"):
                        return
                finally:
                    await client.close()
            except (ConnectionError, asyncio.TimeoutError, OSError):
                pass
            if asyncio.get_running_loop().time() > deadline:
                process.kill()
                raise TimeoutError(
                    f"replica {endpoint.replica_id} not ready "
                    f"after {timeout_s}s"
                )
            await asyncio.sleep(0.1)

    # ----------------------------------------------------------------- retire

    async def kill(self, replica_id: str) -> None:
        """Crash a replica: abort connections, drop queued work.

        The chaos path — the router must discover the death through
        failed forwards/probes, exactly as with a real process crash.
        """
        handle = self._replicas.pop(replica_id, None)
        if handle is None:
            return
        self._metrics.counter("fleet.replicas_killed").inc()
        if handle.mode == "process":
            assert handle.process is not None
            if handle.process.returncode is None:
                handle.process.kill()
                await handle.process.wait()
        else:
            if handle.tcp is not None:
                handle.tcp.close()
                await handle.tcp.wait_closed()
            for writer in list(handle.connections or ()):
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            if handle.server is not None:
                await handle.server.stop(drain=False)
        _log.info("replica killed", replica=replica_id)

    async def drain(self, replica_id: str) -> None:
        """Gracefully retire a replica (autoscaler scale-down)."""
        handle = self._replicas.pop(replica_id, None)
        if handle is None:
            return
        self._metrics.counter("fleet.replicas_drained").inc()
        if handle.mode == "process":
            assert handle.process is not None
            if handle.process.returncode is None:
                handle.process.send_signal(signal.SIGINT)
                try:
                    await asyncio.wait_for(handle.process.wait(), timeout=30.0)
                except asyncio.TimeoutError:
                    handle.process.kill()
                    await handle.process.wait()
        else:
            if handle.tcp is not None:
                handle.tcp.close()
                await handle.tcp.wait_closed()
            if handle.server is not None:
                await handle.server.stop(drain=True)
            for writer in list(handle.connections or ()):
                writer.close()
        _log.info("replica drained", replica=replica_id)

    async def stop(self) -> None:
        """Drain every remaining replica (shutdown path)."""
        for rid in list(self._replicas):
            await self.drain(rid)

    async def __aenter__(self) -> "FleetSupervisor":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()
