"""JSON-lines TCP transport: wire codec + a real loopback round trip."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import (
    MAX_LINE_BYTES,
    InferenceRequest,
    InferenceResponse,
    InferenceServer,
    ModelKey,
    RemoteClient,
    ServeConfig,
    Status,
    request_from_wire,
    response_to_wire,
    serve_tcp,
)

KEY = ModelKey("mobilenet_v3_small", resolution=32)


class TestWireCodec:
    def test_request_round_trip(self):
        payload = {
            "id": 7, "net": "mobilenet_v1", "variant": "half",
            "resolution": 96, "seed": 2, "input_seed": 123,
            "slo_ms": 80.0, "priority": 1, "return_output": True,
        }
        request, envelope = request_from_wire(payload)
        assert request.key == ModelKey("mobilenet_v1", variant="half",
                                       resolution=96, seed=2)
        assert request.input_seed == 123
        assert request.slo_ms == 80.0
        assert request.priority == 1
        assert envelope == {"id": 7, "return_output": True}

    def test_request_defaults(self):
        request, envelope = request_from_wire({"net": "mobilenet_v1"})
        assert request.key == ModelKey("mobilenet_v1")
        assert request.input_seed == 0
        assert envelope["return_output"] is False

    def test_response_encoding(self):
        response = InferenceResponse(
            request_id="abc", key=KEY, status=Status.OK,
            output=np.zeros(3, dtype=np.float32), digest="d",
            queue_ms=1.0, execute_ms=2.0, total_ms=3.0,
            batch_size=4, slo_ms=100.0,
        )
        wire = response_to_wire(response, {"id": 5, "return_output": False})
        assert wire["id"] == 5
        assert wire["status"] == "ok"
        assert wire["batch_size"] == 4
        assert "output" not in wire
        wire = response_to_wire(response, {"id": 5, "return_output": True})
        assert wire["output"] == [0.0, 0.0, 0.0]

    def test_shed_response_carries_retry_after(self):
        response = InferenceResponse(
            request_id="abc", key=KEY, status=Status.SHED,
            slo_ms=100.0, retry_after_ms=12.5,
        )
        wire = response_to_wire(response, {"id": 1})
        assert wire["status"] == "shed"
        assert wire["retry_after_ms"] == 12.5


class TestTcpLoopback:
    def test_serve_and_query_over_tcp(self):
        async def main():
            config = ServeConfig(engine="analytical", preload=[KEY],
                                 slo_ms=10000.0)
            async with InferenceServer(config) as server:
                tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    async with RemoteClient("127.0.0.1", port) as client:
                        replies = await asyncio.gather(*(
                            client.request(
                                InferenceRequest(key=KEY, input_seed=i)
                            )
                            for i in range(8)
                        ))
                finally:
                    tcp.close()
                    await tcp.wait_closed()
            return replies

        replies = asyncio.run(main())
        assert len(replies) == 8
        assert all(r["status"] == "ok" for r in replies)
        assert len({r["id"] for r in replies}) == 8
        assert all(r["model"] == KEY.canonical() for r in replies)

    def test_client_submit_adapts_to_response(self):
        async def main():
            config = ServeConfig(engine="analytical", preload=[KEY],
                                 slo_ms=10000.0)
            async with InferenceServer(config) as server:
                tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    async with RemoteClient("127.0.0.1", port) as client:
                        return await client.submit(
                            InferenceRequest(key=KEY, input_seed=3)
                        )
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        response = asyncio.run(main())
        assert isinstance(response, InferenceResponse)
        assert response.status is Status.OK
        assert response.batch_size >= 1

    def test_malformed_line_gets_error_reply(self):
        async def main():
            config = ServeConfig(engine="analytical", slo_ms=10000.0)
            async with InferenceServer(config) as server:
                tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(b'{"resolution": 64}\n')  # missing "net"
                    await writer.drain()
                    line = await reader.readline()
                    writer.close()
                    await writer.wait_closed()
                finally:
                    tcp.close()
                    await tcp.wait_closed()
            return line

        import json
        reply = json.loads(asyncio.run(main()))
        assert reply["status"] == "error"
        assert "bad request" in reply["error"]


class TestTransportHardening:
    """Satellite contracts: bad input degrades the reply, never the link."""

    @staticmethod
    async def _serve(body):
        config = ServeConfig(engine="analytical", preload=[KEY],
                             slo_ms=10000.0)
        async with InferenceServer(config) as server:
            tcp = await serve_tcp(server, host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                return await body(port)
            finally:
                tcp.close()
                await tcp.wait_closed()

    def test_oversized_line_errors_but_connection_survives(self):
        import json

        async def body(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"x" * (MAX_LINE_BYTES + 1024) + b"\n")
                await writer.drain()
                oversized = json.loads(await reader.readline())
                # Same connection, well-formed follow-up: still served.
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                followup = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            return oversized, followup

        oversized, followup = asyncio.run(self._serve(body))
        assert oversized["status"] == "error"
        assert "bad request" in oversized["error"]
        assert "line exceeded" in oversized["error"]
        assert followup["op"] == "pong"

    def test_non_object_payload_gets_structured_error(self):
        import json

        async def body(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"[1, 2, 3]\n")
                await writer.drain()
                return json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()

        reply = asyncio.run(self._serve(body))
        assert reply["status"] == "error"
        assert "bad request" in reply["error"]

    def test_health_op_over_the_wire(self):
        async def body(port):
            async with RemoteClient("127.0.0.1", port) as client:
                return await client.health()

        health = asyncio.run(self._serve(body))
        assert health["status"] == "ok"
        assert health["ready"] is True
        assert health["workers_alive"] >= 1
        assert KEY.canonical() in health["models"]

    def test_client_skips_injected_garbage_frames(self):
        from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan

        install_plan(FaultPlan(faults=[
            FaultSpec(point="transport.garbage", max_fires=2),
        ]))
        try:
            async def body(port):
                async with RemoteClient("127.0.0.1", port) as client:
                    return [
                        await client.submit(
                            InferenceRequest(key=KEY, input_seed=i)
                        )
                        for i in range(4)
                    ]

            responses = asyncio.run(self._serve(body))
        finally:
            clear_plan()
        # Garbage frames preceded two replies; the client skipped them
        # and every request still resolved OK.
        assert [r.status for r in responses] == [Status.OK] * 4

    def test_connection_error_fails_pending_and_close_is_clean(self):
        # A reset or a failed write hands the transport's error to the
        # client's stream reader.  The read loop must take it as a lost
        # connection: fail the in-flight request now, not after its
        # timeout, and let close() finish without re-raising it.
        async def main():
            async def hold(reader, writer):
                await reader.read()  # never answers
                writer.close()

            tcp = await asyncio.start_server(hold, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            client = await RemoteClient("127.0.0.1", port,
                                        timeout_s=30.0).connect()
            try:
                pending = asyncio.ensure_future(client.health())
                await asyncio.sleep(0.05)
                client._reader.set_exception(BrokenPipeError())
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(pending, 5.0)
            finally:
                await client.close()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(main())

    def test_client_timeout_produces_error_response(self):
        from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan

        install_plan(FaultPlan(faults=[
            FaultSpec(point="serve.engine", kind="delay", delay_ms=300.0),
        ]))
        try:
            async def body(port):
                async with RemoteClient("127.0.0.1", port,
                                        timeout_s=0.05) as client:
                    return await client.submit(
                        InferenceRequest(key=KEY, input_seed=0)
                    )

            response = asyncio.run(self._serve(body))
        finally:
            clear_plan()
        assert response.status is Status.ERROR
        assert response.error.startswith("transport:")
        assert "TimeoutError" in response.error
