"""In-loop tests for the serve stack: coalescer, decoder pool, server core.

Everything here runs the real :class:`DecodeServer` (or its pieces) inside
the test's own event loop — no subprocesses.  The end-to-end transport
tests (subprocess, SIGTERM, CLI flags) live in ``test_serve_e2e.py``.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core.mn import MNDecoder, mn_reconstruct
from repro.core.signal import random_signal
from repro.designs import CompiledDecoder, Decoder, DesignKey, compile_from_key
from repro.serve import (
    Coalescer,
    DecodeRequest,
    DecodeServer,
    DecoderPool,
    ProtocolError,
    ServeClient,
    ServeConfig,
)

KEY_A = DesignKey.for_stream(120, 40, root_seed=3)
KEY_B = DesignKey.for_stream(90, 30, root_seed=4)


def make_case(key, k, seed):
    """One decode case: (y, offline support) for a fresh weight-k signal."""
    compiled = compile_from_key(key)
    sigma = random_signal(key.n, k, np.random.default_rng(seed))
    y = compiled.query_results(sigma)
    support = np.flatnonzero(mn_reconstruct(compiled.design, y, k)).tolist()
    return y, support


class _FakeCompiled:
    """Minimal CompiledDecoder whose batches block on an external gate."""

    def __init__(self, gate=None):
        self._gate = gate

    def decode(self, y, k):
        return self.decode_batch(y[None, :], k)[0]

    def decode_batch(self, Y, k):
        if self._gate is not None:
            self._gate.wait()
        return np.zeros((len(np.atleast_2d(Y)), 4), dtype=np.int8)


class _FakeDecoder:
    """Counts compiles; optionally gates decodes or fails compilation."""

    def __init__(self, gate=None, compile_error=None, compile_delay=0.0):
        self._gate = gate
        self._error = compile_error
        self._delay = compile_delay
        self.compiles = 0

    def compile(self, key, *, cache=None, store=None):
        self.compiles += 1
        if self._delay:
            time.sleep(self._delay)
        if self._error is not None:
            raise self._error
        return _FakeCompiled(self._gate)


class TestDecoderProtocol:
    def test_mn_decoder_satisfies_decoder_protocol(self):
        assert isinstance(MNDecoder(), Decoder)

    def test_compiled_mn_decoder_satisfies_compiled_protocol(self):
        compiled = MNDecoder().compile(KEY_B)
        assert isinstance(compiled, CompiledDecoder)

    def test_fakes_satisfy_the_protocols_structurally(self):
        # The serve layer types against the protocol, so any structural
        # implementation (like the test fakes) must be accepted.
        assert isinstance(_FakeDecoder(), Decoder)
        assert isinstance(_FakeCompiled(), CompiledDecoder)


class TestDecoderPool:
    def test_read_through_then_hit(self):
        async def run():
            pool = DecoderPool(_FakeDecoder(), max_designs=4)
            first = await pool.get(KEY_A)
            second = await pool.get(KEY_A)
            assert first is second
            assert (pool.hits, pool.misses) == (1, 1)

        asyncio.run(run())

    def test_single_flight_compile(self):
        async def run():
            decoder = _FakeDecoder(compile_delay=0.05)
            pool = DecoderPool(decoder, max_designs=4)
            a, b, c = await asyncio.gather(pool.get(KEY_A), pool.get(KEY_A), pool.get(KEY_A))
            assert a is b is c
            assert decoder.compiles == 1

        asyncio.run(run())

    def test_lru_eviction_at_capacity(self):
        async def run():
            pool = DecoderPool(_FakeDecoder(), max_designs=1)
            await pool.get(KEY_A)
            await pool.get(KEY_B)
            assert len(pool) == 1
            assert pool.evictions == 1
            await pool.get(KEY_A)  # A was evicted: recompiles
            assert pool.misses == 3
            # Drain-time close drops every entry; entries need no close hook.
            assert not hasattr(await pool.get(KEY_A), "close")
            pool.close()
            assert len(pool) == 0

        asyncio.run(run())

    def test_unservable_key_raises_structured_bad_key(self):
        async def run():
            pool = DecoderPool(_FakeDecoder(compile_error=ValueError("no such design")))
            with pytest.raises(ProtocolError) as err:
                await pool.get(KEY_A)
            assert err.value.code == "bad_key"
            assert "no such design" in err.value.message
            assert len(pool) == 0  # failure is not cached as an entry

        asyncio.run(run())

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DecoderPool(_FakeDecoder(), max_designs=0)


def _request(key, y, k, request_id, decoder="mn"):
    y = np.asarray(y, dtype=np.int64)
    y.setflags(write=False)
    return DecodeRequest(request_id=request_id, key=key, y=y, k=k, decoder=decoder)


class TestCoalescerAdmission:
    def test_overload_is_bounded_and_structured(self):
        async def run():
            gate = threading.Event()
            pool = DecoderPool(_FakeDecoder(gate))
            coalescer = Coalescer(pool, window_s=0.0, max_batch=1, max_queue=3)
            y = [0] * KEY_A.m
            futures = [coalescer.submit(_request(KEY_A, y, 2, i)) for i in range(3)]
            assert coalescer.stats.admitted == 3
            with pytest.raises(ProtocolError) as err:
                coalescer.submit(_request(KEY_A, y, 2, "rejected"))
            assert err.value.code == "overloaded"
            assert err.value.request_id == "rejected"
            assert coalescer.stats.overloaded == 1
            assert coalescer.stats.admitted == 3  # the refused request was never buffered
            gate.set()
            await asyncio.gather(*futures)
            assert coalescer.stats.admitted == 0
            # Degrade-and-recover: capacity freed, submissions flow again.
            done = coalescer.submit(_request(KEY_A, y, 2, "after"))
            await done
            coalescer.begin_drain()
            await coalescer.drain()
            assert coalescer.stats.peak_admitted == 3

        asyncio.run(run())

    def test_drain_refuses_new_submissions(self):
        async def run():
            coalescer = Coalescer(DecoderPool(_FakeDecoder()), window_s=5.0)
            first = coalescer.submit(_request(KEY_A, [0] * KEY_A.m, 2, "in-before"))
            coalescer.begin_drain()  # flushes the open bucket immediately
            with pytest.raises(ProtocolError) as err:
                coalescer.submit(_request(KEY_A, [0] * KEY_A.m, 2, "too-late"))
            assert err.value.code == "shutting_down"
            await coalescer.drain()
            assert first.done() and not first.cancelled()

        asyncio.run(run())

    def test_compile_failure_fails_each_request_with_its_own_id(self):
        async def run():
            pool = DecoderPool(_FakeDecoder(compile_error=ValueError("bad")))
            coalescer = Coalescer(pool, window_s=0.0, max_batch=2)
            futures = [coalescer.submit(_request(KEY_A, [0] * KEY_A.m, 2, f"r{i}")) for i in range(2)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert [r.code for r in results] == ["bad_key", "bad_key"]
            assert sorted(r.request_id for r in results) == ["r0", "r1"]

        asyncio.run(run())


class TestCoalescerBatching:
    def test_size_trigger_flushes_immediately(self):
        async def run():
            pool = DecoderPool(MNDecoder())
            coalescer = Coalescer(pool, window_s=60.0, max_batch=4)  # window too long to fire in-test
            cases = [make_case(KEY_A, 5, seed) for seed in range(4)]
            futures = [coalescer.submit(_request(KEY_A, y, 5, i)) for i, (y, _) in enumerate(cases)]
            supports = await asyncio.gather(*futures)
            for support, (_, offline) in zip(supports, cases):
                assert support.tolist() == offline
            assert coalescer.stats.batches == 1
            assert coalescer.stats.max_batch_seen == 4

        asyncio.run(run())

    def test_window_trigger_flushes_partial_batch(self):
        async def run():
            coalescer = Coalescer(DecoderPool(MNDecoder()), window_s=0.01, max_batch=64)
            y, offline = make_case(KEY_A, 4, seed=11)
            support = await coalescer.submit(_request(KEY_A, y, 4, "solo"))
            assert support.tolist() == offline
            assert coalescer.stats.batches == 1
            assert coalescer.stats.mean_batch == 1.0

        asyncio.run(run())

    def test_heterogeneous_k_in_one_batch_stays_bit_identical(self):
        async def run():
            coalescer = Coalescer(DecoderPool(MNDecoder()), window_s=60.0, max_batch=3)
            cases = [make_case(KEY_A, k, seed=20 + k) for k in (3, 5, 8)]
            futures = [coalescer.submit(_request(KEY_A, y, k, k)) for (y, _), k in zip(cases, (3, 5, 8))]
            supports = await asyncio.gather(*futures)
            for support, (_, offline) in zip(supports, cases):
                assert support.tolist() == offline
            assert coalescer.stats.batches == 1  # one ragged-k dispatch, not three

        asyncio.run(run())

    def test_distinct_keys_batch_separately(self):
        async def run():
            coalescer = Coalescer(DecoderPool(MNDecoder()), window_s=0.01, max_batch=64)
            ya, offline_a = make_case(KEY_A, 5, seed=31)
            yb, offline_b = make_case(KEY_B, 5, seed=32)
            sa, sb = await asyncio.gather(
                coalescer.submit(_request(KEY_A, ya, 5, "a")),
                coalescer.submit(_request(KEY_B, yb, 5, "b")),
            )
            assert sa.tolist() == offline_a
            assert sb.tolist() == offline_b
            assert coalescer.stats.batches == 2
            assert coalescer.stats.max_batch_seen == 1

        asyncio.run(run())


class TestMultiDecoder:
    """One pool/coalescer serving several registry decoders, keyed (key, name)."""

    def test_pool_keeps_separate_entries_per_decoder(self):
        async def run():
            decoders = {"mn": _FakeDecoder(), "omp": _FakeDecoder()}
            pool = DecoderPool(decoders, max_designs=4)
            assert pool.decoder_names() == ("mn", "omp")
            assert pool.default_decoder == "mn"
            a = await pool.get(KEY_A, "mn")
            b = await pool.get(KEY_A, "omp")
            assert a is not b
            assert len(pool) == 2
            assert decoders["mn"].compiles == 1
            assert decoders["omp"].compiles == 1
            assert await pool.get(KEY_A) is a  # None resolves to the default

        asyncio.run(run())

    def test_pool_rejects_unserved_decoder_name(self):
        async def run():
            pool = DecoderPool({"mn": _FakeDecoder()})
            with pytest.raises(ProtocolError) as err:
                await pool.get(KEY_A, "martian")
            assert err.value.code == "bad_request"
            assert "mn" in err.value.message  # the menu of served names

        asyncio.run(run())

    def test_pool_rejects_empty_mapping(self):
        with pytest.raises(ValueError):
            DecoderPool({})

    def test_bare_decoder_serves_under_mn(self):
        async def run():
            pool = DecoderPool(_FakeDecoder())
            assert pool.decoder_names() == ("mn",)
            await pool.get(KEY_A, "mn")  # explicit name hits the wrapped entry
            assert len(pool) == 1

        asyncio.run(run())

    def test_pool_evict_is_per_decoder(self):
        async def run():
            pool = DecoderPool({"mn": _FakeDecoder(), "omp": _FakeDecoder()}, max_designs=4)
            await pool.get(KEY_A, "mn")
            await pool.get(KEY_A, "omp")
            assert pool.evict(KEY_A, "omp")
            assert len(pool) == 1
            assert not pool.evict(KEY_A, "omp")  # already gone
            assert pool.evict(KEY_A)  # default name: the mn entry

        asyncio.run(run())

    def test_same_key_different_decoders_never_share_a_batch(self):
        async def run():
            pool = DecoderPool({"mn": _FakeDecoder(), "omp": _FakeDecoder()})
            coalescer = Coalescer(pool, window_s=0.01, max_batch=64)
            y = [0] * KEY_A.m
            await asyncio.gather(
                coalescer.submit(_request(KEY_A, y, 2, "a", decoder="mn")),
                coalescer.submit(_request(KEY_A, y, 2, "b", decoder="omp")),
            )
            assert coalescer.stats.batches == 2
            assert coalescer.stats.max_batch_seen == 1

        asyncio.run(run())

    def test_breaker_is_per_decoder_with_bare_key_back_compat(self):
        async def run():
            coalescer = Coalescer(DecoderPool({"mn": _FakeDecoder(), "omp": _FakeDecoder()}))
            assert coalescer.breaker(KEY_A) is coalescer.breaker(KEY_A, "mn")
            assert coalescer.breaker(KEY_A, "omp") is not coalescer.breaker(KEY_A, "mn")

        asyncio.run(run())

    def test_registry_decoders_serve_their_own_results(self):
        """mn and omp coalesce separately and each returns its own decode."""
        from repro.designs import make_decoder

        async def run():
            pool = DecoderPool({name: make_decoder(name) for name in ("mn", "omp")})
            coalescer = Coalescer(pool, window_s=0.01, max_batch=64)
            compiled = compile_from_key(KEY_A)
            sigma = random_signal(KEY_A.n, 4, np.random.default_rng(44))
            y = compiled.query_results(sigma)
            s_mn, s_omp = await asyncio.gather(
                coalescer.submit(_request(KEY_A, y, 4, "a", decoder="mn")),
                coalescer.submit(_request(KEY_A, y, 4, "b", decoder="omp")),
            )
            expected_mn = np.flatnonzero(make_decoder("mn").compile(compiled).decode(y, 4))
            expected_omp = np.flatnonzero(make_decoder("omp").compile(compiled).decode(y, 4))
            assert s_mn.tolist() == expected_mn.tolist()
            assert s_omp.tolist() == expected_omp.tolist()
            assert coalescer.stats.batches == 2

        asyncio.run(run())


class TestDecodeServer:
    """The full server core over a real TCP transport, in-loop."""

    @staticmethod
    async def _start(config):
        server = DecodeServer(MNDecoder(), config)
        host, port = await server.start_tcp()
        return server, host, port

    def test_interleaved_clients_get_their_own_rows(self):
        async def run():
            server, host, port = await self._start(ServeConfig(batch_window_ms=5.0))
            n_clients, per_client = 6, 2
            cases = {
                (c, i): make_case(KEY_A if (c + i) % 2 == 0 else KEY_B, 5, seed=100 + 10 * c + i)
                for c in range(n_clients)
                for i in range(per_client)
            }

            async def one_client(c):
                async with await ServeClient.connect(host, port) as client:
                    keys = {(c, i): KEY_A if (c + i) % 2 == 0 else KEY_B for i in range(per_client)}
                    responses = await asyncio.gather(
                        *[client.decode(keys[(c, i)], cases[(c, i)][0], 5, request_id=f"{c}/{i}") for i in range(per_client)]
                    )
                    return {(c, i): r for i, r in enumerate(responses)}

            merged = {}
            for part in await asyncio.gather(*[one_client(c) for c in range(n_clients)]):
                merged.update(part)
            for (c, i), response in merged.items():
                assert response["ok"], response
                assert response["request_id"] == f"{c}/{i}"  # own row, not a neighbour's
                assert response["support"] == cases[(c, i)][1]
            stats = server.coalescer.stats
            assert stats.requests == n_clients * per_client
            assert stats.batches < stats.requests  # coalescing actually happened
            await server.drain()

        asyncio.run(run())

    def test_malformed_line_answers_and_connection_survives(self):
        async def run():
            server, host, port = await self._start(ServeConfig(batch_window_ms=1.0))
            async with await ServeClient.connect(host, port) as client:
                await client.send_raw("definitely not json")
                err = await client.next_unmatched()
                assert err["ok"] is False
                assert err["request_id"] is None
                assert err["error"]["code"] == "bad_request"
                # Same connection still serves good requests afterwards.
                y, offline = make_case(KEY_B, 4, seed=50)
                response = await client.decode(KEY_B, y, 4)
                assert response["ok"] and response["support"] == offline
            await server.drain()

        asyncio.run(run())

    def test_structured_errors_carry_offending_request_id(self):
        async def run():
            server, host, port = await self._start(ServeConfig(batch_window_ms=1.0))
            import json

            async with await ServeClient.connect(host, port) as client:
                bad_key = await client.request({"design_key": {"nope": 1}, "y": [1], "k": 1}, request_id="bk")
                assert (bad_key["request_id"], bad_key["error"]["code"]) == ("bk", "bad_key")
                wrong_y = await client.request(
                    {"design_key": json.loads(KEY_B.to_json()), "y": [1, 2], "k": 1}, request_id="wy"
                )
                assert (wrong_y["request_id"], wrong_y["error"]["code"]) == ("wy", "bad_y")
                bad_k = await client.request(
                    {"design_key": json.loads(KEY_B.to_json()), "y": [0] * KEY_B.m, "k": 0}, request_id="wk"
                )
                assert (bad_k["request_id"], bad_k["error"]["code"]) == ("wk", "bad_k")
            await server.drain()

        asyncio.run(run())

    def test_request_timeout_is_structured(self):
        async def run():
            # Window far beyond the deadline: the batch never flushes in time.
            server, host, port = await self._start(ServeConfig(batch_window_ms=10_000.0, timeout_ms=50.0))
            async with await ServeClient.connect(host, port) as client:
                y, _ = make_case(KEY_A, 3, seed=60)
                response = await client.decode(KEY_A, y, 3, request_id="slow")
                assert response["ok"] is False
                assert response["error"]["code"] == "timeout"
                assert response["request_id"] == "slow"
            await server.drain()

        asyncio.run(run())

    def test_timed_out_rows_are_dropped_before_decode(self, monkeypatch):
        from repro.designs.serving import CompiledMNDecoder

        seen = []
        original = CompiledMNDecoder.decode_batch

        def spy(self, Y, k):
            seen.append(np.asarray(Y).shape[0])
            return original(self, Y, k)

        monkeypatch.setattr(CompiledMNDecoder, "decode_batch", spy)

        async def run():
            # Window far beyond the deadline; the second request fills the
            # batch and flushes it, with the first row already timed out.
            config = ServeConfig(batch_window_ms=10_000.0, max_batch=2, timeout_ms=300.0)
            server, host, port = await self._start(config)
            async with await ServeClient.connect(host, port) as client:
                y_slow, _ = make_case(KEY_A, 3, seed=90)
                y_live, offline = make_case(KEY_A, 3, seed=91)
                slow = await client.decode(KEY_A, y_slow, 3, request_id="slow")
                assert (slow["ok"], slow["error"]["code"], slow["request_id"]) == (False, "timeout", "slow")
                live = await client.decode(KEY_A, y_live, 3, request_id="live")
                assert live["ok"] and live["support"] == offline
            await server.drain()
            assert seen == [1]  # only the live row reached decode_batch
            stats = server.coalescer.stats
            assert (stats.admitted, stats.requests, stats.batches) == (0, 1, 1)

        asyncio.run(run())

    def test_server_overload_response(self):
        async def run():
            config = ServeConfig(batch_window_ms=10_000.0, max_batch=1024, max_queue=2, timeout_ms=200.0)
            server, host, port = await self._start(config)
            async with await ServeClient.connect(host, port) as client:
                y, _ = make_case(KEY_A, 3, seed=70)
                pending = [asyncio.ensure_future(client.decode(KEY_A, y, 3, request_id=f"p{i}")) for i in range(2)]
                while server.coalescer.stats.admitted < 2:  # both admitted, parked in the window
                    await asyncio.sleep(0.001)
                refused = await client.decode(KEY_A, y, 3, request_id="over")
                assert refused["ok"] is False
                assert refused["error"]["code"] == "overloaded"
                assert refused["request_id"] == "over"
                parked = await asyncio.gather(*pending)
                assert all(r["error"]["code"] == "timeout" for r in parked)
            await server.drain()
            assert server.coalescer.stats.overloaded == 1

        asyncio.run(run())

    def test_drain_answers_admitted_requests(self):
        async def run():
            # Long window: requests are parked when the drain begins, and the
            # drain's bucket flush must still decode and answer them.
            server, host, port = await self._start(ServeConfig(batch_window_ms=10_000.0))
            client = await ServeClient.connect(host, port)
            cases = [make_case(KEY_A, 5, seed=80 + i) for i in range(3)]
            pending = [
                asyncio.ensure_future(client.decode(KEY_A, y, 5, request_id=i)) for i, (y, _) in enumerate(cases)
            ]
            while server.coalescer.stats.admitted < 3:
                await asyncio.sleep(0.001)
            await server.drain()
            responses = await asyncio.gather(*pending)
            for response, (_, offline) in zip(responses, cases):
                assert response["ok"], response
                assert response["support"] == offline
            await client.close()

        asyncio.run(run())


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_window_ms": -1.0},
            {"max_batch": 0},
            {"max_queue": 0},
            {"max_designs": 0},
            {"timeout_ms": 0.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_unit_conversions(self):
        config = ServeConfig(batch_window_ms=2.5, timeout_ms=1500.0)
        assert config.window_s == pytest.approx(0.0025)
        assert config.timeout_s == pytest.approx(1.5)
