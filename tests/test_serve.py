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

    def compile(self, compiled):
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
        compiled = MNDecoder().compile(compile_from_key(KEY_B))
        assert isinstance(compiled, CompiledDecoder)

    def test_fakes_satisfy_the_protocols_structurally(self):
        # The serve layer types against the protocol, so any structural
        # implementation (like the test fakes) must be accepted.
        assert isinstance(_FakeDecoder(), Decoder)
        assert isinstance(_FakeCompiled(), CompiledDecoder)


class TestDecoderPool:
    def test_read_through_then_hit(self):
        async def run():
            pool = DecoderPool({"mn": _FakeDecoder()}, max_designs=4)
            first = await pool.get(KEY_A)
            second = await pool.get(KEY_A)
            assert first is second
            assert (pool.hits, pool.misses) == (1, 1)

        asyncio.run(run())

    def test_single_flight_compile(self):
        async def run():
            decoder = _FakeDecoder(compile_delay=0.05)
            pool = DecoderPool({"mn": decoder}, max_designs=4)
            a, b, c = await asyncio.gather(pool.get(KEY_A), pool.get(KEY_A), pool.get(KEY_A))
            assert a is b is c
            assert decoder.compiles == 1

        asyncio.run(run())

    def test_lru_eviction_at_capacity(self):
        async def run():
            pool = DecoderPool({"mn": _FakeDecoder()}, max_designs=1)
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
            pool = DecoderPool({"mn": _FakeDecoder(compile_error=ValueError("no such design"))})
            with pytest.raises(ProtocolError) as err:
                await pool.get(KEY_A)
            assert err.value.code == "bad_key"
            assert "no such design" in err.value.message
            assert len(pool) == 0  # failure is not cached as an entry

        asyncio.run(run())

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DecoderPool({"mn": _FakeDecoder()}, max_designs=0)

    def test_each_admission_resolves_the_design_through_the_store(self, tmp_path):
        from repro.core.design import PoolingDesign
        from repro.designs import CompiledDesign, DesignStore

        class Recording(_FakeDecoder):
            def __init__(self):
                super().__init__()
                self.bound = []

            def compile(self, compiled):
                self.bound.append(compiled)
                return super().compile(compiled)

        async def run():
            store = DesignStore(tmp_path)
            decoder = Recording()
            pool = DecoderPool({"mn": decoder}, store=store)
            await pool.get(KEY_A)
            pool.evict(KEY_A)
            await pool.get(KEY_A)
            # The decoder binds what the pool resolved: compiled once, then attached.
            assert [(type(c), c.key) for c in decoder.bound] == [(CompiledDesign, KEY_A)] * 2
            assert (store.stats.publishes, store.stats.hits) == (1, 1)
            # A content key names a design only its publisher had: not servable.
            unknown = DesignKey.for_content(PoolingDesign.sample(30, 10, np.random.default_rng(0)))
            with pytest.raises(ProtocolError) as err:
                await pool.get(unknown)
            assert err.value.code == "bad_key"
            assert len(decoder.bound) == 2

        asyncio.run(run())


def _request(key, y, k, request_id, decoder="mn"):
    y = np.asarray(y, dtype=np.int64)
    y.setflags(write=False)
    return DecodeRequest(request_id=request_id, key=key, y=y, k=k, decoder=decoder)


class TestCoalescerAdmission:
    def test_overload_is_bounded_and_structured(self):
        async def run():
            gate = threading.Event()
            pool = DecoderPool({"mn": _FakeDecoder(gate)})
            coalescer = Coalescer(pool, max_batch=1, max_queue=3)
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
            coalescer = Coalescer(DecoderPool({"mn": _FakeDecoder()}))
            first = coalescer.submit(_request(KEY_A, [0] * KEY_A.m, 2, "in-before"))
            coalescer.begin_drain()  # the admitted request's batch is already dispatched
            with pytest.raises(ProtocolError) as err:
                coalescer.submit(_request(KEY_A, [0] * KEY_A.m, 2, "too-late"))
            assert err.value.code == "shutting_down"
            await coalescer.drain()
            assert first.done() and not first.cancelled()

        asyncio.run(run())

    def test_compile_failure_fails_each_request_with_its_own_id(self):
        async def run():
            pool = DecoderPool({"mn": _FakeDecoder(compile_error=ValueError("bad"))})
            coalescer = Coalescer(pool, max_batch=2)
            futures = [coalescer.submit(_request(KEY_A, [0] * KEY_A.m, 2, f"r{i}")) for i in range(2)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert [r.code for r in results] == ["bad_key", "bad_key"]
            assert sorted(r.request_id for r in results) == ["r0", "r1"]

        asyncio.run(run())


class TestCoalescerBatching:
    def test_requests_of_one_turn_join_one_batch(self):
        async def run():
            # The first request dispatches at once; the other three join its
            # batch while it is admitted, so the lane takes all four.
            pool = DecoderPool({"mn": MNDecoder()})
            coalescer = Coalescer(pool, max_batch=4)
            cases = [make_case(KEY_A, 5, seed) for seed in range(4)]
            futures = [coalescer.submit(_request(KEY_A, y, 5, i)) for i, (y, _) in enumerate(cases)]
            supports = await asyncio.gather(*futures)
            for support, (_, offline) in zip(supports, cases):
                assert support.tolist() == offline
            assert coalescer.stats.batches == 1
            assert coalescer.stats.max_batch_seen == 4

        asyncio.run(run())

    def test_lone_request_dispatches_at_once(self):
        async def run():
            coalescer = Coalescer(DecoderPool({"mn": MNDecoder()}), max_batch=64)
            y, offline = make_case(KEY_A, 4, seed=11)
            # No timer: the bucket is idle, so the batch is in flight on submit.
            support = await asyncio.wait_for(coalescer.submit(_request(KEY_A, y, 4, "solo")), 5)
            assert support.tolist() == offline
            assert coalescer.stats.batches == 1
            assert coalescer.stats.mean_batch == 1.0

        asyncio.run(run())

    def test_heterogeneous_k_in_one_batch_stays_bit_identical(self):
        async def run():
            coalescer = Coalescer(DecoderPool({"mn": MNDecoder()}), max_batch=3)
            cases = [make_case(KEY_A, k, seed=20 + k) for k in (3, 5, 8)]
            futures = [coalescer.submit(_request(KEY_A, y, k, k)) for (y, _), k in zip(cases, (3, 5, 8))]
            supports = await asyncio.gather(*futures)
            for support, (_, offline) in zip(supports, cases):
                assert support.tolist() == offline
            assert coalescer.stats.batches == 1  # one ragged-k dispatch, not three

        asyncio.run(run())

    def test_distinct_keys_batch_separately(self):
        async def run():
            coalescer = Coalescer(DecoderPool({"mn": MNDecoder()}), max_batch=64)
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


class _LaneCompiled:
    """Records each batch's request tags (``y[0]``) and decodes row ``b`` to support ``[tag_b]``."""

    def __init__(self, name, log, gate, started):
        self._name, self._log, self._gate, self._started = name, log, gate, started

    def decode(self, y, k):
        return self.decode_batch(y[None, :], k)[0]

    def decode_batch(self, Y, k):
        Y = np.atleast_2d(Y)
        self._log.append((self._name, Y[:, 0].tolist()))
        self._started.set()
        assert self._gate.wait(30), "test gate never opened"
        rows = np.zeros((len(Y), 64), dtype=np.int8)
        rows[np.arange(len(Y)), Y[:, 0]] = 1
        return rows


class _LaneDecoder:
    """Compiles :class:`_LaneCompiled` decoders that share one gate and one batch log."""

    def __init__(self):
        self.log = []
        self.gate = threading.Event()
        self.started = threading.Event()

    def compile(self, compiled):
        return _LaneCompiled("A" if compiled.key == KEY_A else "B", self.log, self.gate, self.started)


def _tagged(key, tag):
    y = np.zeros(key.m, dtype=np.int64)
    y[0] = tag
    return _request(key, y, 1, f"{'A' if key == KEY_A else 'B'}{tag}")


async def _until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class TestLaneBatching:
    """Batches form when the decode lane takes them, one batch in flight per key."""

    @staticmethod
    async def _busy(coalescer, decoder, key=KEY_A):
        """Submit tag 0 for ``key`` and wait until its gated decode is running."""
        first = coalescer.submit(_tagged(key, 0))
        await _until(decoder.started.is_set)
        return first

    def test_requests_parked_across_loop_turns_form_one_next_batch(self):
        async def run():
            decoder = _LaneDecoder()
            coalescer = Coalescer(DecoderPool({"mn": decoder}))
            futures = [await self._busy(coalescer, decoder)]
            for tag in (1, 2, 3):
                futures.append(coalescer.submit(_tagged(KEY_A, tag)))
                await asyncio.sleep(0)  # each arrival on its own loop turn
            decoder.gate.set()
            supports = await asyncio.gather(*futures)
            assert [s.tolist() for s in supports] == [[0], [1], [2], [3]]
            assert decoder.log == [("A", [0]), ("A", [1, 2, 3])]
            assert (coalescer.stats.batches, coalescer.stats.max_batch_seen) == (2, 3)

        asyncio.run(run())

    def test_bucket_past_max_batch_drains_in_arrival_order(self):
        async def run():
            decoder = _LaneDecoder()
            coalescer = Coalescer(DecoderPool({"mn": decoder}), max_batch=2)
            futures = [await self._busy(coalescer, decoder)]
            futures += [coalescer.submit(_tagged(KEY_A, tag)) for tag in range(1, 6)]
            decoder.gate.set()
            supports = await asyncio.gather(*futures)
            assert [s.tolist() for s in supports] == [[tag] for tag in range(6)]
            assert decoder.log == [("A", [0]), ("A", [1, 2]), ("A", [3, 4]), ("A", [5])]
            assert coalescer.stats.admitted == 0

        asyncio.run(run())

    def test_busy_key_does_not_hold_back_another_key(self):
        async def run():
            decoder = _LaneDecoder()
            pool = DecoderPool({"mn": decoder})
            await pool.get(KEY_B)  # warm: B's batch goes straight to the lane
            coalescer = Coalescer(pool)
            a0 = await self._busy(coalescer, decoder)
            a1 = coalescer.submit(_tagged(KEY_A, 1))  # parked behind A's batch
            b0 = coalescer.submit(_tagged(KEY_B, 0))  # B is idle: queues for the lane
            await asyncio.sleep(0.01)
            decoder.gate.set()
            await asyncio.gather(a0, a1, b0)
            assert decoder.log == [("A", [0]), ("B", [0]), ("A", [1])]

        asyncio.run(run())

    def test_cold_key_compile_never_holds_the_lane(self):
        started, gate = threading.Event(), threading.Event()

        class GatedCold(_FakeDecoder):
            def compile(self, compiled):
                if compiled.key == KEY_B:
                    started.set()
                    assert gate.wait(30), "test gate never opened"
                return super().compile(compiled)

        async def run():
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(1) as admit, ThreadPoolExecutor(1) as decode:
                pool = DecoderPool({"mn": GatedCold()}, executor=admit)
                await pool.get(KEY_A)  # warm before KEY_B's compile takes the admission thread
                coalescer = Coalescer(pool, executor=decode)
                zeros = {key: np.zeros(key.m, dtype=np.int64) for key in (KEY_A, KEY_B)}
                try:
                    cold = coalescer.submit(_request(KEY_B, zeros[KEY_B], 1, "cold"))
                    await _until(started.is_set)
                    for i in range(3):  # warm-key batches keep flowing through the lane
                        warm = await asyncio.wait_for(coalescer.submit(_request(KEY_A, zeros[KEY_A], 1, f"warm-{i}")), 5)
                        assert warm.tolist() == []
                    assert not cold.done()
                finally:
                    gate.set()
                assert (await asyncio.wait_for(cold, 5)).tolist() == []
                coalescer.begin_drain()
                await coalescer.drain()

        asyncio.run(run())

    def test_parked_request_that_times_out_is_not_decoded(self):
        async def run():
            decoder = _LaneDecoder()
            coalescer = Coalescer(DecoderPool({"mn": decoder}))
            first = await self._busy(coalescer, decoder)
            late = coalescer.submit(_tagged(KEY_A, 1))
            live = coalescer.submit(_tagged(KEY_A, 2))
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(late, 0.02)  # cancels the parked future
            decoder.gate.set()
            assert (await first).tolist() == [0]
            assert (await live).tolist() == [2]
            await _until(lambda: coalescer.stats.admitted == 0)
            assert decoder.log == [("A", [0]), ("A", [2])]
            assert coalescer.stats.requests == 2

        asyncio.run(run())

    def test_drain_during_a_running_batch_answers_every_parked_request(self):
        async def run():
            decoder = _LaneDecoder()
            coalescer = Coalescer(DecoderPool({"mn": decoder}), max_batch=2)
            futures = [await self._busy(coalescer, decoder)]
            futures += [coalescer.submit(_tagged(KEY_A, tag)) for tag in (1, 2, 3)]
            coalescer.begin_drain()
            with pytest.raises(ProtocolError) as err:
                coalescer.submit(_tagged(KEY_A, 4))
            assert err.value.code == "shutting_down"
            asyncio.get_running_loop().call_later(0.02, decoder.gate.set)
            await coalescer.drain()
            assert all(f.done() for f in futures)  # answered before drain() returned
            assert [f.result().tolist() for f in futures] == [[0], [1], [2], [3]]
            assert decoder.log == [("A", [0]), ("A", [1, 2]), ("A", [3])]
            assert coalescer.stats.admitted == 0

        asyncio.run(run())

    def test_pool_counts_one_lookup_per_batch(self):
        async def run():
            decoder = _LaneDecoder()
            pool = DecoderPool({"mn": decoder})
            coalescer = Coalescer(pool, max_batch=3)
            futures = [await self._busy(coalescer, decoder)]
            futures += [coalescer.submit(_tagged(key, tag)) for tag in range(1, 5) for key in (KEY_A, KEY_B)]
            decoder.gate.set()
            await asyncio.gather(*futures)
            assert coalescer.stats.batches == len(decoder.log) > 2
            assert pool.hits + pool.misses == coalescer.stats.batches

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
            coalescer = Coalescer(pool, max_batch=64)
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
            coalescer = Coalescer(pool, max_batch=64)
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


class _GatedMN:
    """The real MN decoder, with every batch waiting for ``gate``: a held decode lane.

    Requests that arrive while a gated batch decodes wait in their bucket,
    so a test can park them without any timer.  ``batches`` records the
    row count of each decoded batch.
    """

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.batches = []

    def compile(self, compiled):
        return _GatedCompiled(MNDecoder().compile(compiled), self)


class _GatedCompiled:
    def __init__(self, inner, owner):
        self._inner, self._owner = inner, owner

    def decode(self, y, k):
        return self.decode_batch(np.asarray(y)[None, :], k)[0]

    def decode_batch(self, Y, k):
        self._owner.batches.append(len(Y))
        self._owner.started.set()
        assert self._owner.gate.wait(30), "test gate never opened"
        return self._inner.decode_batch(Y, k)


class TestDecodeServer:
    """The full server core over a real TCP transport, in-loop."""

    @staticmethod
    async def _start(config, decoder=None):
        server = DecodeServer({"mn": decoder if decoder is not None else MNDecoder()}, config)
        host, port = await server.start_tcp()
        return server, host, port

    @staticmethod
    async def _hold_lane(server, decoder):
        """Admit one request in-process (no deadline); return once its gated decode runs."""
        y, offline = make_case(KEY_A, 3, seed=0)
        future = server.coalescer.submit(_request(KEY_A, y, 3, "holder"))
        await _until(decoder.started.is_set)
        return future, offline

    def test_interleaved_clients_get_their_own_rows(self):
        async def run():
            server, host, port = await self._start(ServeConfig())
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
            server, host, port = await self._start(ServeConfig())
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
            server, host, port = await self._start(ServeConfig())
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

    def test_y_outside_int64_gets_exactly_one_error(self):
        async def run():
            import json

            server, host, port = await self._start(ServeConfig())
            reader, writer = await asyncio.open_connection(host, port)
            key = json.loads(KEY_B.to_json())
            y, offline = make_case(KEY_B, 4, seed=51)
            bad = {"request_id": "big", "design_key": key, "y": [0] * (KEY_B.m - 1) + [2**70], "k": 4}
            good = {"request_id": "good", "design_key": key, "y": y.tolist(), "k": 4}
            writer.write((json.dumps(bad) + "\n" + json.dumps(good) + "\n").encode())
            await writer.drain()
            responses = [json.loads(await asyncio.wait_for(reader.readline(), 5)) for _ in range(2)]
            by_id = {r["request_id"]: r for r in responses}
            assert by_id["big"]["error"]["code"] == "bad_y"
            assert by_id["good"]["ok"] and by_id["good"]["support"] == offline
            with pytest.raises(asyncio.TimeoutError):  # nothing else is coming
                await asyncio.wait_for(reader.readline(), 0.2)
            writer.close()
            await writer.wait_closed()
            await server.drain()

        asyncio.run(run())

    def test_y_above_the_pool_size_gets_exactly_one_error(self):
        async def run():
            import json

            server, host, port = await self._start(ServeConfig())
            reader, writer = await asyncio.open_connection(host, port)
            key = json.loads(KEY_B.to_json())
            y, offline = make_case(KEY_B, 4, seed=52)
            # Fits int64, but no pool of Γ draws can count this many ones.
            bad = {"request_id": "wrap", "design_key": key, "y": [2**62] * KEY_B.m, "k": 4}
            good = {"request_id": "good", "design_key": key, "y": y.tolist(), "k": 4}
            writer.write((json.dumps(bad) + "\n" + json.dumps(good) + "\n").encode())
            await writer.drain()
            responses = [json.loads(await asyncio.wait_for(reader.readline(), 5)) for _ in range(2)]
            by_id = {r["request_id"]: r for r in responses}
            assert by_id["wrap"]["error"]["code"] == "bad_y"
            assert by_id["good"]["ok"] and by_id["good"]["support"] == offline
            with pytest.raises(asyncio.TimeoutError):  # nothing else is coming
                await asyncio.wait_for(reader.readline(), 0.2)
            writer.close()
            await writer.wait_closed()
            await server.drain()

        asyncio.run(run())

    def test_request_timeout_is_structured(self):
        async def run():
            # The lane is held past the deadline: the decode never finishes in time.
            decoder = _GatedMN()
            server, host, port = await self._start(ServeConfig(timeout_ms=50.0), decoder)
            try:
                async with await ServeClient.connect(host, port) as client:
                    y, _ = make_case(KEY_A, 3, seed=60)
                    response = await client.decode(KEY_A, y, 3, request_id="slow")
                    assert response["ok"] is False
                    assert response["error"]["code"] == "timeout"
                    assert response["request_id"] == "slow"
            finally:
                decoder.gate.set()
            await server.drain()

        asyncio.run(run())

    def test_timed_out_rows_are_dropped_before_decode(self):
        async def run():
            # Both requests park behind the held lane; the first times out
            # while parked, so only the second reaches decode_batch.
            decoder = _GatedMN()
            server, host, port = await self._start(ServeConfig(timeout_ms=300.0), decoder)
            holder, held_offline = await self._hold_lane(server, decoder)
            async with await ServeClient.connect(host, port) as client:
                y_slow, _ = make_case(KEY_A, 3, seed=90)
                y_live, offline = make_case(KEY_A, 3, seed=91)
                slow = await client.decode(KEY_A, y_slow, 3, request_id="slow")
                assert (slow["ok"], slow["error"]["code"], slow["request_id"]) == (False, "timeout", "slow")
                live = asyncio.ensure_future(client.decode(KEY_A, y_live, 3, request_id="live"))
                await _until(lambda: server.coalescer.stats.admitted == 3)  # holder, slow, live
                decoder.gate.set()
                live = await live
                assert live["ok"] and live["support"] == offline
            assert (await holder).tolist() == held_offline
            await server.drain()
            assert decoder.batches == [1, 1]  # the holder, then the live row alone
            stats = server.coalescer.stats
            assert (stats.admitted, stats.requests, stats.batches) == (0, 2, 2)

        asyncio.run(run())

    def test_server_overload_response(self):
        async def run():
            decoder = _GatedMN()
            server, host, port = await self._start(ServeConfig(max_queue=2), decoder)
            holder, held_offline = await self._hold_lane(server, decoder)
            async with await ServeClient.connect(host, port) as client:
                y, offline = make_case(KEY_A, 3, seed=70)
                parked = asyncio.ensure_future(client.decode(KEY_A, y, 3, request_id="parked"))
                await _until(lambda: server.coalescer.stats.admitted == 2)  # one decoding, one parked
                refused = await client.decode(KEY_A, y, 3, request_id="over")
                assert refused["ok"] is False
                assert refused["error"]["code"] == "overloaded"
                assert refused["request_id"] == "over"
                decoder.gate.set()
                parked = await parked
                assert parked["ok"] and parked["support"] == offline  # the admitted are still served
            assert (await holder).tolist() == held_offline
            await server.drain()
            assert server.coalescer.stats.overloaded == 1

        asyncio.run(run())

    def test_drain_answers_admitted_requests(self):
        async def run():
            # Held lane: requests are parked when the drain begins, and the
            # drain must still decode and answer every one of them.
            decoder = _GatedMN()
            server, host, port = await self._start(ServeConfig(), decoder)
            holder, held_offline = await self._hold_lane(server, decoder)
            client = await ServeClient.connect(host, port)
            cases = [make_case(KEY_A, 5, seed=80 + i) for i in range(3)]
            pending = [
                asyncio.ensure_future(client.decode(KEY_A, y, 5, request_id=i)) for i, (y, _) in enumerate(cases)
            ]
            await _until(lambda: server.coalescer.stats.admitted == 4)
            drain = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.02)
            assert not drain.done()  # the drain waits for the parked requests
            decoder.gate.set()
            await drain
            responses = await asyncio.gather(*pending)
            for response, (_, offline) in zip(responses, cases):
                assert response["ok"], response
                assert response["support"] == offline
            assert (await holder).tolist() == held_offline
            assert decoder.batches == [1, 3]
            await client.close()

        asyncio.run(run())


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_queue": 0},
            {"max_designs": 0},
            {"timeout_ms": 0.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["timeout_ms", "breaker_cooldown_ms", "drain_timeout_s"])
    def test_rejects_non_finite_durations(self, field, value):
        # NaN passes every ordered comparison, and asyncio treats a NaN or
        # infinite timeout as no deadline at all.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ServeConfig(**{field: value})

    def test_rejects_negative_drain_timeout(self):
        with pytest.raises(ValueError, match="^drain_timeout_s must be non-negative"):
            ServeConfig(drain_timeout_s=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_breaker_rejects_non_finite_cooldown(self, value):
        from repro.serve.breaker import CircuitBreaker

        with pytest.raises(ValueError, match="^cooldown_s must be finite"):
            CircuitBreaker(cooldown_s=value)

    def test_coalescer_and_pool_defaults_follow_serveconfig(self):
        """``ServeConfig`` holds the defaults; the components' keyword defaults equal them."""
        import inspect

        config = ServeConfig()
        expected = {
            (Coalescer, "max_batch"): config.max_batch,
            (Coalescer, "max_queue"): config.max_queue,
            (Coalescer, "decode_retries"): config.decode_retries,
            (Coalescer, "breaker_threshold"): config.breaker_threshold,
            (Coalescer, "breaker_cooldown_s"): config.breaker_cooldown_s,
            (DecoderPool, "max_designs"): config.max_designs,
        }
        wiring = {"executor", "store"}  # objects, not settings
        for cls in (Coalescer, DecoderPool):
            params = inspect.signature(cls).parameters.values()
            knobs = {p.name for p in params if p.default is not inspect.Parameter.empty} - wiring
            assert knobs == {name for owner, name in expected if owner is cls}, f"unmapped {cls.__name__} knob"
        for (cls, name), value in expected.items():
            assert inspect.signature(cls).parameters[name].default == value, f"{cls.__name__}({name}=...)"

    def test_unit_conversions(self):
        config = ServeConfig(timeout_ms=1500.0, breaker_cooldown_ms=2.5)
        assert config.timeout_s == pytest.approx(1.5)
        assert config.breaker_cooldown_s == pytest.approx(0.0025)


class TestAdmissionThread:
    """Admission (attach, verify, compile) runs off the decode thread."""

    def test_warm_key_decodes_while_a_cold_compile_is_blocked(self):
        started, gate = threading.Event(), threading.Event()

        class GatedCold(_FakeDecoder):
            def compile(self, compiled):
                if compiled.key == KEY_B:
                    started.set()
                    gate.wait(30)
                return super().compile(compiled)

        async def run():
            server = DecodeServer({"mn": GatedCold()}, ServeConfig())
            zeros = {key: np.zeros(key.m, dtype=np.int64) for key in (KEY_A, KEY_B)}
            try:
                await asyncio.wait_for(server.coalescer.submit(_request(KEY_A, zeros[KEY_A], 1, "warm-0")), 5)
                cold = server.coalescer.submit(_request(KEY_B, zeros[KEY_B], 1, "cold"))
                while not started.is_set():  # KEY_B's compile now holds the admission thread
                    await asyncio.sleep(0.001)
                warm = await asyncio.wait_for(server.coalescer.submit(_request(KEY_A, zeros[KEY_A], 1, "warm-1")), 5)
                assert warm.tolist() == []
                assert not cold.done()
            finally:
                gate.set()
            assert (await asyncio.wait_for(cold, 5)).tolist() == []
            await server.drain()

        asyncio.run(run())

    def test_churn_across_both_threads_stays_bit_identical(self, tmp_path):
        """Attach/compile on one thread, decodes on the other, over one design store.

        A two-entry pool over three keys and two decoders keeps admission
        busy while decodes run: every readmission after an eviction
        attaches (and verifies) the stored design while the decode thread
        serves the entries still pooled.
        """
        import sys

        from repro.designs import DesignStore, make_decoder

        keys = [DesignKey.for_stream(90 + 10 * i, 30, root_seed=40 + i) for i in range(3)]
        names = ("mn", "comp")
        cases = []
        for i in range(48):
            key, name = keys[i % 3], names[(i // 3) % 2]
            compiled = compile_from_key(key)
            y = compiled.query_results(random_signal(key.n, 3, np.random.default_rng(200 + i)))
            cases.append((key, name, y, np.flatnonzero(make_decoder(name).compile(compiled).decode(y, 3)).tolist()))

        async def run():
            server = DecodeServer(
                {name: make_decoder(name) for name in names}, ServeConfig(max_designs=2), store=DesignStore(tmp_path)
            )
            submits = [server.coalescer.submit(_request(key, y, 3, f"r{i}", decoder=name)) for i, (key, name, y, _) in enumerate(cases)]
            supports = await asyncio.wait_for(asyncio.gather(*submits), 60)
            await server.drain()
            return supports, server.pool.evictions

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            supports, evictions = asyncio.run(run())
        finally:
            sys.setswitchinterval(previous)
        assert [s.tolist() for s in supports] == [expected for *_, expected in cases]
        assert evictions > 0  # the pool really churned

    def test_drain_leaves_no_serve_thread_alive(self, monkeypatch):
        from repro.serve import server as server_mod

        servers = []

        class Recording(server_mod.DecodeServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                servers.append(self)

        monkeypatch.setattr(server_mod, "DecodeServer", Recording)
        before = set(threading.enumerate())

        def serve_threads():
            return sorted(t.name for t in threading.enumerate() if t not in before and t.name.startswith("repro-serve-"))

        async def run():
            ready = asyncio.get_running_loop().create_future()
            task = asyncio.ensure_future(server_mod.serve_forever({"mn": MNDecoder()}, ServeConfig(), ready=ready, install_signal_handlers=False))
            host, port = await asyncio.wait_for(ready, 5)
            y, offline = make_case(KEY_B, 4, seed=7)
            async with await ServeClient.connect(host, port) as client:
                response = await client.decode(KEY_B, y, 4)
            assert response["ok"] and response["support"] == offline
            assert [name.rsplit("_", 1)[0] for name in serve_threads()] == ["repro-serve-admit", "repro-serve-decode"]
            servers[0].request_stop()
            await asyncio.wait_for(task, 10)

        asyncio.run(run())
        assert serve_threads() == []
