"""End-to-end serve tests: real subprocess, real sockets, real signals.

Boots ``python -m repro.cli serve`` the way a supervisor would and drives
it with the bundled :class:`ServeClient`: ≥32 concurrent requests across
two design keys, every response checked bit-identical against the offline
``mn_reconstruct`` on the same ``(design_key, y, k)``, then a SIGTERM
drain that must exit 0.  The CI ``serve-smoke`` step runs this file.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.core.mn import mn_reconstruct
from repro.core.signal import random_signal
from repro.designs import DesignKey, compile_from_key
from repro.serve import ServeClient

KEY_A = DesignKey.for_stream(150, 40, root_seed=21)
KEY_B = DesignKey.for_stream(200, 50, root_seed=22)


def make_cases(key, k, count, seed0):
    compiled = compile_from_key(key)
    cases = []
    for i in range(count):
        sigma = random_signal(key.n, k, np.random.default_rng(seed0 + i))
        y = compiled.query_results(sigma)
        offline = np.flatnonzero(mn_reconstruct(compiled.design, y, k)).tolist()
        cases.append((key, y, k, offline))
    return cases


def spawn_server(*extra_args):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *extra_args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


def read_banner(proc):
    """Parse ``serving on host:port`` from the server's first stdout line."""
    banner = proc.stdout.readline().strip()
    assert banner.startswith("serving on "), banner
    host, port = banner.rsplit(" ", 1)[1].rsplit(":", 1)
    return host, int(port)


def finish(proc, expect_code=0, timeout=20):
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:  # pragma: no cover - diagnostic path
        proc.kill()
        pytest.fail(f"server did not exit within {timeout}s; stderr: {proc.stderr.read()}")
    stderr = proc.stderr.read()
    assert code == expect_code, f"exit code {code}, stderr: {stderr}"
    return stderr


def concurrent_load_then_drain(*serve_args, clients=4):
    """≥32 concurrent requests over two keys, bit-identity checked, then a SIGTERM drain."""
    proc = spawn_server("--port", "0", *serve_args)
    try:
        host, port = read_banner(proc)
        cases = make_cases(KEY_A, 5, 16, seed0=1000) + make_cases(KEY_B, 7, 16, seed0=2000)
        assert len(cases) >= 32

        async def drive():
            conns = [await ServeClient.connect(host, port) for _ in range(clients)]
            try:
                responses = await asyncio.gather(
                    *[conns[i % len(conns)].decode(key, y, k, request_id=i) for i, (key, y, k, _) in enumerate(cases)]
                )
            finally:
                for conn in conns:
                    await conn.close()
            return responses

        responses = asyncio.run(drive())
        for i, (response, (_, _, _, offline)) in enumerate(zip(responses, cases)):
            assert response["ok"], response
            assert response["request_id"] == i
            assert response["support"] == offline  # bit-identical to offline reconstruct

        proc.send_signal(signal.SIGTERM)
        stderr = finish(proc, expect_code=0)
        assert "drained:" in stderr
        assert f"{len(cases)} requests" in stderr
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on assertion failure
            proc.kill()
            proc.wait()


class TestTcpEndToEnd:
    def test_concurrent_load_bit_identity_then_sigterm_drain(self):
        # A small cap: a burst at one key splits into several lane-formed batches.
        concurrent_load_then_drain("--max-batch", "4")

    def test_concurrent_load_at_default_settings(self):
        """No tuning flag: the ServeConfig defaults."""
        concurrent_load_then_drain(clients=8)

    def test_malformed_lines_answered_without_crash(self):
        proc = spawn_server("--port", "0")
        try:
            host, port = read_banner(proc)

            async def drive():
                async with await ServeClient.connect(host, port) as client:
                    await client.send_raw("not json at all")
                    unparseable = await client.next_unmatched()
                    bad_key = await client.request({"design_key": {"nope": 1}, "y": [0], "k": 1}, request_id="bk")
                    (key, y, k, offline) = make_cases(KEY_A, 4, 1, seed0=3000)[0]
                    good = await client.decode(key, y, k, request_id="ok")
                    return unparseable, bad_key, good, offline

            unparseable, bad_key, good, offline = asyncio.run(drive())
            assert unparseable["request_id"] is None
            assert unparseable["error"]["code"] == "bad_request"
            assert (bad_key["request_id"], bad_key["error"]["code"]) == ("bk", "bad_key")
            assert good["ok"] and good["support"] == offline  # server survived the garbage
            proc.send_signal(signal.SIGTERM)
            finish(proc, expect_code=0)
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait()


class TestMultiDecoderEndToEnd:
    def test_one_process_serves_mn_omp_and_comp(self):
        """The ``decoder`` request field selects the family, per request."""
        from repro.designs import make_decoder

        proc = spawn_server("--port", "0")
        try:
            host, port = read_banner(proc)
            compiled = compile_from_key(KEY_A)
            sigma = random_signal(KEY_A.n, 4, np.random.default_rng(5000))
            y = compiled.query_results(sigma)
            offline = {
                name: np.flatnonzero(make_decoder(name).compile(compiled).decode(y, 4)).tolist()
                for name in ("mn", "omp", "comp")
            }

            async def drive():
                async with await ServeClient.connect(host, port) as client:
                    named = await asyncio.gather(
                        *[client.decode(KEY_A, y, 4, decoder=name, request_id=name) for name in offline]
                    )
                    default = await client.decode(KEY_A, y, 4, request_id="default")
                    bad = await client.decode(KEY_A, y, 4, decoder="martian", request_id="bad")
                    return named, default, bad

            named, default, bad = asyncio.run(drive())
            for response, (name, expected) in zip(named, offline.items()):
                assert response["ok"], response
                assert response["decoder"] == name  # the response echoes the family
                assert response["support"] == expected  # identical to the offline decode
            # An absent field serves the configured default (mn) — and says so.
            assert default["ok"] and default["decoder"] == "mn"
            assert default["support"] == offline["mn"]
            assert not bad["ok"]
            assert bad["error"]["code"] == "bad_request"
            assert "martian" in bad["error"]["message"]

            proc.send_signal(signal.SIGTERM)
            finish(proc, expect_code=0)
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait()

    def test_decoder_flag_sets_the_default(self):
        proc = spawn_server("--port", "0", "--decoder", "comp")
        try:
            host, port = read_banner(proc)
            compiled = compile_from_key(KEY_A)
            sigma = random_signal(KEY_A.n, 3, np.random.default_rng(6000))
            y = compiled.query_results(sigma)

            async def drive():
                async with await ServeClient.connect(host, port) as client:
                    return await client.decode(KEY_A, y, 3, request_id="envd")

            response = asyncio.run(drive())
            assert response["ok"] and response["decoder"] == "comp"
            proc.send_signal(signal.SIGTERM)
            finish(proc, expect_code=0)
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait()


class TestStdioEndToEnd:
    def test_request_response_then_eof_drain(self):
        proc = spawn_server("--stdio")
        try:
            (key, y, k, offline) = make_cases(KEY_B, 6, 1, seed0=4000)[0]
            request = {"request_id": "s1", "design_key": json.loads(key.to_json()), "y": y.tolist(), "k": k}
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            response = json.loads(proc.stdout.readline())
            assert response["ok"] and response["request_id"] == "s1"
            assert response["support"] == offline
            proc.stdin.close()  # EOF is the pipe-world SIGTERM
            stderr = finish(proc, expect_code=0)
            assert "drained:" in stderr
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait()


class TestCliValidation:
    def test_invalid_knob_exits_2(self):
        proc = spawn_server("--stdio", "--max-batch", "0")
        stdout, stderr = proc.communicate(timeout=20)
        assert proc.returncode == 2, (stdout, stderr)
        assert "max_batch" in stderr
