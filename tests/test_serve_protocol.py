"""Wire-protocol tests: request/response round-trips and malformed payloads.

Every malformed line must map to a structured :class:`ProtocolError`
carrying the offending ``request_id`` whenever one could be extracted —
the contract that lets the server answer garbage with an error response
instead of dying or dropping the connection.
"""

import json

import numpy as np
import pytest

from repro.core.design import PoolingDesign
from repro.designs import DesignKey
from repro.serve import (
    ERROR_CODES,
    ProtocolError,
    encode_error,
    encode_success,
    parse_request,
    parse_response,
)

KEY = DesignKey.for_stream(32, 8, root_seed=7)
CONTENT_KEY = DesignKey.for_content(PoolingDesign.from_pools(16, [[0, 1], [2, 3, 3], [4], [5, 6, 7], [8], [9, 15]]))


def make_line(**overrides):
    payload = {
        "request_id": "r1",
        "design_key": json.loads(KEY.to_json()),
        "y": [0] * KEY.m,
        "k": 3,
    }
    payload.update(overrides)
    for field, value in list(payload.items()):
        if value is _ABSENT:
            del payload[field]
    return json.dumps(payload)


_ABSENT = object()


class TestParseRequest:
    def test_round_trip(self):
        y = list(range(KEY.m))
        req = parse_request(make_line(y=y, k=5))
        assert req.request_id == "r1"
        assert req.key == KEY
        assert req.k == 5
        assert req.y.dtype == np.int64
        assert req.y.tolist() == y
        assert not req.y.flags.writeable  # frozen: shared with the batch stack

    def test_accepts_bytes_and_canonical_string_key(self):
        line = make_line(design_key=KEY.to_json())
        req = parse_request(line.encode("utf-8"))
        assert req.key == KEY

    def test_accepts_integer_request_id(self):
        assert parse_request(make_line(request_id=42)).request_id == 42

    @pytest.mark.parametrize(
        "line, code",
        [
            ("this is not json", "bad_request"),
            ("[1, 2, 3]", "bad_request"),
            ('"just a string"', "bad_request"),
            (b"\xff\xfe not utf-8", "bad_request"),
        ],
    )
    def test_unparseable_lines(self, line, code):
        with pytest.raises(ProtocolError) as err:
            parse_request(line)
        assert err.value.code == code
        assert err.value.request_id is None  # no id could be extracted

    @pytest.mark.parametrize("bad_id", [None, 1.5, True, {"a": 1}, _ABSENT])
    def test_bad_request_id(self, bad_id):
        with pytest.raises(ProtocolError) as err:
            parse_request(make_line(request_id=bad_id))
        assert err.value.code == "bad_request"

    @pytest.mark.parametrize("field", ["design_key", "y", "k"])
    def test_missing_field_names_field_and_keeps_id(self, field):
        with pytest.raises(ProtocolError) as err:
            parse_request(make_line(**{field: _ABSENT}))
        assert err.value.code == "bad_request"
        assert field in err.value.message
        assert err.value.request_id == "r1"

    @pytest.mark.parametrize(
        "bad_key",
        [
            {"nope": 1},
            "not canonical json",
            {"scheme": "martian", "m": 4, "n": 16},
            17,
        ],
    )
    def test_bad_design_key(self, bad_key):
        with pytest.raises(ProtocolError) as err:
            parse_request(make_line(design_key=bad_key))
        assert err.value.code == "bad_key"
        assert err.value.request_id == "r1"

    @pytest.mark.parametrize(
        "bad_y, fragment",
        [
            ([0] * (KEY.m - 1), f"m={KEY.m}"),
            ([0] * (KEY.m + 3), f"m={KEY.m}"),
            ([0.5] * KEY.m, "integers"),
            ([True] * KEY.m, "integers"),
            ("not a list", "list"),
            ([0] * (KEY.m - 1) + [2**70], "int64"),
            ([0] * (KEY.m - 1) + [2**63], "int64"),
            ([0] * (KEY.m - 1) + [-(2**63) - 1], "int64"),
            ([0] * (KEY.m - 1) + [-1], "non-negative"),
        ],
    )
    def test_bad_y(self, bad_y, fragment):
        with pytest.raises(ProtocolError) as err:
            parse_request(make_line(y=bad_y))
        assert err.value.code == "bad_y"
        assert fragment in err.value.message
        assert err.value.request_id == "r1"

    def test_y_at_the_pool_size_parses(self):
        y = [0] * (KEY.m - 1) + [KEY.gamma]
        assert parse_request(make_line(y=y)).y.tolist() == y

    @pytest.mark.parametrize("big", [KEY.gamma + 1, 2**62, 2**63 - 1])
    @pytest.mark.parametrize("scheme", ["stream", "sampled"])
    def test_y_above_the_pool_size_is_bad_y(self, big, scheme):
        key = KEY if scheme == "stream" else DesignKey.for_sampled(KEY.n, KEY.m, root_seed=7, tag=1, index=0)
        line = make_line(design_key=json.loads(key.to_json()), y=[big] * key.m)
        with pytest.raises(ProtocolError) as err:
            parse_request(line)
        assert err.value.code == "bad_y"
        assert f"Γ={key.gamma}" in err.value.message
        assert err.value.request_id == "r1"

    def test_content_key_y_summing_to_the_int64_bound_parses(self):
        y = [0] * (CONTENT_KEY.m - 2) + [2**62, 2**62 - 1]
        line = make_line(design_key=json.loads(CONTENT_KEY.to_json()), y=y)
        assert parse_request(line).y.tolist() == y

    @pytest.mark.parametrize("y", [[2**62] * 2, [2**63 - 1, 1], [2**61] * 5])
    def test_content_key_y_summing_past_int64_is_bad_y(self, y):
        line = make_line(design_key=json.loads(CONTENT_KEY.to_json()), y=[0] * (CONTENT_KEY.m - len(y)) + y)
        with pytest.raises(ProtocolError) as err:
            parse_request(line)
        assert err.value.code == "bad_y"
        assert "overflow" in err.value.message

    @pytest.mark.parametrize("bad_k", [0, -1, KEY.n + 1, 1.5, True, "3"])
    def test_bad_k(self, bad_k):
        with pytest.raises(ProtocolError) as err:
            parse_request(make_line(k=bad_k))
        assert err.value.code == "bad_k"
        assert err.value.request_id == "r1"


class TestDecoderField:
    """The optional ``decoder`` request field (registry-validated)."""

    def test_absent_resolves_to_default(self):
        assert parse_request(make_line()).decoder == "mn"
        assert parse_request(make_line(), default_decoder="omp").decoder == "omp"

    def test_present_overrides_default(self):
        req = parse_request(make_line(decoder="comp"), default_decoder="omp")
        assert req.decoder == "comp"

    def test_every_registered_name_parses(self):
        from repro.designs import available_decoders

        for name in available_decoders():
            assert parse_request(make_line(decoder=name)).decoder == name

    def test_unknown_decoder_lists_menu(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(make_line(decoder="martian"))
        assert err.value.code == "bad_request"
        assert "martian" in err.value.message
        assert "mn" in err.value.message  # the menu of registered names
        assert err.value.request_id == "r1"

    @pytest.mark.parametrize("bad", [3, True, None, ["omp"], {"name": "omp"}])
    def test_non_string_decoder(self, bad):
        with pytest.raises(ProtocolError) as err:
            parse_request(make_line(decoder=bad))
        assert err.value.code == "bad_request"
        assert err.value.request_id == "r1"


class TestResponses:
    def test_success_round_trip(self):
        line = encode_success("r9", np.array([2, 5, 11]), n=KEY.n, k=3)
        resp = parse_response(line)
        assert resp == {"request_id": "r9", "ok": True, "n": KEY.n, "k": 3, "support": [2, 5, 11]}

    def test_success_echoes_decoder_when_given(self):
        line = encode_success("r9", np.array([2]), n=KEY.n, k=1, decoder="omp")
        assert parse_response(line)["decoder"] == "omp"
        assert "decoder" not in parse_response(encode_success("r9", np.array([2]), n=KEY.n, k=1))

    def test_error_round_trip_with_null_id(self):
        line = encode_error(None, "bad_request", "not json")
        resp = parse_response(line.encode("utf-8"))
        assert resp["request_id"] is None
        assert resp["ok"] is False
        assert resp["error"]["code"] == "bad_request"

    def test_every_error_code_encodes(self):
        for code in ERROR_CODES:
            resp = parse_response(encode_error("x", code, "msg"))
            assert resp["error"]["code"] == code

    def test_encode_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            encode_error("x", "made_up_code", "msg")

    def test_protocol_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            ProtocolError("made_up_code", "msg")

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"ok": true}',  # no request_id
            '{"request_id": 1, "ok": true}',  # success without support
            '{"request_id": 1, "ok": false}',  # error without structure
            '{"request_id": 1, "ok": false, "error": {"code": "martian"}}',
        ],
    )
    def test_parse_response_rejects_malformed(self, line):
        with pytest.raises(ValueError):
            parse_response(line)
