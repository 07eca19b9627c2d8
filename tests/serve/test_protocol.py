"""Wire-protocol unit tests: decode validation, deterministic encode,
and the request table's one param checker."""

import math

import pytest

from repro.serve import protocol
from repro.serve.errors import EcoError, ProtocolError
from repro.serve.protocol import (
    DERIVED,
    ECO_PARAMS,
    OPS,
    REQUIRED,
    Event,
    Request,
    Response,
    check_params,
    decode_reply,
    decode_request,
    encode,
)

MOVE = {"kind": "move", "cell": "c1", "x": 4, "y": 2.5}


class TestDecodeRequest:
    def test_roundtrip(self):
        request = Request(
            id="7",
            op="eco",
            session="chipA",
            params={"kind": "move", "cell": "c1", "x": 4.0, "y": 2.0},
        )
        decoded = decode_request(encode(request))
        assert decoded == request

    def test_encode_is_deterministic(self):
        a = encode(Request(id="1", op="ping", params={"b": 1, "a": 2}))
        b = encode(Request(id="1", op="ping", params={"a": 2, "b": 1}))
        assert a == b
        assert a.endswith(b"\n")

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b"[1, 2]",
            b'{"op": "ping"}',  # missing id
            b'{"id": "", "op": "ping"}',  # empty id
            b'{"id": "1"}',  # missing op
            b'{"id": "1", "op": "frobnicate"}',  # unknown op
            b'{"id": "1", "op": "eco"}',  # session op without session
            b'{"id": "1", "op": "ping", "params": 3}',
            b'{"id": "1", "op": "ping", "session": 9}',
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_every_session_op_requires_session(self):
        for op in protocol.SESSION_OPS:
            with pytest.raises(ProtocolError):
                decode_request(f'{{"id": "1", "op": "{op}"}}'.encode())

    def test_non_session_ops_decode_bare(self):
        for op in ("ping", "sessions", "shutdown"):
            request = decode_request(f'{{"id": "1", "op": "{op}"}}')
            assert request.op == op
            assert request.session is None

    @pytest.mark.parametrize(
        "name",
        ["..", "../escaped", "a/b", "/tmp/abs", ".x", "a\x00b", "x" * 65,
         "chip A"],
    )
    def test_session_names_that_are_paths_are_refused(self, name):
        line = encode(Request(id="1", op="generate", session=name))
        with pytest.raises(ProtocolError):
            decode_request(line)

    @pytest.mark.parametrize("name", ["chipA", "t", "s0", "chip-1.v2_x", "x" * 64])
    def test_safe_session_names_decode(self, name):
        line = encode(Request(id="1", op="generate", session=name))
        assert decode_request(line).session == name

    @pytest.mark.parametrize(
        "line",
        [
            b'{"id":"1","op":"ping","params":' + b"[" * 60_000,
            b'{"id":"1","op":"ping","n":' + b"1" * 5_000 + b"}",
        ],
        ids=["nested-past-recursion-limit", "integer-past-digit-limit"],
    )
    def test_json_the_parser_cannot_take_is_a_protocol_error(self, line):
        with pytest.raises(ProtocolError, match="not JSON"):
            decode_request(line)


class TestDecodeReply:
    def test_ok_response(self):
        reply = decode_reply(
            encode(Response(id="3", ok=True, result={"seq": 1}))
        )
        assert isinstance(reply, Response)
        assert reply.ok and reply.result == {"seq": 1}

    def test_error_response(self):
        reply = decode_reply(
            encode(
                Response(
                    id="3",
                    ok=False,
                    error_code="busy",
                    error_message="queue full",
                )
            )
        )
        assert isinstance(reply, Response)
        assert not reply.ok
        assert reply.error_code == "busy"

    def test_event(self):
        reply = decode_reply(
            encode(Event(id="3", kind="progress", data={"done": 2}))
        )
        assert isinstance(reply, Event)
        assert reply.kind == "progress"
        assert reply.data == {"done": 2}

    def test_garbage_raises(self):
        with pytest.raises(ProtocolError):
            decode_reply(b'{"id": "1"}')


class TestTypedParams:
    """The cases of the per-key extractors the table replaced, now
    inputs to :func:`check_params`."""

    def test_required_and_defaults(self):
        assert check_params("eco", MOVE) == {
            "kind": "move", "fault_at": None, "cell": "c1", "x": 4.0, "y": 2.5,
        }
        x = check_params("eco", MOVE)["x"]
        assert isinstance(x, float)  # an int is accepted as a number
        assert check_params("legalize", {}) == {
            "reset": False, "workers": 1, "shards": None, "quarantine": False,
        }
        assert check_params("legalize", {"shards": None})["shards"] is None
        # A default that depends on the design is left to the handler.
        assert "seed" not in check_params("generate", {})
        resize = {"kind": "resize", "cell": "c1", "width": 2}
        assert "height" not in check_params("eco", resize)
        assert check_params("generate", {"seed": 9})["seed"] == 9

    def test_bool_is_not_an_int(self):
        with pytest.raises(ProtocolError, match="must be an integer"):
            check_params("legalize", {"workers": True})
        with pytest.raises(ProtocolError, match="must be a number"):
            check_params("eco", {**MOVE, "x": False})

    def test_missing_required_raises(self):
        with pytest.raises(ProtocolError, match="missing required string"):
            check_params("eco", {"kind": "move", "x": 1, "y": 1})
        with pytest.raises(ProtocolError, match="missing required integer"):
            check_params("eco", {"kind": "resize", "cell": "c1"})
        with pytest.raises(ProtocolError, match="missing required string"):
            check_params("eco", {})

    def test_wrong_types_raise(self):
        with pytest.raises(ProtocolError, match="must be a string"):
            check_params("eco", {**MOVE, "cell": 3})
        with pytest.raises(ProtocolError, match="must be a boolean"):
            check_params("legalize", {"reset": 1})
        with pytest.raises(ProtocolError, match="must be an integer"):
            check_params("legalize", {"shards": "x"})
        with pytest.raises(ProtocolError, match="must be a boolean"):
            check_params("close", {"snapshot": None})  # null is not False

    def test_bounds_accept_in_range_values(self):
        assert check_params("legalize", {"workers": 1})["workers"] == 1
        assert check_params("legalize", {"workers": 64})["workers"] == 64
        assert check_params("generate", {"density": 0.5})["density"] == 0.5
        assert check_params("legalize", {"shards": 256})["shards"] == 256

    def test_bounds_reject_out_of_range_values(self):
        with pytest.raises(ProtocolError, match="must be >= 1"):
            check_params("legalize", {"workers": 0})
        with pytest.raises(ProtocolError, match="must be <= 64"):
            check_params("legalize", {"workers": 65})
        with pytest.raises(ProtocolError, match="must be >= 0.01"):
            check_params("generate", {"density": 0.001})
        with pytest.raises(ProtocolError, match="must be <= 0.95"):
            check_params("generate", {"density": 0.96})
        with pytest.raises(ProtocolError, match="must be >= 1"):
            check_params("legalize", {"shards": 0})

    def test_bounds_apply_to_defaulted_and_nan_values(self):
        # A default inside the range passes; the wire value is what
        # gets range-checked, not the default.
        assert check_params("generate", {})["cells"] == 400
        with pytest.raises(ProtocolError, match="must be finite"):
            check_params("generate", {"density": float("nan")})
        with pytest.raises(ProtocolError, match="must be finite"):
            check_params("eco", {**MOVE, "x": float("inf")})
        with pytest.raises(ProtocolError, match="must be finite"):
            check_params("eco", {**MOVE, "y": 10**400})

    def test_unknown_keys_raise(self):
        with pytest.raises(ProtocolError, match="unknown param 'pad'"):
            check_params("ping", {"pad": "x"})
        with pytest.raises(ProtocolError, match="unknown param 'width'"):
            check_params("eco", {**MOVE, "width": 2})
        # `open` takes no generator params.
        with pytest.raises(ProtocolError, match="unknown param 'cells'"):
            check_params("open", {"aux": "d.aux", "cells": 10})

    def test_unknown_eco_kind_is_an_eco_error(self):
        with pytest.raises(EcoError, match="unknown eco kind 'teleport'"):
            check_params("eco", {"kind": "teleport"})


class TestTable:
    def test_derived_names_are_views_of_the_table(self):
        assert protocol.KNOWN_OPS == (
            "ping", "sessions", "open", "generate", "legalize", "eco",
            "digest", "stats", "snapshot", "close", "shutdown",
        )
        assert protocol.SESSION_OPS == {
            "open", "generate", "legalize", "eco", "digest", "stats",
            "snapshot", "close",
        }
        assert protocol.ECO_KINDS == (
            "move", "resize", "swap", "buffer", "improve", "swap_pass",
        )

    def test_every_numeric_param_has_finite_bounds(self):
        specs = [OPS[op].params for op in OPS] + list(ECO_PARAMS.values())
        for spec in specs:
            for key, param in spec.items():
                assert param.value_type in (str, int, float, bool), key
                if param.value_type in (int, float):
                    assert param.minimum is not None, key
                    assert param.maximum is not None, key
                    assert math.isfinite(param.minimum), key
                    assert math.isfinite(param.maximum), key
                    assert param.minimum <= param.maximum, key
                    if param.default not in (REQUIRED, DERIVED, None):
                        assert (
                            param.minimum <= param.default <= param.maximum
                        ), key
                else:
                    assert param.minimum is None and param.maximum is None
