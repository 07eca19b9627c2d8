"""Protocol fuzz of the shard wire: both decoders and result settling.

A coordinator reads worker lines with :func:`decode_message` and result
payloads with :func:`unpack_payload`; on any input each must return or
raise :class:`RemoteProtocolError`, which drops the peer and requeues
its leases.  A ``result`` whose shard disagrees with its lease or its
payload must never settle a shard with another shard's outcome.
"""

import base64
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.legalizer import LegalizationResult
from repro.engine import EngineConfig, RemoteProtocolError, ShardOutcome
from repro.engine.remote import _on_result
from repro.engine.supervisor import ShardQueue
from repro.engine.wire import decode_message, pack_payload, unpack_payload
from tests.engine.test_shard_queue import task

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

ENGINE = EngineConfig(lease_ttl_s=10.0, heartbeat_interval_s=1.0)

#: A nesting depth past the interpreter's recursion limit.
DEEP = 60_000


def outcome(shard_id):
    return ShardOutcome(
        shard_id=shard_id, placements=(), unplaced_cell_ids=(),
        stats=LegalizationResult(),
    )


def two_remote_leases():
    """A queue of shards 0 and 1, both leased to TCP peer 7."""
    queue = ShardQueue([task(0), task(1)], ENGINE)
    leases = [queue.lease(0.0, "remote", holder=7) for _ in range(2)]
    assert [lease.key for lease in leases] == ["s0a1", "s1a1"]
    return queue


def result(lease, shard, payload_shard=None, status="ok"):
    message = {"op": "result", "lease": lease, "shard": shard,
               "status": status}
    if status == "ok":
        message["payload"] = pack_payload(outcome(payload_shard))
    else:
        message["detail"] = "boom"
    return message


def settled(queue):
    return {o.shard_id: o for o in queue.outcomes()}


# ----------------------------------------------------------------------
# Decoders
# ----------------------------------------------------------------------
json_lines = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
).map(lambda value: json.dumps(value).encode())


@SETTINGS
@given(line=st.binary(max_size=256) | json_lines)
@example(line=b'{"op":"hello","x":' + b"[" * DEEP)
@example(line=b'{"op":"hello","n":' + b"1" * 5_000 + b"}")
@example(line=b"\xff\xfe")
def test_decode_message_returns_or_raises_protocol_error(line):
    try:
        message = decode_message(line)
    except RemoteProtocolError:
        return
    assert isinstance(message, dict)
    assert isinstance(message["op"], str) and message["op"]


def test_decode_message_refuses_nesting_past_the_recursion_limit():
    with pytest.raises(RemoteProtocolError, match="not NDJSON"):
        decode_message(b'{"op":"result","shard":' + b"[" * DEEP + b"\n")


@SETTINGS
@given(
    text=st.text(max_size=64)
    | st.binary(max_size=64).map(lambda b: base64.b64encode(b).decode())
)
@example(text="é")
@example(text=base64.b64encode(b"\x80\x05").decode())
def test_unpack_payload_returns_or_raises_protocol_error(text):
    try:
        unpack_payload(text)
    except RemoteProtocolError:
        pass


# ----------------------------------------------------------------------
# Result settling
# ----------------------------------------------------------------------
class TestMislabelledResult:
    def test_result_labelled_with_another_shard_settles_nothing(self):
        """Lease ``s0a1`` labelled ``shard: 1`` and carrying shard 0's
        outcome must not settle shard 1; both leases stay live until
        the peer is dropped, and shard 1's real result then settles."""
        queue = two_remote_leases()
        with pytest.raises(RemoteProtocolError):
            _on_result(result("s0a1", 1, payload_shard=0), queue)
        assert settled(queue) == {}
        assert queue.report.duplicate_results == 0
        queue.drop_holder(7, 1.0)
        assert queue.report.crashes == 2  # both leases requeue
        for _ in range(2):
            lease = queue.lease(100.0, "remote", holder=8)
            sid = lease.task.shard_id
            _on_result(result(lease.key, sid, payload_shard=sid), queue)
        assert sorted(settled(queue)) == [0, 1]
        assert queue.report.duplicate_results == 0

    def test_payload_of_another_shard_settles_nothing(self):
        queue = two_remote_leases()
        with pytest.raises(RemoteProtocolError):
            _on_result(result("s1a1", 1, payload_shard=0), queue)
        assert settled(queue) == {}

    def test_error_result_on_another_shards_lease_is_refused(self):
        queue = two_remote_leases()
        with pytest.raises(RemoteProtocolError):
            _on_result(result("s0a1", 1, status="error"), queue)
        assert queue.report.errors == 0


@SETTINGS
@given(
    lease_shard=st.sampled_from([0, 1]),
    attempt=st.sampled_from([1, 2]),
    shard=st.integers(-1, 2),
    payload_shard=st.integers(-1, 2),
    status=st.sampled_from(["ok", "error"]),
    junk_lease=st.sampled_from([None, "", "s0", "x1a1", "s01a1", "s0a1a1"]),
)
def test_results_never_settle_a_shard_with_another_shards_outcome(
    lease_shard, attempt, shard, payload_shard, status, junk_lease
):
    queue = two_remote_leases()
    key = junk_lease if junk_lease is not None else f"s{lease_shard}a{attempt}"
    message = result(key, shard, payload_shard, status)
    try:
        _on_result(message, queue)
    except RemoteProtocolError:
        assert settled(queue) == {}
        return
    # Accepted: the label agreed with the lease, and with the payload.
    assert key == f"s{shard}a{attempt}"
    for sid, out in settled(queue).items():
        assert out.shard_id == sid
