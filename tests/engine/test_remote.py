"""TCP transport chaos suite: leases, dedupe, recovery, byte-identity.

The contract under test is the distributed twin of the supervisor's:
*any* schedule of worker deaths, reconnects, stalls, and duplicate
deliveries yields a final placement byte-identical to a fault-free
serial run — remote execution decides only where a shard runs, never
what it computes.  Faults are injected with
:mod:`repro.testing.netfaults`; workers run as real child processes
speaking the real NDJSON wire over localhost.
"""

import threading

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.checker import verify_placement
from repro.core import LegalizerConfig
from repro.engine import (
    EngineConfig,
    RemoteProtocolError,
    TcpTransport,
    TransportError,
    WorkerConfig,
    legalize_sharded,
    spawn_worker_process,
)
from repro.engine.remote import _connect, lease_id
from repro.engine.wire import (
    decode_message,
    encode_message,
    message_float,
    message_int,
    message_str,
    pack_payload,
    unpack_payload,
)
from repro.testing import NetFaultSpec, design_state_digest, netfault_from_env

GEN = GeneratorConfig(num_cells=700, target_density=0.5, seed=9)
CFG = LegalizerConfig(seed=1)


def fresh_design():
    return generate_design(GEN)


def remote_engine(**overrides):
    base = dict(
        workers=2, shards=2, serial_threshold=0,
        transport="tcp", bind_host="127.0.0.1", bind_port=0,
        lease_ttl_s=0.5, heartbeat_interval_s=0.1,
        worker_wait_s=20.0, drain_grace_s=2.0,
        backoff_base_s=0.01, backoff_max_s=0.05,
    )
    base.update(overrides)
    return EngineConfig(**base)


def worker_cfg(transport, name, fault=None):
    return WorkerConfig(
        host=transport.host,
        port=transport.port,
        name=name,
        connect_retries=5,
        connect_backoff_s=0.05,
        netfault=fault,
    )


def run_remote(engine, faults, design):
    """Coordinate *design* over TCP with one worker per fault entry."""
    transport = TcpTransport(engine)
    procs = [
        spawn_worker_process(worker_cfg(transport, f"w{i}", fault))
        for i, fault in enumerate(faults)
    ]
    try:
        result = legalize_sharded(design, CFG, engine, transport=transport)
    finally:
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
    return result


@pytest.fixture(scope="module")
def reference():
    """Coordinates and digest of a fault-free serial (workers=1) run."""
    design = fresh_design()
    legalize_sharded(
        design, CFG,
        EngineConfig(workers=1, shards=2, serial_threshold=0),
    )
    coords = [(c.name, c.x, c.y) for c in design.cells]
    return coords, design_state_digest(design)


def assert_identical(design, reference):
    ref_coords, ref_digest = reference
    assert verify_placement(design) == []
    assert [(c.name, c.x, c.y) for c in design.cells] == ref_coords
    assert design_state_digest(design) == ref_digest


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_message_roundtrip(self):
        message = {"op": "steal", "n": 3, "f": 0.5, "s": "x"}
        assert decode_message(encode_message(message)) == message

    def test_decode_rejects_malformed_lines(self):
        with pytest.raises(RemoteProtocolError, match="not NDJSON"):
            decode_message(b"\xff\xfe not json\n")
        with pytest.raises(RemoteProtocolError, match="JSON object"):
            decode_message(b"[1,2,3]\n")
        with pytest.raises(RemoteProtocolError, match="op"):
            decode_message(b'{"shard": 1}\n')

    def test_payload_roundtrip(self):
        spec = NetFaultSpec(shard_id=3, mode="stall", sleep_s=0.25)
        assert unpack_payload(pack_payload(spec)) == spec

    def test_unpack_rejects_garbage(self):
        with pytest.raises(RemoteProtocolError, match="base64"):
            unpack_payload("!!! not base64 !!!")
        import base64

        with pytest.raises(RemoteProtocolError, match="unpickle"):
            unpack_payload(base64.b64encode(b"not a pickle").decode())

    def test_typed_field_access(self):
        message = {"op": "task", "shard": 1, "delay": 0.5, "flag": True}
        assert message_str(message, "op") == "task"
        assert message_int(message, "shard") == 1
        assert message_float(message, "delay") == 0.5
        assert message_float(message, "shard") == 1.0
        with pytest.raises(RemoteProtocolError):
            message_str(message, "shard")
        with pytest.raises(RemoteProtocolError):
            message_int(message, "flag")  # bool is not an int here
        with pytest.raises(RemoteProtocolError):
            message_int(message, "missing")

    def test_lease_id_roundtrip(self):
        from repro.engine.remote import _lease_attempt

        assert lease_id(3, 2) == "s3a2"
        assert _lease_attempt(lease_id(3, 2)) == 2
        assert _lease_attempt("garbage") == 0


# ----------------------------------------------------------------------
# Dial cleanup
# ----------------------------------------------------------------------
class TestConnectCleanup:
    def test_setup_failure_closes_the_dialed_socket(self, monkeypatch):
        """A post-dial setup failure in the worker's ``_connect`` must
        close the socket rather than leak it (dial errors retry; setup
        errors propagate)."""
        import socket as socket_module

        import repro.engine.remote as remote_module

        dialed = []
        real_create = socket_module.create_connection

        def recording_create(*args, **kwargs):
            sock = real_create(*args, **kwargs)
            dialed.append(sock)
            return sock

        class ExplodingChannel:
            def __init__(self, sock):
                raise RuntimeError("channel setup exploded")

        monkeypatch.setattr(
            remote_module.socket, "create_connection", recording_create
        )
        monkeypatch.setattr(
            remote_module, "LineChannel", ExplodingChannel
        )
        listener = socket_module.create_server(("127.0.0.1", 0))
        try:
            config = WorkerConfig(
                host="127.0.0.1",
                port=listener.getsockname()[1],
                connect_retries=1,
            )
            with pytest.raises(RuntimeError, match="channel setup"):
                _connect(config)
            assert len(dialed) == 1
            assert dialed[0].fileno() == -1  # closed, not leaked
        finally:
            listener.close()


# ----------------------------------------------------------------------
# Chaos spec parsing (mirrors REPRO_WORKER_FAULT)
# ----------------------------------------------------------------------
class TestNetFaultParsing:
    def test_env_roundtrip(self):
        spec = netfault_from_env("stall,shard=2,attempts=3,sleep=0.5")
        assert spec == NetFaultSpec(
            shard_id=2, mode="stall", attempts=3, sleep_s=0.5
        )
        assert netfault_from_env("") is None
        kill = netfault_from_env("kill,shard=0,exitcode=7")
        assert kill.mode == "kill" and kill.exitcode == 7

    def test_env_rejects_malformed(self):
        with pytest.raises(ValueError):
            netfault_from_env("drop")  # no shard
        with pytest.raises(ValueError):
            netfault_from_env("drop,shard=0,bogus=1")
        with pytest.raises(ValueError):
            netfault_from_env("meltdown,shard=0")

    def test_armed_bounds(self):
        spec = NetFaultSpec(shard_id=1, mode="dup", attempts=2)
        assert spec.armed_for(1, 1) and spec.armed_for(1, 2)
        assert not spec.armed_for(1, 3)
        assert not spec.armed_for(0, 1)

    def test_kill_is_inert_outside_a_child_process(self):
        # Guarded exactly like ShardFaultSpec: firing it here, in the
        # test runner itself, must be a no-op.
        NetFaultSpec(shard_id=0, mode="kill").kill_now()


# ----------------------------------------------------------------------
# Clean distribution
# ----------------------------------------------------------------------
class TestCleanDistribution:
    def test_two_workers_byte_identical_to_serial(self, reference):
        design = fresh_design()
        result = run_remote(remote_engine(), [None, None], design)
        assert result.transport == "tcp"
        report = result.supervision
        assert report.remote_workers == 2
        assert report.crashes == 0 and report.remote_fallbacks == 0
        remote_ok = [
            a for a in report.attempts
            if a.rung == "remote" and a.status == "ok"
        ]
        assert sorted(a.shard_id for a in remote_ok) == [0, 1]
        assert "remote_workers=2" in report.summary()
        assert_identical(design, reference)


# ----------------------------------------------------------------------
# Chaos: every fault mode recovers byte-identical
# ----------------------------------------------------------------------
class TestChaosRecovery:
    def test_connection_drop_requeues_and_recovers(self, reference):
        """The worker computes shard 0 then RSTs the link instead of
        delivering; the coordinator books a crash, requeues, and the
        reconnected worker finishes the job."""
        design = fresh_design()
        result = run_remote(
            remote_engine(),
            [NetFaultSpec(shard_id=0, mode="drop", attempts=1)],
            design,
        )
        report = result.supervision
        assert report.crashes == 1
        assert report.retries >= 1
        assert report.remote_fallbacks == 0
        crash = [a for a in report.attempts if a.status == "crash"]
        assert crash and crash[0].shard_id == 0
        assert crash[0].rung == "remote"
        assert_identical(design, reference)

    def test_stalled_heartbeat_expires_the_lease(self, reference):
        """A worker that goes silent mid-shard loses its lease; its
        eventual late delivery is still safe (pure function of the
        task) and the run converges byte-identical."""
        design = fresh_design()
        result = run_remote(
            remote_engine(),
            [NetFaultSpec(shard_id=0, mode="stall", attempts=1, sleep_s=2.0)],
            design,
        )
        report = result.supervision
        assert report.lease_expiries >= 1
        assert report.timeouts >= 1
        expired = [a for a in report.attempts if a.status == "timeout"]
        assert expired and "lease" in expired[0].detail
        assert_identical(design, reference)

    def test_duplicate_delivery_is_deduped(self, reference):
        """A retransmitted result must count as a duplicate, never get
        applied twice."""
        design = fresh_design()
        result = run_remote(
            remote_engine(),
            [NetFaultSpec(shard_id=1, mode="dup", attempts=1)],
            design,
        )
        report = result.supervision
        assert report.duplicate_results == 1
        dup = [a for a in report.attempts if a.status == "duplicate"]
        assert dup and dup[0].shard_id == 1
        assert "duplicates=1" in report.summary()
        assert_identical(design, reference)

    def test_mid_shard_kill_recovers_on_a_fresh_worker(self, reference):
        """A worker that dies mid-shard (os._exit, lease live) is
        detected by the dropped connection; a replacement worker picks
        the shard back up — no local fallback needed."""
        engine = remote_engine()
        transport = TcpTransport(engine)
        doomed = spawn_worker_process(
            worker_cfg(
                transport, "doomed",
                NetFaultSpec(shard_id=0, mode="kill", attempts=1),
            )
        )
        relief = []

        def send_relief():
            doomed.join(timeout=20)
            relief.append(
                spawn_worker_process(worker_cfg(transport, "relief"))
            )

        spawner = threading.Thread(target=send_relief, daemon=True)
        spawner.start()
        design = fresh_design()
        try:
            result = legalize_sharded(
                design, CFG, engine, transport=transport
            )
        finally:
            spawner.join(timeout=30)
            for proc in [doomed, *relief]:
                proc.join(timeout=30)
        report = result.supervision
        assert report.crashes == 1
        assert report.remote_workers == 2
        assert report.remote_fallbacks == 0
        assert_identical(design, reference)

    def test_total_fleet_death_degrades_to_local_ladder(self, reference):
        """Every worker is gone and none returns: after worker_wait_s
        the whole queue escalates to the local supervisor and the run
        still finishes byte-identical."""
        design = fresh_design()
        result = run_remote(
            remote_engine(worker_wait_s=0.5),
            [NetFaultSpec(shard_id=0, mode="kill", attempts=1)],
            design,
        )
        report = result.supervision
        assert report.crashes == 1
        assert report.remote_fallbacks == 2  # both shards escalated
        rungs = {a.rung for a in report.attempts}
        assert "remote" in rungs and rungs - {"remote"}  # ladder ran
        assert "remote_fallbacks=2" in report.summary()
        assert_identical(design, reference)


# ----------------------------------------------------------------------
# Fallback policy
# ----------------------------------------------------------------------
class TestFallbackPolicy:
    def test_no_worker_degrades_to_local(self, reference):
        design = fresh_design()
        result = run_remote(
            remote_engine(worker_wait_s=0.4), [], design
        )
        report = result.supervision
        assert report.remote_workers == 0
        assert report.remote_fallbacks == 2
        assert_identical(design, reference)

    def test_drain_request_aborts_with_resume_hint(self):
        engine = remote_engine()
        transport = TcpTransport(engine)
        transport.request_drain()  # as the CLI's SIGTERM hook would
        with pytest.raises(TransportError, match="--resume"):
            legalize_sharded(
                fresh_design(), CFG, engine, transport=transport
            )
