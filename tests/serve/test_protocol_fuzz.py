"""Protocol fuzz of ``repro serve``, driven by the request table.

Every param declared in :data:`repro.serve.protocol.OPS` and
:data:`~repro.serve.protocol.ECO_PARAMS` is sent missing, as each wrong
JSON type, as NaN and ±inf, just outside each bound and as a huge value,
beside in-range values for the rest; every op and ECO kind also gets an
unknown key.  Each such request must answer ``protocol``, leave the
resident session's ``seq`` and digest as they were, and write no file.
A param added to the table later is fuzzed without editing this file.

Session names and ``params.dir`` are drawn from path-like strings, with
absolute paths inside the test's own temporary root; after snapshots,
``close`` and the shutdown flush every file under that root must lie
under ``--snapshot-dir``.  Arbitrary lines on one connection each get
exactly one ``protocol`` reply, and the connection keeps serving.
"""

import math
import os
import socket
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bench import (
    DEFAULT_MIX,
    GeneratorConfig,
    TrafficConfig,
    generate_design,
    generate_traffic,
)
from repro.io import write_bookshelf
from repro.serve import ServeConfig, ServerHandle
from repro.serve.protocol import (
    ECO_KINDS,
    ECO_PARAMS,
    OPS,
    REQUIRED,
    Request,
    check_params,
    decode_reply,
    encode,
)

SETTINGS = settings(
    max_examples=3,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

SESSION = "fz"
FRESH = "fresh"  # the name `open`/`generate` requests try to create
CELLS = 40

#: Absent from the request (a required param's missing case).
MISSING = object()

#: One or two values of each JSON type.
JSON_SAMPLES = {
    "null": [None],
    "boolean": [True, False],
    "integer": [0, 7],
    "number": [0.5, -2.25],
    "string": ["", "7"],
    "array": [[], [1]],
    "object": [{}, {"a": 1}],
}
ACCEPTED = {
    str: {"string"},
    int: {"integer"},
    float: {"integer", "number"},
    bool: {"boolean"},
}


def param_cases():
    """(op, eco kind or None, key, Param) for every declared param."""
    for op, spec in OPS.items():
        if op == "eco":
            yield op, None, "kind", spec.params["kind"]
            for kind, kparams in ECO_PARAMS.items():
                for key, param in {**spec.params, **kparams}.items():
                    if key != "kind":
                        yield op, kind, key, param
        else:
            for key, param in spec.params.items():
                yield op, None, key, param


def specs():
    """(op, eco kind or None, params spec) for every op and ECO kind."""
    for op, spec in OPS.items():
        if op == "eco":
            for kind, kparams in ECO_PARAMS.items():
                yield op, kind, {**spec.params, **kparams}
        else:
            yield op, None, dict(spec.params)


def bad_values(param):
    """Values *param* must refuse: every wrong JSON type, NaN and ±inf,
    just outside each bound, huge, and missing if it is required."""
    accepted = ACCEPTED[param.value_type] | (
        {"null"} if param.default is None else set()
    )
    values = [
        v for kind, vs in JSON_SAMPLES.items() if kind not in accepted
        for v in vs
    ]
    values += [math.nan, math.inf, -math.inf, 10**30, -10**30, 10**400,
               1e300, -1e300]
    if param.value_type is int:
        values += [param.minimum - 1, param.maximum + 1]
    elif param.value_type is float:
        values += [
            math.nextafter(param.minimum, -math.inf),
            math.nextafter(param.maximum, math.inf),
        ]
    if param.default is REQUIRED:
        values.append(MISSING)
    return values


def case_id(case):
    return "-".join(part for part in case[:3] if isinstance(part, str))


# ----------------------------------------------------------------------
# One server for the param and line fuzz
# ----------------------------------------------------------------------
class Fixture:
    def __init__(self, root: Path) -> None:
        self.root = root
        design = generate_design(
            GeneratorConfig(num_cells=CELLS, seed=5, name="input")
        )
        self.aux = write_bookshelf(design, str(root / "input"))
        self.handle = ServerHandle(
            ServeConfig(snapshot_dir=str(root / "snap"), queue_depth=64)
        ).start()
        self.client = self.handle.client(timeout=60.0)
        self.client.result("generate", SESSION, {"cells": CELLS, "seed": 5})
        self.client.result("legalize", SESSION)

    def valid(self, key, param):
        """In-range values for *key*, costly ones drawn small."""
        named = {
            "cell": st.sampled_from(["c0", "c1", "c2"]),
            "other": st.sampled_from(["c3", "c4"]),
            "net": st.sampled_from(["n0", "n1"]),
            "aux": st.just(self.aux),
            "dir": st.just("sub"),
            "rx": st.sampled_from([1.0, 30.0]),
            "ry": st.sampled_from([0.0, 5.0]),
        }
        if key in named:
            return named[key]
        if param.value_type is bool:
            return st.booleans()
        if param.value_type is str:
            return st.just("x")
        if param.value_type is int:
            low = int(param.minimum)
            return st.integers(low, min(int(param.maximum), low + 3))
        return st.floats(param.minimum, param.maximum)

    def state(self):
        """What no refused request may change: the session's seq and
        digest, the resident sessions, and every file under the root."""
        digest = self.client.result("digest", SESSION)
        names = [s["name"] for s in self.client.result("sessions")["sessions"]]
        files = sorted(
            os.path.join(d, f) for d, _, fs in os.walk(self.root) for f in fs
        )
        return digest, names, files


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    fixture = Fixture(tmp_path_factory.mktemp("protocol-fuzz"))
    yield fixture
    fixture.client.close()
    fixture.handle.stop()


def target(op):
    if not OPS[op].session:
        return None
    return FRESH if op in ("open", "generate") else SESSION


def others(data, served, spec, skip):
    """Draw in-range values for the params of *spec* but *skip*:
    every required one, and each optional one half the time."""
    params = {}
    for key, param in spec.items():
        if key == skip or key == "kind":
            continue
        if param.default is REQUIRED or data.draw(st.booleans()):
            params[key] = data.draw(served.valid(key, param))
    return params


def assert_refused(served, op, params):
    reply = served.client.request(op, target(op), params)
    assert not reply.ok, (op, params)
    assert reply.error_code == "protocol", (op, params, reply.error_message)


# ----------------------------------------------------------------------
# Params
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", list(param_cases()), ids=case_id)
@SETTINGS
@given(data=st.data())
def test_every_declared_param_refuses_bad_values(served, case, data):
    op, kind, key, param = case
    spec = dict(OPS[op].params)
    if kind is not None:
        spec.update(ECO_PARAMS[kind])
    base = others(data, served, spec, skip=key)
    if kind is not None:
        base["kind"] = kind
    before = served.state()
    for bad in bad_values(param):
        params = dict(base)
        if bad is not MISSING:
            params[key] = bad
        assert_refused(served, op, params)
    assert served.state() == before


@pytest.mark.parametrize("case", list(specs()), ids=case_id)
@SETTINGS
@given(data=st.data())
def test_unknown_keys_are_refused(served, case, data):
    op, kind, spec = case
    params = others(data, served, spec, skip=None)
    if kind is not None:
        params["kind"] = kind
    unknown = data.draw(
        st.text(min_size=1, max_size=12).filter(lambda k: k not in spec)
    )
    params[unknown] = data.draw(
        st.sampled_from([v for vs in JSON_SAMPLES.values() for v in vs])
    )
    before = served.state()
    assert_refused(served, op, params)
    assert served.state() == before


# ----------------------------------------------------------------------
# Arbitrary lines
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def line_socket(served):
    with socket.create_connection(
        ("127.0.0.1", served.handle.port), timeout=30
    ) as sock:
        with sock.makefile("rb") as lines:
            yield sock, lines


def one_line(raw: bytes) -> bool:
    return b"\n" not in raw and bool(raw.strip())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    line=st.binary(min_size=1, max_size=200).filter(one_line)
    | st.text(min_size=1, max_size=60)
    .map(lambda t: t.encode("utf-8", "surrogatepass"))
    .filter(one_line)
)
@example(line=b'{"id":"1","op":"ping","params":' + b"[" * 60_000)
@example(line=b'{"id":"1","op":"ping","n":' + b"1" * 5_000 + b"}")
@example(line=b"\xff\xfe\xfd")
@example(line=b'{"id":"2","op":"ping","params":{"x":NaN}}')
@example(line=b'"just a string"')
def test_arbitrary_lines_get_one_protocol_reply(line_socket, line):
    sock, lines = line_socket
    ping = encode(Request(id="after", op="ping"))
    sock.sendall(line + b"\n" + ping)
    first = decode_reply(lines.readline())
    assert not first.ok and first.error_code == "protocol"
    second = decode_reply(lines.readline())
    assert second.id == "after" and second.ok


# ----------------------------------------------------------------------
# Session names and snapshot dirs
# ----------------------------------------------------------------------
CLIENT_ERRORS = ("protocol", "eco", "unknown_session", "session_exists")
PATHLIKE = [
    "..", "../x", "../escaped", "a/b", "a\x00b", ".x", "x" * 300,
    "sub/../..", "ok",
]


def path_like():
    """A path-like string; ``("abs", rel)`` stands for ``<root>/rel``."""
    return (
        st.sampled_from(PATHLIKE)
        | st.text(alphabet="./\x00ab-", min_size=1, max_size=6)
        | st.sampled_from(["abs", "abs/deeper", "snap/../out"]).map(
            lambda rel: ("abs", rel)
        )
    )


def resolve(value, root):
    if isinstance(value, tuple):
        return str(root / value[1])
    return value


def files_under(root):
    return [
        os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs
    ]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(names=st.lists(path_like(), min_size=2, max_size=2), dir_=path_like())
@example(names=["../escaped", ("abs", "abs")], dir_="sub")
@example(names=["ok", "ok"], dir_="x" * 300)
@example(names=["ok", "a\x00b"], dir_="a\x00b")
def test_session_names_and_dirs_never_escape_the_snapshot_dir(
    tmp_path_factory, names, dir_
):
    root = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    snap = root / "snap"
    first, second = (resolve(name, root) for name in names)
    handle = ServerHandle(ServeConfig(snapshot_dir=str(snap))).start()
    replies = []
    try:
        with handle.client(timeout=60.0) as client:
            for name in (first, second, "valid"):
                replies.append(
                    client.request("generate", name, {"cells": 12})
                )
            for name in (first, "valid"):
                replies.append(
                    client.request(
                        "snapshot", name, {"dir": resolve(dir_, root)}
                    )
                )
            replies.append(client.request("snapshot", first))
            replies.append(
                client.request("close", first, {"snapshot": True})
            )
    finally:
        handle.stop()  # flushes the second session, if it was created
    for reply in replies:  # a client's error, never the server's
        assert reply.ok or reply.error_code in CLIENT_ERRORS, (
            reply.error_code, reply.error_message
        )
    for path in files_under(root):
        assert Path(path).resolve().is_relative_to(snap.resolve()), path


# ----------------------------------------------------------------------
# The benchmark's own traffic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_traffic_always_validates(seed):
    """Every request the serving benchmark sends passes the table, so a
    cap set too tight cannot shrink the work it measures."""
    from benchmarks.e2e.cli import WORKLOADS
    from benchmarks.e2e.serve_load import MIX
    from benchmarks.e2e.workload import derived_seed

    workload = WORKLOADS["serve_eco"][1]
    sessions = workload.session_params(seed)
    for params in sessions.values():
        assert check_params("generate", params)["cells"] == 1000
    first = next(iter(sessions.values()))
    floorplan = generate_design(
        GeneratorConfig(num_cells=first["cells"], seed=first["seed"])
    ).floorplan
    extent = (1.25 * floorplan.row_width, 1.25 * floorplan.num_rows)
    for mix in (MIX, DEFAULT_MIX):
        trace = generate_traffic(
            TrafficConfig(
                seed=derived_seed(seed, "serve_eco/open"),
                num_requests=600,
                sessions=tuple(sessions),
                cells_per_session=workload.cells,
                nets_per_session=round(1.1 * workload.cells),
                extent_um=extent,
                mix=mix,
            )
        )
        kinds = set()
        for request in trace:
            checked = check_params(request.op, request.params)
            kinds.add(checked["kind"])
        assert kinds == {kind for kind, _ in mix}
    assert {kind for kind, _ in DEFAULT_MIX} == set(ECO_KINDS)
