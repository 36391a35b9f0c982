"""Wire fuzz: every non-blank line gets exactly one typed JSON reply.

Hypothesis-generated lines — JSON and not, objects, arrays, and numeric
literals ``json.dumps`` never writes (``1e400``, ``NaN``, 400-digit
integers) — go to :func:`repro.service.api.handle_line` and through one
:func:`~repro.service.serve_socket` connection. Every non-blank line
must get one JSON reply carrying ``ok`` (and ``error_type`` when ``ok``
is false), and a valid request afterwards must still be answered. The
socket also gets one line of bytes that are not UTF-8.
The service runs the synthetic cell function on its worker processes,
so generated valid requests never simulate.
"""

from __future__ import annotations

import json
import socket
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument import MeasurementConfig
from repro.service import PredictionService, serve_socket
from repro.service.api import handle_line
from tests.chaos.harness import synthetic_execute

SETTINGS = dict(
    max_examples=120,
    deadline=None,
    derandomize=True,
)

VALID = '{"benchmark": "BT", "problem_class": "S", "nprocs": 4, "id": "v"}'
MARKER = '{"cmd": "stats"}'

FIELDS = ("benchmark", "problem_class", "nprocs", "chain_length", "seed",
          "id", "cmd")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: Field values as JSON text: odd numeric literals ``json.dumps`` never
#: writes next to plausible ones, names, commands and arbitrary JSON.
numbers = st.sampled_from([
    "1", "2", "4", "9", "-4", '"4"', "4.0", "4.5", "-0", "1e400",
    "-1e400", "1e-400", "NaN", "Infinity", "1" + "0" * 400, "true", "null",
])
names = st.sampled_from(['"BT"', '"lu"', '"SP"', '"XX"', '"S"', '"w"'])
tokens = st.one_of(
    numbers,
    names,
    st.sampled_from(['"stats"', '"metrics"', '"slo"', '"counters"']),
    json_values.map(json.dumps),
)


def as_object(fields: dict) -> str:
    return "{" + ", ".join(
        f"{json.dumps(name)}: {value}" for name, value in fields.items()
    ) + "}"


#: Request-shaped objects (the required fields present, any values) and
#: arbitrary ones.
objects = st.one_of(
    st.fixed_dictionaries(
        {
            "benchmark": names | tokens,
            "problem_class": names | tokens,
            "nprocs": numbers | tokens,
        },
        optional={"chain_length": numbers, "seed": numbers, "id": tokens},
    ),
    st.dictionaries(
        st.sampled_from(FIELDS) | st.text(max_size=4), tokens, max_size=6
    ),
).map(as_object)
arrays = st.lists(objects | tokens, max_size=4).map(
    lambda items: "[" + ", ".join(items) + "]"
)
text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\n"
    ),
    max_size=24,
)
lines = st.one_of(objects, arrays, tokens, text, st.sampled_from(
    ["", "   ", "metrics", "slo", "{", "[", "[{}", '{"cmd": "stats"}']
))


def assert_typed(reply: dict) -> None:
    assert isinstance(reply.get("ok"), bool), reply
    if not reply["ok"]:
        assert isinstance(reply.get("error_type"), str), reply


def assert_one_reply(line: str, reply) -> None:
    """``reply`` is the one answer ``line`` is owed (None when blank)."""
    if not line.strip():
        assert reply is None
        return
    assert isinstance(reply, str) and "\n" not in reply
    doc = json.loads(reply)
    assert_typed(doc)
    for result in doc.get("results", []) if doc["ok"] else []:
        assert_typed(result)


def assert_valid_answered(reply: str) -> None:
    doc = json.loads(reply)
    assert doc["ok"] is True, doc
    assert doc["id"] == "v"


def make_service(**kwargs) -> PredictionService:
    return PredictionService(
        measurement=MeasurementConfig(repetitions=2, warmup=1),
        execute=synthetic_execute,
        **kwargs,
    )


def test_handle_line_answers_every_line():
    with make_service() as service:

        @settings(**SETTINGS)
        @given(lines)
        def exchange(line):
            assert_one_reply(line, handle_line(service, line))

        exchange()
        assert_valid_answered(handle_line(service, VALID))


def test_one_socket_connection_answers_every_line():
    with make_service() as service:
        ready = threading.Event()
        bound: list = []
        control: list = []
        server = threading.Thread(
            target=serve_socket,
            args=(service,),
            kwargs={"ready": ready, "bound": bound, "control": control},
            daemon=True,
        )
        server.start()
        assert ready.wait(timeout=10)
        try:
            with socket.create_connection(bound[0], timeout=10) as conn:
                stream = conn.makefile("rwb")

                def send(line: str) -> None:
                    stream.write(line.encode("utf-8") + b"\n")

                def receive() -> str:
                    raw = stream.readline()
                    assert raw, "the server closed the connection"
                    return raw.decode("utf-8").rstrip("\n")

                @settings(**SETTINGS)
                @given(lines)
                def exchange(line):
                    send(line)
                    if not line.strip():
                        # Owed nothing: the next reply is the marker's.
                        send(MARKER)
                    stream.flush()
                    assert_one_reply(line if line.strip() else MARKER,
                                     receive())

                exchange()
                stream.write(b'\xff{"benchmark": "\xc3"}\n')
                stream.flush()
                assert json.loads(receive())["error_type"] == "ReproError"
                # A reply too many anywhere above would be read here.
                send(MARKER)
                send(VALID)
                stream.flush()
                assert "stats" in json.loads(receive())
                assert_valid_answered(receive())
                stream.close()
        finally:
            control[0].shutdown()
            server.join(timeout=10)
