"""An L1 entry keeps its rendered reply: the same bytes, rendered once.

Every single-request reply must equal ``json.dumps`` of
:func:`~repro.service.api.report_to_dict` with ``degraded`` and then
``id`` appended, byte for byte, whether it was rendered for the first
answer or spliced from the body kept in the L1 entry on a hit. The body
goes with its entry (``cache.l1.drop``, TTL expiry), and a hit renders
nothing.
"""

import json
import types

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec
from repro.instrument import MeasurementConfig
from repro.service import PredictRequest, PredictionService
from repro.service import api
from repro.service.api import handle_line, report_to_dict

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)

WIRE = {"benchmark": "BT", "problem_class": "S", "nprocs": 4}

#: The ``id`` forms a client may send; ``ABSENT`` sends none.
ABSENT = object()
IDS = [ABSENT, "req-7", 7, None, {"trace": [1, {"x": "y"}]}, "ünï ☃  "]


def make_service(**kwargs):
    kwargs.setdefault("measurement", MEASUREMENT)
    kwargs.setdefault("executor", "inline")
    return PredictionService(**kwargs)


def line(request_id=ABSENT, **fields):
    payload = {**WIRE, **fields}
    if request_id is not ABSENT:
        payload["id"] = request_id
    return json.dumps(payload)


def expected(request, report, degraded=False, request_id=ABSENT):
    """The reply as the dict rendering spells it."""
    payload = report_to_dict(request, report, degraded=degraded)
    if request_id is not ABSENT:
        payload["id"] = request_id
    return json.dumps(payload)


def served_report(service, **fields):
    """The report in the request's L1 entry (one more L1 hit)."""
    return service.predict(PredictRequest.from_dict({**WIRE, **fields}))


@pytest.fixture(scope="module")
def archived(tmp_path_factory):
    """A memo directory holding the archived BT.S.4 answer."""
    root = tmp_path_factory.mktemp("rendered-archive")
    with make_service(cache_dir=str(root)) as service:
        service.predict(PredictRequest.from_dict(WIRE), timeout=120)
    return root


def tier_service(tier, archived):
    if tier == "memo":
        return make_service(cache_dir=str(archived))
    if tier == "analytic":
        return make_service(tier_policy="fast")
    return make_service()


@pytest.mark.parametrize("first_id", IDS, ids=repr)
@pytest.mark.parametrize("tier", ["simulation", "memo", "analytic"])
def test_first_and_hit_replies_match_the_dict_rendering(
    tier, first_id, archived
):
    request = PredictRequest.from_dict(WIRE)
    with tier_service(tier, archived) as service:
        first = handle_line(service, line(first_id))
        report = served_report(service)
        assert report.tier == tier
        assert first == expected(request, report, request_id=first_id)
        for request_id in IDS:
            hit = handle_line(service, line(request_id))
            assert hit == expected(request, report, request_id=request_id)
        assert service.stats()["cache"]["l1"]["hits"] == len(IDS) + 1


@pytest.mark.parametrize("request_id", IDS, ids=repr)
def test_degraded_replies_match_and_do_not_stick(monkeypatch, request_id):
    health = {"degraded": True}
    monkeypatch.setattr(
        PredictionService, "degraded", property(lambda _s: health["degraded"])
    )
    request = PredictRequest.from_dict(WIRE)
    with make_service() as service:
        # Rendered first while degraded: the flag must not enter the body.
        first = handle_line(service, line(request_id))
        report = served_report(service)
        assert first == expected(request, report, True, request_id)
        assert json.loads(first)["degraded"] is True
        hit = handle_line(service, line(request_id))
        assert hit == expected(request, report, True, request_id)
        health["degraded"] = False
        healthy = handle_line(service, line(request_id))
        assert healthy == expected(request, report, False, request_id)
        assert "degraded" not in json.loads(healthy)


def test_l1_drop_discards_the_rendered_body():
    request = PredictRequest.from_dict(WIRE)
    with make_service() as service:
        first = handle_line(service, line())
        assert json.loads(first)["tier"] == "simulation"
        drop = FaultPlan(specs=(FaultSpec(site="cache.l1.drop", every_nth=1),))
        with faults.active(drop):
            # The entry is lost; the store rung answers a new report.
            again = handle_line(service, line("after-drop"))
        report = served_report(service)
        assert report.tier == "memo"
        assert again == expected(request, report, request_id="after-drop")
        assert handle_line(service, line()) == expected(request, report)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_ttl_expiry_discards_the_rendered_body():
    clock = FakeClock()
    request = PredictRequest.from_dict(WIRE)
    with make_service(cache_ttl=10.0, clock=clock) as service:
        first = handle_line(service, line())
        assert json.loads(first)["tier"] == "simulation"
        clock.now += 5.0
        assert handle_line(service, line()) == first
        clock.now += 6.0  # the entry is now 11 s old: expired
        again = handle_line(service, line())
        assert service.stats()["cache"]["l1"]["expirations"] == 1
        report = served_report(service)
        assert report.tier == "memo"
        assert again == expected(request, report)
        assert again != first


def test_a_hit_renders_nothing(monkeypatch):
    dumped, rendered = [], []

    def dumps(obj, *args, **kwargs):
        dumped.append(obj)
        return json.dumps(obj, *args, **kwargs)

    def render(*args, **kwargs):
        rendered.append(args)
        return report_to_dict(*args, **kwargs)

    monkeypatch.setattr(
        api,
        "json",
        types.SimpleNamespace(
            loads=json.loads, dumps=dumps, JSONDecodeError=json.JSONDecodeError
        ),
    )
    monkeypatch.setattr(api, "report_to_dict", render)
    with make_service() as service:
        first = handle_line(service, line())
        assert len(rendered) == 1 and len(dumped) == 1
        dumped.clear()
        rendered.clear()
        assert handle_line(service, line()) == first
        assert dumped == [] and rendered == []
        # An id is encoded on its own; the report is not rendered again.
        handle_line(service, line({"trace": 3}))
        assert dumped == [{"trace": 3}] and rendered == []
