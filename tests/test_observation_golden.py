"""Golden digests of everything the engine observes, pinned across changes.

The determinism tests elsewhere run a workload twice in one process and
compare; a change that alters observation output in both runs alike passes
them. The constants here pin that output itself. One seeded workload
exercises retries, a breaker opening, failover to a replica, a breaker
rejection, degraded partial answers, fresh and stale fetch-cache hits, a
result-cache hit, view answers, adaptive execution, a directly executed
plan and a failed query, with a `Tracer` feeding a `QueryScoreboard` and a
`TelemetryPlane` attached. The SHA-256 of every trace's JSON, both
telemetry exports, the scoreboard and each result's metrics summary must
match.

Updating a digest is a statement that observation output changed on
purpose; the commit doing it should say what changed and why.
"""

import hashlib
import json

import pytest

from repro.cache import CacheConfig, CacheHierarchy
from repro.common.errors import EIIError
from repro.federation import EngineConfig, FederatedEngine, ResiliencePolicy
from repro.netsim import FaultInjector, Outage, SimClock, Transient
from repro.telemetry import TelemetryPlane
from repro.trace import QueryScoreboard, Tracer

from tests.federation_fixtures import build_catalog

JOIN_Q = (
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.total > 100"
)
# shares JOIN_Q's customers fetch, so it can hit the fetch cache
JOIN_STATUS_Q = (
    "SELECT c.name, o.status FROM customers c "
    "JOIN orders o ON c.id = o.cust_id WHERE o.total > 100"
)
BIND_LEFT_Q = (
    "SELECT c.name, cr.score FROM customers c "
    "LEFT JOIN credit cr ON cr.cust_id = c.id"
)
UNION_Q = "SELECT city FROM customers UNION ALL SELECT status FROM orders"
VIEW_SQL = (
    "SELECT status, cust_id, SUM(total) AS total_sum, COUNT(*) AS n "
    "FROM orders GROUP BY status, cust_id"
)
ROLLUP_Q = (
    "SELECT status, SUM(total) AS revenue, COUNT(*) AS n "
    "FROM orders GROUP BY status"
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_workload():
    """Run the pinned workload; returns (engine, tracer, scoreboard, plane,
    results). One prefetch worker keeps backoff jitter and span order
    independent of thread scheduling."""
    clock = SimClock()
    injector = FaultInjector(seed=11, clock=clock)
    catalog = build_catalog(injector=injector, with_replicas=True)
    scoreboard = QueryScoreboard()
    tracer = Tracer(scoreboard=scoreboard)
    plane = TelemetryPlane(window_s=5.0)
    engine = FederatedEngine(
        catalog,
        EngineConfig(
            clock=clock,
            parallel_workers=1,
            resilience=ResiliencePolicy(
                max_attempts=3,
                breaker_failure_threshold=2,
                breaker_cooldown_s=50.0,
                seed=5,
            ),
            partial_results=True,
            cache=CacheHierarchy(CacheConfig(), clock=clock),
            adaptive=True,
            views=True,
            tracer=tracer,
            telemetry=plane,
        ),
    )
    engine.views.define_materialized("mv_orders", VIEW_SQL)
    results = []

    def run(sql):
        results.append(engine.query(sql))
        clock.advance(2.0)
        return results[-1]

    run(JOIN_Q)  # cold: fetch-cache misses
    run(JOIN_Q)  # whole-result cache hit
    run(UNION_Q)
    injector.script("crm", Transient(2))
    run("SELECT c.city FROM customers c WHERE c.id = 1")  # two retries
    run(ROLLUP_Q)  # answered from the view
    run(BIND_LEFT_Q)
    results.append(engine.execute_plan(engine.prepare(ROLLUP_Q)))

    # crm goes down: two failures open its breaker, the third attempt is
    # rejected by it, and the standby answers
    injector.script("crm", Outage())
    run("SELECT c.name FROM customers c WHERE c.id = 2")
    # the credit service goes down: the LEFT enrichment degrades
    injector.script("creditsvc", Outage())
    run(
        "SELECT c.id, cr.score FROM customers c "
        "LEFT JOIN credit cr ON cr.cust_id = c.id WHERE c.city = 'NY'"
    )
    # the standby goes down too: a customers union arm degrades, and a
    # customers fetch no cache holds fails the query
    injector.script("crm_standby", Outage())
    run("SELECT name FROM customers UNION ALL SELECT status FROM orders")
    with pytest.raises(EIIError):
        engine.query("SELECT c.city FROM customers c WHERE c.id = 3")
    clock.advance(2.0)
    # every access path to customers is down: a fetch-cache hit is stale
    run(JOIN_STATUS_Q)
    clock.advance(20.0)
    plane.tick(clock())
    return engine, tracer, scoreboard, plane, results


@pytest.fixture(scope="module")
def workload():
    return run_workload()


def test_workload_exercises_every_event_kind(workload):
    """The digests below only mean something if each event kind occurs."""
    _, tracer, _, _, results = workload
    totals = {}
    for result in results:
        for name, value in result.metrics.summary().items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[name] = totals.get(name, 0) + value
    for counter in (
        "retries",
        "source_failures",
        "failovers",
        "breaker_short_circuits",
        "degraded_fetches",
        "stale_cache_hits",
        "fetch_cache_hits",
        "fetch_cache_misses",
        "view_hits",
    ):
        assert totals.get(counter, 0) > 0, counter
    assert any(result.from_cache for result in results)
    assert any(result.is_partial for result in results)
    events = {name for trace in tracer.traces for name in trace.event_names()}
    assert {"retry", "source_failure", "breaker.open", "failover", "degraded",
            "cache.hit", "cache.stale_hit", "cache.result_hit"} <= events


TRACE_DIGESTS = [
    "1fe9708fa9027cbcfe5f755c5a2b84f55aff6c58404c74b2fab754f1c1864313",
    "6310463b20349ddf9ec210db3a2cfa924636c6ac120783b15a6e8265b80b6911",
    "5cb81d77e1c8bf3adcddbd899a817bfab0af7d437c3425c07a932baf28fbd2fb",
    "47745bce40ecb97eb84c0749f2bc088fbb238131811b4d9a23c3db1fe8846c72",
    "51195885ba19cd7ca26fdf89bde235d47146b1ebeebad1b962cb2c87fcf3e9ba",
    "b416c951156d5d1bbe4309eea79c7013071b8512db9b33179f003658df34a9f8",
    "48481a5e240fccc9223c1470574b5b0a57f93d2fdc5750786f4c44bb9e26a1f2",
    "cea1594cf858610657ed5f7402d6a96f6c83020326dbc4c59574e03f87a139af",
    "0411ccedcf725f893970b8b31229d0ea7dfabc03625d85535e425b4cb11edce3",
    "f487d1181ae2f143c55f2e5b2ad31b68e20ac1a5901a3b3d79cdc66d8dbcb166",
    "4dc283549595ca9b3921f5a4998d866031f874c81646b660e08683348357273e",
    "ef9be67f0939b76f9ce8b3ba3451dedc3dcc7e67df1e9dcd014d0fff64a3e7ed",
    "cb07a44b8057d1ff4de997b1c598f65f68a0c11b227e85c8abe77fbcc9650a09",
]
TELEMETRY_JSONL_DIGEST = "f54b6607fafb398998e5a66f86433b29ffeeca858841c61629f3e59fae9b6097"
PROMETHEUS_DIGEST = "1797b8939a3bb69885a302740393f7127442a696baf3e67eec6e77a7fafbc7c3"
SCOREBOARD_DIGEST = "96004eb93ab55280edfc1ae5b93dddef93ff06f4174e4b6446bbf9c3dadbefa8"
METRICS_DIGESTS = [
    "8d5cd21f8de1c14a3cd6d0971aa3ac5d714a0a65829e3658326481eeebca9612",
    "8d5cd21f8de1c14a3cd6d0971aa3ac5d714a0a65829e3658326481eeebca9612",
    "32392b503d270c26a48ad659427eaeaa13fb4b8b5b623d57ad66636aedb1f691",
    "c456a3cb0fb7552805a87b1ecc493ecbaf3aa7e8cd5100ddf81874e541876359",
    "1d3d82ddf57520f92dae7b1a0ef4e10fc6f03f4eef969bc8e652800f15fc6e6c",
    "1b787c22bb5b2f3fe4ec0b48a94379cb472c45c0113c65b6579cd3e58e12679b",
    "ecdb2096ee4d69bb6111f1acf1d1c6dcc6b6445a49aba0682831148511595042",
    "05e95f11347b139b8a0bff7628205b20e5cdee8458ac362055e0550e8b43b28b",
    "943e8ff61a9da42c9009df248f3c30e7e5850c0fbe1cf8887a156f3a3099100c",
    "04507a6fa5defe0fbbae9a18dbbe2522313c0d3b15b4f0320d378576e2d7e136",
    "46715fdc179cf09744888086ff585d5a517bb410c82391cf1a13dcd3dac21777",
]


def observed(workload) -> dict:
    _, tracer, scoreboard, plane, results = workload
    return {
        "traces": [digest(trace.to_json()) for trace in tracer.traces],
        "telemetry_jsonl": digest(plane.export_jsonl()),
        "prometheus": digest(plane.export_prometheus()),
        "scoreboard": digest(scoreboard.render()),
        "metrics": [
            digest(json.dumps(result.metrics.summary(), sort_keys=True))
            for result in results
        ],
    }


def test_trace_json_is_pinned(workload):
    assert observed(workload)["traces"] == TRACE_DIGESTS


def test_telemetry_exports_are_pinned(workload):
    out = observed(workload)
    assert out["telemetry_jsonl"] == TELEMETRY_JSONL_DIGEST
    assert out["prometheus"] == PROMETHEUS_DIGEST


def test_scoreboard_is_pinned(workload):
    assert observed(workload)["scoreboard"] == SCOREBOARD_DIGEST


def test_metrics_summaries_are_pinned(workload):
    assert observed(workload)["metrics"] == METRICS_DIGESTS
