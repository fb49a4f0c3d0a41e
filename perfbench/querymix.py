"""The query mix and the open-loop load generator.

The mix is what a footprint consumer asks: the daemon's status, the
ranked hypergiants, one hypergiant's series, its AS set at a snapshot,
the diff between two snapshots, and a by-country slice.  Every query
names only baseline snapshots, so its answer cannot change when new
snapshots land; only ``status``, ``hypergiants`` and ``series`` grow.

:class:`OpenLoop` sends the mix on a fixed schedule from two client
threads (query ``i`` is due at ``start + i / rate`` on client
``i % clients``), whatever the answers' speed, and times each query
from when it was due — so a stall also counts against the queries it
delays.  ``sent - due`` is how late the generator itself ran.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass

#: Seconds a query may take before it counts as failed.
QUERY_TIMEOUT = 10.0
#: Hypergiants the per-HG queries rotate through.
QUERY_HYPERGIANTS = (
    "google", "facebook", "netflix", "akamai", "alibaba", "amazon", "apple", "microsoft",
)


def query_plan(first: str, last: str, seed: int) -> list[tuple[str, tuple]]:
    """One cycle of the mix as ``(endpoint, sorted params)``, shuffled by
    ``seed``; ``first``/``last`` are baseline snapshot labels."""
    plan: list[tuple[str, tuple]] = [("status", ()), ("hypergiants", ())]
    for hg in QUERY_HYPERGIANTS:
        plan.append(("series", (("hg", hg),)))
        plan.append(("footprint", (("hg", hg), ("snapshot", last))))
        plan.append(("diff", (("from", first), ("hg", hg), ("to", last))))
        plan.append(("slice", (("by", "country"), ("hg", hg), ("snapshot", last))))
    random.Random(seed).shuffle(plan)
    return plan


def answer(result, organizations, endpoint: str, params: dict) -> dict:
    """The body a query's answer must carry, computed from a batch result
    through the public footprint query surface — the in-process form of
    the daemon's endpoints, field for field where they overlap."""
    from repro.timeline import Snapshot

    if endpoint == "status":
        return {"snapshots": [s.label for s in result.snapshots]}
    if endpoint == "hypergiants":
        return {"hypergiants": list(result.hypergiants("confirmed"))}
    hg = params["hg"]
    if endpoint == "series":
        points = result.series(hg)
        return {"snapshots": [s.label for s, _ in points], "counts": [c for _, c in points]}
    if endpoint == "footprint":
        ases = result.footprint_ases(hg, Snapshot.parse(params["snapshot"]))
        return {"ases": sorted(int(a) for a in ases)}
    if endpoint == "diff":
        added, removed = result.diff(
            hg, Snapshot.parse(params["from"]), Snapshot.parse(params["to"])
        )
        return {"added": sorted(int(a) for a in added), "removed": sorted(int(a) for a in removed)}
    if endpoint == "slice":
        footprint = result.at(Snapshot.parse(params["snapshot"]))
        buckets: dict[str, list[int]] = {}
        for asn in footprint.confirmed_ases.get(hg, frozenset()):
            country = organizations.country_of(asn)
            buckets.setdefault(country.code if country else "??", []).append(int(asn))
        return {"countries": {code: sorted(v) for code, v in sorted(buckets.items())}}
    raise ValueError(f"unknown endpoint {endpoint!r}")


def body_matches(endpoint: str, body: dict, expected: dict) -> bool:
    """Whether a served body agrees with the expected one.  ``status`` and
    ``series`` may lag the final timeline (snapshots land mid-run): their
    labels must be a prefix of the expected ones, with equal counts."""
    if endpoint in ("status", "series"):
        labels = body.get("snapshots")
        if not isinstance(labels, list) or labels != expected["snapshots"][: len(labels)]:
            return False
        if endpoint == "series":
            return body.get("counts") == expected["counts"][: len(labels)]
        return True
    if endpoint == "hypergiants":
        # Ranked over the snapshots indexed so far: a subset of the final set.
        served = body.get("hypergiants")
        return isinstance(served, list) and set(served) <= set(expected["hypergiants"])
    return all(body.get(key) == value for key, value in expected.items())


@dataclass(slots=True)
class Sample:
    """One query as the generator saw it (perf_counter seconds)."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from when the query was due to its answer."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent after the due time."""
        return self.sent - self.due


class OpenLoop:
    """Send ``plan`` cyclically at ``rate`` queries/s from ``clients``
    threads until :meth:`stop`; ``send(endpoint, params)`` answers one
    query and returns ``(ok, body)``.  Every distinct body is kept for
    checking after the run."""

    def __init__(self, plan, rate: float, send, clients: int = 2):
        self.plan = plan
        self.rate = rate
        self.send = send
        self.clients = clients
        self.samples: list[Sample] = []
        #: Distinct bodies seen per query: (endpoint, params) -> {digest: body}.
        self.bodies: dict[tuple, dict[str, dict]] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.start_time = 0.0

    def start(self) -> None:
        """Start the client threads; query 0 is due now."""
        self.start_time = time.perf_counter()
        for client in range(self.clients):
            thread = threading.Thread(
                target=self._client, args=(client,), name=f"loadgen-{client}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 30.0) -> None:
        """Stop scheduling and wait for in-flight queries."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not stop within {timeout}s")

    def _client(self, client: int) -> None:
        index = client
        local: list[Sample] = []
        while not self._stop.is_set():
            due = self.start_time + index / self.rate
            delay = due - time.perf_counter()
            if delay > 0 and self._stop.wait(delay):
                break
            endpoint, params = self.plan[index % len(self.plan)]
            sent = time.perf_counter()
            try:
                ok, body = self.send(endpoint, dict(params))
            except Exception:  # a failed query is a sample, not a crash
                ok, body = False, None
            done = time.perf_counter()
            local.append(Sample(index, due, sent, done, ok))
            if ok:
                self._record_body((endpoint, params), body)
            index += self.clients
        with self._lock:
            self.samples.extend(local)

    def _record_body(self, key: tuple, body: dict) -> None:
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
        with self._lock:
            seen = self.bodies.setdefault(key, {})
            if digest not in seen:
                seen[digest] = body


def http_send(url: str, endpoint: str, params: dict) -> tuple[bool, dict]:
    """``OpenLoop`` sender: one GET through the project's own query client,
    which opens a connection per query as ``repro query`` does.  (On a
    kept-alive connection every answer stalls ~40 ms on delayed ACKs,
    which would measure TCP timers rather than the daemon.)  An answer
    without an error body is ok."""
    from repro.serve import query_server

    body = query_server(url, endpoint, params, timeout=QUERY_TIMEOUT)
    return "error" not in body, body
