"""The ``repro serve`` daemon: watch a dataset dir, answer footprint queries.

A :class:`ServeDaemon` glues three stdlib pieces together:

* a :class:`~repro.serve.ingest.DeltaIngestor` looped by a watcher thread
  every ``poll_interval`` seconds (plus one synchronous pass at startup,
  so the first query already sees the corpus; it runs before the daemon
  starts a thread, so in a process with no other thread it forks one
  worker per usable core, while the watcher's passes run in-process
  beside the HTTP threads);
* a :class:`http.server.ThreadingHTTPServer` so queries run concurrently
  — each request reads the immutable
  :class:`~repro.core.footprint_index.IndexView` published by the last
  commit, which makes a query consistent for its whole lifetime even
  while an ingest is folding new snapshots next door;
* the shared :class:`~repro.obs.metrics.MetricsRegistry` where both
  sides book: per-endpoint ``serve_query_seconds`` histograms and
  ``serve_queries`` status counters from the query side, the ingest
  events/lag/size instruments from the ingest side.

Endpoints (all GET, all JSON):

====================  =========================================================
``/status``           daemon liveness: corpus, indexed snapshots, the §4.5
                      confirmation configuration (signals + policy), last
                      ingest
``/metrics``          the registry as JSON (counters, gauges, histograms)
``/hypergiants``      ranked hypergiants (``metric=confirmed|candidates``)
``/series``           per-snapshot AS counts for one HG (``hg=``, ``metric=``)
``/footprint``        the AS set itself (``hg=``, ``snapshot=``, ``metric=``)
``/diff``             ASes added/removed between two snapshots
``/slice``            cross-sections: ``by=country`` or ``by=as`` (``asn=``)
====================  =========================================================

Malformed parameters get a 400 with the underlying message; unknown
paths a 404.  The bound address is written to ``endpoint.json`` in the
state dir so ``repro query`` can find a daemon by state dir alone.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from repro.core.pipeline import PipelineOptions
from repro.obs.metrics import MetricsRegistry
from repro.serve.ingest import DeltaIngestor, IngestReport
from repro.timeline import Snapshot

__all__ = ["QUERY_SECONDS", "QUERY_COUNT", "ServeDaemon"]

#: Histogram: seconds per answered query, labelled ``endpoint=``.
QUERY_SECONDS = "serve_query_seconds"
#: Counter: answered queries, labelled ``endpoint=`` and ``status=``.
QUERY_COUNT = "serve_queries"

#: Query endpoints that read the footprint index (``/status`` and
#: ``/metrics`` are bookkeeping, not footprint reads).
ENDPOINTS = ("hypergiants", "series", "footprint", "diff", "slice")


class _BadQuery(ValueError):
    """A malformed request — becomes a 400 with this message."""


def _require(params: dict[str, str], name: str) -> str:
    """The query parameter or a 400-able complaint."""
    try:
        return params[name]
    except KeyError:
        raise _BadQuery(f"missing required query parameter {name!r}") from None


def _parse_snapshot(text: str) -> Snapshot:
    """``YYYY-MM`` → :class:`Snapshot`, re-raised as a 400-able error."""
    try:
        return Snapshot.parse(text)
    except ValueError as error:
        raise _BadQuery(str(error)) from None


class ServeDaemon:
    """Serve an incrementally-maintained footprint index over HTTP.

    ``options`` mirror the batch CLI's: same corpus, same methodology
    knobs, so the daemon's answers are bit-identical to a ``repro run``
    over the same directory.  ``port=0`` binds an ephemeral port (the
    tests' and bench's default); :meth:`start` returns the URL.
    """

    def __init__(
        self,
        directory: str | Path,
        state_dir: str | Path,
        options: PipelineOptions | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 2.0,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.poll_interval = poll_interval
        self.registry = MetricsRegistry()
        self.registry_lock = threading.Lock()
        self.ingestor = DeltaIngestor(
            directory,
            self.state_dir,
            options=options,
            registry=self.registry,
            registry_lock=self.registry_lock,
        )
        self._host = host
        self._port = port
        self._server: _Server | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._ingest_lock = threading.Lock()
        self.last_ingest: IngestReport | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> str:
        """Ingest once synchronously (over forked workers when no other
        thread is running yet), bind the server, start the watcher and
        serving threads, write ``endpoint.json``, return the URL."""
        self.ingest_now()
        daemon = self
        handler = type(
            "_Handler",
            (_RequestHandler,),
            {"daemon_ref": daemon, "protocol_version": "HTTP/1.1"},
        )
        self._server = _Server((self._host, self._port), handler)
        serve = threading.Thread(target=self._server.serve_forever, daemon=True)
        watch = threading.Thread(target=self._watch, daemon=True)
        serve.start()
        watch.start()
        self._threads = [serve, watch]
        url = self.url()
        (self.state_dir / "endpoint.json").write_text(
            json.dumps({"host": self.address()[0], "port": self.address()[1], "url": url})
            + "\n",
            encoding="utf-8",
        )
        return url

    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — meaningful after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("daemon not started")
        return self._server.server_address[0], self._server.server_address[1]

    def url(self) -> str:
        """The base URL clients should query."""
        host, port = self.address()
        return f"http://{host}:{port}"

    def stop(self) -> None:
        """Stop the watcher and the HTTP server and join both threads."""
        self._stop.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        for thread in self._threads:
            thread.join(timeout=10)
        self._threads = []

    def ingest_now(self) -> IngestReport:
        """Run one delta-ingest pass (serialized against the watcher)."""
        with self._ingest_lock:
            report = self.ingestor.ingest_once()
        self.last_ingest = report
        return report

    def _watch(self) -> None:
        """The watcher loop: poll the directory until :meth:`stop`.  An
        ingest failure is booked, not fatal — the daemon keeps serving
        the last committed view."""
        while not self._stop.wait(self.poll_interval):
            try:
                self.ingest_now()
            except Exception:
                with self.registry_lock:
                    self.registry.counter("serve_ingest_errors").inc()

    # -- the query surface -----------------------------------------------------

    def handle_query(self, path: str, params: dict[str, str]) -> tuple[int, dict]:
        """Answer one GET: ``(http status, json body)``.  Runs on a server
        worker thread; everything it reads is either immutable (the index
        view) or swapped by reference (the organizations dataset)."""
        endpoint = path.strip("/")
        if endpoint == "status":
            return 200, self._status()
        if endpoint == "metrics":
            with self.registry_lock:
                return 200, self.registry.to_dict()
        if endpoint not in ENDPOINTS:
            return 404, {"error": f"unknown endpoint {path!r}"}
        started = time.perf_counter()
        try:
            view = self.ingestor.view()
            status, body = 200, getattr(self, f"_query_{endpoint}")(view, params)
        except _BadQuery as error:
            status, body = 400, {"error": str(error)}
        elapsed = time.perf_counter() - started
        with self.registry_lock:
            self.registry.histogram(QUERY_SECONDS, endpoint=endpoint).observe(elapsed)
            self.registry.counter(
                QUERY_COUNT,
                endpoint=endpoint,
                status="ok" if status == 200 else "error",
            ).inc()
        return status, body

    def _status(self) -> dict:
        """The ``/status`` body."""
        view = self.ingestor.view()
        options = self.ingestor.options
        return {
            "corpus": view.corpus,
            "snapshots": [s.label for s in view.snapshots],
            "signals": list(options.signals),
            "confirm_policy": options.confirm_policy,
            "last_ingest": self.last_ingest.to_dict() if self.last_ingest else None,
        }

    def _query_hypergiants(self, view, params: dict[str, str]) -> dict:
        """``/hypergiants``: the ranked deployers."""
        metric = params.get("metric", "confirmed")
        try:
            ranked = view.hypergiants(metric)
        except ValueError as error:
            raise _BadQuery(str(error)) from None
        return {"metric": metric, "hypergiants": list(ranked)}

    def _query_series(self, view, params: dict[str, str]) -> dict:
        """``/series``: one HG's per-snapshot AS counts."""
        hg = _require(params, "hg")
        metric = params.get("metric", "confirmed")
        try:
            points = view.series(hg, metric)
        except (KeyError, ValueError) as error:
            raise _BadQuery(str(error)) from None
        return {
            "hg": hg,
            "metric": metric,
            "snapshots": [snapshot.label for snapshot, _ in points],
            "counts": [count for _, count in points],
        }

    def _query_footprint(self, view, params: dict[str, str]) -> dict:
        """``/footprint``: the AS set itself for one HG at one snapshot."""
        hg = _require(params, "hg")
        snapshot = _parse_snapshot(_require(params, "snapshot"))
        metric = params.get("metric", "confirmed")
        try:
            if metric == "effective":
                ases = view.effective_footprint(hg, snapshot)
            else:
                ases = view.footprint_ases(hg, snapshot, metric)
        except (KeyError, ValueError) as error:
            raise _BadQuery(str(error)) from None
        return {
            "hg": hg,
            "snapshot": snapshot.label,
            "metric": metric,
            "ases": sorted(int(a) for a in ases),
        }

    def _query_diff(self, view, params: dict[str, str]) -> dict:
        """``/diff``: ASes gained and lost between two snapshots."""
        hg = _require(params, "hg")
        earlier = _parse_snapshot(_require(params, "from"))
        later = _parse_snapshot(_require(params, "to"))
        metric = params.get("metric", "confirmed")
        try:
            added, removed = view.diff(hg, earlier, later, metric)
        except (KeyError, ValueError) as error:
            raise _BadQuery(str(error)) from None
        return {
            "hg": hg,
            "from": earlier.label,
            "to": later.label,
            "metric": metric,
            "added": sorted(int(a) for a in added),
            "removed": sorted(int(a) for a in removed),
        }

    def _query_slice(self, view, params: dict[str, str]) -> dict:
        """``/slice``: cross-sections of one snapshot's confirmed off-nets.

        ``by=country`` buckets a HG's footprint by the hosting AS's
        registered country; ``by=as`` lists the hypergiants confirmed
        inside one AS.  ``by=cone`` is a deliberate 400: file datasets
        carry no AS-topology, so customer-cone sizes are unavailable here
        (the batch CLI's ``cones`` report needs a generated world).
        """
        by = _require(params, "by")
        snapshot = _parse_snapshot(_require(params, "snapshot"))
        try:
            footprint = view.at(snapshot)
        except KeyError as error:
            raise _BadQuery(str(error)) from None
        if by == "country":
            hg = _require(params, "hg")
            organizations = self.ingestor.organizations
            ases = footprint.confirmed_ases.get(hg, frozenset())
            buckets: dict[str, list[int]] = {}
            for asn in ases:
                country = organizations.country_of(asn) if organizations else None
                code = country.code if country is not None else "??"
                buckets.setdefault(code, []).append(int(asn))
            return {
                "by": "country",
                "hg": hg,
                "snapshot": snapshot.label,
                "countries": {
                    code: sorted(members) for code, members in sorted(buckets.items())
                },
            }
        if by == "as":
            asn_text = _require(params, "asn")
            try:
                asn = int(asn_text)
            except ValueError:
                raise _BadQuery(f"asn must be an integer, got {asn_text!r}") from None
            hosted = sorted(
                hg
                for hg, ases in footprint.confirmed_ases.items()
                if any(int(a) == asn for a in ases)
            )
            return {
                "by": "as",
                "asn": asn,
                "snapshot": snapshot.label,
                "hypergiants": hosted,
            }
        if by == "cone":
            raise _BadQuery(
                "by=cone is unavailable when serving file datasets: they "
                "carry no AS topology, so customer-cone sizes cannot be "
                "computed (use the batch cones report against a generated "
                "world instead)"
            )
        raise _BadQuery(f"unknown slice dimension {by!r} (use country or as)")


class _Server(ThreadingHTTPServer):
    """The daemon's listener: one daemon thread per connection (the
    ``daemon_threads`` class attribute it inherits)."""

    #: The listen backlog.  Clients open one connection per query, and
    #: ``socketserver``'s default of 5 overflows under a burst of them:
    #: the kernel drops the excess SYNs and each retries after a 1 s
    #: timeout (the kernel caps the value at ``net.core.somaxconn``).
    request_queue_size = 128


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP shim: parse the GET, delegate to the daemon, write JSON."""

    #: Injected by :meth:`ServeDaemon.start` via a subclass attribute.
    daemon_ref: ServeDaemon
    #: Headers and body go out as separate writes; with Nagle's algorithm
    #: on, a kept-alive connection holds the body back until the
    #: client's delayed ACK, about 40 ms per answer.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler's casing
        """Answer one GET request."""
        parts = urlsplit(self.path)
        params = dict(parse_qsl(parts.query))
        status, body = self.daemon_ref.handle_query(parts.path, params)
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        """Silence the default stderr request log."""
