"""The typed stage graph: declarations, scheduling, artifact caching.

A :class:`Stage` is one step of the §4 dataflow as a small object: a
declared name, the names of the stages it consumes, the subset of
``PipelineOptions`` switches it reads, a code-version string, and a pure
``run()``.  A :class:`StageGraph` owns the edges and the scheduler.

The scheduler is a build system in miniature:

1. every stage's artifact key is derived **top-down from keys alone**
   (:mod:`repro.core.stages.keys`) — no stage value is needed to know
   whether a downstream artifact is reusable;
2. targets are then **forced lazily**, in two passes over their
   dependency closure: consumers before producers, each needed stage is
   looked up — a cached stage loads its value and replays its counter
   fragment, and only a miss makes its inputs needed; then, producers
   first, the misses run and store their new artifacts.

Consequences the tests pin down: a fully warm run never loads the
corpus at all; flipping one option switch recomputes exactly the
invalidated suffix of the graph; and because every stage's funnel
counters travel inside its artifact, a cache hit books bit-identical
funnel counts to a recompute.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from time import perf_counter
from typing import Any

from repro.core.stages.cache import ArtifactCache, NullCache
from repro.core.stages.keys import artifact_key, option_subset
from repro.obs.metrics import MetricsRegistry
from repro.obs.timers import STAGE_SECONDS

__all__ = ["Stage", "StageContext", "StageGraph", "STAGE_CACHE_EVENTS"]

#: The counter every cache lookup books into the run report:
#: ``stage_cache_events{stage=..., event=hit|miss|store}``.
STAGE_CACHE_EVENTS = "stage_cache_events"


@dataclass(frozen=True, slots=True)
class StageContext:
    """Everything a stage ``run()`` may touch besides its typed inputs.

    ``pipeline`` carries the per-run collaborators (data source, the
    §4.1 validator with its cross-snapshot verdict caches, the learned
    §4.4 header rules); ``options`` is the full switch set, but a stage
    must only read the switches it declared in ``option_keys`` — the
    cache key covers nothing else.  Nothing about how the run is
    executed (serial, or which shard of a parallel run) reaches a stage,
    so a cache populated at one shard geometry hits at every other
    (including serial ``--resume``).
    """

    pipeline: Any
    snapshot: Any
    options: Any


@dataclass(frozen=True, slots=True)
class Stage:
    """One declared step of the per-snapshot dataflow.

    A stage is a pure function ``run(ctx, inputs, counters) -> value``
    plus the metadata the scheduler needs to cache it soundly: its
    ``deps`` (whose values become ``inputs``), the ``option_keys`` it
    is allowed to read, a ``version`` to bump when its logic changes,
    and whether its artifact is ``cacheable``/``heavy``.  The artifact
    key is derived from exactly this metadata plus the upstream keys
    and the data fingerprint — nothing else can invalidate it.
    """

    #: The stage's name — also its label in timings and cache counters.
    name: str
    #: Names of upstream stages whose values ``run`` consumes.
    deps: tuple[str, ...]
    #: The ``PipelineOptions`` switches this stage reads (its cache key
    #: covers exactly these, so unrelated flips never invalidate it).
    option_keys: tuple[str, ...]
    #: The stage body: ``run(ctx, inputs, counters) -> value``.  Must be
    #: pure in (inputs, declared options, source data) and must book
    #: every deterministic counter into ``counters`` — that fragment is
    #: cached with the value and replayed on hits.
    run: Callable[[StageContext, Mapping[str, Any], MetricsRegistry], Any]
    #: Bump when the stage's logic changes — old artifacts die with the
    #: old version string.
    version: str = "1"
    #: Whether the artifact may be cached at all (the corpus-loading
    #: root stage is not: its value is the live store object; nor is
    #: §4.1 validation, which recomputes faster than it unpickles).
    cacheable: bool = True
    #: Heavy artifacts (per-row payloads) skip the memory tier.
    heavy: bool = False
    #: Free-form input/output type notes, surfaced by ``--stages list``.
    produces: str = ""


class StageGraph:
    """A validated DAG of stages plus the caching scheduler.

    Construction validates the graph (unique names, known deps, no
    cycles) and fixes a topological ``order``.  :meth:`execute` forces
    a target set through an :class:`~repro.core.stages.cache.ArtifactCache`
    with an explicit two-pass loop, replaying cached counter fragments on
    hits; :meth:`probe` asks
    which artifacts already exist without running anything;
    :meth:`keys`/:meth:`closure` expose the addressing and dependency
    closure the CLI surfaces build on.
    """

    def __init__(self, stages: Iterable[Stage]) -> None:
        self.stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise ValueError(f"duplicate stage name {stage.name!r}")
            self.stages[stage.name] = stage
        sorter: TopologicalSorter = TopologicalSorter()
        for stage in self.stages.values():
            for dep in stage.deps:
                if dep not in self.stages:
                    raise ValueError(
                        f"stage {stage.name!r} depends on unknown stage {dep!r}"
                    )
            sorter.add(stage.name, *stage.deps)
        try:
            self.order: tuple[str, ...] = tuple(sorter.static_order())
        except CycleError as error:
            raise ValueError(f"stage graph has a cycle: {error.args[1]}") from error

    # -- keying ------------------------------------------------------------

    def keys_for(self, options: Any, snapshot_token: str) -> dict[str, str]:
        """Every stage's artifact key, derived without running anything."""
        keys: dict[str, str] = {}
        for name in self.order:
            stage = self.stages[name]
            keys[name] = artifact_key(
                stage.name,
                stage.version,
                option_subset(options, stage.option_keys),
                {dep: keys[dep] for dep in stage.deps},
                snapshot_token,
            )
        return keys

    def closure(self, targets: Iterable[str]) -> tuple[str, ...]:
        """``targets`` plus every transitive dependency, in topo order."""
        wanted: set[str] = set()
        frontier = list(targets)
        while frontier:
            name = frontier.pop()
            if name in wanted:
                continue
            if name not in self.stages:
                raise KeyError(
                    f"unknown stage {name!r}; stages: {', '.join(self.order)}"
                )
            wanted.add(name)
            frontier.extend(self.stages[name].deps)
        return tuple(name for name in self.order if name in wanted)

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        ctx: StageContext,
        snapshot_token: str,
        registry: MetricsRegistry,
        cache: ArtifactCache | None = None,
        targets: Iterable[str] | None = None,
    ) -> dict[str, Any]:
        """Force ``targets`` (default: every stage), returning the stage
        values the run touched.

        A cached stage is a *hit*: its value loads, its counter fragment
        merges into ``registry``, and its inputs are never materialized.
        A miss makes its inputs needed; once they exist it runs with a
        fresh counter fragment and merges + stores the fragment
        alongside the value.  Cache traffic books into
        ``stage_cache_events{stage=, event=hit|miss|store}``.

        Every touched stage observes ``stage_seconds{stage=}`` once: its
        *self* seconds, its own lookup, run and store, never its inputs'.
        No closure or frame outlives the call, so the returned values die
        by reference count as soon as the caller drops them.
        """
        cache = cache if cache is not None else NullCache()
        keys = self.keys_for(ctx.options, snapshot_token)
        targets = self.order if targets is None else tuple(targets)
        closure = self.closure(targets)  # an unknown target fails by name
        needed = set(targets)
        values: dict[str, Any] = {}
        seconds: dict[str, float] = {}
        misses: list[str] = []
        # Pass one, consumers before producers: by the time a stage is
        # reached, every stage that reads it has decided whether it
        # needs the value.  A hit ends the walk along that edge; a miss
        # (or an uncacheable stage) needs its inputs.
        for name in reversed(closure):
            if name not in needed:
                continue
            stage = self.stages[name]
            start = perf_counter()
            if stage.cacheable:
                artifact = cache.get(keys[name], heavy=stage.heavy)
                if artifact is not None:
                    value, fragment = artifact
                    values[name] = value
                    registry.merge(MetricsRegistry.from_dict(fragment))
                    registry.counter(STAGE_CACHE_EVENTS, stage=name, event="hit").inc()
                    seconds[name] = perf_counter() - start
                    continue
                registry.counter(STAGE_CACHE_EVENTS, stage=name, event="miss").inc()
            needed.update(stage.deps)
            misses.append(name)
            seconds[name] = perf_counter() - start
        # Pass two, producers first: run the misses.
        for name in reversed(misses):
            stage = self.stages[name]
            start = perf_counter()
            counters = MetricsRegistry()
            value = stage.run(ctx, {dep: values[dep] for dep in stage.deps}, counters)
            registry.merge(counters)
            if stage.cacheable:
                cache.put(keys[name], (value, counters.to_dict()), heavy=stage.heavy)
                registry.counter(STAGE_CACHE_EVENTS, stage=name, event="store").inc()
            values[name] = value
            seconds[name] += perf_counter() - start
        for name, elapsed in seconds.items():
            registry.histogram(STAGE_SECONDS, stage=name).observe(elapsed)
        return values

    def probe(
        self, options: Any, snapshot_token: str, cache: ArtifactCache
    ) -> dict[str, bool]:
        """Which cacheable stages already have an artifact (no execution) —
        what ``--resume`` reports before restarting an interrupted run.
        Uncached stages have no artifact to ask about and are left out;
        a cache that cannot answer membership (no ``__contains__``)
        reports every stage as not cached."""
        keys = self.keys_for(options, snapshot_token)
        known = hasattr(cache, "__contains__")
        return {
            name: known and keys[name] in cache
            for name in self.order
            if self.stages[name].cacheable
        }
