"""Realism scoring: does a generated world look like the paper's Internet?

The scenario engine can build arbitrarily skewed worlds on purpose; this
module measures how far any world sits from the distributions the paper
anchors its findings to, so the test suite can assert the default world
stays inside paper-plausible bands while a deliberately skewed world is
flagged.

Seven metrics, each a pure function of the built topology and the
ground-truth deployment plan (no pipeline run needed):

``stub_share``
    Fraction of ASes that are stubs at the study's end (§6.3: ~85% of the
    Internet; the Fig. 5 census baseline).
``cone_mix_l1``
    L1 distance between the end-of-study cone-category shares and the
    paper's census shares (§6.3 / Fig. 5).
``census_growth``
    AS-census growth over the study (paper: 45k → 71k, §6.3).
``region_mix_l1``
    L1 distance between the continental AS mix and the weighted country
    table the paper's Fig. 6 regional analysis reflects (§6.4).
``growth_shape_google``
    Google's ground-truth off-net AS growth end/start ratio (Fig. 3:
    ~1.0k → ~3.8k ASes).
``growth_monotonic_google``
    Fraction of quarterly Google deltas that are non-negative — Fig. 3
    shows near-monotonic growth for Google.
``akamai_peak_decline``
    Akamai's decline from its peak footprint (Fig. 3: Akamai peaks
    mid-study and consolidates ~25% by 2021).

The report is versioned JSON (schema :data:`REALISM_SCHEMA`), written by
``tools/assess_realism.py --out``.
"""

from __future__ import annotations

from repro.topology.categories import INTERNET_CATEGORY_SHARES, ConeCategory
from repro.topology.geography import COUNTRIES

__all__ = ["REALISM_SCHEMA", "assess_world"]

#: Schema tag of the realism report (bump on breaking layout changes).
REALISM_SCHEMA = "repro.realism-report/1"


def _metric(
    name: str,
    value: float,
    expected: float,
    band: tuple[float, float],
    paper_ref: str,
    detail: str,
) -> dict:
    """One scored metric: observed value vs the paper-anchored band."""
    low, high = band
    return {
        "name": name,
        "value": round(value, 4),
        "expected": expected,
        "band": [low, high],
        "ok": low <= value <= high,
        "paper_ref": paper_ref,
        "detail": detail,
    }


def _series(plan, hypergiant: str, snapshots) -> list[int]:
    """Ground-truth deployed-AS counts per snapshot for one hypergiant."""
    return [len(plan.deployed_at(hypergiant, snapshot)) for snapshot in snapshots]


def _growth_ratio(series: list[int]) -> float:
    """End count over the first non-zero count (0.0 if never deployed)."""
    for count in series:
        if count:
            return series[-1] / count
    return 0.0


def _monotonic_fraction(series: list[int]) -> float:
    """Fraction of non-negative quarterly deltas after first deployment."""
    first = next((index for index, count in enumerate(series) if count), None)
    if first is None or first == len(series) - 1:
        return 0.0
    active = series[first:]
    deltas = [b - a for a, b in zip(active, active[1:])]
    return sum(1 for delta in deltas if delta >= 0) / len(deltas)


def _peak_decline(series: list[int]) -> float:
    """Relative decline from the series' peak to its end value."""
    peak = max(series, default=0)
    if not peak:
        return 0.0
    return (peak - series[-1]) / peak


def assess_world(world) -> dict:
    """Score ``world`` against the paper's distributions.

    ``world`` is a :class:`~repro.world.world.World` (duck-typed: needs
    ``topology``, ``plan`` and ``scenario_meta()``).  Everything is read
    from the built topology and ground-truth plan, so scoring a world is
    cheap — no pipeline run, no corpus generation.

    Returns the :data:`REALISM_SCHEMA` report: per-metric values, bands,
    pass/fail bits, and the overall ``realistic`` verdict (every metric
    inside its band).
    """
    topology = world.topology
    plan = world.plan
    snapshots = topology.snapshots
    start, end = snapshots[0], snapshots[-1]

    counts = topology.category_counts_at(end)
    total = sum(counts.values()) or 1
    shares = {category: counts[category] / total for category in ConeCategory}
    cone_l1 = sum(
        abs(shares[category] - INTERNET_CATEGORY_SHARES[category])
        for category in ConeCategory
    )

    alive_start = len(topology.alive(start)) or 1
    census_growth = len(topology.alive(end)) / alive_start

    continent_counts: dict[str, int] = {}
    for asn in topology.alive(end):
        name = topology.countries[asn].continent.value
        continent_counts[name] = continent_counts.get(name, 0) + 1
    observed_total = sum(continent_counts.values()) or 1
    weight_total = sum(country.as_weight for country in COUNTRIES)
    expected_mix: dict[str, float] = {}
    for country in COUNTRIES:
        name = country.continent.value
        expected_mix[name] = expected_mix.get(name, 0.0) + country.as_weight / weight_total
    region_l1 = sum(
        abs(continent_counts.get(name, 0) / observed_total - share)
        for name, share in expected_mix.items()
    )

    google = _series(plan, "google", snapshots)
    akamai = _series(plan, "akamai", snapshots)

    metrics = [
        _metric(
            "stub_share",
            shares[ConeCategory.STUB],
            0.85,
            (0.70, 0.93),
            "§6.3 / Fig. 5",
            "fraction of end-of-study ASes that are stubs (paper: ~85%)",
        ),
        _metric(
            "cone_mix_l1",
            cone_l1,
            0.0,
            (0.0, 0.15),
            "§6.3 / Fig. 5",
            "L1 distance of the cone-category census from the paper shares",
        ),
        _metric(
            "census_growth",
            census_growth,
            71 / 45,
            (1.25, 1.95),
            "§6.3",
            "AS census end/start ratio (paper: 45k -> 71k over the study)",
        ),
        _metric(
            "region_mix_l1",
            region_l1,
            0.0,
            (0.0, 0.18),
            "§6.4 / Fig. 6",
            "L1 distance of the continental AS mix from the country table",
        ),
        _metric(
            "growth_shape_google",
            _growth_ratio(google),
            3810 / 1044,
            (2.2, 5.5),
            "Fig. 3",
            "Google off-net ASes, end over first deployment (paper: ~3.7x)",
        ),
        _metric(
            "growth_monotonic_google",
            _monotonic_fraction(google),
            1.0,
            (0.85, 1.0),
            "Fig. 3",
            "fraction of non-negative quarterly Google deltas (near-monotonic)",
        ),
        _metric(
            "akamai_peak_decline",
            _peak_decline(akamai),
            0.25,
            (0.05, 0.60),
            "Fig. 3",
            "Akamai decline from peak footprint to study end (paper: ~25%)",
        ),
    ]
    passed = sum(1 for metric in metrics if metric["ok"])
    return {
        "schema": REALISM_SCHEMA,
        "scenario": world.scenario_meta(),
        "metrics": metrics,
        "passed": passed,
        "total": len(metrics),
        "score": round(passed / len(metrics), 4),
        "realistic": passed == len(metrics),
    }
