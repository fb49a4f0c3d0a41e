"""§4.4 — learning per-hypergiant HTTP(S) header fingerprints.

The paper inspects on-net responses in the Rapid7 header corpus (September
2020), filters common standard headers, takes the 50 most frequent header
name:value pairs and the most frequent names per HG, and then *manually*
classifies which identify the HG ("HG-specific headers were easily
identifiable either from a unique header name or value containing an
abbreviated name of the Hypergiant"; automation is left as future work).

This module performs that whole procedure, automating the manual step with
the paper's own two criteria:

1. **abbreviation match** — the name or value contains a known abbreviation
   of the HG (``fb``, ``amz``, ``cf-``, ``tengine``...), or the HG keyword
   itself;
2. **uniqueness** — the name (or the exact name:value pair) is frequent on
   this HG's on-nets and never appears in a background sample or on other
   HGs' on-nets.

The learned rules come out as :class:`~repro.hypergiants.profiles.HeaderRule`
values and can be compared directly against the curated Table 4.
"""

from __future__ import annotations

from collections import Counter

from repro.hypergiants.profiles import HeaderRule, STANDARD_HEADERS
from repro.scan.records import ScanSnapshot
from repro.store import SnapshotStore

__all__ = ["learn_header_fingerprints", "HG_ABBREVIATIONS"]

#: Abbreviated names per HG, as the paper's manual step recognised them.
HG_ABBREVIATIONS: dict[str, tuple[str, ...]] = {
    "google": ("google", "gws", "gvs", "x_fw_"),
    "facebook": ("facebook", "fb", "proxygen"),
    "netflix": ("netflix", "nflx", "tcp-info"),
    "akamai": ("akamai",),
    "alibaba": ("alibaba", "aliyun", "tengine", "eagleid"),
    "cloudflare": ("cloudflare", "cf-"),
    "amazon": ("amazon", "amz", "aws", "cloudfront"),
    "cdnetworks": ("cdnetworks", "pws"),
    "limelight": ("limelight", "llid", "edgeprism"),
    "apple": ("apple", "cdnuuid"),
    "twitter": ("twitter", "tsa_"),
    "microsoft": ("microsoft", "msedge"),
    "fastly": ("fastly", "x-served-by"),
    "verizon": ("verizon", "ecacc"),
    "incapsula": ("incapsula", "incap"),
    "hulu": ("hulu",),
}

#: Generic banners that must never become a fingerprint on their own.
_GENERIC_VALUES = frozenset(
    v.lower()
    for v in ("nginx", "apache", "openresty", "lighttpd", "microsoft-iis/8.5", "cloudfront")
)

_TOP_PAIRS = 50
#: A pair/name must cover at least this share of the HG's on-net responses.
_MIN_SUPPORT = 0.05
#: ...and at most this share of the background sample.
_MAX_BACKGROUND = 0.005


def _mentions_abbreviation(text: str, hypergiant: str) -> bool:
    needles = HG_ABBREVIATIONS.get(hypergiant, (hypergiant,))
    lowered = text.lower()
    return any(needle in lowered for needle in needles)


def _group_counters(
    store: SnapshotStore, groups: list[frozenset[int]]
) -> list[tuple[Counter, Counter, int]]:
    """(name:value counter, name counter, responses) for each IP group,
    from one pass over the store's HTTP rows.

    The pass counts rows per interned header tuple for each group; each
    tuple is then expanded once, weighted by its row count.  A group's
    tuples expand in the order it first saw them, so every pair and name
    enters its counter in first-seen row order, the order
    ``Counter.most_common`` breaks ties by.
    """
    membership: dict[int, list[int]] = {}
    for group, ips in enumerate(groups):
        for ip in ips:
            membership.setdefault(ip, []).append(group)
    rows_per_tuple: list[dict[int, int]] = [{} for _ in groups]
    for ip, header_index in zip(store.http_ip, store.http_header):
        member_of = membership.get(ip)
        if member_of is None:
            continue
        for group in member_of:
            counts = rows_per_tuple[group]
            counts[header_index] = counts.get(header_index, 0) + 1
    header_table = store.header_table
    # Each tuple's non-standard pairs, filtered once for every group.
    nonstandard: dict[int, list[tuple[str, str]]] = {}
    counted = []
    for counts in rows_per_tuple:
        pair_counts: Counter = Counter()
        name_counts: Counter = Counter()
        for header_index, rows in counts.items():
            pairs = nonstandard.get(header_index)
            if pairs is None:
                pairs = nonstandard[header_index] = [
                    (name, value)
                    for name, value in header_table[header_index]
                    if name.lower() not in STANDARD_HEADERS
                ]
            for pair in pairs:
                pair_counts[pair] += rows
                name_counts[pair[0]] += rows
        counted.append((pair_counts, name_counts, sum(counts.values())))
    return counted


def _common_prefix(values: list[str]) -> str:
    """Longest common prefix of a list of strings."""
    if not values:
        return ""
    shortest = min(values, key=len)
    for index, char in enumerate(shortest):
        if any(v[index] != char for v in values):
            return shortest[:index]
    return shortest


def learn_header_fingerprints(
    scan: ScanSnapshot,
    onnet_ips: dict[str, frozenset[int]],
    background_ips: frozenset[int],
) -> dict[str, tuple[HeaderRule, ...]]:
    """Learn header rules per HG from one header-corpus snapshot.

    ``onnet_ips`` maps HG key → its on-net IPs (from §4.2);
    ``background_ips`` is a sample of non-HG responsive servers used to
    reject headers that are common on the ordinary web.
    """
    hypergiants = list(onnet_ips)
    counted = _group_counters(
        scan.store, [background_ips, *(onnet_ips[hg] for hg in hypergiants)]
    )
    background_pairs, background_names, background_total = counted[0]
    background_total = max(1, background_total)

    # Names seen on more than one HG's on-nets are ambiguous unless the
    # value itself names the HG (e.g. "Server" appears everywhere).
    collected: dict[str, tuple[Counter, Counter, int]] = dict(
        zip(hypergiants, counted[1:])
    )
    per_hg_names: dict[str, set[str]] = {
        hypergiant: {name.lower() for name in name_counts}
        for hypergiant, (_, name_counts, _) in collected.items()
    }

    name_owners: Counter = Counter()
    for names in per_hg_names.values():
        name_owners.update(names)

    results: dict[str, tuple[HeaderRule, ...]] = {}
    for hypergiant, (pair_counts, name_counts, total) in collected.items():
        if total == 0:
            results[hypergiant] = ()
            continue
        rules: list[HeaderRule] = []
        claimed_names: set[str] = set()

        # Pass 1: constant name:value pairs among the top-50.
        for (name, value), count in pair_counts.most_common(_TOP_PAIRS):
            lowered = name.lower()
            if count / total < _MIN_SUPPORT:
                continue
            if background_pairs[(name, value)] / background_total > _MAX_BACKGROUND:
                continue
            if value.lower() in _GENERIC_VALUES:
                continue
            specific = _mentions_abbreviation(f"{name}:{value}", hypergiant)
            unique = name_owners[lowered] == 1 and lowered not in background_names
            if not (specific or unique):
                continue
            # Is the value constant, or does it share a telling prefix?
            values = [v for (n, v), c in pair_counts.items() if n == name and c > 0]
            if len(set(values)) == 1:
                rules.append(HeaderRule(name, value))
                claimed_names.add(lowered)

        # Pass 2: frequent names whose values vary (request ids, debug
        # tokens) become name-only or value-prefix rules.
        for name, count in name_counts.most_common(_TOP_PAIRS):
            lowered = name.lower()
            if lowered in claimed_names:
                continue
            if count / total < _MIN_SUPPORT:
                continue
            # Varying values with an abbreviation-bearing common prefix
            # become a value-prefix rule (``Server: gws*``).  The background
            # check applies to the *pattern*, not the bare name — ``Server``
            # is ubiquitous, ``Server: gws...`` is not.
            values = sorted(
                {v for (n, v), c in pair_counts.items() if n == name and c > 0}
            )
            if len(values) > 1:
                prefix = _common_prefix(values)
                if len(prefix) >= 3 and _mentions_abbreviation(prefix, hypergiant):
                    background_hits = sum(
                        c
                        for (n, v), c in background_pairs.items()
                        if n == name and v.startswith(prefix)
                    )
                    if background_hits / background_total <= _MAX_BACKGROUND:
                        rules.append(HeaderRule(name, prefix + "*"))
                        claimed_names.add(lowered)
                        continue
            if background_names[name] / background_total > _MAX_BACKGROUND:
                continue
            specific = _mentions_abbreviation(name, hypergiant)
            unique = name_owners[lowered] == 1 and name not in background_names
            if specific or unique:
                rules.append(HeaderRule(name, None))
                claimed_names.add(lowered)

        results[hypergiant] = tuple(rules)
    return results
