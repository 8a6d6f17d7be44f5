"""Sim-clock time-series: a periodic scraper over flat-memory ring series.

End-of-run metric snapshots answer "how much"; the resource-exhaustion
literature the testbed reproduces (CVE-2023-50868, KeyTrap) asks "how
fast, and when" — cost *curves*, not terminal totals. The scraper is a
first-class periodic task on the :class:`~repro.net.sim.SimKernel`
(:meth:`SimKernel.every`): every ``interval_ms`` of committed simulated
time it samples a set of *selectors* (callables over the metrics
registry and the global cost meter) into :class:`RingSeries` — flat
``array('d')`` rings whose memory stays constant no matter how long the
campaign runs.

Samples land at the scrape's *due* time even when the clock jumps
(pacing, requeue delays), so curves have an even time base. Scraping
reads counters only — it never touches an RNG or advances the clock —
so a run with the scraper attached is byte-identical to one without.

Export: :meth:`TimeSeriesScraper.to_json` / :meth:`to_csv` produce
plottable documents (`t_ms` plus one column per series); :meth:`rates`
derives per-second rates from cumulative series (QPS, cost/s).
"""

from __future__ import annotations

import json
from array import array

from repro.dnssec.costmodel import meter

#: Default ring capacity: 4096 samples ≈ 34 simulated minutes at the
#: default 500 ms interval, in two 32 KiB arrays per series.
DEFAULT_CAPACITY = 4096


def family_sum(registry, name, **labels):
    """Sum of a family's child values whose labels match *labels*.

    Counters and gauges sum their values; histograms sum observation
    counts. Missing families sum to 0.0, so selectors are total
    functions over any registry.
    """
    family = registry.get(name)
    if family is None:
        return 0.0
    # Resolve the wanted labels to positions once per call — this runs
    # on every scrape tick, so the per-child work must stay a couple of
    # tuple indexes, not a dict build.
    wanted = []
    for key, value in labels.items():
        try:
            wanted.append((family.labelnames.index(key), str(value)))
        except ValueError:
            return 0.0  # label name the family does not carry: no match
    total = 0.0
    histogram = family.kind == "histogram"
    for labelvalues, child in family.samples():
        if any(labelvalues[index] != value for index, value in wanted):
            continue
        total += child.count if histogram else child.value
    return total


def _cache_hit_rate(registry):
    """The resolver verdict cache's hit rate (an expired entry is a miss)."""
    hits, misses = (
        family_sum(
            registry, "repro_cache_events_total", cache="resolver", event=event
        )
        for event in ("hit", "miss")
    )
    total = hits + misses
    return hits / total if total else 0.0


def default_selectors():
    """The standard scrape set: cost, traffic, hit rate, pressure curves."""
    return [
        ("cost_sha1_total", lambda r: float(meter.sha1_compressions)),
        ("verify_total", lambda r: float(meter.signature_verifications)),
        ("scan_queries_total", lambda r: family_sum(r, "repro_scan_queries_total")),
        (
            "probe_responses_total",
            lambda r: family_sum(r, "repro_probe_responses_total"),
        ),
        ("net_datagrams_total", lambda r: family_sum(r, "repro_net_datagrams_total")),
        ("cache_hit_rate", _cache_hit_rate),
        ("inflight_sessions", lambda r: family_sum(r, "repro_inflight_sessions")),
        ("guard_shed_total", lambda r: family_sum(r, "repro_guard_shed_total")),
        (
            "breaker_opens_total",
            lambda r: family_sum(r, "repro_circuit_transitions_total", to="open"),
        ),
        (
            "faults_injected_total",
            lambda r: family_sum(r, "repro_net_faults_injected_total"),
        ),
    ]


class RingSeries:
    """A bounded (t, value) series in two flat ``array('d')`` rings.

    Appends past capacity overwrite the oldest sample (``dropped``
    counts them), so resident memory is fixed at declaration time — the
    constant-memory-analytics posture the paper-scale campaigns need.
    """

    __slots__ = ("name", "capacity", "_t", "_v", "_head", "dropped")

    def __init__(self, name, capacity=DEFAULT_CAPACITY):
        self.name = name
        self.capacity = int(capacity)
        self._t = array("d")
        self._v = array("d")
        self._head = 0
        self.dropped = 0

    def append(self, t_ms, value):
        if len(self._t) < self.capacity:
            self._t.append(t_ms)
            self._v.append(value)
        else:
            self._t[self._head] = t_ms
            self._v[self._head] = value
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def items(self):
        """Samples in chronological order as ``(t_ms, value)`` pairs."""
        n = len(self._t)
        return [
            (self._t[(self._head + i) % n], self._v[(self._head + i) % n])
            for i in range(n)
        ]

    def last(self):
        """The most recent ``(t_ms, value)`` sample, or None."""
        if not self._t:
            return None
        n = len(self._t)
        index = (self._head + n - 1) % n
        return (self._t[index], self._v[index])

    def __len__(self):
        return len(self._t)


class TimeSeriesScraper:
    """Samples selectors into ring series on a kernel periodic task."""

    def __init__(
        self,
        kernel,
        registry,
        interval_ms=500.0,
        capacity=DEFAULT_CAPACITY,
        selectors=None,
    ):
        self.kernel = kernel
        self.registry = registry
        self.interval_ms = float(interval_ms)
        self.selectors = list(default_selectors() if selectors is None else selectors)
        self.series = {
            name: RingSeries(name, capacity) for name, __ in self.selectors
        }
        self.samples = 0
        self._task = None

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Register the scrape as a periodic kernel task; returns self."""
        if self._task is None:
            self._task = self.kernel.every(
                self.interval_ms, self.scrape, name="timeseries-scrape"
            )
        return self

    def stop(self):
        """Deregister the periodic task (samples are kept)."""
        if self._task is not None:
            self.kernel.cancel(self._task)
            self._task = None

    # -- sampling ------------------------------------------------------------

    def scrape(self, t_ms=None):
        """Take one sample of every selector at *t_ms* (default: now).

        The periodic task calls this with the scrape's due time; callers
        may also invoke it directly for a final end-of-campaign sample.
        """
        if t_ms is None:
            t_ms = self.kernel.clock.read()
        for name, selector in self.selectors:
            self.series[name].append(t_ms, float(selector(self.registry)))
        self.samples += 1

    # -- derived views -------------------------------------------------------

    def rates(self, name):
        """Per-second rates derived from a cumulative series.

        Returns ``(t_ms, rate)`` pairs, one per interval between
        consecutive samples — the QPS / cost-per-second curve for a
        ``*_total`` series.
        """
        points = self.series[name].items()
        out = []
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            dt_s = (t1 - t0) / 1000.0
            if dt_s > 0:
                out.append((t1, (v1 - v0) / dt_s))
        return out

    # -- export --------------------------------------------------------------

    def to_json(self):
        """The scraped series as a JSON-able dict (values parallel to t_ms)."""
        out = {
            "interval_ms": self.interval_ms,
            "samples": self.samples,
            "series": {},
        }
        for name, series in self.series.items():
            points = series.items()
            out["series"][name] = {
                "t_ms": [round(t, 3) for t, __ in points],
                "values": [v for __, v in points],
                "dropped": series.dropped,
            }
        return out

    def to_csv(self):
        """One CSV document: ``t_ms`` plus a column per series.

        All series sample on the same ticks, so rows align; a ragged
        state (a selector added mid-run) truncates to the shortest.
        """
        names = [name for name, __ in self.selectors]
        columns = [self.series[name].items() for name in names]
        lines = ["t_ms," + ",".join(names)]
        for row in zip(*columns):
            t_ms = row[0][0]
            values = ",".join(_csv_number(v) for __, v in row)
            lines.append(f"{_csv_number(t_ms)},{values}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        """Write the series to *path*: ``.csv`` gets CSV, else JSON."""
        if str(path).endswith(".csv"):
            text = self.to_csv()
        else:
            text = json.dumps(self.to_json(), sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _csv_number(value):
    if float(value).is_integer():
        return str(int(value))
    return repr(round(float(value), 6))
