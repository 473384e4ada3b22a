"""Normality validation of per-minute flow measurements.

Pipeline: ingest per-minute flow CSVs, pool readings into per-slot
samples (restricted to a morning window, weekday-filtered, aggregated
over tau-minute slots), run a chi-squared goodness-of-fit test against
a normal distribution with MLE-fitted parameters and equiprobable
decile bins, optionally on linear combinations of two aligned sites,
and report p-values cumulatively (slope 0.5 under the null).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

__all__ = [
    "FlowSeries", "SlotSample", "TestResult", "IngestReport",
    "PAIR_SET", "TAUS", "ingest", "slot_samples", "chi2_normality",
    "linear_combination_tests", "cumulative_pvalue_curve",
]

TAUS = (1, 2, 5, 10, 20)
MIN_SAMPLE = 90
N_BINS = 10
DF = N_BINS - 1 - 2  # two parameters fitted from the same data
WINDOW = (4, 11)  # 4 am - 11 am
EXCLUDED_WEEKDAYS = (4, 5, 6)  # Friday, Saturday, Sunday
PAIR_SET = (
    (2, -2), (2, -1), (2, -0.5), (2, 0.5), (2, 1), (2, 2),
    (-1, 2), (-0.5, 2), (0.5, 2), (1, 2),
)
P_BANDS = ((0.01, "0-0.01"), (0.05, "0.01-0.05"), (0.5, "0.05-0.5"),
           (1.0 + 1e-12, "0.5-1"))


@dataclass
class FlowSeries:
    site: str
    times: list  # datetime, strictly increasing
    flows: np.ndarray  # veh/h, >= 0


@dataclass
class IngestReport:
    rows: int = 0
    skipped: int = 0
    reasons: dict = field(default_factory=dict)

    def skip(self, reason):
        self.skipped += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


@dataclass
class SlotSample:
    tau: int
    slot: int  # 1-based index within the window
    values: np.ndarray

    @property
    def size(self):
        return len(self.values)


@dataclass
class TestResult:
    slot: int
    statistic: float
    p_value: float
    mean: float
    std: float
    size: int
    label: str = "univariate"
    skipped: bool = False


def ingest(path):
    """Parse a (site, timestamp, flow) CSV into one FlowSeries per site;
    malformed rows are counted and skipped."""
    per_site = {}
    report = IngestReport()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            report.rows += 1
            if len(row) != 3:
                report.skip("bad column count")
                continue
            site, ts, flow = (c.strip() for c in row)
            if report.rows == 1 and flow.lower() == "flow":
                report.rows -= 1  # header
                continue
            try:
                t = datetime.fromisoformat(ts)
                v = float(flow)
            except ValueError:
                report.skip("unparseable field")
                continue
            if v < 0:
                report.skip("negative flow")
                continue
            bucket = per_site.setdefault(site, ([], []))
            if bucket[0] and t <= bucket[0][-1]:
                report.skip("non-increasing timestamp")
                continue
            bucket[0].append(t)
            bucket[1].append(v)
    return (
        {s: FlowSeries(s, t, np.asarray(v)) for s, (t, v) in per_site.items()},
        report,
    )


def slot_samples(series: FlowSeries, tau, window=WINDOW,
                 excluded_weekdays=EXCLUDED_WEEKDAYS):
    """Pool the tau consecutive per-minute readings of each slot across
    all retained days.  Slots are indexed 1..(window minutes)/tau."""
    if tau not in TAUS:
        raise ValueError(f"tau must be one of {TAUS}")
    start_min, end_min = window[0] * 60, window[1] * 60
    n_slots = (end_min - start_min) // tau
    pooled = [[] for _ in range(n_slots)]
    for t, v in zip(series.times, series.flows):
        if t.weekday() in excluded_weekdays:
            continue
        minute = t.hour * 60 + t.minute
        if not start_min <= minute < start_min + n_slots * tau:
            continue
        pooled[(minute - start_min) // tau].append(v)
    return [SlotSample(tau, s + 1, np.asarray(vals))
            for s, vals in enumerate(pooled)]


def _values(sample):
    return sample.values if isinstance(sample, SlotSample) else np.asarray(sample)


def chi2_normality(sample, label="univariate") -> TestResult:
    """Chi-squared normality test with 10 equiprobable bins at the
    deciles of the fitted normal (MLE: mean, 1/n std)."""
    from scipy.special import chdtrc, ndtri
    x = _values(sample)
    slot = sample.slot if isinstance(sample, SlotSample) else 0
    n = len(x)
    if n < MIN_SAMPLE:
        return TestResult(slot, np.nan, np.nan, np.nan, np.nan, n,
                          label, skipped=True)
    mean = float(x.mean())
    std = float(x.std())  # MLE normalizer 1/n
    if std <= 0:
        return TestResult(slot, np.inf, 0.0, mean, std, n, label)
    # norm.ppf and chi2.sf of scipy.stats, by the same arithmetic
    edges = ndtri(np.arange(1, N_BINS) / N_BINS) * std + mean
    counts = np.bincount(np.searchsorted(edges, x), minlength=N_BINS)
    expected = n / N_BINS
    stat = float(((counts - expected) ** 2 / expected).sum())
    return TestResult(slot, stat, float(chdtrc(DF, stat)), mean, std, n, label)


def linear_combination_tests(sample_i: SlotSample, sample_j: SlotSample,
                             tau, pairs=PAIR_SET):
    """chi2_normality applied to a*X_i + b*X_j for each weight pair;
    the two samples must be time-aligned."""
    if (sample_i.tau, sample_i.slot) != (sample_j.tau, sample_j.slot) \
            or sample_i.size != sample_j.size:
        raise ValueError("samples are not time-aligned")
    out = []
    for a, b in pairs:
        label = f"({a:g},{b:g})"
        combo = SlotSample(tau, sample_i.slot,
                           a * sample_i.values + b * sample_j.values)
        out.append(chi2_normality(combo, label=label))
    return out


def cumulative_pvalue_curve(results):
    """Running sum of p-values over slot-ordered results (skipped ones
    contribute 0) with the p-value band of each segment."""
    slots = [r.slot for r in results if not r.skipped]
    if slots != sorted(slots):
        raise ValueError("results must be sorted by slot")
    cum, bands, total = [], [], 0.0
    for r in results:
        p = 0.0 if r.skipped else r.p_value
        total += p
        cum.append(total)
        bands.append("skipped" if r.skipped else
                     next(name for hi, name in P_BANDS if p < hi or hi > 1))
    return np.asarray(cum), bands
