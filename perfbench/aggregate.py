"""Arithmetic behind the benchmark's metrics, kept free of I/O so the
self-tests in perfbench/tests can pin it down."""

import math
import re


def percentile(values, q):
    """Linear-interpolation percentile (type 7), q in [0, 1].

    One sample is its own percentile at every q; an empty list has none.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def median(values):
    return percentile(values, 0.5)


def open_loop(due, sent, done):
    """Latency and send lag of open-loop requests, each timed from when it
    was due: a request that waited for a free connection pays that wait.

    All three lists hold seconds from the same start, one entry per request.
    Returns (latencies, send_lags).
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done differ in length")
    latencies = [d - t for t, d in zip(due, done)]
    lags = [s - t for t, s in zip(due, sent)]
    if any(value < 0.0 for value in latencies + lags):
        raise ValueError("a request was sent or done before it was due")
    return latencies, lags


# Outcome codes the cpwd_mixed generator records per request.
OK, WRONG_DIGEST, FAILED, REFUSED = 0, 1, 2, 3


def fail_ratio(statuses):
    """Share of operations that failed, were refused, or returned a wrong
    digest. Returns (attempted, failed, ratio)."""
    attempted = len(statuses)
    if attempted == 0:
        raise ValueError("no operations attempted")
    failed = sum(1 for status in statuses if status != OK)
    return attempted, failed, failed / attempted


def pool_efficiency(serial_sum_s, wall_s_p50, nproc):
    """Share of the pool's core-seconds that did the serial replay's work:
    serial_sum_s / (wall_s_p50 * nproc). 1.0 is perfect scaling."""
    if wall_s_p50 <= 0.0 or nproc < 1:
        raise ValueError("wall time and core count must be positive")
    return serial_sum_s / (wall_s_p50 * nproc)


_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """{(name, ((label, value), ...)): float} from Prometheus text format."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if not match:
            continue
        labels = tuple(sorted(_LABEL.findall(match.group(3) or "")))
        samples[(match.group(1), labels)] = float(match.group(4))
    return samples


def delta(before, after, name, **labels):
    """Sum over samples of `name` whose labels include `labels`, after minus
    before."""
    def total(samples):
        return sum(value for (sample_name, sample_labels), value in samples.items()
                   if sample_name == name and
                   all((k, v) in sample_labels for k, v in labels.items()))
    return total(after) - total(before)


def histogram_quantile(q, buckets):
    """Quantile from cumulative (upper_bound, count) buckets, interpolating
    linearly inside the bucket that holds it (Prometheus semantics; the
    +Inf bucket returns its lower edge)."""
    buckets = sorted(buckets)
    if not buckets or buckets[-1][1] <= 0:
        raise ValueError("empty histogram")
    rank = q * buckets[-1][1]
    lower, below = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank and cumulative > below:
            if math.isinf(bound):
                return lower
            return lower + (bound - lower) * (rank - below) / (cumulative - below)
        lower, below = bound, cumulative
    return lower


def histogram_delta(before, after, name, **labels):
    """Cumulative (le, count) buckets of `name` over the interval."""
    bounds = set()
    for (sample_name, sample_labels) in after:
        if sample_name == name + "_bucket":
            bounds.update(v for k, v in sample_labels if k == "le")
    return [(float(le), delta(before, after, name + "_bucket", le=le, **labels))
            for le in bounds]


def stage_deltas(before, after):
    """{stage: {"sum_s", "count"}} of cpw_stage_seconds over the interval."""
    stages = {}
    for (sample_name, sample_labels) in after:
        if sample_name != "cpw_stage_seconds_count":
            continue
        stage = dict(sample_labels).get("stage")
        count = delta(before, after, "cpw_stage_seconds_count", stage=stage)
        if count > 0:
            stages[stage] = {
                "sum_s": delta(before, after, "cpw_stage_seconds_sum", stage=stage),
                "count": count,
            }
    return stages
