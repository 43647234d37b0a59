"""End-to-end metrics of one untraced benchmark run."""

import statistics

from jobs import error_digits

#: job_s_tail reports the highest percentile with at least this many jobs beyond it.
TAIL_BEYOND = 10

#: Every end-to-end metric, with its unit.
END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "iters_total": "count",
    "fwd_err_digits_min": "digits",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tail(times) -> tuple:
    """(value, percentile, jobs beyond) for the highest percentile of ``times``
    that has at least TAIL_BEYOND samples above it; the maximum when there
    are TAIL_BEYOND samples or fewer."""
    count = len(times)
    if count == 0:
        raise ValueError("need at least one sample")
    ordered = sorted(times)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count, count - index - 1


def end_to_end(passes, setup_samples, peak_rss_kb: int) -> tuple:
    """Metrics of a run from its passes, each a list of (seconds, Outcome) per
    job.  Returns ({name: value}, tail percentile, jobs beyond the tail)."""
    records = [record for one_pass in passes for record in one_pass]
    # A job does the same work in every pass, so its times differ mostly by
    # what else the machine runs: load from other tenants of a shared host
    # only ever adds time, in bursts that can outlast half a run, which moves
    # a median or an upper percentile of the raw times but not a minimum.
    # Every timing is therefore taken over the jobs, each at its best time.
    job_best = [min(seconds for seconds, _ in runs) for runs in zip(*passes)]
    tail_s, percentile, beyond = tail(job_best)
    failed = sum(outcome.failed for _, outcome in records)
    metrics = {
        "jobs_per_s": len(job_best) / sum(job_best),
        "job_s_p50": statistics.median(job_best),
        "job_s_tail": tail_s,
        "iters_total": float(sum(outcome.iterations for _, outcome in passes[0])),
        "fwd_err_digits_min": min(error_digits(outcome.fwd_err) for _, outcome in records),
        "ok_frac": (len(records) - failed) / len(records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return metrics, percentile, beyond
