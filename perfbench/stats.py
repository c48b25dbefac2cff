"""Summary statistics for op latencies and failures."""

import statistics


def tail(times) -> dict:
    """The highest percentile with at least ten ops beyond it.

    That is the order statistic with exactly ten larger samples. With
    fewer than 21 ops it would fall at or below the median, so the median
    is reported instead; `beyond` records how many ops lie above the value
    either way.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail needs at least one sample")
    if n >= 21:
        return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "beyond": 10, "ops": n}
    median = statistics.median(ordered)
    return {"value": median, "percentile": 50.0, "beyond": sum(t > median for t in ordered), "ops": n}


def failed_ratio(failed: int, attempted: int) -> float:
    """Share of attempted ops that raised, exited non-zero or gave wrong output."""
    if attempted < 1:
        raise ValueError("no op was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed ops {failed} outside [0, {attempted}]")
    return failed / attempted


def by_kind(records, field: str) -> dict:
    """Times of the records grouped by op kind, in first-seen order."""
    groups = {}
    for record in records:
        groups.setdefault(record["kind"], []).append(record[field])
    return groups


def latency(groups: dict) -> dict:
    """Median and tail op time of ops grouped by kind.

    Kinds of one workload differ in cost by up to eightfold, so order
    statistics pooled over all ops sit between the clusters of different
    kinds and jump as the op count changes. Taken per kind they stay put:
    p50 is the median of the kinds' medians, and the tail is the largest of
    the kinds' tails, with its kind, percentile and op count.
    """
    p50 = statistics.median(statistics.median(times) for times in groups.values())
    tails = {kind: tail(times) for kind, times in groups.items()}
    worst = max(tails, key=lambda kind: tails[kind]["value"])
    return {"p50": p50, "tail": {"kind": worst, **tails[worst]}}
