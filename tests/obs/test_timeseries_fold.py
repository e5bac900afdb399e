"""The fleet timeline fold, compaction and append, held to the code they
replaced.

``FleetTimeline.fold`` absorbs the buckets of the series it just decoded,
``TimeSeries._compact`` merges each bucket pair in one loop and
``TimeSeries.append`` builds a new bucket already holding its sample.  The
copying versions they replaced live on here — and only here — as the
``oracle_*`` functions (``merge()`` copied the incoming buckets, sorted by a
key function and compacted through ``SeriesBucket.merge``; ``append`` built
an empty bucket and called ``add``), and the properties hold the two to each
other over generated series, tied bucket starts and NaN / ±inf values.
"""

import json
import math
import random

from hypothesis import given, settings, strategies as st

from repro.fleet.merge import FleetTimeline
from repro.obs.timeseries import SeriesBucket, TimeSeries


# ----------------------------------------------------------------------
# the replaced code
# ----------------------------------------------------------------------
def oracle_compact(series: TimeSeries) -> None:
    merged = []
    for i in range(0, len(series.buckets), 2):
        first = series.buckets[i]
        if i + 1 < len(series.buckets):
            first.merge(series.buckets[i + 1], series.reservoir)
        merged.append(first)
    series.buckets = merged
    series._per_bucket *= 2
    series.compactions += 1


def oracle_append(series: TimeSeries, t: float, value: float) -> None:
    series.total_samples += 1
    tail = series.buckets[-1] if series.buckets else None
    if tail is None or tail.count >= series._per_bucket:
        if len(series.buckets) >= series.capacity:
            oracle_compact(series)
            series.buckets[-1].add(t, value, series.reservoir)
            return
        tail = SeriesBucket(t, t)
        series.buckets.append(tail)
    tail.add(t, value, series.reservoir)


def oracle_merge(series: TimeSeries, other: TimeSeries) -> None:
    if other.empty:
        return
    series.buckets = sorted(
        series.buckets + [b.copy() for b in other.buckets],
        key=lambda b: (b.t_start, b.t_end),
    )
    series.total_samples += other.total_samples
    series._per_bucket = max(series._per_bucket, other._per_bucket)
    while len(series.buckets) > series.capacity:
        oracle_compact(series)


def oracle_fold(shards: list[dict]) -> dict:
    """``FleetTimeline`` as it folded through the copying ``merge()``."""
    series: dict[str, TimeSeries] = {}
    samples = 0
    for shard in shards:
        for name in sorted(shard):
            incoming = TimeSeries.from_dict(shard[name])
            mine = series.get(name)
            if mine is None:
                series[name] = incoming
            else:
                oracle_merge(mine, incoming)
            samples += incoming.total_samples
    return {
        "format": "orthrus-timeseries/1",
        "cadence": 1.0,
        "samples_taken": samples,
        "series": [series[name].to_dict() for name in sorted(series)],
    }


def canonical(payload) -> str:
    """Byte-exact comparison text: NaN, ±inf and -0.0 all spelled out."""
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1, -1)


@st.composite
def streams(draw, max_len=300):
    """(t, value) pairs, drawn from a seeded generator (hypothesis is
    slow to build long float lists itself): times on a coarse grid, so
    buckets of different shards start at the same instant, and values
    with NaN, ±inf, -0.0 and ints mixed into plain floats."""
    n = draw(st.integers(0, max_len))
    rng = random.Random(draw(st.integers(0, 2**32)))
    special = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    # a few specials per stream, so a run of only 0.0 / -0.0 (or NaN)
    # shows up and the min/max tie-breaks are exercised
    specials = draw(st.lists(st.sampled_from(_SPECIAL), min_size=1, max_size=3))
    t = draw(st.sampled_from([0.0, 1.0, 3.0]))
    stream = []
    for _ in range(n):
        t += rng.choice((0.0, 0.5, 1.0, 2.0))
        value = (rng.choice(specials) if rng.random() < special
                 else rng.uniform(-1e3, 1e3))
        stream.append((t, value))
    return stream


def build(name, capacity, reservoir, stream, append=TimeSeries.append):
    series = TimeSeries(name, capacity=capacity, reservoir=reservoir)
    for t, value in stream:
        append(series, t, value)
    return series


shapes = st.tuples(st.integers(2, 16), st.integers(1, 8))


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestAppend:
    @settings(max_examples=60, deadline=None)
    @given(shapes, streams())
    def test_append_matches_the_add_on_an_empty_bucket(self, shape, stream):
        capacity, reservoir = shape
        new = build("s", capacity, reservoir, stream)
        old = build("s", capacity, reservoir, stream, append=oracle_append)
        assert canonical(new.to_dict()) == canonical(old.to_dict())
        assert (new._per_bucket, new.compactions) == (old._per_bucket, old.compactions)

    def test_first_sample_bucket_keeps_nan_and_infinities_as_add_does(self):
        for value in (math.nan, math.inf, -math.inf, -0.0, 0, 7, -2.5):
            seeded = SeriesBucket.of_sample(4.0, value)
            added = SeriesBucket(4.0, 4.0)
            added.add(4.0, value, 1)
            for slot in SeriesBucket.__slots__:
                assert repr(getattr(seeded, slot)) == repr(getattr(added, slot)), slot
        nan_bucket = SeriesBucket.of_sample(0.0, math.nan)
        assert nan_bucket.min == math.inf and nan_bucket.max == -math.inf


class TestFold:
    @settings(max_examples=60, deadline=None)
    @given(shapes, st.lists(st.lists(streams(), min_size=1, max_size=2),
                            min_size=1, max_size=5))
    def test_absorbing_fold_matches_the_copying_fold(self, shape, shard_streams):
        capacity, reservoir = shape
        shards = [
            {f"series{k}": build(f"series{k}", capacity, reservoir, stream).to_dict()
             for k, stream in enumerate(per_shard)}
            for per_shard in shard_streams
        ]
        timeline = FleetTimeline(cadence=1.0)
        for shard in shards:
            timeline.fold(shard)
        assert canonical(timeline.to_dict()) == canonical(oracle_fold(shards))

    @settings(max_examples=60, deadline=None)
    @given(shapes, streams(), streams())
    def test_public_merge_leaves_other_untouched(self, shape, mine, theirs):
        capacity, reservoir = shape
        series = build("s", capacity, reservoir, mine)
        other = build("s", capacity, reservoir, theirs)
        before = canonical(other.to_dict())
        expected = build("s", capacity, reservoir, mine)
        oracle_merge(expected, build("s", capacity, reservoir, theirs))
        series.merge(other)
        assert canonical(series.to_dict()) == canonical(expected.to_dict())
        # compacting and appending to the merged series must not reach
        # into other's buckets either
        for i in range(3 * capacity):
            series.append(1e6 + i, float(i))
        assert canonical(other.to_dict()) == before
