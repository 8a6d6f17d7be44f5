"""Streaming pipeline tests: lazy populations, bounded-memory sketches,
incremental aggregates, and shard determinism."""

import bisect
import math
import random
from collections import Counter

import pytest

from repro.analysis.cdf import Cdf, StreamingCdf
from repro.analysis.sketch import QuantileSketch, SpaceSavingTopK, StreamStats
from repro.analysis.tables import OperatorTableAccumulator, operator_table
from repro.core.zone_compliance import Nsec3Observation, check_zone_compliance
from repro.scanner.nsec3_scan import DomainScanResult
from repro.scanner.supervisor import (
    CampaignPlan,
    UnitUniverse,
    plan_units,
    shard_units,
)
from repro.testbed.population import (
    Population,
    generate_tlds,
    scaled_config,
    tail_domains,
)


class TestCdfDownsampling:
    def test_final_point_always_retained(self):
        # Regression: strided downsampling used to drop the (max, 1.0)
        # step, truncating every downsampled curve short of 100 %.
        cdf = Cdf(range(1000))
        for max_points in (2, 3, 10, 100, 999):
            points = cdf.points(max_points=max_points)
            assert len(points) == max_points
            assert points[-1] == (999, 1.0)

    def test_no_downsampling_below_threshold(self):
        cdf = Cdf([1, 2, 3])
        assert cdf.points(max_points=3) == cdf.points()
        assert cdf.points()[-1] == (3, 1.0)

    def test_downsampled_fractions_monotone(self):
        rng = random.Random(7)
        cdf = Cdf([rng.randrange(500) for __ in range(2000)])
        points = cdf.points(max_points=50)
        fractions = [fraction for __, fraction in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestStreamingCdf:
    def _pair(self, samples):
        return Cdf(samples), StreamingCdf(samples)

    def test_equals_exact_cdf(self):
        rng = random.Random(11)
        samples = [rng.randrange(40) for __ in range(997)]
        exact, streaming = self._pair(samples)
        assert len(streaming) == len(exact)
        for value in range(-1, 42):
            assert streaming.fraction_at_or_below(
                value
            ) == exact.fraction_at_or_below(value)
        for fraction in (0.001, 0.1, 0.25, 0.5, 0.9, 0.999, 1.0):
            assert streaming.percentile(fraction) == exact.percentile(fraction)
        assert streaming.points() == exact.points()
        assert streaming.points(max_points=7) == exact.points(max_points=7)
        xs = list(range(0, 40, 3))
        assert streaming.series_at(xs) == exact.series_at(xs)
        assert streaming.samples == exact.samples

    def test_merge_equals_whole(self):
        rng = random.Random(13)
        samples = [rng.randrange(25) for __ in range(500)]
        whole = StreamingCdf(samples)
        left = StreamingCdf(samples[:200])
        right = StreamingCdf(samples[200:])
        left.merge(right)
        assert left.points() == whole.points()
        assert len(left) == len(whole)

    def test_empty(self):
        streaming = StreamingCdf()
        assert streaming.fraction_at_or_below(5) == 0.0
        with pytest.raises(ValueError):
            streaming.percentile(0.5)


class TestStreamStats:
    def test_update_and_merge(self):
        stats = StreamStats()
        for value in (5, 1, 9, 3):
            stats.update(value)
        assert (stats.count, stats.minimum, stats.maximum) == (4, 1, 9)
        assert stats.mean == pytest.approx(4.5)

        other = StreamStats()
        other.update(-2)
        stats.merge(other)
        assert (stats.count, stats.minimum, stats.maximum) == (5, -2, 9)
        stats.merge(StreamStats())  # merging empty is a no-op
        assert stats.count == 5

    def test_empty_mean(self):
        assert StreamStats().mean == 0.0


class TestSpaceSavingTopK:
    def test_exact_within_capacity(self):
        rng = random.Random(3)
        stream = [f"op{rng.randrange(20)}" for __ in range(5000)]
        sketch = SpaceSavingTopK(capacity=64)
        truth = Counter()
        for key in stream:
            sketch.update(key)
            truth[key] += 1
        assert sketch.exact
        assert dict(sketch.counts) == dict(truth)
        assert all(error == 0 for error in sketch.errors.values())
        top = sketch.top(5)
        assert [(key, count) for key, count, __ in top] == truth.most_common(5)

    def test_preserves_insertion_order(self):
        sketch = SpaceSavingTopK(capacity=8)
        for key in ("b", "a", "c", "a", "b"):
            sketch.update(key)
        assert list(sketch.counts) == ["b", "a", "c"]

    def test_eviction_bounds(self):
        rng = random.Random(9)
        # Zipf-ish stream over more keys than the sketch holds.
        stream = [f"k{min(rng.randrange(60), rng.randrange(60))}" for __ in range(8000)]
        sketch = SpaceSavingTopK(capacity=16)
        truth = Counter()
        for key in stream:
            sketch.update(key)
            truth[key] += 1
        assert not sketch.exact
        assert len(sketch) == 16
        for key, estimate in sketch.counts.items():
            # Space-saving invariant: estimate overshoots, never under,
            # and the recorded error bounds the overshoot.
            assert estimate >= truth[key]
            assert estimate - sketch.errors[key] <= truth[key]

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SpaceSavingTopK(capacity=0)


class TestQuantileSketch:
    def _rank_error(self, sorted_samples, value, fraction):
        """Distance from target rank to the closest rank *value* holds."""
        n = len(sorted_samples)
        target = max(1, math.ceil(fraction * n))
        lo = bisect.bisect_left(sorted_samples, value) + 1
        hi = bisect.bisect_right(sorted_samples, value)
        if lo <= target <= hi:
            return 0
        return min(abs(target - lo), abs(target - hi))

    @pytest.mark.parametrize("distribution", ["uniform", "zipf", "sorted"])
    def test_rank_error_bound(self, distribution):
        rng = random.Random(29)
        n, eps = 4000, 0.01
        if distribution == "uniform":
            samples = [rng.randrange(10_000) for __ in range(n)]
        elif distribution == "zipf":
            samples = [int(1.0 / max(rng.random(), 1e-6)) for __ in range(n)]
        else:
            samples = list(range(n))
        sketch = QuantileSketch(eps=eps)
        for value in samples:
            sketch.update(value)
        ordered = sorted(samples)
        for fraction in (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
            value = sketch.query(fraction)
            assert value in samples
            assert self._rank_error(ordered, value, fraction) <= eps * n + 1

    def test_memory_bounded(self):
        sketch = QuantileSketch(eps=0.01)
        rng = random.Random(31)
        for __ in range(20_000):
            sketch.update(rng.random())
        # GK keeps O(1/eps * log(eps*n)) entries — far below n.
        assert sketch.retained < 2000
        assert len(sketch) == 20_000

    def test_agrees_with_exact_cdf(self):
        rng = random.Random(37)
        samples = [rng.randrange(200) for __ in range(3000)]
        sketch = QuantileSketch(eps=0.005)
        for value in samples:
            sketch.update(value)
        exact = Cdf(samples)
        for fraction in (0.05, 0.5, 0.95):
            approx = sketch.query(fraction)
            # The sketch's answer must sit within eps of the exact
            # percentile in *rank* space.
            low = exact.percentile(max(0.001, fraction - 2 * sketch.eps))
            high = exact.percentile(min(1.0, fraction + 2 * sketch.eps))
            assert low <= approx <= high

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(eps=0.7)
        with pytest.raises(ValueError):
            QuantileSketch().query(0.5)
        sketch = QuantileSketch().update(1)
        with pytest.raises(ValueError):
            sketch.query(1.5)


def fake_result(domain, iterations=None, salt=0, ns=("ns1.op.net.",)):
    """A synthetic stage-2 result (nsec3-enabled iff iterations given)."""
    if iterations is None:
        observation = Nsec3Observation(domain=domain, nsec3param_records=())
    else:
        params = ((1, iterations, b"\x00" * salt),)
        observation = Nsec3Observation(
            domain=domain, nsec3param_records=params, nsec3_records=params
        )
    result = DomainScanResult(domain=domain)
    result.observation = observation
    result.report = check_zone_compliance(observation)
    result.ns_targets = ns
    result.denial = "nsec3" if iterations is not None else ""
    return result


class TestOperatorAccumulator:
    def _calibrated_results(self):
        rng = random.Random(17)
        operators = [f"ns1.op{i}.net." for i in range(12)]
        results = []
        for index in range(400):
            operator = operators[min(rng.randrange(12), rng.randrange(12))]
            results.append(
                fake_result(
                    f"d{index}.com",
                    rng.choice((0, 0, 1, 5)),
                    rng.choice((0, 8)),
                    ns=(operator,),
                )
            )
        return results

    def test_streaming_equals_exact_counts(self):
        results = self._calibrated_results()
        truth = Counter()
        for result in results:
            truth[result.ns_targets[0].split(".", 1)[1].rstrip(".")] += 1
        accumulator = OperatorTableAccumulator()
        for result in results:
            accumulator.update(result)
        assert accumulator.exact
        rows = accumulator.rows(top_n=12)
        assert {row.operator: row.domains for row in rows} == dict(truth)
        # The fold wrapper renders the identical table.
        wrapped = operator_table(results, top_n=12)
        assert [(r.operator, r.domains, r.top_params) for r in rows] == [
            (r.operator, r.domains, r.top_params) for r in wrapped
        ]

    def test_incremental_equals_batch_after_shard_merge_order(self):
        # Folding results in global unit order (what merge_shards yields)
        # must match folding the concatenated list directly.
        results = self._calibrated_results()
        shards = [results[0::3], results[1::3], results[2::3]]
        reassembled = []
        for index in range(len(results)):
            reassembled.append(shards[index % 3][index // 3])
        assert [r.domain for r in reassembled] == [r.domain for r in results]
        one = OperatorTableAccumulator()
        for result in reassembled:
            one.update(result)
        rows = one.rows()
        batch_rows = operator_table(results)
        assert [(r.operator, r.domains) for r in rows] == [
            (r.operator, r.domains) for r in batch_rows
        ]


class TestStreamingPopulation:
    CONFIG = scaled_config(120, 24)

    def test_stream_matches_indexing(self):
        population = Population(self.CONFIG)
        streamed = list(Population(self.CONFIG, tlds=population.tlds))
        expected = self.CONFIG.n_domains + len(tail_domains())
        assert len(streamed) == len(population) == expected
        assert streamed == [population.spec_at(i) for i in range(len(population))]
        assert streamed[-4:] == tail_domains()

    def test_shards_reassemble_to_stream(self):
        population = Population(self.CONFIG)
        full = list(population)
        for workers in (2, 3, 5):
            shards = [
                list(population.iter_shard(shard, workers))
                for shard in range(workers)
            ]
            reassembled = [None] * len(full)
            for shard, specs in enumerate(shards):
                for offset, spec in enumerate(specs):
                    reassembled[shard + offset * workers] = spec
            assert reassembled == full

    def test_spec_for_name_inverts_the_generator(self):
        population = Population(self.CONFIG)
        for index in (0, 1, 57, 119):
            spec = population.spec_at(index)
            assert population.spec_for_name(spec.name) == spec
        assert population.spec_for_name("tail-it500-a.com") is not None
        assert population.spec_for_name("not-a-real-name-12345.com") is None
        assert population.spec_for_name("nodigits.example") is None

    def test_any_index_is_o1_reachable(self):
        # Entering the stream at an arbitrary offset yields the same
        # spec as walking to it — the property sharding relies on.
        population = Population(self.CONFIG)
        walked = list(population.iter_shard(97, 1))[0]
        assert population.spec_at(97) == walked


class TestUnitUniverse:
    def _plan(self, role="study"):
        return CampaignPlan(
            role=role,
            domains=16,
            tlds=10,
            resolvers=4,
            seed=5,
            workers=2,
            state_dir="/nonexistent",
        )

    @pytest.mark.parametrize("role", ["study", "scan", "survey"])
    def test_matches_materialised_plan(self, role):
        plan = self._plan(role)
        units, domain_specs, tld_specs = plan_units(plan)
        universe = UnitUniverse(plan)
        assert len(universe) == len(units)
        assert list(universe) == units
        assert [spec.label for spec in universe.tld_specs] == [
            spec.label for spec in tld_specs
        ]
        assert len(universe.population) == len(domain_specs)

    def test_shard_streams_match_shard_units(self):
        plan = self._plan()
        units, __, __ = plan_units(plan)
        universe = UnitUniverse(plan)
        for workers in (2, 3, 4):
            for shard in range(workers):
                expected = shard_units(units, shard, workers)
                assert list(universe.iter_shard(shard, workers)) == expected
                assert universe.shard_size(shard, workers) == len(expected)

    def test_unit_at_bounds(self):
        universe = UnitUniverse(self._plan())
        with pytest.raises(IndexError):
            universe.unit_at(len(universe))
        with pytest.raises(IndexError):
            universe.unit_at(-1)
