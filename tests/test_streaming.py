"""Streaming pipeline tests: lazy populations, incremental aggregates,
and shard determinism."""

import bisect
import math
import random
from collections import Counter

import pytest

from repro.analysis.cdf import StreamingCdf
from repro.analysis.tables import OperatorTableAccumulator
from repro.core.zone_compliance import Nsec3Observation, check_zone_compliance
from repro.scanner.nsec3_scan import DomainScanResult
from repro.scanner.supervisor import (
    CampaignPlan,
    UnitUniverse,
    plan_units,
    shard_units,
)
from repro.testbed.population import Population, scaled_config, tail_domains

from tests.conftest import fold


class TestStreamingCdf:
    def test_equals_exact_cdf(self):
        rng = random.Random(11)
        samples = [rng.randrange(40) for __ in range(997)]
        streaming = StreamingCdf(samples)
        # Oracle: the textbook empirical CDF over the sorted sample list.
        ordered = sorted(samples)
        n = len(ordered)
        assert len(streaming) == n
        for value in range(-1, 42):
            assert streaming.fraction_at_or_below(value) == bisect.bisect_right(ordered, value) / n
        for fraction in (0.001, 0.1, 0.25, 0.5, 0.9, 0.999, 1.0):
            rank = max(1, math.ceil(fraction * n))
            assert streaming.percentile(fraction) == ordered[rank - 1]

    def test_empty(self):
        streaming = StreamingCdf()
        assert streaming.fraction_at_or_below(5) == 0.0
        with pytest.raises(ValueError):
            streaming.percentile(0.5)


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
        rows = fold(OperatorTableAccumulator, results).rows(top_n=12)
        assert {row.operator: row.domains for row in rows} == dict(truth)

    def test_ties_render_in_first_seen_order(self):
        # Table 2's byte-identical report relies on this tie order.
        results = [
            fake_result(f"d{index}.com", 1, 8, ns=(f"ns1.{operator}.net.",))
            for index, operator in enumerate(("b", "a", "c", "a", "b"))
        ]
        rows = fold(OperatorTableAccumulator, results).rows()
        assert [(row.operator, row.domains) for row in rows] == [
            ("b.net", 2), ("a.net", 2), ("c.net", 1)
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
        rows = fold(OperatorTableAccumulator, reassembled).rows()
        batch_rows = fold(OperatorTableAccumulator, results).rows()
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
