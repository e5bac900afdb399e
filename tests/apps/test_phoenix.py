"""Phoenix MapReduce tests."""

import pytest

from repro.apps.phoenix import PhoenixJob, WordCountJob, wordcount_map, wordcount_reduce
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit
from repro.workloads.wordcount import WordCountCorpus

from tests.apps.conftest import make_faulty_runtime


@pytest.fixture
def corpus():
    return WordCountCorpus(
        n_words=1200, vocabulary_size=60, words_per_chunk=200, seed=11
    )


class TestFunctional:
    def test_wordcount_matches_reference(self, runtime, corpus):
        job = WordCountJob(runtime, n_partitions=4)
        with runtime:
            result = job.run(corpus.chunks())
        assert result == corpus.reference_counts()

    def test_every_task_validated(self, runtime, corpus):
        job = WordCountJob(runtime, n_partitions=4)
        chunks = corpus.chunks()
        with runtime:
            job.run(chunks)
        assert runtime.validations == len(chunks) + 4
        assert runtime.detections == 0

    def test_partitions_are_disjoint(self, runtime, corpus):
        job = WordCountJob(runtime, n_partitions=4)
        with runtime:
            job.run(corpus.chunks())
        heap = runtime.heap
        seen = set()
        for result in job.job.reduce_outputs:
            counts = heap.latest(result.obj_id).value["counts"]
            overlap = seen & counts.keys()
            assert not overlap
            seen |= counts.keys()

    def test_single_chunk_single_partition(self, runtime):
        job = WordCountJob(runtime, n_partitions=1)
        with runtime:
            result = job.run(["a b a"])
        assert result == {"a": 2, "b": 1}

    def test_empty_chunk(self, runtime):
        job = WordCountJob(runtime, n_partitions=2)
        with runtime:
            result = job.run([""])
        assert result == {}

    def test_custom_map_reduce(self, runtime):
        # Character count rather than word count: the framework is generic.
        def char_map(o, text):
            return [(ch, 1) for ch in text.replace(" ", "")]

        def char_reduce(o, ch, values):
            total = 0
            for value in values:
                total = o.alu.add(total, value)
            return total

        job = PhoenixJob(runtime, char_map, char_reduce, n_partitions=2)
        with runtime:
            result = job.run(["ab ba"])
        assert result == {"a": 2, "b": 2}


class TestFaultBehaviour:
    def test_fp_stats_fault_detected(self, corpus):
        runtime = make_faulty_runtime(
            Fault(unit=Unit.FPU, kind=FaultKind.BITFLIP, bit=48)
        )
        job = WordCountJob(runtime, n_partitions=4)
        with runtime:
            job.run(corpus.chunks())
        assert runtime.detections > 0

    def test_map_hash_fault_detected(self, corpus):
        runtime = make_faulty_runtime(
            Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=1,
                  site=Site("phx.map_task", "hash64", 0))
        )
        job = WordCountJob(runtime, n_partitions=4)
        with runtime:
            job.run(corpus.chunks())
        assert runtime.detections > 0

    def test_chunk_transfer_corruption_caught_by_checksum(self, corpus):
        runtime = make_faulty_runtime(
            Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=200,
                  site=Site("phx.control.split", "copy", 0))
        )
        job = WordCountJob(runtime, n_partitions=4)
        with runtime:
            job.run(corpus.chunks())
        assert runtime.report.count("checksum") > 0

    def test_no_cache_instructions_in_phoenix(self):
        from repro.closures.analysis import infer_units
        from repro.closures.annotation import CLOSURE_REGISTRY

        for name in ("phx.map_task", "phx.reduce_task"):
            assert Unit.CACHE not in infer_units(CLOSURE_REGISTRY[name].fn)
