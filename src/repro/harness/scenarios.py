"""Benchmark scenarios: one standard way to build and drive each app.

A scenario bundles what the evaluation needs to vary per application
(Table 1): how to construct the server on a given runtime, the op stream,
any pre-load, and which closures externalize results (safe mode).  The
timing drivers (:mod:`repro.harness.pipeline`) and the fault-injection
campaign (:mod:`repro.faultinject.campaign`) both consume scenarios, so a
Table-2 trial and a Fig-6 run exercise identical code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.lsmtree import LsmTreeServer
from repro.apps.masstree import MasstreeServer
from repro.apps.memcached import MemcachedServer
from repro.apps.phoenix import WordCountJob
from repro.runtime.orthrus import OrthrusRuntime
from repro.workloads.alex import AlexWorkload
from repro.workloads.base import Op
from repro.workloads.cachelib import CacheLibWorkload
from repro.workloads.wordcount import WordCountCorpus
from repro.workloads.ycsb import YcsbWriteWorkload


@dataclass
class ServerScenario:
    """A request/response application driven by an op stream."""

    name: str
    build: Callable[[OrthrusRuntime], Any]
    make_ops: Callable[[int, int], list[Op]]  # (n_ops, seed) -> ops
    setup: Callable[[Any], None] = lambda server: None
    externalizing: frozenset[str] = field(default_factory=frozenset)
    #: labels of the app's control-path scopes (fault-injection targets)
    control_functions: tuple[str, ...] = ()


@dataclass
class BatchScenario:
    """A batch job (Phoenix): driven by chunks, measured by job time."""

    name: str
    build: Callable[[OrthrusRuntime], Any]
    make_chunks: Callable[[int, int], list[str]]  # (n_words, seed) -> chunks
    externalizing: frozenset[str] = field(default_factory=frozenset)
    control_functions: tuple[str, ...] = ()


# ----------------------------------------------------------------------
def memcached_scenario(n_keys: int = 200, n_buckets: int = 64) -> ServerScenario:
    def make_ops(n_ops: int, seed: int) -> list[Op]:
        return list(CacheLibWorkload(n_keys=n_keys, seed=seed).ops(n_ops))

    return ServerScenario(
        name="memcached",
        build=lambda runtime: MemcachedServer(runtime, n_buckets=n_buckets),
        make_ops=make_ops,
        externalizing=MemcachedServer.externalizing,
        control_functions=(
            "mc.control.parse",
            "mc.control.dispatch",
            "mc.control.rx",
            "mc.control.tx",
        ),
    )


def masstree_scenario(n_keys: int = 200, order: int = 8) -> ServerScenario:
    def make_ops(n_ops: int, seed: int) -> list[Op]:
        return list(AlexWorkload(n_keys=n_keys, seed=seed).ops(n_ops))

    def setup(server: MasstreeServer) -> None:
        server.load_keys(AlexWorkload(n_keys=n_keys, seed=0).initial_keys())

    return ServerScenario(
        name="masstree",
        build=lambda runtime: MasstreeServer(runtime, order=order),
        make_ops=make_ops,
        setup=setup,
        externalizing=MasstreeServer.externalizing,
        control_functions=("mt.control.dispatch", "mt.control.rx", "mt.control.tx"),
    )


def lsmtree_scenario(
    n_keys: int = 200, memtable_limit: int = 128, skiplist_seed: int = 0
) -> ServerScenario:
    def make_ops(n_ops: int, seed: int) -> list[Op]:
        return list(YcsbWriteWorkload(n_keys=n_keys, seed=seed).ops(n_ops))

    return ServerScenario(
        name="lsmtree",
        build=lambda runtime: LsmTreeServer(
            runtime, memtable_limit=memtable_limit, seed=skiplist_seed
        ),
        make_ops=make_ops,
        externalizing=LsmTreeServer.externalizing,
        control_functions=("lsm.control.dispatch", "lsm.control.rx", "lsm.control.tx"),
    )


def phoenix_scenario(
    vocabulary_size: int = 300,
    words_per_chunk: int = 2000,
    n_partitions: int = 8,
) -> BatchScenario:
    def make_chunks(n_words: int, seed: int) -> list[str]:
        corpus = WordCountCorpus(
            n_words=n_words,
            vocabulary_size=vocabulary_size,
            words_per_chunk=words_per_chunk,
            seed=seed,
        )
        return corpus.chunks()

    return BatchScenario(
        name="phoenix",
        build=lambda runtime: WordCountJob(runtime, n_partitions=n_partitions),
        make_chunks=make_chunks,
        externalizing=WordCountJob.externalizing,
        control_functions=("phx.control.split",),
    )


def all_server_scenarios() -> list[ServerScenario]:
    return [memcached_scenario(), masstree_scenario(), lsmtree_scenario()]
