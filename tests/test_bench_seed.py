"""Seed discipline for the benchmark suite.

Every source of randomness in ``benchmarks/`` must flow through
``bench_utils`` (``derive_seed`` / ``bench_rng``) with the master seed
recorded in ``REPRO_BENCH_SEED``, so any benchmark JSON can be reproduced
bit-for-bit by exporting one environment variable.  These tests pin the
derivation, prove workload construction is bitwise reproducible, and scan
the benchmark sources for hard-coded seeds so the discipline cannot rot.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

import bench_utils  # noqa: E402  (needs the path tweak above)


class TestSeedDerivation:
    def test_default_master_seed_is_zero(self, monkeypatch):
        monkeypatch.delenv(bench_utils.BENCH_SEED_ENV, raising=False)
        assert bench_utils.bench_seed() == 0

    def test_master_seed_comes_from_environment(self, monkeypatch):
        monkeypatch.setenv(bench_utils.BENCH_SEED_ENV, "42")
        assert bench_utils.bench_seed() == 42

    def test_derived_seeds_are_stable_and_stream_separated(self, monkeypatch):
        monkeypatch.delenv(bench_utils.BENCH_SEED_ENV, raising=False)
        a1 = bench_utils.derive_seed("backend.join")
        a2 = bench_utils.derive_seed("backend.join")
        b = bench_utils.derive_seed("service.noise")
        assert a1 == a2
        assert a1 != b
        # The derivation is crc32-based, hence stable across processes and
        # Python versions — pin it so a refactor cannot silently reshuffle
        # every recorded benchmark workload.
        import zlib

        assert a1 == zlib.crc32(b"0:backend.join")

    def test_derived_seeds_follow_the_master_seed(self, monkeypatch):
        monkeypatch.setenv(bench_utils.BENCH_SEED_ENV, "7")
        with_seven = bench_utils.derive_seed("backend.join")
        monkeypatch.setenv(bench_utils.BENCH_SEED_ENV, "8")
        assert bench_utils.derive_seed("backend.join") != with_seven

    def test_bench_rng_streams_are_reproducible(self, monkeypatch):
        monkeypatch.setenv(bench_utils.BENCH_SEED_ENV, "3")
        first = bench_utils.bench_rng("x").integers(0, 1 << 30, size=16)
        second = bench_utils.bench_rng("x").integers(0, 1 << 30, size=16)
        assert (first == second).all()

    def test_seed_record_reports_the_environment(self, monkeypatch):
        monkeypatch.setenv(bench_utils.BENCH_SEED_ENV, "11")
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        record = bench_utils.seed_record()
        assert record == {"bench_seed": 11, "bench_scale": 0.5, "bench_full": False}


class TestWorkloadReproducibility:
    def test_surrogate_graph_workload_follows_the_recorded_seed(self, monkeypatch):
        from repro.graphs.generators import collaboration_graph
        from repro.graphs.loader import database_from_networkx

        monkeypatch.setenv(bench_utils.BENCH_SEED_ENV, "0")
        seed = bench_utils.derive_seed("service.graph")
        a = database_from_networkx(collaboration_graph(50, 4.0, seed=seed))
        b = database_from_networkx(collaboration_graph(50, 4.0, seed=seed))
        assert a.relation("Edge").tuples() == b.relation("Edge").tuples()


class TestNoHardCodedSeeds:
    #: ``seed=33`` / ``rng=0`` style literals — the discipline this PR bans.
    _LITERAL = re.compile(r"\b(?:seed|rng)\s*=\s*\d")

    def test_benchmark_sources_have_no_literal_seeds(self):
        offenders = []
        for path in sorted(_BENCHMARKS.glob("*.py")):
            if path.name == "bench_utils.py":
                continue  # the only module allowed to touch the raw seed
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                code = line.split("#", 1)[0]
                if self._LITERAL.search(code):
                    offenders.append(f"{path.name}:{number}: {line.strip()}")
        assert not offenders, (
            "hard-coded seeds in benchmarks (route them through "
            "bench_utils.derive_seed/bench_rng):\n" + "\n".join(offenders)
        )
