"""Fingerprints and the content-addressed machine cache."""

from __future__ import annotations

import pickle
import subprocess
import sys

import pytest

from repro.checker.cache import (
    ENGINE_CACHE_VERSION,
    MachineCache,
    active_cache,
    use_cache,
)
from repro.checker.compile import spec_dfa
from repro.checker.fingerprint import fingerprint
from repro.checker.universe import FiniteUniverse
from repro.core.errors import CacheError, FingerprintError
from repro.machines.boolean import TrueMachine
from repro.paper.specs import PaperCast


@pytest.fixture(scope="module")
def cast():
    return PaperCast()


@pytest.fixture(scope="module")
def universe(cast):
    return FiniteUniverse.for_specs(cast.read(), cast.read2())


def dfas_equal(a, b) -> bool:
    return (
        a.letters == b.letters
        and a.dense == b.dense
        and a.start == b.start
        and a.accepting == b.accepting
    )


class TestFingerprint:
    def test_deterministic_within_process(self, cast):
        assert fingerprint(cast.read2().traces) == fingerprint(
            PaperCast().read2().traces
        )

    def test_distinguishes_specs(self, cast):
        assert fingerprint(cast.read().traces) != fingerprint(
            cast.read2().traces
        )

    def test_stable_across_hash_seeds(self, cast):
        # PYTHONHASHSEED randomises set/dict iteration order per process;
        # cross-process cache hits require the fingerprint not to notice.
        code = (
            "from repro.paper.specs import PaperCast;"
            "from repro.checker.fingerprint import fingerprint;"
            "print(fingerprint(PaperCast().read2().traces))"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for seed in ("0", "1", "12345")
        }
        assert len(digests) == 1
        assert digests == {fingerprint(cast.read2().traces)}

    def test_sets_and_dicts_are_order_insensitive(self):
        assert fingerprint({1, 2, 3}) == fingerprint({3, 1, 2})
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_shared_substructure_in_sets_survives_hash_seeds(self):
        # Regression: set elements sharing a sub-object (two events, one
        # ObjectId) used to be walked in salted iteration order, so the
        # memo's back-reference indices — and hence the sorted encodings —
        # leaked PYTHONHASHSEED into the digest.
        code = (
            "from repro.checker.fingerprint import fingerprint;"
            "from repro.core.events import Event;"
            "from repro.core.values import obj;"
            "x, o = obj('x'), obj('o');"
            "print(fingerprint(frozenset("
            "Event(x, o, m) for m in ('A', 'B', 'C', 'D', 'E'))))"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for seed in ("0", "1", "7", "12345")
        }
        assert len(digests) == 1

    def test_plain_closures_are_uncacheable_without_protocol(self):
        class Opaque:
            pass

        with pytest.raises(FingerprintError):
            fingerprint(Opaque())

    def test_machines_fingerprint_via_cache_key_parts(self):
        assert fingerprint(TrueMachine()) == fingerprint(TrueMachine())


class TestMachineCache:
    def test_hit_returns_identical_dfa(self, tmp_path, cast, universe):
        cache = MachineCache(tmp_path)
        with use_cache(cache):
            cold = spec_dfa(cast.read2(), universe)
            warm = spec_dfa(cast.read2(), universe)
        uncached = spec_dfa(cast.read2(), universe)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert dfas_equal(cold, warm)
        assert dfas_equal(cold, uncached)

    def test_hits_survive_cache_reopen(self, tmp_path, cast, universe):
        with use_cache(MachineCache(tmp_path)):
            first = spec_dfa(cast.read2(), universe)
        reopened = MachineCache(tmp_path)
        with use_cache(reopened):
            second = spec_dfa(cast.read2(), universe)
        assert reopened.stats.hits == 1 and reopened.stats.misses == 0
        assert dfas_equal(first, second)

    def test_salt_bump_invalidates(self, tmp_path, cast, universe):
        with use_cache(MachineCache(tmp_path)):
            spec_dfa(cast.read2(), universe)
        bumped = MachineCache(tmp_path, salt=ENGINE_CACHE_VERSION + "-next")
        with use_cache(bumped):
            spec_dfa(cast.read2(), universe)
        assert bumped.stats.hits == 0 and bumped.stats.misses == 1

    def test_corrupted_entry_falls_back_to_recompile(
        self, tmp_path, cast, universe
    ):
        with use_cache(MachineCache(tmp_path)):
            good = spec_dfa(cast.read2(), universe)
        entries = list(tmp_path.glob("??/*.dfa.pickle"))
        assert entries
        for p in entries:
            p.write_bytes(b"not a pickle at all")
        reopened = MachineCache(tmp_path)
        with use_cache(reopened):
            recompiled = spec_dfa(cast.read2(), universe)
        assert reopened.stats.errors == 1
        assert reopened.stats.misses == 1
        assert dfas_equal(good, recompiled)
        # the poisoned entry was dropped and re-stored
        assert reopened.stats.stores == 1

    def test_wrong_type_entry_is_dropped(self, tmp_path, cast, universe):
        with use_cache(MachineCache(tmp_path)):
            spec_dfa(cast.read2(), universe)
        (entry,) = tmp_path.glob("??/*.dfa.pickle")
        entry.write_bytes(pickle.dumps({"not": "a dfa"}))
        reopened = MachineCache(tmp_path)
        with use_cache(reopened):
            spec_dfa(cast.read2(), universe)
        assert reopened.stats.errors == 1 and reopened.stats.hits == 0

    def test_clear_and_entries(self, tmp_path, cast, universe):
        cache = MachineCache(tmp_path)
        with use_cache(cache):
            spec_dfa(cast.read(), universe)
            spec_dfa(cast.read2(), universe)
        assert cache.entries() == 2
        assert cache.clear() == 2
        assert cache.entries() == 0

    def test_cache_path_must_be_directory(self, tmp_path):
        f = tmp_path / "plain-file"
        f.write_text("x")
        with pytest.raises(CacheError):
            MachineCache(f)

    def test_ambient_cache_scoping(self, tmp_path):
        assert active_cache() is None
        cache = MachineCache(tmp_path)
        with use_cache(cache):
            assert active_cache() is cache
        assert active_cache() is None
