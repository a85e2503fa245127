"""Tests for the incremental build graph (repro.pipeline)."""

import pytest

from repro.core.errors import OUNElaborationError
from repro.obs.registry import MetricsRegistry, use_registry
from repro.oun import elaborate, parse_document
from repro.pipeline import SpecPipeline, stage_counts

THREE_SPECS = """
object o
object c
specification A {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)>*"
}
specification B {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)> <c,o,M(_)>*"
}
specification C {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)> <c,o,M(_)> <c,o,M(_)>*"
}
composition All = A || B || C
"""

#: THREE_SPECS with only specification B's traces edited.
EDITED_B = THREE_SPECS.replace(
    'traces prs "<c,o,M(_)> <c,o,M(_)>*"',
    'traces prs "<c,o,M(_)>*"',
)


@pytest.fixture
def fresh_counters():
    with use_registry(MetricsRegistry()):
        yield


class TestEquivalence:
    def test_matches_monolithic_elaborate(self, fresh_counters):
        direct = elaborate(parse_document(THREE_SPECS))
        built = SpecPipeline().load(THREE_SPECS).specifications()
        assert list(built) == list(direct)
        for name in direct:
            assert built[name].name == direct[name].name
            assert built[name].objects == direct[name].objects
            assert built[name].alphabet == direct[name].alphabet
            assert repr(built[name].traces) == repr(direct[name].traces)

    def test_build_keys_are_stable_across_instances(self, fresh_counters):
        keys1 = SpecPipeline().load(THREE_SPECS).keys()
        keys2 = SpecPipeline().load(THREE_SPECS).keys()
        assert keys1 == keys2
        assert set(keys1) == {"A", "B", "C", "All"}


class TestIncrementality:
    def test_cold_load_is_all_misses(self, fresh_counters):
        SpecPipeline().load(THREE_SPECS)
        counts = stage_counts()
        assert counts[("parse", "miss")] == 1
        assert counts[("parse", "hit")] == 0
        # 3 specs + 1 composition under the elaborate stage
        assert counts[("elaborate", "miss")] == 4
        assert counts[("elaborate", "hit")] == 0
        assert counts[("normalize", "miss")] == 3
        assert counts[("normalize", "hit")] == 0

    def test_identical_reload_is_all_hits(self, fresh_counters):
        pipeline = SpecPipeline()
        pipeline.load(THREE_SPECS)
        before = stage_counts()
        build = pipeline.load(THREE_SPECS)
        after = stage_counts()
        assert after[("parse", "hit")] == before[("parse", "hit")] + 1
        assert after[("elaborate", "hit")] == before[("elaborate", "hit")] + 4
        assert after[("elaborate", "miss")] == before[("elaborate", "miss")]
        assert after[("normalize", "miss")] == before[("normalize", "miss")]
        assert all(b.reused for b in build.builds)

    def test_one_spec_edit_rebuilds_only_that_spec(self, fresh_counters):
        """The acceptance criterion: edit B, re-run only B's stages."""
        pipeline = SpecPipeline()
        pipeline.load(THREE_SPECS)
        before = stage_counts()
        build = pipeline.load(EDITED_B)
        after = stage_counts()
        # new text: the parse stage misses once
        assert after[("parse", "miss")] == before[("parse", "miss")] + 1
        # A and C hit; B and the composition (keyed through B) miss
        assert after[("elaborate", "hit")] == before[("elaborate", "hit")] + 2
        assert after[("elaborate", "miss")] == before[("elaborate", "miss")] + 2
        # only B re-normalizes
        assert after[("normalize", "hit")] == before[("normalize", "hit")] + 2
        assert (
            after[("normalize", "miss")] == before[("normalize", "miss")] + 1
        )
        reused = {b.name: b.reused for b in build.builds}
        assert reused == {"A": True, "B": False, "C": True, "All": False}

    def test_reload_reuses_spec_objects_identically(self, fresh_counters):
        pipeline = SpecPipeline()
        first = pipeline.load(THREE_SPECS).specifications()
        second = pipeline.load(EDITED_B).specifications()
        assert second["A"] is first["A"]
        assert second["C"] is first["C"]
        assert second["B"] is not first["B"]

    def test_clear_forgets_memos(self, fresh_counters):
        pipeline = SpecPipeline()
        pipeline.load(THREE_SPECS)
        assert pipeline.sizes()["elaborate"] == 3
        pipeline.clear()
        assert pipeline.sizes() == {
            "parse": 0,
            "elaborate": 0,
            "normalize": 0,
            "compose": 0,
        }


class TestErrorParity:
    def test_redeclaration_raises_every_load(self, fresh_counters):
        doc = THREE_SPECS.replace(
            "specification C {", "specification A {", 1
        ).replace("composition All = A || B || C", "")
        pipeline = SpecPipeline()
        for _ in range(2):
            with pytest.raises(OUNElaborationError, match="redeclared"):
                pipeline.load(doc)

    def test_unknown_part_raises_every_load(self, fresh_counters):
        doc = THREE_SPECS.replace("A || B || C", "A || Nope")
        pipeline = SpecPipeline()
        for _ in range(2):
            with pytest.raises(OUNElaborationError, match="Nope"):
                pipeline.load(doc)

