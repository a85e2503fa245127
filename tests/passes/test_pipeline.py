"""The normalization pass pipeline: rules, scopes, metrics, cache sharing."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.automata.ops import equivalence_counterexample
from repro.checker.cache import MachineCache, use_cache
from repro.checker.compile import traceset_dfa
from repro.checker.engine import EngineConfig, ObligationEngine, ObligationSource
from repro.checker.fingerprint import fingerprint
from repro.checker.universe import FiniteUniverse
from repro.cli import main as cli_main
from repro.core.alphabet import Alphabet
from repro.core.composition import compose
from repro.core.errors import SpecificationError
from repro.core.events import Event
from repro.core.patterns import EventPattern
from repro.core.sorts import Sort
from repro.core.tracesets import FullTraceSet, MachineTraceSet, TraceSet
from repro.core.values import ObjectId
from repro.machines.boolean import (
    AndMachine,
    FalseMachine,
    NotMachine,
    OrMachine,
    TrueMachine,
)
from repro.machines.counting import CountingMachine, Linear, method_counter
from repro.machines.projection import FilterMachine, OnlyMachine
from repro.machines.rename import RenameMachine
from repro.passes import (
    COMPILE_SCOPE,
    SPEC_SCOPE,
    BooleanFoldPass,
    FilterFusionPass,
    Pass,
    PassPipeline,
    ProjectionPushdownPass,
    PruneHiddenPoolPass,
    PruneTrivialPartsPass,
    RenameFusionPass,
    default_passes,
    explain_spec,
    normalization_enabled,
    normalize_spec,
    normalize_traceset,
    use_normalization,
)
from repro.obs.metrics import NormalizationMetrics

O, C, Q = ObjectId("o"), ObjectId("c"), ObjectId("q")


def pat(caller: ObjectId, callee: ObjectId, method: str) -> EventPattern:
    return EventPattern(Sort.values(caller), Sort.values(callee), method, ())


ALPHA = Alphabet.of(pat(O, C, "A"), pat(O, C, "B"))
A_ONLY = Alphabet.of(pat(O, C, "A"))
E_A = Event(O, C, "A", ())
E_B = Event(O, C, "B", ())
SAMPLE = (E_A, E_B, E_A, E_A, E_B)


def at_most(limit: int, method: str = "A") -> CountingMachine:
    """``#method <= limit`` — a small fingerprintable leaf machine."""
    return CountingMachine((method_counter(method),), Linear((1,), -limit, "<="))


def ok_profile(machine, events=SAMPLE) -> list[bool]:
    """``ok`` after every prefix — the pointwise behaviour of a machine."""
    state = machine.initial()
    out = [machine.ok(state)]
    for e in events:
        state = machine.step(state, e)
        out.append(machine.ok(state))
    return out


# ----------------------------------------------------------------------
# individual rules
# ----------------------------------------------------------------------


class TestRenameFusion:
    def test_identity_entries_are_stripped(self):
        m = RenameMachine({O: O, C: Q}, at_most(1))
        out, n = RenameFusionPass().run_machine(m)
        assert n == 1
        assert isinstance(out, RenameMachine)
        assert out.inverse == {C: Q}

    def test_identity_rename_unwraps(self):
        leaf = at_most(1)
        out, n = RenameFusionPass().run_machine(RenameMachine({O: O}, leaf))
        assert n >= 1 and out is leaf

    def test_rename_of_constant_is_the_constant(self):
        out, _ = RenameFusionPass().run_machine(
            RenameMachine({O: C}, TrueMachine())
        )
        assert isinstance(out, TrueMachine)

    def test_nested_renames_fuse_pointwise(self):
        p = ObjectId("p")
        inner = OnlyMachine(pat(O, C, "A"))
        nested = RenameMachine({Q: p}, RenameMachine({p: O}, inner))
        fused, n = RenameFusionPass().run_machine(nested)
        assert n >= 1
        assert isinstance(fused, RenameMachine)
        assert not isinstance(fused.inner, RenameMachine)
        assert fused.inverse == {Q: O, p: O}
        events = (Event(Q, C, "A", ()), Event(p, C, "A", ()), E_A, E_B)
        assert ok_profile(fused, events) == ok_profile(nested, events)


class TestFilterFusion:
    def test_filter_of_constant_is_the_constant(self):
        out, _ = FilterFusionPass().run_machine(
            FilterMachine(ALPHA, FalseMachine())
        )
        assert isinstance(out, FalseMachine)

    def test_inner_subset_wins(self):
        leaf = OnlyMachine(pat(O, C, "A"))
        m = FilterMachine(ALPHA, FilterMachine(A_ONLY, leaf))
        out, n = FilterFusionPass().run_machine(m)
        assert n == 1
        assert isinstance(out, FilterMachine) and out.event_set is A_ONLY

    def test_outer_subset_wins(self):
        leaf = OnlyMachine(pat(O, C, "A"))
        m = FilterMachine(A_ONLY, FilterMachine(ALPHA, leaf))
        out, n = FilterFusionPass().run_machine(m)
        assert n == 1
        assert isinstance(out, FilterMachine)
        assert out.event_set is A_ONLY and out.inner is leaf

    def test_counting_pushdown_is_pointwise(self):
        m = FilterMachine(A_ONLY, at_most(2))
        out, n = FilterFusionPass().run_machine(m)
        assert n == 1
        assert isinstance(out, CountingMachine)
        assert all(c.pattern is A_ONLY for c in out.counters)
        assert ok_profile(out) == ok_profile(m)

    def test_pushdown_skips_already_patterned_counters(self):
        patterned, _ = FilterFusionPass().run_machine(
            FilterMachine(A_ONLY, at_most(2))
        )
        again, n = FilterFusionPass().run_machine(
            FilterMachine(ALPHA, patterned)
        )
        assert n == 0
        assert isinstance(again, FilterMachine)


class TestBooleanFold:
    def test_unit_and_flattening(self):
        m = AndMachine(
            (TrueMachine(), AndMachine((at_most(1), at_most(2, "B"))))
        )
        out, n = BooleanFoldPass().run_machine(m)
        assert n >= 1
        assert isinstance(out, AndMachine) and len(out.parts) == 2
        assert ok_profile(out) == ok_profile(m)

    def test_zero_absorbs(self):
        out, _ = BooleanFoldPass().run_machine(
            AndMachine((at_most(1), FalseMachine()))
        )
        assert isinstance(out, FalseMachine)
        out, _ = BooleanFoldPass().run_machine(
            OrMachine((at_most(1), TrueMachine()))
        )
        assert isinstance(out, TrueMachine)

    def test_or_unit_unwraps_singleton(self):
        leaf = at_most(1)
        out, _ = BooleanFoldPass().run_machine(
            OrMachine((FalseMachine(), leaf))
        )
        assert out is leaf

    def test_duplicate_conjuncts_dedup_by_fingerprint(self):
        m = AndMachine((at_most(1), at_most(1)))
        assert fingerprint(m.parts[0]) == fingerprint(m.parts[1])
        out, n = BooleanFoldPass().run_machine(m)
        assert n >= 1
        assert isinstance(out, CountingMachine)
        assert ok_profile(out) == ok_profile(m)

    def test_negation_folds(self):
        leaf = at_most(1)
        out, _ = BooleanFoldPass().run_machine(NotMachine(NotMachine(leaf)))
        assert out is leaf
        out, _ = BooleanFoldPass().run_machine(NotMachine(TrueMachine()))
        assert isinstance(out, FalseMachine)
        out, _ = BooleanFoldPass().run_machine(NotMachine(FalseMachine()))
        assert isinstance(out, TrueMachine)

    def test_empty_product_becomes_unit(self):
        out, _ = BooleanFoldPass().run_machine(
            AndMachine((TrueMachine(), TrueMachine()))
        )
        assert isinstance(out, TrueMachine)


class TestProjectionPushdown:
    def test_covered_root_filter_dropped(self):
        leaf = at_most(1)
        ts = MachineTraceSet(ALPHA, FilterMachine(ALPHA, leaf))
        out, n = ProjectionPushdownPass().run(ts)
        assert n == 1
        assert isinstance(out, MachineTraceSet) and out.predicate is leaf

    def test_uncovered_filter_kept(self):
        ts = MachineTraceSet(ALPHA, FilterMachine(A_ONLY, at_most(1)))
        out, n = ProjectionPushdownPass().run(ts)
        assert n == 0 and out is ts

    def test_trivial_predicate_becomes_full_trace_set(self):
        ts = MachineTraceSet(ALPHA, FilterMachine(ALPHA, TrueMachine()))
        out, n = ProjectionPushdownPass().run(ts)
        assert isinstance(out, FullTraceSet)
        assert out.alphabet == ALPHA and n == 2

    def test_bare_machine_is_left_alone(self):
        # No ambient alphabet — the covered-filter drop has no context.
        m = FilterMachine(ALPHA, at_most(1))
        out, n = ProjectionPushdownPass().run_machine(m)
        assert n == 0 and out is m


class TestCompositionPasses:
    def test_trivial_part_pruned_at_compile_scope(self, cast):
        composed = compose(cast.read(), cast.client())
        ts = composed.traces
        out = normalize_traceset(ts, COMPILE_SCOPE)
        assert len(out.parts) < len(ts.parts)
        assert all(
            not isinstance(p.machine, TrueMachine) for p in out.parts
        )

    def test_hidden_pool_pruned_at_compile_scope(self, cast):
        composed = compose(cast.read(), cast.client())
        ts = composed.traces
        out = normalize_traceset(ts, COMPILE_SCOPE)
        assert out.hidden_pool is not None
        assert len(out.hidden_source().patterns) < len(ts.hidden_source().patterns)
        # `combined` is composition algebra's record — never rewritten.
        assert out.combined == ts.combined

    def test_spec_scope_keeps_composed_structure(self, cast):
        ts = compose(cast.read(), cast.client()).traces
        out = normalize_traceset(ts, SPEC_SCOPE)
        assert len(out.parts) == len(ts.parts)
        assert out.hidden_pool is None


# ----------------------------------------------------------------------
# the pipeline itself
# ----------------------------------------------------------------------


class _AlphabetBreakingPass(Pass):
    name = "break-alphabet"
    scope = SPEC_SCOPE

    def run(self, ts: TraceSet):
        return FullTraceSet(A_ONLY), 1


class TestPipeline:
    def test_scope_filtering(self):
        pipeline = PassPipeline(default_passes())
        compile_names = {p.name for p in pipeline.passes_for(COMPILE_SCOPE)}
        spec_names = {p.name for p in pipeline.passes_for(SPEC_SCOPE)}
        assert {"prune-trivial-parts", "prune-hidden-pool"} <= compile_names
        assert spec_names == compile_names - {
            "prune-trivial-parts",
            "prune-hidden-pool",
        }

    def test_report_and_metrics(self, cast):
        metrics = NormalizationMetrics()
        pipeline = PassPipeline(default_passes(), metrics=metrics)
        ts = compose(cast.read(), cast.client()).traces
        out, report = pipeline.run(ts, COMPILE_SCOPE)
        assert report.total_rewrites > 0
        assert "prune-trivial-parts" in report.format_text()
        assert metrics.normalizations == 1
        assert metrics.rewrites == report.total_rewrites
        snap = metrics.snapshot()
        assert snap["rewrites"] == report.total_rewrites
        assert "prune-trivial-parts" in snap["passes"]
        assert (
            sum(entry["rewrites"] for entry in snap["passes"].values())
            == report.total_rewrites
        )

    def test_alphabet_invariant_enforced(self):
        pipeline = PassPipeline([_AlphabetBreakingPass()], max_rounds=1)
        with pytest.raises(SpecificationError, match="alphabet"):
            pipeline.run(MachineTraceSet(ALPHA, at_most(1)))

    def test_fixpoint_reaches_nested_shapes(self):
        # Rename exposes a filter which exposes a boolean fold: one
        # pipeline run flattens the whole tower.
        m = RenameMachine(
            {O: O},
            AndMachine(
                (TrueMachine(), FilterMachine(ALPHA, FilterMachine(A_ONLY, at_most(1))))
            ),
        )
        pipeline = PassPipeline(default_passes())
        out = pipeline.normalize_machine(m)
        # Rename and the True conjunct are gone, the inner filter has been
        # pushed into the counter's pattern.
        assert isinstance(out, FilterMachine) and out.event_set is ALPHA
        assert isinstance(out.inner, CountingMachine)
        assert all(c.pattern is A_ONLY for c in out.inner.counters)

    def test_toggle_disables_normalization(self):
        ts = MachineTraceSet(ALPHA, AndMachine((TrueMachine(), at_most(1))))
        assert normalization_enabled()
        with use_normalization(False):
            assert not normalization_enabled()
            assert normalize_traceset(ts) is ts
        assert normalization_enabled()
        out = normalize_traceset(ts)
        assert isinstance(out.predicate, CountingMachine)

    def test_normalize_spec_preserves_identity_when_stable(self, cast):
        spec = cast.write()
        # Already canonical: a bare PrsMachine has nothing to rewrite.
        assert normalize_spec(spec) is spec


# ----------------------------------------------------------------------
# equivalence + cache sharing through the compiler
# ----------------------------------------------------------------------


class TestCompilerIntegration:
    @pytest.mark.parametrize("pair", [("read", "client"), ("read", "write")])
    def test_normalized_dfa_is_language_equal(self, cast, pair):
        left, right = (getattr(cast, name)() for name in pair)
        composed = compose(left, right)
        u = FiniteUniverse.for_specs(composed, env_objects=1)
        raw = traceset_dfa(composed.traces, u, normalize=False)
        cooked = traceset_dfa(composed.traces, u, normalize=True)
        assert equivalence_counterexample(raw, cooked) is None

    def test_syntactic_variants_share_one_cache_entry(self, tmp_path):
        plain = MachineTraceSet(ALPHA, at_most(1))
        variant = MachineTraceSet(ALPHA, AndMachine((TrueMachine(), at_most(1))))
        assert fingerprint(plain) != fingerprint(variant)
        assert fingerprint(normalize_traceset(plain)) == fingerprint(
            normalize_traceset(variant)
        )
        u = FiniteUniverse.for_alphabets([ALPHA], env_objects=1)

        cold = MachineCache(tmp_path / "raw")
        with use_cache(cold):
            traceset_dfa(plain, u, normalize=False)
            traceset_dfa(variant, u, normalize=False)
        assert cold.stats.hits == 0 and cold.stats.misses == 2

        warm = MachineCache(tmp_path / "normalized")
        with use_cache(warm):
            traceset_dfa(plain, u, normalize=True)
            traceset_dfa(variant, u, normalize=True)
        assert warm.stats.hits == 1 and warm.stats.misses == 1
        assert warm.entries() == 1


# ----------------------------------------------------------------------
# the engine toggle: parallel determinism with normalization on
# ----------------------------------------------------------------------

OUN_DOC = Path(__file__).resolve().parents[2] / "examples" / "readers_writers.oun"
QUERY = "repro.oun.verify:query_obligations"


def _engine_keys(run):
    return [
        (o.obligation.ident, o.error, None if o.result is None else o.result.verdict)
        for o in run.session.outcomes
    ]


class TestEngineNormalization:
    def _source(self):
        return ObligationSource.of(
            QUERY,
            text=OUN_DOC.read_text(),
            queries=(
                ("refines", "Read2", "Read"),
                ("refines", "System2", "System"),
            ),
            env_objects=1,
        )

    def test_parallel_agrees_with_inline_under_normalization(self):
        source = self._source()
        inline = ObligationEngine(EngineConfig(jobs=1, normalize=True)).run(source)
        parallel = ObligationEngine(EngineConfig(jobs=2, normalize=True)).run(source)
        assert _engine_keys(inline) == _engine_keys(parallel)
        assert inline.all_agree and parallel.all_agree

    def test_no_normalize_reaches_same_verdicts(self):
        source = self._source()
        on = ObligationEngine(EngineConfig(jobs=1, normalize=True)).run(source)
        off = ObligationEngine(EngineConfig(jobs=1, normalize=False)).run(source)
        assert _engine_keys(on) == _engine_keys(off)


# ----------------------------------------------------------------------
# explain (library + CLI)
# ----------------------------------------------------------------------


class TestExplain:
    def test_explain_spec_shows_before_and_after(self, cast):
        text = explain_spec(compose(cast.read(), cast.client()))
        assert "before normalization" in text
        assert "after normalization" in text
        assert "prune-trivial-parts" in text

    def test_cli_explain_composed(self, tmp_path):
        out = io.StringIO()
        code = cli_main(
            ["explain", str(OUN_DOC), "Client", "--compose", "WriteAcc"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "after normalization" in text
        assert "rewrite" in text

    def test_cli_no_normalize_flag_accepted(self, tmp_path):
        out = io.StringIO()
        code = cli_main(
            [
                "check",
                str(OUN_DOC),
                "--refines",
                "Read2",
                "Read",
                "--no-normalize",
                "--env-objects",
                "1",
            ],
            out=out,
        )
        assert code == 0
        assert "Read2" in out.getvalue()
