"""Scenario-corpus packaging: registries and claims."""

import pytest

from repro.checker.engine import EngineConfig, ObligationEngine, ObligationSource
from repro.core.errors import ReproError
from repro.workload.scenarios import (
    all_scenarios,
    get_scenario,
    scenario_obligations,
)

from .conftest import SCENARIO_NAMES


class TestCorpusShape:
    def test_three_scenarios_in_stable_order(self):
        assert SCENARIO_NAMES == (
            "two_phase_dynamic",
            "pubsub_fanout",
            "leader_election",
        )

    def test_unknown_scenario_names_the_known_ones(self):
        with pytest.raises(ReproError, match="two_phase_dynamic"):
            get_scenario("nope")

    def test_registry_holds_monitored_and_views(self, compiled_by_scenario):
        for scenario in all_scenarios():
            registry, compiled = compiled_by_scenario[scenario.name]
            assert scenario.monitored in registry.names()
            assert len(registry.names()) >= 3  # monitored spec plus views
            assert compiled.dense is not None  # generator prerequisite


class TestClaims:
    """Each scenario's refinement/composition claims, through the engine
    (the same path as ``repro workload verify``)."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_all_claims_agree(self, name):
        source = ObligationSource.of(
            "repro.workload.scenarios:scenario_obligations", scenario=name
        )
        run = ObligationEngine(EngineConfig()).run(source)
        assert run.session.all_agree, run.session.format_table()

    def test_obligation_idents_unique_and_prefixed(self):
        for scenario in all_scenarios():
            obligations = scenario_obligations(scenario.name)
            idents = [o.ident for o in obligations]
            assert len(set(idents)) == len(idents)
            prefixes = {i.split("-")[0] for i in idents}
            assert len(prefixes) == 1  # one prefix per scenario
