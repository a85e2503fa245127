"""Randomized trace-equivalence harness for the normalization pipeline.

The pipeline's contract is that every pass preserves the denoted trace
set.  This module checks the contract end-to-end on machine trees the
unit tests would never think to write: for each random tree, the DFA
compiled from the raw trace set and the DFA compiled from the normalized
one must accept exactly the same language
(:func:`~repro.automata.ops.equivalence_counterexample` finds the
shortest distinguishing word if not).

The same random trees also gate the dense automata core: for each tree,
the dense DFA and its dict-of-dicts roundtrip (rebuilt through the legacy
``transitions`` shim) must denote the same language, minimize to the same
state count, and yield the same inclusion counterexamples.  The tree
generator spans all eleven machine kinds — True, False, And, Or, Not,
Counting, Filter, Only, Rename, Forall, and Prs.

Seeds are deterministic by default; setting ``REPRO_EQUIV_SEED`` shifts
the base seed, so CI sweeps independent seeds without code changes (see
the ``normalize-equivalence`` job).
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.automata.dfa import DFA
from repro.automata.ops import (
    equivalence_counterexample,
    inclusion_counterexample,
    minimize,
)
from repro.checker.compile import traceset_dfa
from repro.checker.universe import FiniteUniverse
from repro.core.alphabet import Alphabet
from repro.core.composition import compose
from repro.core.patterns import EventPattern
from repro.core.sorts import Sort
from repro.core.tracesets import MachineTraceSet
from repro.core.values import ObjectId
from repro.machines.base import TraceMachine
from repro.machines.boolean import (
    AndMachine,
    FalseMachine,
    NotMachine,
    OrMachine,
    TrueMachine,
)
from repro.machines.counting import (
    CountingMachine,
    Linear,
    difference_counter,
    method_counter,
)
from repro.machines.projection import FilterMachine, OnlyMachine
from repro.machines.quantifier import ForallMachine
from repro.machines.regex.ast import alt, meth, seq, star
from repro.machines.regex.machine import PrsMachine
from repro.machines.rename import RenameMachine

BASE_SEED = int(os.environ.get("REPRO_EQUIV_SEED", "0"))

O = ObjectId("o")
CALLERS = (ObjectId("p"), ObjectId("q"), ObjectId("r"))
METHODS = ("A", "B", "C")

#: Callers on the left, the fixed server on the right: renamings over
#: CALLERS can never manufacture a (forbidden) self-call.
ALPHA = Alphabet.of(
    *(
        EventPattern(Sort.values(c), Sort.values(O), m, ())
        for c in CALLERS[:2]
        for m in METHODS
    )
)


def _random_regex(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.3:
        return meth(rng.choice(METHODS))
    kind = rng.randrange(3)
    if kind == 0:
        return seq(
            _random_regex(rng, depth - 1), _random_regex(rng, depth - 1)
        )
    if kind == 1:
        return alt(
            _random_regex(rng, depth - 1), _random_regex(rng, depth - 1)
        )
    return star(_random_regex(rng, depth - 1))


def _random_leaf(rng: random.Random) -> TraceMachine:
    kind = rng.randrange(6)
    if kind == 0:
        return TrueMachine()
    if kind == 1:
        return FalseMachine()
    if kind == 2:
        return OnlyMachine(rng.choice(ALPHA.patterns))
    if kind == 3:
        return CountingMachine(
            (method_counter(rng.choice(METHODS)),),
            Linear((1,), -rng.randrange(3), "<="),
            saturate_at=3,
        )
    if kind == 4:
        return PrsMachine(star(_random_regex(rng)))
    plus, minus = rng.sample(METHODS, 2)
    return CountingMachine(
        (difference_counter(plus, minus),),
        Linear((1,), -1, rng.choice(("<=", "==", ">="))),
        saturate_at=3,
    )


def _random_tree(rng: random.Random, depth: int) -> TraceMachine:
    if depth == 0 or rng.random() < 0.25:
        return _random_leaf(rng)
    kind = rng.randrange(6)
    if kind == 0:
        return AndMachine(
            tuple(_random_tree(rng, depth - 1) for _ in range(rng.randint(2, 3)))
        )
    if kind == 1:
        return OrMachine(
            tuple(_random_tree(rng, depth - 1) for _ in range(2))
        )
    if kind == 2:
        return NotMachine(_random_tree(rng, depth - 1))
    if kind == 3:
        k = rng.randint(1, len(ALPHA.patterns))
        sub = Alphabet(tuple(rng.sample(ALPHA.patterns, k)))
        return FilterMachine(sub, _random_tree(rng, depth - 1))
    if kind == 4:
        # ∀x over the callers: each caller's projection must satisfy the
        # same (rng-fixed) prefix regex.
        body = star(_random_regex(rng))
        return ForallMachine(
            Sort.values(*CALLERS[:2]), lambda v: PrsMachine(body)
        )
    a, b = rng.sample(CALLERS, 2)
    return RenameMachine({a: b}, _random_tree(rng, depth - 1))


def _all_kinds_machine() -> TraceMachine:
    """One fixed tree containing every one of the eleven machine kinds."""
    prs = PrsMachine(star(alt(meth("A"), meth("B"), meth("C"))))
    return AndMachine(
        (
            OrMachine((TrueMachine(), FalseMachine())),
            NotMachine(
                CountingMachine(
                    (method_counter("A"),), Linear((1,), -4, ">="), saturate_at=5
                )
            ),
            FilterMachine(
                Alphabet(ALPHA.patterns[:3]),
                OnlyMachine(ALPHA.patterns[0]),
            ),
            RenameMachine({CALLERS[2]: CALLERS[0]}, prs),
            ForallMachine(
                Sort.values(*CALLERS[:2]),
                lambda v: PrsMachine(star(alt(meth("A"), meth("B")))),
            ),
        )
    )


UNIVERSE = FiniteUniverse.for_alphabets([ALPHA], env_objects=1, data_values=0)


@pytest.mark.parametrize("case", range(16))
def test_random_machine_trees_normalize_trace_equal(case):
    rng = random.Random(BASE_SEED * 1000 + case)
    machine = _random_tree(rng, depth=3)
    ts = MachineTraceSet(ALPHA, machine)
    raw = traceset_dfa(ts, UNIVERSE, normalize=False)
    cooked = traceset_dfa(ts, UNIVERSE, normalize=True)
    word = equivalence_counterexample(raw, cooked)
    assert word is None, (
        f"seed base {BASE_SEED}, case {case}: normalization changed the "
        f"language of {machine!r} — distinguishing word {word!r}"
    )


# ----------------------------------------------------------------------
# dense ↔ dict representation agreement
# ----------------------------------------------------------------------


def _dict_rows(dfa: DFA) -> tuple[dict, ...]:
    """The DFA's transitions as event-keyed row dicts."""
    return tuple(
        {e: dfa.step(q, e) for e in dfa.letters} for q in range(dfa.n_states)
    )


def _dict_roundtrip(dfa: DFA) -> DFA:
    """Rebuild a DFA through the dict-of-dicts row constructor."""
    return DFA(dfa.letters, _dict_rows(dfa), dfa.start, dfa.accepting)


def _dict_walk_accepts(rows, start, accepting, word) -> bool:
    state = start
    for e in word:
        state = rows[state][e]
    return state in accepting


def _assert_representations_agree(a: DFA, b: DFA, context: str) -> None:
    ra, rb = _dict_roundtrip(a), _dict_roundtrip(b)
    # Identical languages after the dict roundtrip...
    assert equivalence_counterexample(a, ra) is None, context
    assert equivalence_counterexample(b, rb) is None, context
    # ...the same canonical size...
    assert minimize(a).n_states == minimize(ra).n_states, context
    assert minimize(b).n_states == minimize(rb).n_states, context
    # ...and the same (shortest, deterministic) inclusion counterexamples.
    assert inclusion_counterexample(a, b) == inclusion_counterexample(ra, rb), context
    assert inclusion_counterexample(b, a) == inclusion_counterexample(rb, ra), context
    # Dense acceptance agrees with a brute-force dict walk on short words.
    rows = _dict_rows(a)
    for n in range(3):
        for word in itertools.product(a.letters, repeat=n):
            assert a.accepts(word) == _dict_walk_accepts(
                rows, a.start, a.accepting, word
            ), (context, word)


@pytest.mark.parametrize("case", range(16))
def test_dense_and_dict_representations_agree(case):
    rng = random.Random(BASE_SEED * 1000 + 500 + case)
    ma = _random_tree(rng, depth=3)
    mb = _random_tree(rng, depth=3)
    a = traceset_dfa(MachineTraceSet(ALPHA, ma), UNIVERSE, normalize=False)
    b = traceset_dfa(MachineTraceSet(ALPHA, mb), UNIVERSE, normalize=False)
    _assert_representations_agree(
        a, b, f"seed base {BASE_SEED}, case {case}: {ma!r} vs {mb!r}"
    )


def test_all_eleven_machine_kinds_agree_across_representations():
    machine = _all_kinds_machine()
    dfa = traceset_dfa(
        MachineTraceSet(ALPHA, machine), UNIVERSE, normalize=False
    )
    cooked = traceset_dfa(
        MachineTraceSet(ALPHA, machine), UNIVERSE, normalize=True
    )
    assert equivalence_counterexample(dfa, cooked) is None
    _assert_representations_agree(dfa, cooked, "all-kinds machine")


@pytest.mark.parametrize(
    "pair",
    [("read", "client"), ("read", "write"), ("write_acc", "client")],
    ids=lambda p: "||".join(p),
)
def test_paper_compositions_normalize_trace_equal(cast, pair):
    composed = compose(*(getattr(cast, name)() for name in pair))
    u = FiniteUniverse.for_specs(composed, env_objects=1)
    raw = traceset_dfa(composed.traces, u, normalize=False)
    cooked = traceset_dfa(composed.traces, u, normalize=True)
    assert equivalence_counterexample(raw, cooked) is None
