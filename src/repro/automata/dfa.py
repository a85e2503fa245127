"""Deterministic finite automata over finite event alphabets.

The exact checking layer instantiates symbolic alphabets over a finite
universe and represents trace sets as DFAs.  A :class:`DFA` here is always
*total*: every (state, letter) pair has a successor; construction adds an
explicit sink when needed.  Letters are concrete
:class:`~repro.core.events.Event` values (any hashable works, which the
unit tests exploit).

Storage is **dense** (DESIGN.md §10): letters are interned to integer ids
through a shared :class:`~repro.automata.letters.LetterTable` and the
transition function is one flat ``array('i')`` of ``n_states * n_letters``
successors indexed by ``state * n_letters + letter_id``.  Every hot kernel
(product, Hopcroft, BFS, online stepping) works purely on ints; structured
letters are hashed only at the boundary — encoding a word once on the way
in, decoding a counterexample on the way out.

The constructor still accepts per-state ``{letter: state}`` dicts
(encoded once, eagerly validated); reading goes through the dense
accessors (:meth:`DFA.step`, :meth:`DFA.step_id`, :meth:`DFA.run_ids`).
"""

from __future__ import annotations

from array import array
from typing import Hashable, Iterable, Sequence

from repro.automata.letters import LetterTable
from repro.obs.exploration import active_exploration_stats
from repro.core.errors import AutomatonError

__all__ = ["DFA"]


class DFA:
    """A total DFA: states ``0..n-1``, dense integer-coded transitions.

    ``DFA(letters, rows, start, accepting)`` takes event-keyed row dicts
    (fully validated); the kernels construct directly via
    :meth:`from_dense`.  Instances are immutable by convention: ``dense``
    and ``table`` must never be mutated — boolean operations share them.
    """

    __slots__ = (
        "letters",
        "table",
        "dense",
        "n_states",
        "n_letters",
        "start",
        "accepting",
    )

    def __init__(
        self,
        letters: Sequence[Hashable],
        transitions: Sequence[dict],
        start: int,
        accepting: Iterable[int],
    ) -> None:
        table = LetterTable.intern(letters)
        letters_t = table.letters
        n = len(transitions)
        letter_set = set(letters_t)
        dense = array("i")
        for q, row in enumerate(transitions):
            if set(row) != letter_set:
                raise AutomatonError(
                    f"state {q} is not total over the alphabet"
                )
            for a in letters_t:
                t = row[a]
                if not (0 <= t < n):
                    raise AutomatonError(
                        f"transition target {t} out of range in state {q}"
                    )
                dense.append(t)
        self._init_dense(table, n, dense, start, frozenset(accepting))

    # ------------------------------------------------------------------
    # dense construction
    # ------------------------------------------------------------------

    def _init_dense(
        self,
        table: LetterTable,
        n_states: int,
        dense: array,
        start: int,
        accepting: frozenset[int],
    ) -> None:
        if not (0 <= start < n_states):
            raise AutomatonError(f"start state {start} out of range")
        for q in accepting:
            if not (0 <= q < n_states):
                raise AutomatonError(f"accepting state {q} out of range")
        self.letters = table.letters
        self.table = table
        self.dense = dense
        self.n_states = n_states
        self.n_letters = len(table.letters)
        self.start = start
        self.accepting = accepting

    @classmethod
    def from_dense(
        cls,
        letters: Sequence[Hashable],
        n_states: int,
        dense: array,
        start: int,
        accepting: Iterable[int],
        *,
        table: LetterTable | None = None,
        validated: bool = False,
    ) -> "DFA":
        """Build from a flat successor array (the kernels' constructor).

        ``validated=True`` skips the target-range scan for arrays the
        caller built from in-range ids (exploration orders, products).
        """
        if table is None:
            table = LetterTable.intern(letters)
        k = len(table.letters)
        if len(dense) != n_states * k:
            raise AutomatonError(
                f"dense table has {len(dense)} entries, expected "
                f"{n_states} states x {k} letters"
            )
        if not validated and len(dense) and not (
            0 <= min(dense) and max(dense) < n_states
        ):
            raise AutomatonError("dense transition target out of range")
        self = cls.__new__(cls)
        self._init_dense(table, n_states, dense, start, frozenset(accepting))
        return self

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------

    def step(self, state: int, letter: Hashable) -> int:
        """One transition by letter (encoding at the boundary).

        Unknown letters raise an :class:`AutomatonError` naming the letter
        and the nearest alphabet letters by method name — a universe or
        spec-alphabet mismatch is undebuggable from a bare miss.
        """
        lid = self.table.get(letter)
        if lid is None:
            raise AutomatonError(self.table.unknown_letter_message(letter))
        return self.dense[state * self.n_letters + lid]

    def step_id(self, state: int, letter_id: int) -> int:
        """One transition by letter id (the hot path: no hashing)."""
        return self.dense[state * self.n_letters + letter_id]

    def run(self, word: Iterable[Hashable]) -> int:
        q = self.start
        k = self.n_letters
        dense = self.dense
        get = self.table.get
        steps = 0
        for a in word:
            lid = get(a)
            if lid is None:
                raise AutomatonError(self.table.unknown_letter_message(a))
            q = dense[q * k + lid]
            steps += 1
        stats = active_exploration_stats()
        if stats is not None:
            stats.letters_encoded += steps
            stats.dense_steps += steps
        return q

    def run_ids(self, ids: Sequence[int], state: int | None = None) -> int:
        """Run a pre-encoded word of letter ids from ``state`` (or start)."""
        q = self.start if state is None else state
        k = self.n_letters
        dense = self.dense
        for lid in ids:
            q = dense[q * k + lid]
        stats = active_exploration_stats()
        if stats is not None:
            stats.dense_steps += len(ids)
        return q

    def accepts(self, word: Iterable[Hashable]) -> bool:
        return self.run(word) in self.accepting

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        letters: Sequence[Hashable],
        n_states: int,
        start: int,
        accepting: Iterable[int],
        edges: dict[tuple[int, Hashable], int],
        default: int | None = None,
    ) -> "DFA":
        """Build from an edge dict; missing edges go to ``default``.

        ``default=None`` requires the edge dict to be total.
        """
        table = LetterTable.intern(letters)
        dense = array("i")
        for q in range(n_states):
            for a in table.letters:
                t = edges.get((q, a), default)
                if t is None:
                    raise AutomatonError(
                        f"missing transition ({q}, {a!r}) and no default"
                    )
                dense.append(t)
        return DFA.from_dense(
            table.letters, n_states, dense, start, accepting, table=table
        )

    @staticmethod
    def empty_language(letters: Sequence[Hashable]) -> "DFA":
        """The DFA accepting no word."""
        table = LetterTable.intern(letters)
        dense = array("i", [0] * len(table.letters))
        return DFA.from_dense(
            table.letters, 1, dense, 0, frozenset(), table=table,
            validated=True,
        )

    @staticmethod
    def full_language(letters: Sequence[Hashable]) -> "DFA":
        """The DFA accepting every word."""
        table = LetterTable.intern(letters)
        dense = array("i", [0] * len(table.letters))
        return DFA.from_dense(
            table.letters, 1, dense, 0, frozenset({0}), table=table,
            validated=True,
        )

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------

    def reachable_states(self) -> frozenset[int]:
        n, k, dense = self.n_states, self.n_letters, self.dense
        seen = bytearray(n)
        seen[self.start] = 1
        stack = [self.start]
        while stack:
            q = stack.pop()
            for t in dense[q * k : (q + 1) * k]:
                if not seen[t]:
                    seen[t] = 1
                    stack.append(t)
        return frozenset(q for q in range(n) if seen[q])

    def trim(self) -> "DFA":
        """Drop unreachable states (renumbering; language preserved)."""
        reach = sorted(self.reachable_states())
        if len(reach) == self.n_states:
            return self
        index = {q: i for i, q in enumerate(reach)}
        k = self.n_letters
        dense = self.dense
        out = array("i")
        for q in reach:
            for t in dense[q * k : (q + 1) * k]:
                out.append(index[t])
        return DFA.from_dense(
            self.letters,
            len(reach),
            out,
            index[self.start],
            frozenset(index[q] for q in self.accepting if q in index),
            table=self.table,
            validated=True,
        )

    def is_prefix_closed(self) -> bool:
        """Is the accepted language prefix closed?

        True iff no accepting state is reachable (in one or more steps)
        from a reachable non-accepting state.  Decided by one backward
        co-reachability pass from the accepting states over reversed
        edges — O(states x letters), not a BFS per state.
        """
        n, k, dense = self.n_states, self.n_letters, self.dense
        preds: list[list[int]] = [[] for _ in range(n)]
        for q in range(n):
            for t in dense[q * k : (q + 1) * k]:
                preds[t].append(q)
        # co[q]: some path of length >= 1 from q hits an accepting state.
        co = bytearray(n)
        stack: list[int] = []
        for t in self.accepting:
            for p in preds[t]:
                if not co[p]:
                    co[p] = 1
                    stack.append(p)
        while stack:
            s = stack.pop()
            for p in preds[s]:
                if not co[p]:
                    co[p] = 1
                    stack.append(p)
        accepting = self.accepting
        return not any(
            co[q] and q not in accepting for q in self.reachable_states()
        )

    # ------------------------------------------------------------------
    # identity, pickling, fingerprints
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DFA):
            return (
                self.letters == other.letters
                and self.start == other.start
                and self.accepting == other.accepting
                and self.dense == other.dense
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (self.letters, self.start, self.accepting, self.dense.tobytes())
        )

    def cache_key_parts(self):
        """Fingerprint content: the dense form is the definitional one."""
        return (
            self.letters,
            self.n_states,
            self.dense.tobytes(),
            self.start,
            self.accepting,
        )

    def __getstate__(self):
        # Dense arrays pickle as one bytes blob — the compact wire form
        # crossing the engine's process boundary and the on-disk cache.
        return (
            self.letters,
            self.n_states,
            self.dense.tobytes(),
            self.start,
            self.accepting,
        )

    def __setstate__(self, state) -> None:
        letters, n_states, blob, start, accepting = state
        dense = array("i")
        dense.frombytes(blob)
        table = LetterTable.intern(letters)
        self._init_dense(table, n_states, dense, start, frozenset(accepting))

    def __repr__(self) -> str:
        return (
            f"DFA(states={self.n_states}, letters={len(self.letters)}, "
            f"accepting={len(self.accepting)})"
        )
