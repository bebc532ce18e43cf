"""The conflict set and conflict-resolution strategies (LEX and MEA).

After each match phase the *conflict set* holds every instantiation of
every satisfied production.  Conflict resolution picks at most one of
them to fire:

* **Refraction** (both strategies): an instantiation that has already
  fired is never selected again.
* **LEX**: order instantiations by *recency* -- compare the matched
  timetags sorted in descending order, lexicographically; a strictly
  greater sequence wins, and when one sequence is a prefix of the other
  the longer one wins.  Ties fall back to production *specificity* (the
  number of elementary tests in the LHS) and finally to a deterministic
  arbitrary order.
* **MEA**: first compare the timetag of the WME matching the *first*
  condition element (the "means-ends-analysis" element -- usually the
  goal); ties are resolved exactly as in LEX.

The conflict set is maintained *incrementally* by matchers: matchers call
:meth:`ConflictSet.insert` / :meth:`ConflictSet.delete` as tokens reach
or leave their terminal nodes (Rete), or after per-cycle recomputation
(TREAT, naive).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .errors import Ops5Error
from .production import Instantiation


class ConflictSet:
    """The set of instantiations of currently satisfied productions.

    Insertion and deletion are keyed by :attr:`Instantiation.key`
    (production name + matched timetags), matching OPS5 identity.
    Counters record total insert/delete traffic for the measurement
    modules.
    """

    def __init__(self) -> None:
        self._members: dict[tuple, Instantiation] = {}
        self.total_inserts = 0
        self.total_deletes = 0

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Instantiation]:
        return iter(self._members.values())

    def __contains__(self, instantiation: Instantiation) -> bool:
        return instantiation.key in self._members

    def insert(self, instantiation: Instantiation) -> None:
        """Add an instantiation; re-inserting the same key is an error.

        Matchers must produce each instantiation exactly once; a double
        insert means the matcher's internal state is corrupt, and we fail
        loudly rather than mask it.
        """
        if instantiation.key in self._members:
            raise Ops5Error(f"duplicate conflict-set insert of {instantiation!r}")
        self._members[instantiation.key] = instantiation
        self.total_inserts += 1

    def delete(self, instantiation: Instantiation) -> None:
        """Remove an instantiation; deleting an absent key is an error."""
        self.delete_key(instantiation.key)

    def delete_key(self, key: tuple) -> None:
        """Remove the instantiation with identity *key*.

        Lets a holder of ``(production name, timetags)`` retract without
        materialising an :class:`Instantiation` -- the parallel executor
        merges shard edit streams this way.
        """
        if key not in self._members:
            raise Ops5Error(f"conflict-set delete of absent key {key!r}")
        del self._members[key]
        self.total_deletes += 1

    def get(self, key: tuple) -> Optional[Instantiation]:
        """The instantiation with identity *key*, or None."""
        return self._members.get(key)

    def clear(self) -> None:
        self._members.clear()

    def snapshot(self) -> frozenset[tuple]:
        """The current membership as a frozen set of instantiation keys."""
        return frozenset(self._members)

    def members(self) -> list[Instantiation]:
        return list(self._members.values())


def _mea_order_key(instantiation: Instantiation) -> tuple:
    """Sort key for MEA: first-CE recency, then the LEX key
    (:attr:`Instantiation.lex_key`).

    ``timetags`` holds only the WMEs bound by *positive* condition
    elements, so ``timetags[0]`` is the first CE's recency **only if the
    first CE is positive**.  That is an invariant, not an assumption:
    :func:`~repro.ops5.condition.analyze_lhs` rejects productions whose
    leading CE is negated at parse time (for every strategy -- OPS5
    itself makes the same restriction, precisely so MEA's "means-ends"
    focus element is always a real WME).  A negated CE elsewhere in the
    LHS shifts nothing: positions in ``timetags`` follow positive-CE
    order, and position 0 is the first CE.  The empty-tuple fallback is
    unreachable through the parser (an LHS must have at least one CE)
    and exists only for hand-built instantiations.
    """
    first = instantiation.timetags[0] if instantiation.timetags else 0
    return (first,) + instantiation.lex_key


class Strategy:
    """A conflict-resolution strategy: picks the instantiation to fire."""

    name: str = "abstract"

    def _order_key(self, instantiation: Instantiation) -> tuple:
        raise NotImplementedError

    def select(
        self,
        conflict_set: Iterable[Instantiation],
        already_fired: Callable[[tuple], bool],
    ) -> Optional[Instantiation]:
        """Return the dominant un-fired instantiation, or None to halt.

        ``already_fired`` implements refraction: it reports whether an
        instantiation key has fired before.
        """
        best: Optional[Instantiation] = None
        best_key: Optional[tuple] = None
        for instantiation in conflict_set:
            if already_fired(instantiation.key):
                continue
            key = self._order_key(instantiation)
            if best_key is None or key > best_key:
                best, best_key = instantiation, key
        return best

    def order(self, conflict_set: Iterable[Instantiation]) -> list[Instantiation]:
        """The full dominance order, best first (for inspection/tests)."""
        return sorted(conflict_set, key=self._order_key, reverse=True)


class LexStrategy(Strategy):
    """The OPS5 LEX strategy: recency, then specificity."""

    name = "lex"

    def _order_key(self, instantiation: Instantiation) -> tuple:
        return instantiation.lex_key

    def select(
        self,
        conflict_set: Iterable[Instantiation],
        already_fired: Callable[[tuple], bool],
    ) -> Optional[Instantiation]:
        # Strategy.select with the key read straight off the slot: this
        # loop runs over the whole conflict set every cycle.
        best: Optional[Instantiation] = None
        best_key: Optional[tuple] = None
        for instantiation in conflict_set:
            if already_fired(instantiation.key):
                continue
            key = instantiation.lex_key
            if best_key is None or key > best_key:
                best, best_key = instantiation, key
        return best


class MeaStrategy(Strategy):
    """The OPS5 MEA strategy: first-CE recency first, then LEX."""

    name = "mea"

    def _order_key(self, instantiation: Instantiation) -> tuple:
        return _mea_order_key(instantiation)


def strategy_named(name: str) -> Strategy:
    """Look up a strategy by name ("lex" or "mea")."""
    table = {"lex": LexStrategy, "mea": MeaStrategy}
    try:
        return table[name.lower()]()
    except KeyError:
        raise Ops5Error(f"unknown conflict-resolution strategy {name!r}") from None
