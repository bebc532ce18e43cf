"""Per-session kernel state: the mutable half of a compiled ruleset.

A compiled ruleset splits in two (ROADMAP item 3, the multi-tenant
serve story):

* the **immutable artifact** -- generated source, code object, exec'd
  ``build`` function -- lives process-wide in
  :class:`~repro.kernel.shared.SharedKernel`, built once per ruleset
  *shape* and shared by every session running it;
* the **mutable state** -- :class:`~repro.kernel.layout.AlphaStore`
  rows/columns, the beta index dicts the generated closures capture,
  blocker counts, and the conflict-set edits -- lives here, one
  :class:`KernelRuntime` per session.

Attaching a session to a warm kernel therefore costs closure
construction (one ``build`` call over the already-compiled code object)
plus a working-memory replay -- never codegen, ``compile()``, or module
``exec``.  Each runtime's stores and index dicts are private: sessions
share the code, never the state, which is the copy-on-write discipline
that keeps thousands of concurrent sessions isolated.
"""

from __future__ import annotations

from typing import Iterable

from ..ops5.production import Instantiation, Production
from ..ops5.wme import NIL, WME, is_number, same_type, values_equal
from .layout import AlphaStore

__all__ = ["KernelRuntime"]


def _eqn(a, b) -> bool:
    """``a == b`` where *b* is a numeric constant (symbols never match)."""
    return is_number(a) and a == b


def _lt(a, b) -> bool:
    return is_number(a) and is_number(b) and a < b


def _le(a, b) -> bool:
    return is_number(a) and is_number(b) and a <= b


def _gt(a, b) -> bool:
    return is_number(a) and is_number(b) and a > b


def _ge(a, b) -> bool:
    return is_number(a) and is_number(b) and a >= b


def _anyeq(a, values) -> bool:
    """OPS5 disjunction ``<< v1 v2 ... >>`` membership."""
    for v in values:
        if values_equal(a, v):
            return True
    return False


class KernelRuntime:
    """Everything a generated ``build(rt)`` needs, plus the built state.

    The generated module binds the helper functions and conflict-set
    editors to locals once per build; ``store``/``subscribe`` are called
    during build to materialise the columnar memories and register the
    per-CE right-activation closures.
    """

    __slots__ = ("counters", "cs_insert", "cs_delete", "instantiation",
                 "productions", "stores", "routes", "subscriptions")

    # Comparison helpers, shared by every generated kernel.
    veq = staticmethod(values_equal)
    same = staticmethod(same_type)
    num = staticmethod(is_number)
    eqn = staticmethod(_eqn)
    lt = staticmethod(_lt)
    le = staticmethod(_le)
    gt = staticmethod(_gt)
    ge = staticmethod(_ge)
    anyeq = staticmethod(_anyeq)

    def __init__(self, conflict_set, productions: list[Production]) -> None:
        #: [node activations, comparisons, tokens built] -- the generated
        #: code increments these; the matcher snapshots deltas per change.
        self.counters = [0, 0, 0]
        self.cs_insert = conflict_set.insert
        self.cs_delete = conflict_set.delete_key
        self.instantiation = Instantiation
        #: Positional production list, in codegen order.
        self.productions = productions
        self.stores: list[AlphaStore] = []
        #: class -> (routed attribute, value -> stores, the stores with
        #: no constant on that attribute, every store of the class); see
        #: :meth:`route`.
        self.routes: dict[str, tuple] = {}
        self.subscriptions = 0

    def store(
        self,
        index: int,
        cls: str,
        columns: tuple[str, ...],
        predicate,
        production_names: tuple[str, ...],
    ) -> AlphaStore:
        assert index == len(self.stores)
        store = AlphaStore(cls, columns, predicate, frozenset(production_names))
        self.stores.append(store)
        return store

    def route(self, cls: str, attr, table, rest, stores) -> None:
        """Register one class's routing table (planned by codegen)."""
        self.routes[cls] = (attr, table, rest, stores)

    def subscribe(self, store: AlphaStore, add_fn, del_fn) -> None:
        store.add_subs.append(add_fn)
        store.del_subs.append(del_fn)
        self.subscriptions += 1

    def candidates(self, wme: WME) -> tuple[AlphaStore, ...]:
        """The stores *wme* may enter: every store whose predicate it
        could pass, in store order.

        One hash probe on the class's routed attribute replaces a scan
        of every store predicate of the class.  Only a value of exactly
        ``str``, ``int`` or ``float`` probes the table: those hash the
        way the generated tests compare.  A ``nil`` (absent) value
        probes as the symbol it is; a value matching no constant,
        NaN among them, gets the stores with no constant test on the
        attribute.  Any other type (``True`` hashes like ``1`` but never
        equals it in OPS5; a ``str`` or number subclass may equal a
        constant without hashing like one) gets every store of the
        class, whose predicates then decide.
        """
        route = self.routes.get(wme.cls)
        if route is None:
            return ()
        attr, table, rest, stores = route
        if attr is None:
            return rest
        value = wme._attributes.get(attr, NIL)
        kind = type(value)
        if kind is str or kind is int or kind is float:
            return table.get(value, rest)
        return stores

    def add(self, wme: WME) -> int:
        """Insert *wme* into every store whose predicate it passes and
        run their subscribers; returns the affected-production count."""
        affected: set[str] = set()
        for store in self.candidates(wme):
            predicate = store.predicate
            if predicate is None or predicate(wme):
                store.insert(wme)
                affected |= store.production_names
                for fn in store.add_subs:
                    fn(wme)
        return len(affected)

    def remove(self, wme: WME) -> int:
        """Retract *wme* from the stores holding it; returns the
        affected-production count.

        WMEs are immutable, so it routes exactly as its :meth:`add` did.
        Two-phase: every delete subscriber runs while the rows and
        columns still hold the dying WME (a retracting token rebuilds
        its key from them), then the rows drop.
        """
        timetag = wme.timetag
        hit = [s for s in self.candidates(wme) if timetag in s.rows]
        affected: set[str] = set()
        for store in hit:
            affected |= store.production_names
            for fn in store.del_subs:
                fn(wme)
        for store in hit:
            store.remove(wme)
        return len(affected)

    def replay(self, wmes: Iterable[WME]) -> int:
        """Feed existing WMEs (in timetag order) into the fresh state.

        This is the O(working-memory) half of a session attach: stores
        fill, join indexes build, and the conflict set re-derives --
        quietly, with no per-change stats rows (the caller snapshots
        counter deltas around the whole replay).
        """
        count = 0
        add = self.add
        for wme in wmes:
            add(wme)
            count += 1
        return count

    def state_size(self) -> int:
        """Rows across all stores (parity with ReteNetwork.state_size)."""
        return sum(len(s) for s in self.stores)
