"""Kernel verification: store invariants plus a one-shot Rete check.

:func:`check_kernel` is the compiled counterpart of the Rete
``check_network`` hook used by ``repro run --verify``: it audits the
columnar stores against the WM mirror (membership, column/row
consistency, encoded values, and that the alpha routing table reaches
every store a WME passes) and then replays the whole session through
a fresh node-walking :class:`~repro.rete.ReteNetwork`, comparing
conflict sets.  It returns a list of human-readable problems -- empty
means the kernel state is exactly what the interpreted Rete would hold.
"""

from __future__ import annotations

from .layout import encode_value
from .matcher import CompiledMatcher

__all__ = ["check_kernel"]


def check_kernel(matcher: CompiledMatcher) -> list[str]:
    """Audit a compiled matcher's state; return problem descriptions."""
    problems: list[str] = []
    runtime = matcher.runtime
    wmes = matcher.current_wmes()
    if runtime is not None:
        by_tag = {w.timetag: w for w in wmes}
        for index, store in enumerate(runtime.stores):
            for timetag, wme in store.rows.items():
                if by_tag.get(timetag) is not wme:
                    problems.append(
                        f"store {index}: row {timetag} is not the WM mirror's WME"
                    )
                if store.predicate is not None and not store.predicate(wme):
                    problems.append(
                        f"store {index}: row {timetag} fails its alpha predicate"
                    )
            for attr, col in store.cols.items():
                if col.keys() != store.rows.keys():
                    problems.append(
                        f"store {index}: column {attr!r} keys diverge from rows"
                    )
                    continue
                for timetag, encoded in col.items():
                    expected = encode_value(store.rows[timetag].get(attr))
                    if encoded != expected:
                        problems.append(
                            f"store {index}: column {attr!r} row {timetag} "
                            f"holds {encoded}, expected {expected}"
                        )
            for wme in wmes:
                if wme.cls != store.cls:
                    continue
                if store.predicate is not None and not store.predicate(wme):
                    continue
                if wme.timetag not in store.rows:
                    problems.append(
                        f"store {index}: WME {wme.timetag} passes the alpha "
                        "tests but is missing from the store"
                    )
                if store not in runtime.candidates(wme):
                    problems.append(
                        f"store {index}: WME {wme.timetag} passes the alpha "
                        "tests but the routing table does not reach the store"
                    )

    # One-shot differential check against the node-walking Rete.
    from ..rete.network import ReteNetwork

    reference = ReteNetwork()
    for production in matcher.productions:
        reference.add_production(production)
    for wme in wmes:
        reference.add_wme(wme)
    ours = matcher.conflict_set.snapshot()
    theirs = reference.conflict_set.snapshot()
    if ours != theirs:
        missing = sorted(theirs - ours)
        extra = sorted(ours - theirs)
        problems.append(
            f"conflict set diverges from Rete: missing={missing[:5]!r} "
            f"extra={extra[:5]!r}"
        )
    return problems
