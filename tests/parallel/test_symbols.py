"""Properties of the symbol intern table and interned join keys.

The intern table must be a bijection between texts and dense ids, and
interned ids must never collide with numbers in a join key.  The
checkpoint path is pinned too: an indexed Rete network whose join
buckets key on process-local intern ids must rebuild those buckets
after unpickling.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.ops5 import parse_program
from repro.ops5.symbols import SYMBOLS, SymbolTable
from repro.ops5.wme import WME


def make_wme(cls, attrs, timetag):
    wme = WME(cls, attrs)
    wme.timetag = timetag
    return wme


@given(st.lists(st.text(max_size=20), max_size=50))
@settings(max_examples=50, deadline=None)
def test_intern_table_is_a_bijection(texts):
    table = SymbolTable()
    ids = [table.intern_id(t) for t in texts]
    # Same text -> same id; every id resolves back to its text.
    assert ids == [table.intern_id(t) for t in texts]
    for text, ident in zip(texts, ids):
        assert table.text_of(ident) == text
    assert len(table) == len(set(texts))
    assert sorted(set(ids)) == list(range(len(table)))


def test_symbol_ids_never_collide_with_numbers_in_join_keys():
    """The regression the key bitmask exists for: a symbol whose intern
    id happens to equal a numeric join value must not hash-collide into
    the same bucket and produce phantom matches."""
    from repro.rete.network import ReteNetwork

    program = parse_program(
        """
        (p pair (left ^v <x>) (right ^v <x>) --> (make hit))
        """
    )
    network = ReteNetwork()
    for production in program.productions:
        network.add_production(production)
    sym = "collider"
    ident = SYMBOLS.intern_id(sym)
    # A number equal to the symbol's intern id on the opposite side.
    network.add_wme(make_wme("left", {"v": sym}, 1))
    network.add_wme(make_wme("right", {"v": ident}, 2))
    assert len(network.conflict_set) == 0
    network.add_wme(make_wme("right", {"v": sym}, 3))
    assert len(network.conflict_set) == 1


def test_checkpoint_restore_rebuilds_interned_join_indexes():
    """Pickle an indexed network, reload it, and keep matching: the
    rebuilt join indexes must answer exactly like the originals (this
    is the executor's checkpoint/restore path in miniature)."""
    from repro.rete.network import ReteNetwork

    program = parse_program(
        """
        (p link (node ^name <a>) (edge ^from <a> ^to <b>) (node ^name <b>)
           --> (make reach ^to <b>))
        """
    )

    def fresh():
        network = ReteNetwork()
        for production in program.productions:
            network.add_production(production)
        return network

    live = fresh()
    wmes = []
    for i in range(4):
        wmes.append(make_wme("node", {"name": f"n{i}"}, len(wmes) + 1))
    wmes.append(make_wme("edge", {"from": "n0", "to": "n1"}, len(wmes) + 1))
    for wme in wmes:
        live.add_wme(wme)

    resumed = pickle.loads(pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL))
    resumed.rebuild_join_indexes()

    extra = make_wme("edge", {"from": "n2", "to": "n3"}, 99)
    live.add_wme(extra)
    resumed.add_wme(extra)
    assert len(resumed.conflict_set) == len(live.conflict_set) == 2
