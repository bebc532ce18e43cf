"""Alpha routing: each WME reaches exactly the stores a full scan would.

The compiled kernel hashes each WME on one constant-test attribute of
its class (``KernelRuntime.candidates``) instead of calling every store
predicate of the class.  These tests pin that the routed set of stores
a WME lands in is the set a linear predicate scan finds, over generated
programs and over the values where hashing and OPS5 equality part ways.
"""

import math

import pytest

from repro.kernel import CompiledMatcher, check_kernel
from repro.kernel.codegen import plan_routes, plan_stores
from repro.ops5 import parse_program
from repro.ops5.actions import Halt
from repro.ops5.condition import ConditionElement, ConstantTest
from repro.ops5.production import Production
from repro.ops5.wme import WME, WorkingMemory
from repro.parallel import messages
from repro.parallel.validate import validate_parallel
from repro.parallel.worker import ShardState
from repro.rete import ReteNetwork
from repro.workloads.generator import FUZZ_PROFILES, case_from_seed


def _compiled(productions):
    matcher = CompiledMatcher()
    for production in productions:
        matcher.add_production(production)
    matcher._ensure_compiled()
    return matcher


def _passes(store, wme):
    return store.predicate is None or store.predicate(wme)


def _scanned(runtime, wme):
    """The stores a linear predicate scan of the class puts *wme* in."""
    return [s for s in runtime.stores if s.cls == wme.cls and _passes(s, wme)]


def _routed(runtime, wme):
    return [s for s in runtime.candidates(wme) if _passes(s, wme)]


def _stamped(cls, attrs, timetag=1):
    wme = WME(cls, attrs)
    wme.timetag = timetag
    return wme


# -- differential: routed == scanned over generated programs -------------------


@pytest.mark.parametrize("profile", ["default", "r1-soar", "ilog", "mud"])
def test_routed_stores_equal_linear_scan_on_generated_programs(profile):
    for seed in range(12):
        case = case_from_seed(FUZZ_PROFILES[profile], seed)
        runtime = _compiled(case.productions).runtime
        for op in case.stream:
            if op[0] != "add":
                continue
            wme = _stamped(op[2], op[3])
            assert _routed(runtime, wme) == _scanned(runtime, wme), (
                profile, seed, op
            )


def test_generated_programs_use_the_table():
    """The differential above is vacuous unless tables are built."""
    keyed = 0
    for seed in range(12):
        case = case_from_seed(FUZZ_PROFILES["default"], seed)
        routes = _compiled(case.productions).runtime.routes
        keyed += sum(1 for route in routes.values() if route[0] is not None)
    assert keyed > 0


# -- hand cases: where hash equality and OPS5 equality differ -----------------

MIXED = """
(p int-one (item ^v 1) --> (halt))
(p float-one (item ^v 1.0) --> (halt))
(p sym-nil (item ^v nil) --> (halt))
(p any-item (item ^w <x>) --> (halt))
(p two (item ^v 2 ^w k) --> (halt))
(p pair (item ^v <v>) (probe ^v <v>) --> (halt))
"""



def _mixed_productions():
    """MIXED plus a rule testing the *symbol* ``"1"`` (which the parser
    cannot spell: it reads ``1`` as a number)."""
    sym_one = Production(
        "sym-one", [ConditionElement("item", {"v": ConstantTest("1")})], [Halt()]
    )
    return [*parse_program(MIXED).productions, sym_one]


VALUES = [1, 1.0, "1", True, False, float("nan"), 2, 2.0, "k", None]


def _mixed_value_wmes():
    for value in VALUES:
        attrs = {"w": "k"} if value is None else {"v": value, "w": "k"}
        yield attrs


def test_mixed_values_route_like_a_scan():
    runtime = _compiled(_mixed_productions()).runtime
    assert runtime.routes["item"][0] == "v"
    for attrs in _mixed_value_wmes():
        wme = _stamped("item", attrs)
        assert _routed(runtime, wme) == _scanned(runtime, wme), attrs


def test_one_and_one_point_oh_share_a_bucket_and_the_symbol_does_not():
    runtime = _compiled(_mixed_productions()).runtime
    _attr, table, _rest, _stores = runtime.routes["item"]
    assert table[1] is table[1.0]
    assert table["1"] is not table[1]
    assert _names(runtime, {"v": 1}) == _names(runtime, {"v": 1.0})
    assert _names(runtime, {"v": 1}) == ["any-item", "float-one", "int-one", "pair"]
    assert _names(runtime, {"v": "1"}) == ["any-item", "pair", "sym-one"]


def _names(runtime, attrs):
    routed = _routed(runtime, _stamped("item", attrs))
    return sorted(name for store in routed for name in store.production_names)


def test_booleans_and_nan_reach_only_the_unkeyed_stores():
    runtime = _compiled(_mixed_productions()).runtime
    for value in (True, False, float("nan")):
        assert _names(runtime, {"v": value}) == ["any-item", "pair"]


def test_absent_attribute_routes_as_nil():
    runtime = _compiled(_mixed_productions()).runtime
    assert _names(runtime, {"w": "k"}) == ["any-item", "pair", "sym-nil"]


def test_mixed_value_conflict_set_matches_rete():
    productions = _mixed_productions()
    compiled = CompiledMatcher()
    rete = ReteNetwork()
    for production in productions:
        compiled.add_production(production)
        rete.add_production(production)
    memory = WorkingMemory()
    added = []
    stream = [("item", attrs) for attrs in _mixed_value_wmes()]
    stream += [("probe", {"v": value}) for value in (1, "1", 2.0, True)]
    for cls, attrs in stream:
        wme = memory.add(WME(cls, attrs))
        added.append(wme)
        compiled.add_wme(wme)
        rete.add_wme(wme)
        assert compiled.conflict_set.snapshot() == rete.conflict_set.snapshot()
    assert check_kernel(compiled) == []
    for wme in added[::2]:
        compiled.remove_wme(wme)
        rete.remove_wme(wme)
        assert compiled.conflict_set.snapshot() == rete.conflict_set.snapshot()
    assert check_kernel(compiled) == []


# -- planning -----------------------------------------------------------------


def _routes(source):
    plans, _use = plan_stores(parse_program(source).productions)
    return {route.cls: route for route in plan_routes(plans)}


def test_attribute_with_most_distinct_constants_wins():
    route = _routes("""
        (p a (item ^kind x ^size 1) --> (halt))
        (p b (item ^kind y ^size 1) --> (halt))
        (p c (item ^kind z ^size 2) --> (halt))
    """)["item"]
    assert route.attr == "kind"
    assert sorted(route.table) == ["x", "y", "z"]


def test_ties_break_by_attribute_name():
    route = _routes("""
        (p a (item ^zeta x ^alpha 1) --> (halt))
        (p b (item ^zeta y ^alpha 2) --> (halt))
    """)["item"]
    assert route.attr == "alpha"


def test_buckets_keep_store_order_and_include_unkeyed_stores():
    route = _routes("""
        (p a (item ^kind x) --> (halt))
        (p b (item ^size > 2) --> (halt))
        (p c (item ^kind y) --> (halt))
        (p d (item ^kind x ^size 3) --> (halt))
    """)["item"]
    assert route.attr == "kind"
    indexes = {value: [s.index for s in bucket] for value, bucket in route.table.items()}
    assert indexes == {"x": [0, 1, 3], "y": [1, 2]}
    assert [s.index for s in route.rest] == [1]


def test_class_without_constants_keeps_its_plain_store_list():
    routes = _routes("""
        (p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
           --> (make anc ^from <x> ^to <y>))
    """)
    for route in routes.values():
        assert route.attr is None and route.table is None
        assert route.rest == route.stores


def test_nan_constant_stays_off_the_table():
    nan = Production(
        "nan", [ConditionElement("item", {"v": ConstantTest(float("nan"))})], [Halt()]
    )
    plain = parse_program("(p one (item ^v 1) --> (halt))").productions
    plans, _use = plan_stores([nan, *plain])
    (route,) = plan_routes(plans)
    assert route.attr == "v"
    assert list(route.table) == [1]
    assert not any(isinstance(k, float) and math.isnan(k) for k in route.table)
    # The NaN store is unkeyed, so it still reaches every candidate list.
    assert [s.index for s in route.rest] == [0]


# -- the one entry point behind every caller ----------------------------------

KEYED = """
(p mark (task ^stage 0 ^lane <l>) (item ^kind k0 ^lane <l>) - (mark ^lane <l> ^branch 0)
   --> (make mark ^lane <l> ^branch 0))
(p mark1 (task ^stage 0 ^lane <l>) (item ^kind k1 ^lane <l>) - (mark ^lane <l> ^branch 1)
   --> (make mark ^lane <l> ^branch 1))
(p advance (task ^stage 0 ^lane <l>) (mark ^lane <l> ^branch 0) (mark ^lane <l> ^branch 1)
   --> (modify 1 ^stage 1))
"""

KEYED_SETUP = [("task", {"stage": 0, "lane": f"l{i}"}) for i in range(3)] + [
    ("item", {"kind": kind, "lane": f"l{i}"}) for i in range(3) for kind in ("k0", "k1", "k9")
]


def test_shard_state_routes_and_matches_rete():
    productions = parse_program(KEYED).productions
    memory = WorkingMemory()
    wmes = [memory.add(WME(cls, dict(attrs))) for cls, attrs in KEYED_SETUP]
    state = ShardState()
    rete = ReteNetwork()
    for production in productions:
        rete.add_production(production)
    state.apply_batch([(messages.ADD_PRODUCTION, p) for p in productions])
    for wme in wmes:
        state.apply_batch([(messages.ADD_WME, wme)])
        rete.add_wme(wme)
        assert state.conflict_set.snapshot() == rete.conflict_set.snapshot()
    assert state._rt.routes["item"][0] == "kind"
    for wme in wmes[::3]:
        state.apply_batch([(messages.REMOVE_WME, wme.timetag)])
        rete.remove_wme(wme)
        assert state.conflict_set.snapshot() == rete.conflict_set.snapshot()


def test_local_transport_matches_rete_on_keyed_program():
    report = validate_parallel(KEYED, KEYED_SETUP, workers=2, transport="local")
    assert report.agree, report.divergences()
    assert report.records["rete"].fired
