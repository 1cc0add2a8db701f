"""Federation graph construction and validation.

The zero-delay-cycle check is exercised against an independent oracle:
reachability closure over the zero-delay subgraph (a cycle exists iff some
node reaches itself).  The implementation is the standard library's
topological sort, so agreement between the two is meaningful.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hprm.tags import NO_DELAY, Delay
from hprm.topology import Connection, Topology, TopologyError


def conn(src, dst, delay_ns=0, src_port="out", dst_port="in"):
    return Connection(src, src_port, dst, dst_port, Delay(delay_ns))


def closure_has_zero_delay_cycle(federates, connections):
    """Oracle: boolean reachability closure over zero-delay edges."""
    nodes = sorted(federates)
    idx = {f: i for i, f in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for c in connections:
        if c.delay.nanos == 0 and c.src in idx and c.dst in idx:
            reach[idx[c.src]][idx[c.dst]] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        if reach[i][k] and reach[k][j]:
            reach[i][j] = True
    return any(reach[i][i] for i in range(n))


def test_build_and_indexes():
    t = Topology.build(
        ["pub", "sub1", "sub2"],
        [conn("pub", "sub1"), conn("pub", "sub2", delay_ns=5)],
    )
    assert t.federates == ("pub", "sub1", "sub2")
    assert [c.dst for c in t.outputs_of("pub")] == ["sub1", "sub2"]
    assert [c.src for c in t.inputs_of("sub1")] == ["pub"]
    assert t.inputs_of("pub") == ()


def test_port_numbering_is_deterministic_and_invertible():
    conns = [
        conn("a", "b", dst_port="in"),
        conn("a", "c", dst_port="data"),
        conn("c", "b", dst_port="aux"),
    ]
    t1 = Topology.build(["a", "b", "c"], conns)
    t2 = Topology.build(["c", "b", "a"], list(reversed(conns)))
    ports = [("b", "aux"), ("b", "in"), ("c", "data")]
    for fed, port in ports:
        num = t1.port_number(fed, port)
        assert num == t2.port_number(fed, port)
        assert t1.port_name(num) == (fed, port)
    assert len({t1.port_number(f, p) for f, p in ports}) == 3


def test_unknown_endpoint_rejected():
    with pytest.raises(TopologyError, match="unknown-endpoint"):
        Topology.build(["a", "b"], [conn("a", "ghost")])


def test_self_loop_zero_delay_is_a_cycle():
    with pytest.raises(TopologyError, match="zero-delay cycle through a -> a$"):
        Topology.build(["a"], [conn("a", "a")])


def test_delayed_cycle_is_legal():
    Topology.build(  # does not raise
        ["a", "b"],
        [conn("a", "b", delay_ns=0), conn("b", "a", delay_ns=1_000_000)],
    )


def test_two_hop_zero_delay_cycle_detected():
    with pytest.raises(TopologyError, match="zero-delay-cycle"):
        Topology.build(["a", "b"], [conn("a", "b"), conn("b", "a")])


def test_build_rejects_invalid_graphs():
    with pytest.raises(TopologyError, match="zero-delay-cycle"):
        Topology.build(["a", "b"], [conn("a", "b"), conn("b", "a")])
    with pytest.raises(TopologyError, match="unknown-endpoint"):
        Topology.build(["a"], [conn("a", "ghost")])


def test_one_error_names_every_violation_with_the_cycle_in_edge_order():
    """The text ``hprm-rti --topology`` prints for a bad graph: each
    violation, and the cycle's federates in the order its edges run
    (reversed, it would read a -> c -> b -> a)."""
    with pytest.raises(TopologyError) as err:
        Topology.build(
            ["a", "b", "c", "d"],
            [
                conn("a", "b"),
                conn("b", "c"),
                conn("c", "a"),
                conn("c", "d", src_port="aux"),
                conn("a", "ghost", src_port="aux"),
            ],
        )
    assert str(err.value) == (
        "unknown-endpoint: connection a.aux->ghost.in references undeclared "
        "federate 'ghost'; zero-delay-cycle: zero-delay cycle through "
        "a -> b -> c -> a"
    )


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([0, 0, 1_000]),
            ),
            max_size=12,
        ).map(lambda edges: (n, edges))
    )
)
def test_cycle_check_matches_closure_oracle(case):
    n, edges = case
    feds = [f"f{i}" for i in range(n)]
    conns = [
        Connection(feds[s], f"o{k}", feds[d], f"i{k}", Delay(ns))
        for k, (s, d, ns) in enumerate(edges)
    ]
    try:
        Topology.build(feds, conns)
        found = False
    except TopologyError as exc:
        assert str(exc).startswith("zero-delay-cycle: ")
        found = True
    assert found == closure_has_zero_delay_cycle(feds, conns)


def test_json_round_trip(tmp_path):
    t = Topology.build(
        ["a", "b"],
        [conn("a", "b", delay_ns=250, src_port="x", dst_port="y")],
    )
    path = tmp_path / "topo.json"
    t.save(path)
    loaded = Topology.load(path)
    assert loaded == t
    assert loaded.port_number("b", "y") == t.port_number("b", "y")
