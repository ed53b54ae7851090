"""Tests for topology generation and scenario construction."""

import hashlib

import numpy as np
import pytest

from repro.sweep.catalog import family
from repro.topology.overlap import (
    GatewayTopology,
    _connected_graph_with_degrees,
    binomial_connectivity,
    generate_overlap_topology,
    residential_degree_sequence,
)
from repro.topology.scenario import (
    DslamConfig,
    Scenario,
    WirelessParameters,
    build_default_scenario,
    random_port_assignment,
)
from repro.traces.synthetic import generate_crawdad_like_trace


def homes(num_clients, num_gateways):
    return {c: c % num_gateways for c in range(num_clients)}


def test_degree_sequence_mean_and_parity():
    degrees = residential_degree_sequence(200, mean_degree=4.6, seed=1)
    assert sum(degrees) % 2 == 0
    assert 3.5 <= np.mean(degrees) <= 5.7
    assert all(0 <= d <= 199 for d in degrees)


def test_degree_sequence_small_populations():
    assert residential_degree_sequence(1) == [0]
    assert residential_degree_sequence(0) == []


def test_overlap_topology_connectivity_and_reachability():
    home = homes(60, 20)
    topology = generate_overlap_topology(home, 20, mean_networks_in_range=5.6, seed=3)
    assert topology.num_clients == 60
    for client, reachable in topology.reachable.items():
        assert home[client] in reachable
    assert 2.0 <= topology.mean_reachable() <= 9.0
    # The gateway graph is connected by construction.
    graph = topology.gateway_graph
    assert len(graph) == 20
    reached = {0}
    queue = [0]
    for gateway in queue:
        for neighbour in graph[gateway]:
            assert gateway in graph[neighbour]
            if neighbour not in reached:
                reached.add(neighbour)
                queue.append(neighbour)
    assert reached == set(range(20))
    for client, gateway in home.items():
        assert topology.reachable[client] == {gateway, *graph[gateway]}


def _networkx_graph(degrees, seed):
    """The overlap graph built with networkx: the reference the generator must match."""
    import networkx as nx

    rng = np.random.default_rng(seed)
    graph = nx.Graph(nx.configuration_model(degrees, seed=int(rng.integers(2**31 - 1))))
    graph.remove_edges_from(nx.selfloop_edges(graph))
    components = [list(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        graph.add_edge(int(rng.choice(components[0])), int(rng.choice(components[1])))
        components = [list(c) for c in nx.connected_components(graph)]
    return graph


@pytest.mark.parametrize("n", (2, 3, 4, 5, 8, 10, 20, 40, 80, 200))
def test_overlap_graph_matches_networkx(n):
    """Same neighbour order, and so the same reachable-set order, as networkx.

    BH2 draws its candidate gateways in the iteration order of a client's
    reachable set, so the order, not only the membership, has to match.
    """
    pytest.importorskip("networkx")
    home = {client: client for client in range(n)}
    for mean_degree in (1, 2, 4.6, 8):
        for seed in range(150):
            degrees = residential_degree_sequence(n, mean_degree=mean_degree, seed=seed)
            expected = _networkx_graph(degrees, seed)
            topology = generate_overlap_topology(home, n, mean_degree + 1.0, seed=seed)
            case = (mean_degree, seed)
            assert topology.gateway_graph == tuple(
                tuple(expected.adj[gateway]) for gateway in range(n)
            ), case
            for gateway in range(n):
                in_range = frozenset({gateway} | set(expected.neighbors(gateway)))
                assert tuple(topology.reachable[gateway]) == tuple(in_range), case


#: SHA-256 of ``repr`` of every client's ``tuple(reachable[client])``, in
#: client order, as the networkx-built overlap graph gave them.
_REACHABLE_DIGESTS = {
    "paper-default": "018b5a71bd1fad16f0089bb6e89688139baa4dc5e8fd9c22cd5ca16de38c8c80",
    "mixed-fleet": "f8ffbd46d0454779dcbefb92050fa3f24d5c3e91beb5bc7cace3cf20b6623fe0",
}


@pytest.mark.parametrize("family_name", sorted(_REACHABLE_DIGESTS))
def test_reachable_sets_are_pinned(family_name):
    topology = family(family_name).expand()[0].build().topology
    rows = [tuple(topology.reachable[client]) for client in sorted(topology.reachable)]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == _REACHABLE_DIGESTS[family_name]


def test_odd_degree_sum_is_rejected():
    with pytest.raises(ValueError):
        _connected_graph_with_degrees([1, 1, 1], seed=0)


def test_overlap_topology_requires_home_in_range():
    with pytest.raises(ValueError):
        generate_overlap_topology(homes(4, 2), 2, mean_networks_in_range=0.5)


def test_binomial_connectivity_mean_available():
    home = homes(400, 40)
    topology = binomial_connectivity(home, 40, mean_available=4.0, seed=7)
    assert abs(topology.mean_reachable() - 4.0) < 0.5


def test_binomial_connectivity_density_one_is_home_only():
    topology = binomial_connectivity(homes(50, 10), 10, mean_available=1.0, seed=0)
    assert all(len(r) == 1 for r in topology.reachable.values())


def test_gateway_topology_validation():
    with pytest.raises(ValueError):
        GatewayTopology(num_gateways=2, home_gateway={0: 5}, reachable={0: frozenset({5})})
    with pytest.raises(ValueError):
        GatewayTopology(num_gateways=2, home_gateway={0: 0}, reachable={0: frozenset({1})})


def test_wireless_parameters_validation_and_scaling():
    params = WirelessParameters()
    assert params.wireless_capacity(is_home=True) == 12e6
    assert params.wireless_capacity(is_home=False) == 6e6
    scaled = params.scaled(3.0)
    assert scaled.backhaul_bps == pytest.approx(18e6)
    with pytest.raises(ValueError):
        params.scaled(0.0)


def test_dslam_config_validation():
    config = DslamConfig()
    assert config.total_ports == 48
    with pytest.raises(ValueError):
        DslamConfig(switch_size=8)  # k cannot exceed the number of cards
    with pytest.raises(ValueError):
        DslamConfig(num_line_cards=0)
    full = config.with_switch(None, full=True)
    assert full.full_switch


def test_random_port_assignment_unique_ports():
    config = DslamConfig()
    assignment = random_port_assignment(40, config, seed=3)
    assert len(set(assignment.values())) == 40
    with pytest.raises(ValueError):
        random_port_assignment(100, config)


def test_build_default_scenario_consistency():
    scenario = build_default_scenario(seed=5, num_clients=30, num_gateways=8, duration=3600.0)
    assert scenario.num_clients == 30
    assert scenario.num_gateways == 8
    assert len(scenario.gateway_port) == 8
    assert scenario.card_of_gateway(0) == scenario.gateway_port[0] // scenario.dslam.ports_per_card


def test_build_default_scenario_density_override():
    scenario = build_default_scenario(seed=5, num_clients=30, num_gateways=8, duration=3600.0,
                                      density_override=2.0)
    assert scenario.topology.gateway_graph is None
    assert scenario.topology.mean_reachable() < 4.0


def test_scenario_rejects_too_many_gateways():
    trace = generate_crawdad_like_trace(seed=1, num_clients=10, num_gateways=60, duration=600.0)
    from repro.topology.overlap import binomial_connectivity as bc
    topology = bc(trace.home_gateway, 60, mean_available=2.0)
    with pytest.raises(ValueError):
        Scenario(trace=trace, topology=topology, dslam=DslamConfig())
