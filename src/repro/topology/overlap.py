"""Wireless overlap topology generation.

Two generators are provided, matching the two evaluation setups of the
paper:

* :func:`generate_overlap_topology` — a connected random graph over the
  gateways with a prescribed (residential) degree sequence, in the spirit of
  Viger & Latapy [37]; a client can reach its home gateway plus the home
  gateway's neighbours, giving an average of ~5.6 networks in range.  The
  configuration model behind it is implemented here, in plain Python, and
  reproduces networkx 3.6.1's graph for the same seed, neighbour order
  included (``tests/test_topology.py`` checks this wherever networkx is
  installed).
* :func:`binomial_connectivity` — the direct client↔gateway binomial
  reachability matrices used for the density sweep of Fig. 10.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Each gateway's neighbours in the overlap graph, indexed by gateway id.
OverlapGraph = Tuple[Tuple[int, ...], ...]


def residential_degree_sequence(
    num_gateways: int,
    mean_degree: float = 4.6,
    seed: int = 0,
    max_degree: Optional[int] = None,
) -> List[int]:
    """A degree sequence for the gateway overlap graph.

    Residential measurements ([38], [39]) show a right-skewed distribution
    of the number of visible neighbouring networks.  We draw degrees from a
    Poisson distribution with the requested mean (shifted so isolated
    gateways are rare), clamp them to ``max_degree`` and fix the parity so a
    graph realisation exists.

    The default ``mean_degree`` of 4.6 corresponds to 5.6 networks in range
    of a client once the client's home gateway is counted as well.
    """
    if num_gateways <= 1:
        return [0] * num_gateways
    if mean_degree < 0:
        raise ValueError("mean_degree must be non-negative")
    rng = np.random.default_rng(seed)
    cap = max_degree if max_degree is not None else num_gateways - 1
    cap = min(cap, num_gateways - 1)
    # Shift by one so the minimum degree is 1 when mean_degree >= 1.
    lam = max(mean_degree - 1.0, 0.0)
    degrees = 1 + rng.poisson(lam, size=num_gateways)
    degrees = np.minimum(degrees, cap)
    if mean_degree == 0:
        degrees = np.zeros(num_gateways, dtype=int)
    if degrees.sum() % 2 == 1:
        # Make the total degree even by bumping (or trimming) one node.
        idx = int(np.argmin(degrees))
        if degrees[idx] < cap:
            degrees[idx] += 1
        else:
            degrees[int(np.argmax(degrees))] -= 1
    return [int(d) for d in degrees]


@dataclass
class GatewayTopology:
    """Reachability between clients and gateways.

    Attributes:
        num_gateways: number of gateways.
        gateway_graph: overlap graph between gateways: entry ``g`` holds
            gateway ``g``'s neighbours in adjacency order (``None`` when the
            topology was generated directly as a client↔gateway matrix).
        reachable: mapping of client id to the set of gateway ids the client
            can associate with (always includes the home gateway).
        home_gateway: mapping of client id to home gateway id.
    """

    num_gateways: int
    home_gateway: Dict[int, int]
    reachable: Dict[int, FrozenSet[int]]
    gateway_graph: Optional[OverlapGraph] = None

    def __post_init__(self) -> None:
        for client, home in self.home_gateway.items():
            if not 0 <= home < self.num_gateways:
                raise ValueError(f"client {client} has out-of-range home gateway {home}")
            if client not in self.reachable:
                raise ValueError(f"client {client} has no reachability entry")
            if home not in self.reachable[client]:
                raise ValueError(f"client {client} cannot reach its own home gateway")
            bad = [g for g in self.reachable[client] if not 0 <= g < self.num_gateways]
            if bad:
                raise ValueError(f"client {client} reaches out-of-range gateways {bad}")

    @property
    def num_clients(self) -> int:
        """Number of clients covered by the topology."""
        return len(self.home_gateway)

    def mean_reachable(self) -> float:
        """Average number of gateways in range of a client."""
        if not self.reachable:
            return 0.0
        return float(np.mean([len(s) for s in self.reachable.values()]))


def generate_overlap_topology(
    home_gateway: Dict[int, int],
    num_gateways: int,
    mean_networks_in_range: float = 5.6,
    seed: int = 0,
) -> GatewayTopology:
    """Build the default evaluation topology (Sec. 5.1).

    A connected graph over the gateways is generated with a degree sequence
    whose mean is ``mean_networks_in_range - 1`` (the home gateway itself
    accounts for the remaining network in range).  A client then reaches its
    home gateway and every gateway adjacent to it in the overlap graph.
    """
    if mean_networks_in_range < 1:
        raise ValueError("mean_networks_in_range must be at least 1 (the home gateway)")
    degrees = residential_degree_sequence(
        num_gateways, mean_degree=mean_networks_in_range - 1.0, seed=seed
    )
    graph = _connected_graph_with_degrees(degrees, seed=seed)
    reachable = {}
    for client, home in home_gateway.items():
        # Built exactly as from a networkx graph: a set filled one neighbour
        # at a time, in adjacency order.  A set's iteration order depends on
        # how it was filled, and BH2 draws its candidates in that order.
        in_range = {home} | set(iter(graph[home]))
        reachable[client] = frozenset(in_range)
    return GatewayTopology(
        num_gateways=num_gateways,
        home_gateway=dict(home_gateway),
        reachable=reachable,
        gateway_graph=graph,
    )


def _connected_graph_with_degrees(degrees: Sequence[int], seed: int) -> OverlapGraph:
    """A simple connected graph approximately realising ``degrees``.

    Uses the configuration model, removes parallel edges and self-loops, and
    then stitches components together (the same practical recipe the paper's
    reference [37] formalises).  Every step mirrors networkx 3.6.1's
    ``configuration_model``, ``Graph(multigraph)``, self-loop removal and
    ``connected_components``, so the neighbour order matches networkx's too.
    """
    n = len(degrees)
    if n <= 1 or sum(degrees) == 0:
        return tuple(() for _ in range(n))
    if sum(degrees) % 2:
        raise ValueError("the degree sequence must have an even sum")

    rng = np.random.default_rng(seed)
    # Configuration model: pair up a shuffled list of degree-repeated stubs.
    # Each multigraph neighbour dict keeps first-seen order, as networkx does.
    stubs = [node for node, degree in enumerate(degrees) for _ in range(degree)]
    random.Random(int(rng.integers(2**31 - 1))).shuffle(stubs)
    half = len(stubs) // 2
    multigraph: List[Dict[int, None]] = [{} for _ in range(n)]
    for u, v in zip(stubs[:half], stubs[half:]):
        multigraph[u][v] = None
        multigraph[v][u] = None

    # Collapse to a simple graph.  networkx visits the gateways in id order
    # and skips an edge it already added from the other end, so each edge is
    # added from its lower end.  The self-loops it adds and then removes
    # leave the other neighbours' order as it is, so they are never added.
    graph: List[List[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in multigraph[u]:
            if v > u:
                graph[u].append(v)
                graph[v].append(u)

    # Stitch components together so every gateway is part of the neighbourhood.
    components = _connected_components(graph)
    while len(components) > 1:
        u, v = int(rng.choice(components[0])), int(rng.choice(components[1]))
        graph[u].append(v)
        graph[v].append(u)
        # The first component (gateway 0's) absorbs the second.  Each later
        # one keeps its start gateway, the lowest id outside the components
        # before it, and its edges, so a full recount would list it exactly
        # as before: only the first is walked again.
        components[:2] = [list(_component(graph, 0))]
    return tuple(tuple(neighbours) for neighbours in graph)


def _connected_components(graph: Sequence[Sequence[int]]) -> List[List[int]]:
    """Components in networkx's order, each listed in its set's order.

    A breadth-first search from each unseen gateway, in id order, fills a
    set in discovery order; listing that set gives the order the stitching
    draws from.
    """
    seen: Set[int] = set()
    components = []
    for source in range(len(graph)):
        if source in seen:
            continue
        component = _component(graph, source)
        seen.update(component)
        components.append(list(component))
    return components


def _component(graph: Sequence[Sequence[int]], source: int) -> Set[int]:
    """The component of ``source``, its set filled in breadth-first order."""
    component = {source}
    queue = [source]
    for node in queue:
        for neighbour in graph[node]:
            if neighbour not in component:
                component.add(neighbour)
                queue.append(neighbour)
    return component


def binomial_connectivity(
    home_gateway: Dict[int, int],
    num_gateways: int,
    mean_available: float,
    seed: int = 0,
) -> GatewayTopology:
    """Client↔gateway reachability with a binomial number of extra gateways.

    ``mean_available`` is the mean number of gateways a client can connect
    to *including* its home gateway, exactly as in Fig. 10 (``1`` means the
    client can only reach its home gateway).
    """
    if mean_available < 1:
        raise ValueError("mean_available must be at least 1")
    if num_gateways <= 1:
        p_extra = 0.0
    else:
        p_extra = min(1.0, (mean_available - 1.0) / (num_gateways - 1))
    rng = np.random.default_rng(seed)
    reachable: Dict[int, FrozenSet[int]] = {}
    for client, home in home_gateway.items():
        extra_mask = rng.random(num_gateways) < p_extra
        in_range: Set[int] = {home}
        in_range.update(int(g) for g in np.flatnonzero(extra_mask) if int(g) != home)
        reachable[client] = frozenset(in_range)
    return GatewayTopology(
        num_gateways=num_gateways,
        home_gateway=dict(home_gateway),
        reachable=reachable,
        gateway_graph=None,
    )
