"""The centralised aggregation problem of Eq. (1) and solvers for it.

The problem: given per-user demands ``d_i``, gateway capacities ``c_j``,
wireless capacities ``w_ij``, a backup requirement and a utilisation cap
``q``, choose which gateways stay online (``o_j``) and how users are
assigned to them (``a_ij``) so that the number of online gateways is
minimised::

    minimise   sum_j o_j
    subject to sum_j a_ij >= 1 + backup              for all i
               d_i * a_ij <= w_ij                    for all i, j
               sum_i d_i * a_ij <= q * c_j * o_j     for all j

The decision version reduces from SET-COVER, so the paper's *Optimal*
scheme is an idealised upper bound computed offline every minute.  We
provide:

* :class:`GreedyAggregationSolver` — a capacity-aware greedy set-multicover
  heuristic with a pruning local-search pass; this is what the simulator's
  *Optimal* scheme uses (it is optimal or within one gateway of optimal on
  every instance arising from the traces, see the tests);
* :class:`ExactAggregationSolver` — exhaustive search over online-gateway
  subsets with a backtracking assignment check, for small instances and for
  validating the greedy solver.

Users with zero demand never force a gateway online: an offline gateway can
"host" them because the capacity constraint is vacuous at ``d_i = 0``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import inf
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


@dataclass
class AggregationProblem:
    """One instance of the Eq. (1) optimisation problem at a time slot."""

    #: user id -> traffic demand in bits per second.
    demands_bps: Dict[int, float]
    #: gateway id -> broadband (backhaul) capacity in bits per second.
    capacities_bps: Dict[int, float]
    #: (user id, gateway id) -> wireless capacity; missing pairs are unreachable.
    wireless_bps: Dict[Tuple[int, int], float]
    #: minimum number of *extra* gateways each user must be able to reach.
    backup: int = 1
    #: maximum allowed utilisation of a gateway (the q of Eq. 1).
    max_utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.backup < 0:
            raise ValueError("backup must be non-negative")
        if not 0 < self.max_utilization <= 1:
            raise ValueError("max_utilization must lie in (0, 1]")
        if any(d < 0 for d in self.demands_bps.values()):
            raise ValueError("demands must be non-negative")
        if any(c <= 0 for c in self.capacities_bps.values()):
            raise ValueError("capacities must be positive")

    # ------------------------------------------------------------------
    def feasible_gateways(self, user: int) -> List[int]:
        """Gateways that can individually carry the user's demand (w_ij >= d_i)."""
        demand = self.demands_bps.get(user, 0.0)
        wireless = self.wireless_bps
        out = []
        for g in self.capacities_bps:
            w = wireless.get((user, g))
            if w is not None and w >= demand:
                out.append(g)
        return out

    def active_users(self) -> List[int]:
        """Users whose demand is strictly positive (the only ones that matter)."""
        return [u for u, d in self.demands_bps.items() if d > 0]

    def required_coverage(self, user: int) -> int:
        """How many distinct gateways the user must be assigned to.

        The nominal requirement is ``1 + backup`` but it is capped by the
        number of gateways that can feasibly serve the user, so a user in a
        sparse neighbourhood does not make the instance infeasible.
        """
        feasible = len(self.feasible_gateways(user))
        return max(1, min(1 + self.backup, feasible)) if feasible else 0

    def gateway_budget(self, gateway: int) -> float:
        """Usable capacity of a gateway (q * c_j)."""
        return self.max_utilization * self.capacities_bps[gateway]


@dataclass
class AggregationSolution:
    """A feasible (not necessarily optimal) solution of the problem."""

    online_gateways: FrozenSet[int]
    #: user id -> tuple of gateways the user is assigned to (primary first).
    assignment: Dict[int, Tuple[int, ...]]
    objective: int = field(init=False)

    def __post_init__(self) -> None:
        self.objective = len(self.online_gateways)

    def primary_gateway(self, user: int) -> Optional[int]:
        """The gateway the user's traffic is routed through (first assigned)."""
        gateways = self.assignment.get(user)
        return gateways[0] if gateways else None


def verify_solution(problem: AggregationProblem, solution: AggregationSolution) -> bool:
    """Check every constraint of Eq. (1) for ``solution``; returns True iff feasible.

    The program never calls it: it is the independent feasibility oracle
    that the tests hold every solver's output to.
    """
    load: Dict[int, float] = {g: 0.0 for g in problem.capacities_bps}
    for user in problem.active_users():
        gateways = solution.assignment.get(user, ())
        if len(set(gateways)) < problem.required_coverage(user):
            return False
        demand = problem.demands_bps[user]
        for gateway in gateways:
            if gateway not in solution.online_gateways:
                return False
            wireless = problem.wireless_bps.get((user, gateway), 0.0)
            if demand > wireless:
                return False
            load[gateway] += demand
    return all(load[g] <= problem.gateway_budget(g) + 1e-9 for g in solution.online_gateways)


class GreedyAggregationSolver:
    """Capacity-aware greedy set-multicover with a pruning pass."""

    def __init__(self) -> None:
        # Reachability memo: a repeatedly-used wireless map (the simulator
        # passes the same dict every solve epoch) yields, per user, the
        # reachable gateways and the smallest wireless capacity among them —
        # any demand at or below that minimum is feasible everywhere the
        # user can reach, skipping the per-epoch feasibility scan.
        self._reach_map: Optional[Dict[Tuple[int, int], float]] = None
        self._reach_capacities: Optional[Dict[int, float]] = None
        self._reach: Dict[int, Tuple[List[int], float]] = {}
        self._static_users_of_gateway: Dict[int, Set[int]] = {}

    def _feasible(self, problem: AggregationProblem, user: int) -> List[int]:
        # Reachability depends on both maps; invalidate when either object
        # changes (in-place mutation of a shared map between solves is not
        # supported — pass a fresh dict in that case).
        if (
            problem.wireless_bps is not self._reach_map
            or problem.capacities_bps is not self._reach_capacities
        ):
            self._reach_map = problem.wireless_bps
            self._reach_capacities = problem.capacities_bps
            self._reach = {}
            self._static_users_of_gateway = {}
        cached = self._reach.get(user)
        if cached is None:
            wireless = problem.wireless_bps
            reachable = []
            min_w = inf
            for g in problem.capacities_bps:
                w = wireless.get((user, g))
                if w is not None:
                    reachable.append(g)
                    if w < min_w:
                        min_w = w
            cached = (reachable, min_w)
            self._reach[user] = cached
        reachable, min_w = cached
        demand = problem.demands_bps.get(user, 0.0)
        if demand <= min_w:
            return reachable
        return problem.feasible_gateways(user)

    def solve(self, problem: AggregationProblem) -> AggregationSolution:
        """Compute a feasible solution minimising (approximately) the objective."""
        # One pass computes each active user's feasible gateways; the nominal
        # 1 + backup requirement is capped by what is actually reachable.
        coverage_cap = 1 + problem.backup
        need: Dict[int, int] = {}
        users: List[int] = []
        # When every active user's feasible set is its full reachable set
        # (demands at or below the smallest wireless capacity — the usual
        # case, since the simulator caps demands at the backhaul rate), the
        # per-gateway user sets are static and shared across solves: the
        # greedy only ever tests membership for *active* users, so extra
        # inactive members are harmless.
        static_ok = True
        for user in problem.active_users():
            gateways = self._feasible(problem, user)
            if not gateways:
                continue
            users.append(user)
            need[user] = max(1, min(coverage_cap, len(gateways)))
            if len(gateways) != len(self._reach.get(user, ((), 0.0))[0]):
                static_ok = False
        if static_ok:
            users_of_gateway = self._static_users_of_gateway
            if not users_of_gateway:
                users_of_gateway.update({g: set() for g in problem.capacities_bps})
                for (client, gateway) in problem.wireless_bps:
                    members = users_of_gateway.get(gateway)
                    if members is not None:
                        members.add(client)
        else:
            users_of_gateway = {g: set() for g in problem.capacities_bps}
            for user in users:
                for gateway in self._feasible(problem, user):
                    users_of_gateway[gateway].add(user)

        online: Set[int] = set()
        assignment: Dict[int, List[int]] = {u: [] for u in users}
        load: Dict[int, float] = {g: 0.0 for g in problem.capacities_bps}

        demands = problem.demands_bps
        selection_key = self._selection_key
        remaining = {u for u in users if need[u] > len(assignment[u])}
        while remaining:
            best_gateway, best_covered, best_key = None, [], 0
            # One demand-sort of the remaining users serves every candidate
            # gateway this round (same stable order as sorting per gateway).
            remaining_sorted = sorted(remaining, key=demands.__getitem__)
            for gateway in problem.capacities_bps:
                if gateway in online:
                    continue
                gateway_users = users_of_gateway[gateway]
                if not gateway_users:
                    continue
                covered = self._coverable(
                    problem, gateway, remaining_sorted, assignment, gateway_users, load
                )
                key = selection_key(gateway, covered)
                if key > best_key:
                    best_gateway, best_covered, best_key = gateway, covered, key
            if best_gateway is None or not best_covered:
                # No gateway can make progress (capacity exhausted or
                # unreachable users); the remaining users keep partial coverage.
                break
            online.add(best_gateway)
            for user in best_covered:
                assignment[user].append(best_gateway)
                load[best_gateway] += problem.demands_bps[user]
            remaining = {u for u in users if need[u] > len(assignment[u])}

        online, assignment = self._prune(problem, online, assignment, need)
        return AggregationSolution(
            online_gateways=frozenset(online),
            assignment={u: tuple(gws) for u, gws in assignment.items()},
        )

    # ------------------------------------------------------------------
    # Objective hooks (overridden by the watt-aware solver of
    # repro.wattopt.solver; the defaults reproduce the count objective
    # with comparisons bit-identical to the original inline code).
    # ------------------------------------------------------------------
    def _selection_key(self, gateway: int, covered: List[int]) -> float:
        """Greedy score of opening ``gateway`` this round (higher wins)."""
        return len(covered)

    def _prune_order(
        self,
        problem: AggregationProblem,
        online: Set[int],
        assignment: Dict[int, List[int]],
    ) -> List[int]:
        """Order in which the pruning pass tries to drop gateways."""
        return sorted(online, key=lambda g: sum(1 for a in assignment.values() if g in a))

    # ------------------------------------------------------------------
    @staticmethod
    def _coverable(
        problem: AggregationProblem,
        gateway: int,
        remaining_sorted: List[int],
        assignment: Dict[int, List[int]],
        gateway_users: Set[int],
        load: Dict[int, float],
    ) -> List[int]:
        """Users whose coverage this gateway could extend, respecting its budget.

        ``remaining_sorted`` holds the still-uncovered users with smallest
        demands first (maximising the number of users covered).
        """
        budget = problem.gateway_budget(gateway) - load[gateway]
        demands = problem.demands_bps
        covered: List[int] = []
        for user in remaining_sorted:
            if user in gateway_users and gateway not in assignment[user]:
                demand = demands[user]
                if demand <= budget + 1e-12:
                    covered.append(user)
                    budget -= demand
        return covered

    def _prune(
        self,
        problem: AggregationProblem,
        online: Set[int],
        assignment: Dict[int, List[int]],
        need: Dict[int, int],
    ) -> Tuple[Set[int], Dict[int, List[int]]]:
        """Drop gateways that became redundant after later picks."""
        for gateway in self._prune_order(problem, online, assignment):
            users_on_gateway = [u for u, gws in assignment.items() if gateway in gws]
            trial_online = online - {gateway}
            if not trial_online and users_on_gateway:
                continue
            load = {g: 0.0 for g in trial_online}
            for u, gws in assignment.items():
                for g in gws:
                    if g != gateway:
                        load[g] = load.get(g, 0.0) + problem.demands_bps[u]
            reassignment: Dict[int, int] = {}
            ok = True
            for user in sorted(users_on_gateway, key=lambda u: -problem.demands_bps[u]):
                demand = problem.demands_bps[user]
                placed = False
                for g in trial_online:
                    if g in assignment[user]:
                        continue
                    wireless = problem.wireless_bps.get((user, g), 0.0)
                    if wireless >= demand and load[g] + demand <= problem.gateway_budget(g) + 1e-12:
                        reassignment[user] = g
                        load[g] += demand
                        placed = True
                        break
                if not placed:
                    ok = False
                    break
            if ok:
                online = trial_online
                for user, new_gateway in reassignment.items():
                    assignment[user] = [g for g in assignment[user] if g != gateway] + [new_gateway]
                for user in users_on_gateway:
                    if user not in reassignment:
                        assignment[user] = [g for g in assignment[user] if g != gateway]
        return online, assignment


class ExactAggregationSolver:
    """Exhaustive solver for small instances: the optimum oracle.

    The simulator runs :class:`GreedyAggregationSolver`; the tests compare
    its online sets with this minimum-cardinality enumeration.
    """

    def __init__(self, max_gateways: int = 16):
        self.max_gateways = max_gateways

    def solve(self, problem: AggregationProblem) -> AggregationSolution:
        """Find a minimum-cardinality online set by subset enumeration."""
        gateways = sorted(problem.capacities_bps)
        if len(gateways) > self.max_gateways:
            raise ValueError(
                f"exact solver limited to {self.max_gateways} gateways, "
                f"got {len(gateways)}; use GreedyAggregationSolver instead"
            )
        users = [u for u in problem.active_users() if problem.required_coverage(u) > 0]
        if not users:
            return AggregationSolution(online_gateways=frozenset(), assignment={})
        for size in range(1, len(gateways) + 1):
            for subset in itertools.combinations(gateways, size):
                assignment = self._assign(problem, users, set(subset))
                if assignment is not None:
                    return AggregationSolution(
                        online_gateways=frozenset(subset),
                        assignment={u: tuple(gws) for u, gws in assignment.items()},
                    )
        # Fall back: everything online, best-effort assignment.
        assignment = self._assign(problem, users, set(gateways), best_effort=True) or {}
        return AggregationSolution(
            online_gateways=frozenset(gateways),
            assignment={u: tuple(gws) for u, gws in assignment.items()},
        )

    # ------------------------------------------------------------------
    def _assign(
        self,
        problem: AggregationProblem,
        users: Sequence[int],
        online: Set[int],
        best_effort: bool = False,
    ) -> Optional[Dict[int, List[int]]]:
        """Backtracking assignment of users to the online set; None if infeasible."""
        order = sorted(users, key=lambda u: -problem.demands_bps[u])
        load = {g: 0.0 for g in online}
        assignment: Dict[int, List[int]] = {u: [] for u in users}

        def backtrack(index: int) -> bool:
            if index == len(order):
                return True
            user = order[index]
            demand = problem.demands_bps[user]
            needed = problem.required_coverage(user)
            options = [
                g
                for g in online
                if problem.wireless_bps.get((user, g), 0.0) >= demand
            ]
            if len(options) < needed:
                return best_effort and backtrack(index + 1)
            for combo in itertools.combinations(sorted(options, key=lambda g: load[g]), needed):
                if all(load[g] + demand <= problem.gateway_budget(g) + 1e-12 for g in combo):
                    for g in combo:
                        load[g] += demand
                    assignment[user] = list(combo)
                    if backtrack(index + 1):
                        return True
                    for g in combo:
                        load[g] -= demand
                    assignment[user] = []
            return best_effort and backtrack(index + 1)

        return assignment if backtrack(0) else None
