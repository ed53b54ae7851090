"""Watt-objective solvers for the Eq. (1) aggregation problem.

The paper's formulation minimises ``sum_j o_j`` — the *number* of online
gateways.  Over a heterogeneous fleet the natural objective is the watts
those gateways draw::

    minimise   sum_j marginal_w(j) * o_j

with the same coverage, wireless and capacity constraints.  Both solvers
here reuse the feasibility/assignment machinery of
:mod:`repro.core.optimal` unchanged:

* :class:`WattGreedyAggregationSolver` — the capacity-aware greedy
  set-multicover of :class:`~repro.core.optimal.GreedyAggregationSolver`
  with its selection score changed from *users covered* to *users covered
  per marginal watt*, its pruning pass ordered to drop the most expensive
  redundant gateways first, and an extra downgrade pass that swaps an
  online gateway for a strictly cheaper sleeping one whenever the cheaper
  device can absorb every user.  On a **uniform** cost model it delegates
  outright to the count solver, so count minimisation is recovered exactly
  (bit-identical trajectories on the homogeneous default fleet).
* :class:`ExactWattAggregationSolver` — subset enumeration in ascending
  watt order with the backtracking assignment check of
  :class:`~repro.core.optimal.ExactAggregationSolver`; the first feasible
  subset is watt-optimal.  Validation and tests only.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Set, Tuple

from repro.core.optimal import (
    AggregationProblem,
    AggregationSolution,
    ExactAggregationSolver,
    GreedyAggregationSolver,
)
from repro.wattopt.cost import WattCostModel


class WattGreedyAggregationSolver(GreedyAggregationSolver):
    """Greedy set-multicover scoring candidates by coverage per watt."""

    def __init__(self, cost_model: WattCostModel):
        super().__init__()
        self.cost_model = cost_model
        self._marginal = cost_model.marginals()
        #: On a uniform model every selection/prune comparison reduces to
        #: the count objective; delegating makes that exact (identical
        #: comparisons, identical tie-breaks), not merely equivalent.
        self._uniform = cost_model.is_uniform
        self._count_solver = GreedyAggregationSolver() if self._uniform else None

    def solve(self, problem: AggregationProblem) -> AggregationSolution:
        if self._count_solver is not None:
            return self._count_solver.solve(problem)
        solution = super().solve(problem)
        return self._downgrade_pass(problem, solution)

    # -- objective hooks -----------------------------------------------
    def _selection_key(self, gateway: int, covered: List[int]) -> float:
        return len(covered) / self._marginal[gateway]

    def _prune_order(
        self,
        problem: AggregationProblem,
        online: Set[int],
        assignment: Dict[int, List[int]],
    ) -> List[int]:
        # Expensive gateways first; the count solver's light-usage order
        # breaks ties so thinly-used legacy boxes go before busy ones.
        marginal = self._marginal
        return sorted(
            online,
            key=lambda g: (
                -marginal[g],
                sum(1 for a in assignment.values() if g in a),
            ),
        )

    # -- watt-only improvement ----------------------------------------
    def _downgrade_pass(
        self, problem: AggregationProblem, solution: AggregationSolution
    ) -> AggregationSolution:
        """Swap online gateways for strictly cheaper sleeping ones.

        For each online gateway (most expensive first) try to move *all* of
        its users onto one cheaper offline gateway — coverage multiplicity,
        wireless feasibility and the replacement's capacity budget all
        checked.  A swap never changes the online count, only its watts, so
        the count objective is untouched and the pass is a pure watt
        improvement (it closes the classic greedy trap of a well-covering
        legacy box picked over two efficient ones).
        """
        marginal = self._marginal
        online = set(solution.online_gateways)
        assignment = {u: list(gws) for u, gws in solution.assignment.items()}
        wireless = problem.wireless_bps
        demands = problem.demands_bps
        changed = False
        for gateway in sorted(online, key=lambda g: -marginal[g]):
            users_on_gateway = [u for u, gws in assignment.items() if gateway in gws]
            replacements = sorted(
                (
                    g
                    for g in problem.capacities_bps
                    if g not in online and marginal[g] < marginal[gateway]
                ),
                key=lambda g: marginal[g],
            )
            for replacement in replacements:
                budget = problem.gateway_budget(replacement)
                feasible = True
                for user in users_on_gateway:
                    demand = demands.get(user, 0.0)
                    capacity = wireless.get((user, replacement), 0.0)
                    if capacity < demand or replacement in assignment[user]:
                        feasible = False
                        break
                    budget -= demand
                    if budget < -1e-12:
                        feasible = False
                        break
                if not feasible:
                    continue
                online.discard(gateway)
                online.add(replacement)
                for user in users_on_gateway:
                    assignment[user] = [
                        replacement if g == gateway else g for g in assignment[user]
                    ]
                changed = True
                break
        if not changed:
            return solution
        return AggregationSolution(
            online_gateways=frozenset(online),
            assignment={u: tuple(gws) for u, gws in assignment.items()},
        )


class ExactWattAggregationSolver(ExactAggregationSolver):
    """Minimum-watt online set by watt-ordered subset enumeration.

    The watt-greedy solver's optimum oracle: the tests require the greedy's
    watts to lie within one device's marginal draw of this solver's.
    """

    def __init__(self, cost_model: WattCostModel, max_gateways: int = 14):
        super().__init__(max_gateways=max_gateways)
        self.cost_model = cost_model

    def solve(self, problem: AggregationProblem) -> AggregationSolution:
        gateways = sorted(problem.capacities_bps)
        if len(gateways) > self.max_gateways:
            raise ValueError(
                f"exact watt solver limited to {self.max_gateways} gateways, "
                f"got {len(gateways)}; use WattGreedyAggregationSolver instead"
            )
        users = [u for u in problem.active_users() if problem.required_coverage(u) > 0]
        if not users:
            return AggregationSolution(online_gateways=frozenset(), assignment={})
        marginal = self.cost_model.marginal_w
        subsets: List[Tuple[float, int, Tuple[int, ...]]] = []
        for size in range(1, len(gateways) + 1):
            for subset in itertools.combinations(gateways, size):
                subsets.append((sum(marginal(g) for g in subset), size, subset))
        # Cheapest first; among equal watt sums the smaller (then
        # lexicographically first) subset wins, keeping results stable.
        subsets.sort()
        for _watts, _size, subset in subsets:
            assignment = self._assign(problem, users, set(subset))
            if assignment is not None:
                return AggregationSolution(
                    online_gateways=frozenset(subset),
                    assignment={u: tuple(gws) for u, gws in assignment.items()},
                )
        assignment = self._assign(problem, users, set(gateways), best_effort=True) or {}
        return AggregationSolution(
            online_gateways=frozenset(gateways),
            assignment={u: tuple(gws) for u, gws in assignment.items()},
        )
