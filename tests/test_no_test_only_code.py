"""No definition in ``src/`` is reached only by tests, unless it is an oracle.

A definition that only tests reach either backs a claim the repo makes (an
independent oracle, or a paper figure's number) or it goes, with the tests
that test only it.  This guard lists every top-level function and class
and every non-dunder method in ``src/repro`` and counts each name's uses
in the program's code: ``src/`` outside the definition's own lines and
outside the ``__init__`` re-exports, ``examples/``, ``benchmarks/`` and
``perfbench/``, plus the words of ``.github/workflows/``.  A name with no
such use must be listed in :data:`ORACLES` with the reason it stays.

A use is read from the syntax tree: a name, an attribute, a keyword
argument, an imported name, or a string constant that is an identifier
(``notify(sink, "task_done")`` dispatches by name); names inside
f-strings count.  Docstrings and comments do not, so prose cannot keep
a dead definition alive.  The count is still by name, so a common name
(``run``, ``solve``) can hide a dead definition; it never flags a live
one.  An :data:`ORACLES` entry that gains a caller, or whose definition
is gone, fails too, so the list does not rot.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Definitions that only tests reach, each with the claim it backs.  Keys
#: are ``<module path relative to src/repro>:<qualified name>``.
ORACLES = {
    "core/optimal.py:verify_solution": (
        "the feasibility oracle of Eq. (1) that every solver's output is held to"
    ),
    "simulation/reference_kernel.py:run_scheme_reference": (
        "runs the preserved seed kernel that the kernel-equivalence tests compare with"
    ),
    "flows/scheduler.py:max_min_allocation": (
        "the checked max-min allocator the tests hold to the seed's allocator"
    ),
    "wattopt/solver.py:ExactWattAggregationSolver": (
        "the exact watt optimum that bounds the watt greedy's distance from it"
    ),
    "access/kswitch.py:full_switch_sleeping_cards": (
        "the paper's floor(n(1-p)/m) sleeping cards under a full switch"
    ),
    "traces/io.py:read_trace": (
        "the round-trip oracle for the traces that `repro-access trace` writes"
    ),
    "traces/adsl.py:AdslUtilizationModel.average_downlink_speed_bps": (
        "pins the ~6 Mb/s mean plan of Sec. 2 behind Fig. 2"
    ),
    "power/energy.py:EnergyBreakdown.user_side_j": (
        "the user side of the energy split that the tests check"
    ),
    "power/energy.py:EnergyBreakdown.isp_side_j": (
        "the ISP side of the energy split that the tests check"
    ),
    "wattopt/cost.py:WattCostModel.watt_objective": (
        "the watt objective the tests measure greedy and exact online sets by"
    ),
    "wattopt/cost.py:WattCostModel.max_marginal_w": (
        "the bound on the watt greedy's distance from the exact watt optimum"
    ),
    "testbed/replay.py:TestbedResult.mean_sleeping": (
        "the sleeping-gateway count of Fig. 12 that the testbed tests compare"
    ),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(tree):
    """``(name, qualified name, first line, last line)`` of each definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield (
                        member.name,
                        f"{node.name}.{member.name}",
                        member.lineno,
                        member.end_lineno,
                    )


def _is_reexport(node):
    """An ``__init__``'s import or ``__all__`` statement."""
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )


def _uses(tree, skip=()):
    """``(name, line)`` of every use in ``tree`` outside the ``skip`` nodes."""
    strings = set()
    stack = [node for node in ast.iter_child_nodes(tree) if node not in skip]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or another bare string
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.JoinedStr):
            strings.update(id(value) for value in node.values)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in strings
        ):
            yield node.value, node.lineno


def _scan():
    """Each definition's key and name, and the use counts of the program."""
    definitions = []
    counts = Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = str(path.relative_to(SRC))
        skip = ()
        if path.name == "__init__.py":
            skip = [node for node in tree.body if _is_reexport(node)]
        own = []
        for name, qualname, first, last in _definitions(tree):
            definitions.append((f"{module}:{qualname}", name))
            own.append((name, first, last))
        for name, line in _uses(tree, skip):
            # A definition's own lines do not use it.
            if not any(name == n and first <= line <= last for n, first, last in own):
                counts[name] += 1
    for folder in ("examples", "benchmarks", "perfbench"):
        for path in (REPO / folder).rglob("*.py"):
            counts.update(name for name, _line in _uses(ast.parse(path.read_text())))
    for path in (REPO / ".github" / "workflows").glob("*.yml"):
        counts.update(_WORD.findall(path.read_text()))
    return definitions, counts


def test_only_oracles_are_reached_only_by_tests():
    definitions, counts = _scan()
    keys = {key for key, _ in definitions}
    unused = sorted(key for key, name in definitions if counts[name] <= 0)
    unlisted = [key for key in unused if key not in ORACLES]
    assert not unlisted, (
        "definitions that only tests reach; delete each with the tests that "
        f"test only it, or list it in ORACLES with the claim it backs: {unlisted}"
    )
    reached = [key for key in ORACLES if key in keys and key not in unused]
    assert not reached, f"ORACLES entries that the program now uses: {reached}"
    missing = [key for key in ORACLES if key not in keys]
    assert not missing, f"ORACLES entries whose definition is gone: {missing}"
