"""No definition in ``src/`` is reached only by tests, unless it is an oracle.

A definition that only tests reach either backs a claim the repo makes (an
independent oracle, or a paper figure's number) or it goes, with the tests
that test only it.  This guard lists every top-level function and class
and every non-dunder method in ``src/repro`` and counts each name as a
word in the program's other text: ``src/`` outside the definition's own
lines and outside the ``__init__`` re-exports, ``examples/``,
``benchmarks/``, ``perfbench/`` and ``.github/workflows/``.  A name with
no such use must be listed in :data:`ORACLES` with the reason it stays.

The count is by name, so a common name (``run``, ``solve``) or a mention
in a docstring can hide a dead definition; it never flags a live one.  An
:data:`ORACLES` entry that gains a caller, or whose definition is gone,
fails too, so the list does not rot.
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


def _reexport_lines(tree):
    """Lines of an ``__init__``'s imports and ``__all__``."""
    lines = set()
    for node in tree.body:
        exported = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        )
        if exported:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _scan():
    """Each definition's key and name, and the word counts of the program."""
    definitions = []
    counts = Counter()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        module = str(path.relative_to(SRC))
        skipped = _reexport_lines(tree) if path.name == "__init__.py" else set()
        lines = text.splitlines()
        own = {}
        for name, qualname, first, last in _definitions(tree):
            definitions.append((f"{module}:{qualname}", name))
            own[(first, last)] = name
        for number, line in enumerate(lines, start=1):
            if number not in skipped:
                counts.update(_WORD.findall(line))
        # A definition's own lines do not use it.
        for (first, last), name in own.items():
            for line in lines[first - 1 : last]:
                counts[name] -= _WORD.findall(line).count(name)
    others = [
        *(REPO / "examples").rglob("*.py"),
        *(REPO / "benchmarks").rglob("*.py"),
        *(REPO / "perfbench").rglob("*.py"),
        *(REPO / ".github" / "workflows").glob("*.yml"),
    ]
    for path in others:
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
