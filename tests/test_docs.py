"""Documentation satellites: package docstrings and link integrity.

Mirrors the CI docs job locally: every ``repro.*`` package states its
contract in a module docstring (the scoped ruff D104 check), the docs
tree exists, and every relative markdown link in ``README.md`` and
``docs/*.md`` resolves to a real file.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown inline links ``[text](target)`` — URL schemes and pure
#: in-page anchors are skipped; ``path#anchor`` checks only the path.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _package_inits():
    inits = sorted((REPO / "src" / "repro").rglob("__init__.py"))
    assert inits, "no repro packages found"
    return inits


def test_every_package_states_its_contract():
    undocumented = []
    for init in _package_inits():
        tree = ast.parse(init.read_text())
        if not ast.get_docstring(tree):
            undocumented.append(str(init.relative_to(REPO)))
    assert not undocumented, f"packages without a module docstring: {undocumented}"


def test_docs_tree_exists():
    assert (REPO / "docs" / "architecture.md").is_file()
    assert (REPO / "docs" / "kernel.md").is_file()


def _relative_targets(markdown: Path):
    for target in _LINK.findall(markdown.read_text()):
        if "://" in target or target.startswith(("mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


def test_relative_markdown_links_resolve():
    documents = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    assert len(documents) >= 3
    broken = []
    for document in documents:
        for target in _relative_targets(document):
            if not (document.parent / target).exists():
                broken.append(f"{document.relative_to(REPO)} -> {target}")
    assert not broken, f"broken relative links: {broken}"


def test_architecture_doc_names_every_package():
    """The subsystem map stays complete as packages are added."""
    text = (REPO / "docs" / "architecture.md").read_text()
    missing = []
    for init in _package_inits():
        package = init.parent.relative_to(REPO / "src" / "repro")
        if str(package) == ".":
            continue
        name = str(package).replace("/", ".")
        if f"repro.{name}" not in text:
            missing.append(f"repro.{name}")
    assert not missing, f"docs/architecture.md does not mention: {missing}"


def test_architecture_doc_rows_name_real_packages():
    """No subsystem-map row outlives the package it describes."""
    text = (REPO / "docs" / "architecture.md").read_text()
    rows = re.findall(r"^\| `repro\.([\w.]+)` \|", text, flags=re.MULTILINE)
    assert rows, "docs/architecture.md has no package rows"
    stale = [
        f"repro.{name}"
        for name in rows
        if not (REPO / "src" / "repro" / name.replace(".", "/") / "__init__.py").is_file()
    ]
    assert not stale, f"docs/architecture.md rows without a package: {stale}"
