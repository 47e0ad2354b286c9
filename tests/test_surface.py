"""The package holds what a `galbank` command runs, plus the documented API.

Every module-level function, class and constant of `src/galbank` must be
reachable by name from the console entry point `galbank.cli.main`, or be
named in the README's "Python API" section.  Reachability is read from the
source with `ast`: a name is live once a live definition refers to it, by
bare name or as an attribute (`report.write_losses_csv`).  A live class
makes all of its methods live.  Imports are not references, so a name that
only `__init__.py` re-exports does not count.
"""

import ast
import re
from pathlib import Path

import galbank

PACKAGE = Path(galbank.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"

# names the README's "Python API" section documents beyond what the CLI runs
DOCUMENTED_API = (
    "BailoutAllocation", "Criterion", "GalacticNetwork", "LossConfig", "ScenarioTable",
    "ShockParams", "average_var", "bailout_frontier", "build_network", "clear_in_blocks",
    "clear_tiered_batch", "criterion_satisfied", "exceedance_probability", "expected_loss",
    "loss_threshold", "sample_loss_matrix", "simulate_records",
)


def _definitions():
    """{(module, name): node} for every module-level def, class and assignment."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    found[(path.stem, name)] = node
    return found


def _referenced(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _unreachable(roots) -> list:
    definitions = _definitions()
    by_name = {}
    for module, name in definitions:
        by_name.setdefault(name, []).append((module, name))
    live = set()
    todo = [key for name in roots for key in by_name.get(name, [])]
    while todo:
        key = todo.pop()
        if key in live:
            continue
        live.add(key)
        for name in _referenced(definitions[key]):
            todo.extend(by_name.get(name, []))
    return sorted(f"{module}.{name}" for module, name in definitions.keys() - live)


def test_documented_api_is_in_the_readme():
    section = re.search(r"^## Python API\n(.*?)^## ", README.read_text(), re.S | re.M)
    assert section, "README has no 'Python API' section"
    missing = [name for name in DOCUMENTED_API
               if not re.search(rf"\b{name}\b", section.group(1))]
    assert not missing, f"not in the README's Python API section: {missing}"


def test_every_package_name_is_run_or_documented():
    unreachable = _unreachable(["main", *DOCUMENTED_API])
    assert not unreachable, f"neither run by a galbank command nor documented: {unreachable}"
