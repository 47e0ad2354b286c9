"""The package holds what a `galbank` command runs, plus the documented API.

Every module-level function, class and constant of `src/galbank` must be
reachable by name from the console entry point `galbank.cli.main`, or be
named in the README's "Python API" section.  Reachability is read from the
source with `ast`: a name is live once a live definition refers to it, by
bare name or as an attribute (`report.write_losses_csv`).  A method or
property of a live class is live once a live definition reads it as an
attribute (`table.n_defaults`), matched by name alone; dunder methods live
with their class.  Imports are not references, so a name that only
`__init__.py` re-exports does not count.

A parameter default is an option, so some call in the package must set it:
by keyword, by position, or through `functools.partial`.  Calls are matched
to a `def` by name alone, so a call to any function of that name counts.
The one exemption is `cli.main`'s `argv`: the console script calls `main()`
with no arguments, and the tests and the benchmark pass `argv`.
"""

import ast
import math
import re
from pathlib import Path

import galbank

PACKAGE = Path(galbank.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"

# (module, function, parameter) of the defaults no call in the package needs to set
UNSET_DEFAULTS_ALLOWED = {("cli", "main", "argv")}

# names the README's "Python API" section documents beyond what the CLI runs
DOCUMENTED_API = (
    "BailoutAllocation", "Criterion", "GalacticNetwork", "LossConfig", "ScenarioTable",
    "ShockParams", "average_var", "bailout_frontier", "build_network", "clear_tiered_batch",
    "criterion_satisfied", "exceedance_probability", "expected_loss", "loss_threshold",
    "sample_loss_matrix", "simulate_records",
)


def _definitions():
    """{(module, name): [nodes]} for every module-level def, class and
    assignment, and for every method but the dunders as "Class.method".  A
    class's own nodes are its bases, decorators and body without those
    methods."""
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
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                methods = [f for f in node.body if isinstance(f, ast.FunctionDef)
                           and not f.name.startswith("__")]
                for f in methods:
                    found[(path.stem, f"{node.name}.{f.name}")] = [f]
                nodes = [*node.bases, *node.keywords, *node.decorator_list,
                         *(stmt for stmt in node.body if stmt not in methods)]
            for name in names:
                if not name.startswith("__"):
                    found[(path.stem, name)] = nodes
    return found


def _referenced(nodes) -> tuple[set, set]:
    """The names `nodes` refer to, by bare name or as an attribute, and the
    attribute names alone."""
    walked = [n for node in nodes for n in ast.walk(node)]
    attributes = {n.attr for n in walked if isinstance(n, ast.Attribute)}
    return {n.id for n in walked if isinstance(n, ast.Name)} | attributes, attributes


def _unreachable(roots) -> list:
    definitions = _definitions()
    by_name = {}
    for module, name in definitions:
        if "." not in name:
            by_name.setdefault(name, []).append((module, name))
    live, attributes = set(), set()
    todo = [key for name in roots for key in by_name.get(name, [])]
    while todo:
        while todo:
            key = todo.pop()
            if key in live:
                continue
            live.add(key)
            names, read = _referenced(definitions[key])
            attributes |= read
            for name in names:
                todo.extend(by_name.get(name, []))
        # the methods of live classes that a live definition reads
        todo = [(module, name) for module, name in definitions.keys() - live
                if "." in name and (module, name.split(".")[0]) in live
                and name.split(".")[1] in attributes]
    return sorted(f"{module}.{name}" for module, name in definitions.keys() - live)


def _api_section() -> str:
    section = re.search(r"^## Python API\n(.*?)^## ", README.read_text(), re.S | re.M)
    assert section, "README has no 'Python API' section"
    return section.group(1)


def test_documented_api_is_in_the_readme():
    section = _api_section()
    missing = [name for name in DOCUMENTED_API if not re.search(rf"\b{name}\b", section)]
    assert not missing, f"not in the README's Python API section: {missing}"


def test_every_readme_call_names_a_package_definition():
    # `network.claims_face(` names the method `claims_face`: the last dotted
    # part counts, so a deleted function cannot stay documented
    defined = {name.split(".")[-1] for _, name in _definitions()}
    called = {name.split(".")[-1] for name in re.findall(r"`([\w.]+)\(", _api_section())}
    assert called, "the README's Python API section calls nothing"
    stale = sorted(called - defined)
    assert not stale, f"the README's Python API section calls undefined names: {stale}"


def test_every_package_name_is_run_or_documented():
    unreachable = _unreachable(["main", *DOCUMENTED_API])
    assert not unreachable, f"neither run by a galbank command nor documented: {unreachable}"


def _called_name(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _call_sites() -> dict:
    """{name: [(positional count, keyword names)]} for every call in the
    package.  `functools.partial(f, ...)` counts as a call to `f`; a starred
    argument counts as any number of positional arguments, and a `**`
    argument shows as the keyword None, which stands for every keyword."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _called_name(func) == "partial" and args:
                func, args = args[0], args[1:]
            starred = any(isinstance(a, ast.Starred) for a in args)
            sites.setdefault(_called_name(func), []).append(
                (math.inf if starred else len(args), {k.arg for k in node.keywords}))
    return sites


def _functions():
    """(module, qualified name, called name, bound, node) for every `def` in
    the package.  A method is `bound`: a call fills its first parameter (the
    package has no staticmethod).  A class's `__init__` is called by the
    class's name."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(id(node))
            if cls is None:
                yield path.stem, node.name, node.name, False, node
            else:
                called = cls.name if node.name == "__init__" else node.name
                yield path.stem, f"{cls.name}.{node.name}", called, True, node


def _unset_defaults() -> dict:
    """{"module.function": [parameters]} of the parameter defaults that no
    call in the package overrides."""
    sites = _call_sites()
    unset = {}
    for module, qualname, called, bound, node in _functions():
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)  # the first with a default
        # (name, position in a call, or None where only a keyword sets it)
        defaulted = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
        for name, position in defaulted:
            if (module, qualname, name) in UNSET_DEFAULTS_ALLOWED:
                continue
            if not any(name in keywords or None in keywords
                       or (position is not None and count > position)
                       for count, keywords in sites.get(called, [])):
                unset.setdefault(f"{module}.{qualname}", []).append(name)
    return unset


def test_every_parameter_default_is_set_by_some_call():
    unset = _unset_defaults()
    assert not unset, f"parameter defaults no call in the package sets: {unset}"
