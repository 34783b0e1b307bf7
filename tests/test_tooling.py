"""The benchmark imports public names from swenctrl and calls them in fixed
shapes; a rename, a deletion or a changed signature there would make
benchmark operations fail, so check them here, together with the package's
lazy exports and the import rules of its modules."""

import ast
import importlib
import math
from pathlib import Path

import pytest
from helpers import FIG1

import swenctrl
from swenctrl.decide import check_structural, compute_kstar, witness_from_cut
from swenctrl.flow import build_lifted_network, build_small_network, max_flow, min_cut
from swenctrl.graph import (
    brute_force_check,
    core_condition_holds,
    kstar_brute,
    reachability_check,
    to_digraph,
)
from swenctrl.oracle import PRIME

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def swenctrl_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every `from swenctrl... import name` and (module,
    None) for every `import swenctrl...` in a source file."""
    imports = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "swenctrl":
            imports += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imports += [(alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "swenctrl"]
    return imports


def test_benchmark_ops_swenctrl_imports_resolve():
    # Every benchmark file, ops.py among them.
    seen = {}
    for path in sorted(BENCHMARK.glob("*.py")):
        seen[path.name] = imports = swenctrl_imports(path)
        for module, name in imports:
            resolved = importlib.import_module(module)  # raises if the module is gone
            assert name is None or hasattr(resolved, name), f"{path.name}: {module}.{name}"
    assert seen["ops.py"] and seen["selftest.py"], "the benchmark imports nothing from swenctrl"


def test_benchmark_call_shapes_on_fig1():
    # The traced replay and the self-test pass to_digraph(p) to the referees.
    g = to_digraph(FIG1)
    for k, q in [(0, 1), (0, 2), (1, 3)]:
        verdict = check_structural(FIG1, k, q)
        assert brute_force_check(g, k, q).decision == verdict.decision
        net = build_small_network(g, k, q, witness_mode=True)
        f = max_flow(net)
        assert f.value_total == verdict.stats.theta
        assert max_flow(build_lifted_network(g, k, q)).value_total == f.value_total
        if f.value_total < FIG1.n * q:
            subset = witness_from_cut(g, k, q, min_cut(net, f))
            assert subset == verdict.certificate.subset
            assert core_condition_holds(g, k, q, subset) == (False, verdict.certificate.lhs,
                                                             verdict.certificate.rhs)
    assert reachability_check(g) == frozenset()
    r, search = kstar_brute(g), compute_kstar(FIG1)
    assert (r.value, r.witness) == (search.value, search.witness)


def test_core_imports_only_errors_and_results():
    """The decision core, all that check and kstar load besides the pattern
    and the CLI, imports nothing of the package but errors and results."""
    core = Path(__file__).resolve().parents[1] / "src" / "swenctrl" / "core.py"
    imported = set()
    for node in ast.walk(ast.parse(core.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, or from . import y
                imported.add(node.module or ".")
            elif (node.module or "").split(".")[0] == "swenctrl":
                imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "swenctrl")
    assert imported == {"errors", "results"}


def test_referees_import_only_check_kq_from_core():
    """The brute-force referees share no code with the solver: of the
    decision core, graph imports only the (k, q) guard, and it has its own
    reachability search, in-neighbour split and counting sums."""
    graph = Path(__file__).resolve().parents[1] / "src" / "swenctrl" / "graph.py"
    from_core = set()
    for node in ast.walk(ast.parse(graph.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("core", "swenctrl.core"):
            from_core.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            assert all(alias.name != "core" for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all(alias.name != "swenctrl.core" for alias in node.names)
    assert from_core == {"check_kq"}


def test_oracle_shares_no_rank_or_flow_code_with_the_solver():
    """The numerical referee takes of the decision core only the verdict it
    is compared with, check_structural, and of results only the two false
    certificates it checks on a sample and FrozenValue, with names from
    errors and pattern; nothing from flow, graph or decide."""
    oracle = Path(__file__).resolve().parents[1] / "src" / "swenctrl" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(oracle.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").split(".")[0] == "swenctrl"):
            module = (node.module or "").removeprefix("swenctrl").lstrip(".")
            imported.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "swenctrl" for a in node.names)
    assert {module for module, _ in imported} <= {"core", "errors", "pattern", "results"}
    assert {name for module, name in imported if module == "core"} == {"check_structural"}
    assert {name for module, name in imported if module == "results"} == {
        "FrozenValue", "Unreachable", "ViolatingSubset"}


def test_oracle_modulus_is_a_prime_below_2_15():
    """A rank full mod PRIME proves full rank only if PRIME is prime, and
    below 2^15 the modular pass's 64-bit lanes stay below 2 qn PRIME^2,
    under 2^37 at qn <= 64, so they never carry."""
    assert 2 <= PRIME < 1 << 15
    assert all(PRIME % d for d in range(2, math.isqrt(PRIME) + 1))


def package_users(name: str) -> set[str]:
    """The modules of the package that import, call or otherwise name
    `name`; a name in a string, such as the package's lazy-export table,
    does not count."""
    src = Path(__file__).resolve().parents[1] / "src" / "swenctrl"
    users = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                used = any(alias.name == name for alias in node.names)
            else:
                used = (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name)
            if used:
                users.add(path.stem)
    return users


def test_only_flow_and_tools_use_build_lifted_network():
    """The named expanded network is built only where it is exported
    (flowdump, in tools) and in flow itself; crosscheck reads the expansion
    as a matching.  A name in a string, such as the package's lazy-export
    table, does not count."""
    users = package_users("build_lifted_network")
    assert "tools" in users
    assert users <= {"flow", "tools"}


def test_one_reader_of_the_expanded_value():
    """lifted_values is the package's one reader of the expanded network's
    matching value, named only in flow and by crosscheck (in decide), and
    _match, its Hopcroft-Karp routine, is named only in flow."""
    assert package_users("_match") == {"flow"}
    users = package_users("lifted_values")
    assert "decide" in users
    assert users <= {"flow", "decide"}


@pytest.mark.parametrize("name", ["build_small_network", "max_flow"])
def test_only_flow_and_tools_use_the_compact_dinic(name):
    """The named compact network and its Dinic max-flow serve the export
    (flowdump, in tools) and flow itself; crosscheck's compact value is the
    transport solver's."""
    users = package_users(name)
    assert "tools" in users
    assert users <= {"flow", "tools"}


def test_no_module_imports_dataclasses():
    """The value classes derive from results.FrozenValue; importing
    dataclasses (and inspect with it) would cost every CLI run."""
    src = Path(__file__).resolve().parents[1] / "src" / "swenctrl"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path.name


@pytest.mark.parametrize("view", ["stars", "blocks"])
def test_only_the_pattern_reads_views(view):
    """The pattern's rows are the one graph the package reads, and a
    realization's star values the one form of a sample; a pattern's stars
    and a realization's dense blocks are views kept for the public API,
    read by no other module."""
    src = Path(__file__).resolve().parents[1] / "src" / "swenctrl"
    for path in sorted(src.glob("*.py")):
        if path.name == "pattern.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == view]
        assert not readers, f"{path.name} reads .{view} on line(s) {readers}"


def test_lazy_exports_resolve(monkeypatch):
    """Every name in swenctrl.__all__ resolves, on first use, to the object of
    the module it is exported from; dir() and a star import list them all,
    and an unknown name raises AttributeError."""
    names = [name for name in swenctrl.__all__ if name != "__version__"]
    exported = {name: module for module, group in swenctrl._EXPORTS.items() for name in group}
    assert sorted(exported) == names
    for name in names:  # forget what earlier imports cached, so __getattr__ runs
        monkeypatch.delitem(vars(swenctrl), name, raising=False)
    assert set(swenctrl.__all__) <= set(dir(swenctrl))
    for name, module in exported.items():
        source = importlib.import_module(f"swenctrl.{module}")
        assert getattr(swenctrl, name) is getattr(source, name), name
    namespace = {}
    exec("from swenctrl import *", namespace)
    assert set(swenctrl.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(swenctrl, name) for name in swenctrl.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        swenctrl.no_such_name


# Format inverses kept public for readers of the package's own output:
# serialize_pattern inverts parse_pattern, and certificate_from_dict reads a
# certificate back from a verdict's JSON.
FORMAT_INVERSES = {"serialize_pattern", "certificate_from_dict"}


def named(node) -> set[str]:
    """The identifiers a node's code names, as a variable or an attribute;
    imports and strings do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_reached():
    """Every public module-level function or class of the package is named
    by cli.py or tools.py, by tests/test_acceptance.py, by an import in a
    benchmark file, or by the body of another definition that is itself
    reached; module-level code outside the definitions, which runs on
    import, counts as reached.  Only FORMAT_INVERSES are exempt, and each
    of them must be otherwise unreached.  The benchmark still imports
    to_digraph, core_condition_holds, witness_from_cut and min_cut; once it
    stops, this test flags whichever of them nothing else reaches."""
    src = Path(__file__).resolve().parents[1] / "src" / "swenctrl"
    bodies: dict[str, list] = {}
    public = set()
    acceptance = Path(__file__).with_name("test_acceptance.py")
    reached = named(ast.parse(acceptance.read_text(encoding="utf-8")))
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem in ("cli", "tools"):
            reached |= named(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
                if not node.name.startswith("_"):
                    public.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= named(node)
    for path in sorted(BENCHMARK.glob("*.py")):
        reached |= {name for _, name in swenctrl_imports(path) if name}
    frontier = list(reached)
    while frontier:
        for node in bodies.pop(frontier.pop(), ()):
            new = named(node) - reached
            reached |= new
            frontier += new
    assert FORMAT_INVERSES <= public - reached
    assert public - reached - FORMAT_INVERSES == set()
