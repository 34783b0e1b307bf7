"""The benchmark imports public names from swenctrl and calls them in fixed
shapes; a rename, a deletion or a changed signature there would make
benchmark operations fail, so check them here."""

import ast
import importlib
from pathlib import Path

from helpers import FIG1

from swenctrl.decide import check_structural, compute_kstar, witness_from_cut
from swenctrl.flow import build_lifted_network, build_small_network, max_flow, min_cut
from swenctrl.graph import (
    brute_force_check,
    core_condition_holds,
    kstar_brute,
    reachability_check,
    to_digraph,
)

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
