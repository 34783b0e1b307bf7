import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from helpers import (
    FIG1,
    FIG2A,
    INTEGRATOR,
    TWO_CYCLE,
    UNREACHABLE_CYCLE,
    benchmark_pattern,
    hub_pattern,
    long_path_chain,
    tight_pattern,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import swenctrl.cli
import swenctrl.tools
from swenctrl.cli import main
from swenctrl.pattern import MAX_GRID_STARS, MAX_JSON_CHARS, SparsityPattern, serialize_pattern
from swenctrl.tools import bench_pattern, fit_loglog_slope, run_bench


def write_pattern(tmp_path, pattern, name="p.pat", fmt="grid"):
    path = tmp_path / name
    path.write_text(serialize_pattern(pattern, fmt))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_ADDRESS_SPACE = 1 << 30  # bytes; keeps an unguarded allocation from reaching the host


def run_cli_process(*argv, address_space=CHILD_ADDRESS_SPACE, stdout=subprocess.PIPE):
    """Run the CLI in a child process with a capped address space, so an
    uncaught exception shows up as a traceback on stderr."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "swenctrl.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, preexec_fn=limit_memory,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def load_schema(name):
    text = (resources.files("swenctrl") / "schemas" / name).read_text()
    return json.loads(text)


def test_check_fig2a_json(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    code, out, _ = run_cli(capsys, "check", path, "--k", "1", "--q", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["decision"] is False
    assert obj["theta"] == 5 and obj["target"] == 6
    cert = obj["certificate"]
    assert cert["type"] == "violating_subset"
    assert cert["subset"] == [1] and cert["lhs"] == 2 and cert["rhs"] == 3
    jsonschema.validate(obj, load_schema("verdict.v1.json"))


def test_check_json_pattern_file(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A, name="p.json", fmt="json")
    code, out, _ = run_cli(capsys, "check", path, "--k", "2", "--q", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["decision"] is True and obj["certificate"]["value"] == 6
    jsonschema.validate(obj, load_schema("verdict.v1.json"))


def test_check_text_output(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    code, out, _ = run_cli(capsys, "check", path, "--k", "1", "--q", "3", "--output", "text")
    assert code == 0
    assert "decision: False" in out


def test_kstar_two_cycle(tmp_path, capsys):
    path = write_pattern(tmp_path, TWO_CYCLE)
    code, out, _ = run_cli(capsys, "kstar", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["kstar"] == 0
    assert obj["trace"]
    jsonschema.validate(obj, load_schema("kstar.v1.json"))


def test_kstar_fig1_infinite(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG1)
    code, out, _ = run_cli(capsys, "kstar", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["kstar"] == "infinite"
    assert obj["witness"] == {"type": "empty_alpha_in", "subset": [2]}
    jsonschema.validate(obj, load_schema("kstar.v1.json"))


def test_brute_matches_check(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    _, out_b, _ = run_cli(capsys, "brute", path, "--k", "1", "--q", "3")
    brute = json.loads(out_b)
    assert brute["decision"] is False
    assert brute["certificate"]["subset"] == [1]
    assert brute["theta"] is None  # enumeration path solves no flow


def test_oracle_command(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    code, out, _ = run_cli(
        capsys, "oracle", path, "--k", "2", "--q", "3", "--trials", "5", "--seed", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["controllable"] is True and obj["successes"] >= 1
    assert obj["full_dim"] == 6


@pytest.mark.parametrize("flags, message", [
    (("--k", "-1"), "switch count k must be an integer >= 0"),
    (("--q", "0"), "ensemble size q must be an integer >= 1"),
    (("--trials", "0"), "trials must be >= 1"),
    (("--value-bound", "1"), "value_bound must be >= 2"),
])
def test_oracle_usage_errors_come_before_any_structural_check(tmp_path, capsys, flags, message):
    """The oracle's own guards and the sampler's reject each bad argument
    with their own message before the structural verdict is computed."""
    path = write_pattern(tmp_path, FIG2A)
    argv = dict(zip(("--k", "--q", "--trials", "--value-bound"), ("1", "2", "2", "10007")))
    argv.update([flags])
    code, out, err = run_cli(capsys, "oracle", path, "--seed", "1",
                             *[token for pair in argv.items() for token in pair])
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_crosscheck_command(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    code, out, _ = run_cli(capsys, "crosscheck", path, "--kmax", "2", "--qmax", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["agree"] is True and len(obj["cells"]) == 9
    jsonschema.validate(obj, load_schema("crosscheck.v1.json"))


def test_flowdump_json_and_dot(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    dot_path = tmp_path / "net.dot"
    out_path = tmp_path / "net.json"
    code, out, _ = run_cli(
        capsys, "flowdump", path, "--k", "1", "--q", "3",
        "--dot-out", str(dot_path), "--out", str(out_path),
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["value"] == 5
    assert len(obj["arcs"]) == 8
    jsonschema.validate(obj, load_schema("network.v1.json"))
    dot = dot_path.read_text()
    assert "digraph flownet" in dot and "/3" in dot


def test_flowdump_lifted(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    code, out, _ = run_cli(capsys, "flowdump", path, "--k", "1", "--q", "3", "--lifted")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "lifted" and obj["value"] == 5
    assert len(obj["nodes"]) == 14 + 6 + 2
    jsonschema.validate(obj, load_schema("network.v1.json"))


def test_flowdump_witness_mode(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    code, out, _ = run_cli(capsys, "flowdump", path, "--k", "1", "--q", "3", "--witness-mode")
    assert code == 0
    obj = json.loads(out)
    assert obj["witness_mode"] is True and obj["value"] == 5
    caps = {(a["from"], a["to"]): a["cap"] for a in obj["arcs"]}
    assert caps[("lam_1", "mu_1")] == 1 + 1 * 2 + 2 * 6


def test_flowdump_rejects_lifted_with_witness_mode(tmp_path, capsys, monkeypatch):
    """The expanded network has no witness mode, so --lifted with
    --witness-mode is a usage error, raised before any network is built or
    any file written."""
    def built(*args, **kwargs):
        raise AssertionError("a network was built")

    monkeypatch.setattr(swenctrl.tools, "build_lifted_network", built)
    monkeypatch.setattr(swenctrl.tools, "build_small_network", built)
    path = write_pattern(tmp_path, FIG2A)
    out_path = tmp_path / "net.json"
    code, out, err = run_cli(capsys, "flowdump", path, "--k", "1", "--q", "1", "--lifted",
                             "--witness-mode", "--out", str(out_path))
    assert (code, out) == (1, "")
    assert "--lifted and --witness-mode conflict" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flags, golden", [
    ((), "flowdump_fig2a_k1_q3.json"),
    (("--witness-mode",), "flowdump_fig2a_k1_q3_witness.json"),
    (("--lifted",), "flowdump_fig2a_k1_q3_lifted.json"),
], ids=["plain", "witness-mode", "lifted"])
def test_flowdump_golden(tmp_path, capsys, flags, golden):
    path = write_pattern(tmp_path, FIG2A)
    code, out, _ = run_cli(capsys, "flowdump", path, "--k", "1", "--q", "3", *flags)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("pattern, golden", [
    (FIG1, "kstar_fig1.json"),
    (FIG2A, "kstar_fig2a.json"),
    (TWO_CYCLE, "kstar_two_cycle.json"),
    (INTEGRATOR, "kstar_integrator.json"),
    (hub_pattern(64), "kstar_hub64.json"),
], ids=["fig1", "fig2a", "two-cycle", "integrator", "hub64"])
def test_kstar_golden(tmp_path, capsys, pattern, golden):
    path = write_pattern(tmp_path, pattern)
    code, out, _ = run_cli(capsys, "kstar", path)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# Small members of each benchmark family and of the tight family, with the
# check and kstar output of the max-flow solver the transport solver replaced.
FAMILY_GOLDEN = {
    "bench_backbone64": (lambda: benchmark_pattern("backbone", 64, 0), 1, 3),
    "bench_hub64": (lambda: benchmark_pattern("hub", 64, 0), 6, 65),
    "bench_sparse_fail64": (lambda: benchmark_pattern("sparse-fail", 64, 0), 1, 3),
    "bench_sparse_fail_unreachable64": (
        lambda: benchmark_pattern("sparse-fail-unreachable", 64, 0), 1, 3),
    "tight64": (lambda: tight_pattern(64, 0), 0, 1),
    "tight_failing64": (lambda: tight_pattern(64, 0, failing=True), 0, 1),
}


@pytest.mark.parametrize("name", sorted(FAMILY_GOLDEN))
def test_family_check_and_kstar_golden(tmp_path, capsys, name):
    make, k, q = FAMILY_GOLDEN[name]
    path = write_pattern(tmp_path, make())
    code, out, _ = run_cli(capsys, "check", path, "--k", str(k), "--q", str(q))
    assert code == 0
    assert out == (GOLDEN / f"check_{name}_k{k}_q{q}.json").read_text()
    code, out, _ = run_cli(capsys, "kstar", path)
    assert code == 0
    assert out == (GOLDEN / f"kstar_{name}.json").read_text()


# The oracle's stdout on true, violating and unreachable cells, under both
# criteria, at the default value bound and at 2, where some samples of a
# true cell are deficient; the sequential_subspace cases were frozen before
# the structural proof moved from each sample to the cell.
ORACLE_GOLDEN = json.loads((GOLDEN / "oracle_cli.json").read_text())
ORACLE_GOLDEN_CELLS = {
    "fig2a_k2_q3": (lambda: FIG2A, 2, 3),
    "fig2a_k1_q3": (lambda: FIG2A, 1, 3),
    "backbone7_k1_q2": (lambda: benchmark_pattern("backbone", 7, 0), 1, 2),
    "hub8_k1_q2": (lambda: benchmark_pattern("hub", 8, 0), 1, 2),
    "sparse_fail7_k1_q2": (lambda: benchmark_pattern("sparse-fail", 7, 0), 1, 2),
    "sparse_fail_unreachable7_k1_q2": (
        lambda: benchmark_pattern("sparse-fail-unreachable", 7, 0), 1, 2),
}
ORACLE_GOLDEN_FLAGS = {
    "invariant_closure": (),
    "sequential_subspace": ("--criterion", "sequential_subspace"),
}


def oracle_golden_argv(case: str) -> tuple[str, tuple[str, ...]]:
    """The cell name and the oracle flags of a golden case cell/flags/bound."""
    cell, flags, bound = case.split("/")
    _, k, q = ORACLE_GOLDEN_CELLS[cell]
    return cell, ("--k", str(k), "--q", str(q), "--trials", "8", "--seed", "1",
                  "--value-bound", bound, *ORACLE_GOLDEN_FLAGS[flags])


@pytest.mark.parametrize("case", sorted(ORACLE_GOLDEN))
def test_oracle_golden(tmp_path, capsys, case):
    cell, flags = oracle_golden_argv(case)
    path = write_pattern(tmp_path, ORACLE_GOLDEN_CELLS[cell][0]())
    assert run_cli(capsys, "oracle", path, *flags) == (0, ORACLE_GOLDEN[case], "")


# crosscheck's stdout on the hand-made patterns, a cycle that no input
# reaches, whose compact network saturates under False verdicts, and n <= 10
# members of the benchmark families, on a 2 x 3 grid, the referee workload's
# 4 x 3 and an 8 x 5 one; frozen while each cell still ran a cold check.
CROSSCHECK_GOLDEN = json.loads((GOLDEN / "crosscheck.json").read_text())
CROSSCHECK_GOLDEN_PATTERNS = {
    "fig1": lambda: FIG1,
    "fig2a": lambda: FIG2A,
    "two_cycle": lambda: TWO_CYCLE,
    "integrator": lambda: INTEGRATOR,
    "unreachable_cycle": lambda: UNREACHABLE_CYCLE,
    **{f"{family.replace('-', '_')}{n}": (lambda family=family, n=n: benchmark_pattern(family, n, 0))
       for family in ("backbone", "hub", "sparse-fail", "sparse-fail-unreachable")
       for n in (6, 10)},
}
CROSSCHECK_GOLDEN_GRIDS = ((1, 3), (3, 3), (7, 5))


@pytest.mark.parametrize("name", sorted(CROSSCHECK_GOLDEN_PATTERNS))
@pytest.mark.parametrize("k_max, q_max", CROSSCHECK_GOLDEN_GRIDS)
def test_crosscheck_golden(tmp_path, capsys, name, k_max, q_max):
    path = write_pattern(tmp_path, CROSSCHECK_GOLDEN_PATTERNS[name]())
    assert run_cli(capsys, "crosscheck", path, "--kmax", str(k_max), "--qmax", str(q_max)) == (
        0, CROSSCHECK_GOLDEN[f"{name}/{k_max}/{q_max}"], "")


def test_kstar_flow_values_near_2_pow_40(tmp_path, capsys):
    # Witness capacities times the arc count pass 2^63; every flow value
    # and cut stays below the total source capacity, about 2^52.
    n, m = 4096, 61440
    stars = [[i, i] for i in range(1, n + 1)] + [[i, n + 1] for i in range(1, n + 1)]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": n, "m": m, "stars": stars}))
    code, out, err = run_cli(capsys, "kstar", str(path))
    assert code == 0, err
    obj = json.loads(out)
    assert obj["kstar"] == 0 and obj["trace"][0]["target"] == n * (m * n + 1)


def test_dot_out_writes_pattern_digraph(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    dot_path = tmp_path / "g.dot"
    code, *_ = run_cli(capsys, "check", path, "--k", "0", "--q", "1", "--dot-out", str(dot_path))
    assert code == 0
    assert "b1 -> a1;" in dot_path.read_text()


def test_dot_out_same_for_every_pattern_subcommand(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG1)
    runs = {
        "check": ("check", "--k", "0", "--q", "1"),
        "brute": ("brute", "--k", "0", "--q", "1"),
        "kstar": ("kstar",),
        "oracle": ("oracle", "--k", "0", "--q", "1", "--trials", "1", "--seed", "1"),
        "crosscheck": ("crosscheck", "--kmax", "0", "--qmax", "1"),
    }
    written = {}
    for name, (command, *rest) in runs.items():
        dot_path = tmp_path / f"{name}.dot"
        code, _, err = run_cli(capsys, command, path, *rest, "--dot-out", str(dot_path))
        assert code == 0, err
        written[name] = dot_path.read_bytes()
    assert all(dot == written["check"] for dot in written.values())
    # A command that fails writes no file.
    dot_path = tmp_path / "failed.dot"
    code, _, _ = run_cli(capsys, "crosscheck", path, "--kmax", "100000000", "--qmax", "2",
                         "--dot-out", str(dot_path))
    assert code == 3 and not dot_path.exists()


def test_exit_code_usage_error(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    code, _, err = run_cli(capsys, "check", path, "--q", "3")
    assert code == 1 and "usage error" in err
    code, _, err = run_cli(capsys, "check", path, "--k", "-1", "--q", "3")
    assert code == 1


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.pat"
    bad.write_text("2 1\n0 0 0\n")
    code, _, err = run_cli(capsys, "check", str(bad), "--k", "0", "--q", "1")
    assert code == 2 and "parse error" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "no-such-file.pat", "--k", "0", "--q", "1")
    assert code == 2 and "input error" in err


def test_exit_code_scale_error(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    code, _, err = run_cli(capsys, "check", path, "--k", str(2**62), "--q", "4")
    assert code == 3 and "scale error" in err


def test_exit_code_brute_enumeration_guard(tmp_path, capsys):
    path = write_pattern(tmp_path, SparsityPattern(25, 0, frozenset()))
    code, _, err = run_cli(capsys, "brute", path, "--k", "0", "--q", "1")
    assert code == 3 and "flow-based" in err


DENSE_2X1 = SparsityPattern(2, 1, frozenset((i, j) for i in (1, 2) for j in (1, 2, 3)))
DENSE_8X2 = SparsityPattern(8, 2, frozenset((i, j) for i in range(1, 9) for j in range(1, 11)))
INT64_MAX = (1 << 63) - 1


@pytest.mark.parametrize("q", [1, 2, 2**31 + 1, 2**62])
@pytest.mark.parametrize("k", [0, 1, 2**31 - 1, 2**31, 2**62, 2**63])
@pytest.mark.parametrize("pattern", [FIG2A, DENSE_2X1], ids=["fig2a", "dense2x1"])
def test_check_and_brute_share_one_kq_guard(tmp_path, capsys, pattern, k, q):
    path = write_pattern(tmp_path, pattern)
    codes = {cmd: run_cli(capsys, cmd, path, "--k", str(k), "--q", str(q))[0]
             for cmd in ("check", "brute")}
    expected = 3 if (k + 1) * (pattern.m + pattern.n * q) >= INT64_MAX else 0
    assert codes == {"check": expected, "brute": expected}


CHECK_K0_Q1 = ("check", "--k", "0", "--q", "1")
FIG2A_GRID = b"2 1\n0 0 *\n* 0 *\n"


@pytest.mark.parametrize("content, argv, expected_code, address_space", [
    (b'{"n": 100000000, "m": 1, "stars": [[1, 100000001]]}', CHECK_K0_Q1, 3, CHILD_ADDRESS_SPACE),
    (b'{"n": 1, "m": 100000000, "stars": [[1, 2]]}', CHECK_K0_Q1, 3, CHILD_ADDRESS_SPACE),
    (b"2 1\n0 0 *\n\xff 0 *\n", CHECK_K0_Q1, 2, CHILD_ADDRESS_SPACE),
    (b'{"n": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", CHECK_K0_Q1, 2, CHILD_ADDRESS_SPACE),
    # FIG2A: 3M left nodes pass a left-layer bound, 3M middle arcs must not
    (FIG2A_GRID, ("flowdump", "--k", "1000000", "--q", "1", "--lifted"), 3, CHILD_ADDRESS_SPACE),
    # 300k lifted arcs: solving fits in 160 MiB, but the JSON dump of all
    # arcs as dicts and one string needed more than 384 MiB
    (FIG2A_GRID, ("flowdump", "--k", "50000", "--q", "1", "--lifted"), 0, 256 << 20),
    # q*n = 20 passes the oracle's rank guard, but 2*10^8 segment blocks
    # must be refused before they are sampled
    (serialize_pattern(hub_pattern(10)).encode(),
     ("oracle", "--k", "100000000", "--q", "2", "--seed", "1", "--trials", "1"), 3, 256 << 20),
    # 2*10^8 grid cells, and 10^9 samples of a 2-state pattern, each refused
    # before the first cell or sample
    (FIG2A_GRID, ("crosscheck", "--kmax", "100000000", "--qmax", "2"), 3, CHILD_ADDRESS_SPACE),
    (FIG2A_GRID, ("oracle", "--k", "0", "--q", "1", "--seed", "1", "--trials", "1000000000"), 3,
     CHILD_ADDRESS_SPACE),
    # a 4001-digit value bound at the oracle's rank guard (qn = 64): one
    # unguarded trial on this dense pattern ran for more than a minute
    (serialize_pattern(DENSE_8X2).encode(),
     ("oracle", "--k", "0", "--q", "8", "--seed", "1", "--trials", "1",
      "--value-bound", str(10**4000)), 3, CHILD_ADDRESS_SPACE),
    # a grid header far past the dimension guard, with no row or one short
    # row: rejected by the row checks, with nothing sized by the header
    (b"1 999999999999\n", CHECK_K0_Q1, 2, CHILD_ADDRESS_SPACE),
    (b"1 999999999999\n0 *\n", CHECK_K0_Q1, 2, CHILD_ADDRESS_SPACE),
    (b"999999999999 1\n0 *\n", ("kstar",), 2, CHILD_ADDRESS_SPACE),
], ids=["oversized-n", "oversized-m", "non-utf8", "deep-nesting", "lifted-arcs",
        "flowdump-json-lifted", "oracle-huge-k", "crosscheck-huge-grid", "oracle-huge-trials",
        "value-bound-huge", "huge-header", "huge-header-row", "huge-header-n"])
def test_hostile_input_exit_code_without_traceback(tmp_path, content, argv, expected_code,
                                                   address_space):
    path = tmp_path / "hostile.pat"
    path.write_bytes(content)
    code, _, err = run_cli_process(argv[0], str(path), *argv[1:], address_space=address_space,
                                   stdout=subprocess.DEVNULL)
    assert code == expected_code, err
    assert "Traceback" not in err


def _grid_with_stars(n, width, stars):
    """Grid text of an n x width pattern whose first `stars` cells, row by
    row, are stars."""
    cells = ["*"] * stars + ["0"] * (n * width - stars)
    rows = (" ".join(cells[i:i + width]) for i in range(0, n * width, width))
    return f"{n} {width - n}\n" + "\n".join(rows) + "\n"


def _json_of_length(chars):
    """A fully starred 900 x 901 pattern as compact JSON, padded with spaces
    to `chars` characters."""
    stars = ",".join(f"[{i},{j}]" for i in range(1, 901) for j in range(1, 902))
    text = f'{{"m":1,"n":900,"stars":[{stars}]}}'
    assert 0.9 * MAX_JSON_CHARS < len(text) <= chars
    return text + " " * (chars - len(text))


@pytest.mark.parametrize("text, expected_code", [
    (lambda: _grid_with_stars(1024, 2049, MAX_GRID_STARS), 0),
    (lambda: _grid_with_stars(1024, 2049, MAX_GRID_STARS + 1), 3),
    (lambda: _json_of_length(MAX_JSON_CHARS), 0),
    (lambda: _json_of_length(MAX_JSON_CHARS + 1), 3),
], ids=["grid-at-guard", "grid-over-guard", "json-at-guard", "json-over-guard"])
def test_large_text_at_the_parser_guard(tmp_path, text, expected_code):
    """A text at the parser's bound (a grid's star count, a JSON text's
    length) checks under the address-space cap, and one star or character
    more exits 3 before it is parsed; no run prints a traceback."""
    path = tmp_path / "large.pat"
    path.write_text(text())
    code, _, err = run_cli_process("check", str(path), "--k", "0", "--q", "1",
                                   stdout=subprocess.DEVNULL)
    assert code == expected_code, err
    assert "Traceback" not in err
    assert ("scale error" in err) == (expected_code == 3)


@pytest.mark.parametrize("make", [lambda: long_path_chain(20_000), lambda: tight_pattern(20_000, 0)],
                         ids=["long-path-chain", "tight"])
def test_deep_augmenting_paths_exit_0_without_recursion(tmp_path, make):
    """A 20000-state chain whose one augmenting path is 40000 nodes long,
    and a tight pattern of the same size, check in a child process under the
    address-space cap: exit 0, saturated, no traceback."""
    path = write_pattern(tmp_path, make(), fmt="json")
    code, out, err = run_cli_process("check", path, "--k", "0", "--q", "1")
    assert code == 0, err
    assert "Traceback" not in err and "RecursionError" not in err
    assert json.loads(out)["decision"] is True


@pytest.mark.parametrize("content, message", [
    ("1 999999999999\n", "expected 1 pattern rows, got 0"),
    ("1 999999999999\n0 *\n", "line 2: expected 1000000000000 tokens, got 2"),
    ("999999999999 1\n0 *\n", "line 2: expected 1000000000000 tokens, got 2"),
])
def test_huge_grid_header_is_a_parse_error(tmp_path, capsys, content, message):
    path = tmp_path / "huge.pat"
    path.write_text(content)
    for argv in (CHECK_K0_Q1, ("kstar",)):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"parse error: {message}\n")


FUZZ_PATTERNS = {
    "fig1": FIG1,
    "fig2a": FIG2A,
    "dense2x1": DENSE_2X1,
    "unreachable": SparsityPattern(2, 1, frozenset({(1, 2), (2, 1)})),
}
# Each guard value, one below and one above it: crosscheck cells, trials and
# bench rows, the oracle's q*n, 2^31, and the 64-bit source-capacity guard.
GUARDS = (1 << 10, 1 << 12, 64, 1 << 31, INT64_MAX)
BOUNDARY = sorted({g + d for g in GUARDS for d in (-1, 0, 1)} | {-(1 << 63), -1, 0, 1, 1 << 63})
CLI_INTS = st.one_of(st.sampled_from(BOUNDARY), st.integers(-2, 6))
NUMERIC_OPTIONS = {
    "check": ("k", "q"),
    "brute": ("k", "q"),
    "kstar": (),
    "oracle": ("k", "q", "trials"),
    "crosscheck": ("kmax", "qmax"),
    "flowdump": ("k", "q"),
    "bench": ("nmin", "nmax", "k", "q"),
}
# Options drawn at their own boundaries: bench's repeats (>= 1) and density
# (in [0, 1]), and the oracle's value bound (2 .. MAX_VALUE_BOUND = 2^32).
EDGE_OPTIONS = {
    "bench": {"repeats": st.sampled_from((-1, 0, 1, 2)),
              "density": st.sampled_from((-0.1, 0.0, 0.05, 1.0, 1.5))},
    "oracle": {"value-bound": st.sampled_from((1, 2, 10007, 1 << 32, (1 << 32) + 1))},
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    return {name: write_pattern(folder, p, f"{name}.pat") for name, p in FUZZ_PATTERNS.items()}


def _large_work(cmd, name, flags, v):
    """Draws that pass every guard and still take long; kept out of the fuzz."""
    p = FUZZ_PATTERNS.get(name)
    if cmd == "oracle":
        k, q, trials = v["k"], v["q"], v["trials"]
        return (k >= 0 and q >= 1 and 1 <= trials <= 1 << 12 and q * p.n <= 64
                and 2 <= v["value-bound"] <= 1 << 32
                and q * (k + 1) * p.n * (p.n + p.m) <= 1 << 18
                and (trials * (k + 1) > 16 or q * p.n > 12))
    if cmd == "crosscheck":
        return v["kmax"] >= 0 and v["qmax"] >= 1 and 16 < (v["kmax"] + 1) * v["qmax"] <= 1 << 10
    if cmd == "flowdump" and "--lifted" in flags:
        return v["k"] >= 0 and v["q"] >= 1 and 64 < (v["k"] + 1) * v["q"] <= 1 << 20
    if cmd == "bench" and 1 <= v["nmin"] <= v["nmax"] and v["repeats"] >= 1:
        top = v["nmin"]
        while 2 * top <= v["nmax"]:
            top *= 2
        return 0 <= v["density"] <= 1 and 64 < top * v["repeats"] and top <= 1 << 12
    return False


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_cli_arguments_exit_0_to_3(fuzz_files, data):
    cmd = data.draw(st.sampled_from(sorted(NUMERIC_OPTIONS)))
    v = {opt: data.draw(CLI_INTS, label=opt) for opt in NUMERIC_OPTIONS[cmd]}
    v.update((opt, data.draw(edge, label=opt)) for opt, edge in EDGE_OPTIONS.get(cmd, {}).items())
    if cmd == "bench":
        name, argv = None, ["bench", "--seed", "0"]
    else:
        name = data.draw(st.sampled_from(sorted(FUZZ_PATTERNS)), label="pattern")
        argv = [cmd, fuzz_files[name]]
    flags = []
    if cmd == "oracle":
        flags = ["--seed", "0"]
    elif cmd == "flowdump":
        flags = data.draw(st.sampled_from([[], ["--lifted"], ["--witness-mode"]]), label="flags")
    assume(not _large_work(cmd, name, flags, v))
    argv += flags + [arg for opt, x in v.items() for arg in (f"--{opt}", str(x))]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_the_oracle_unloaded():
    """Importing the CLI loads the decision core, and neither the numerical
    referee nor the modules only the other subcommands need."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, swenctrl.cli; print(sorted(sys.modules))"],
        capture_output=True, text=True, env=_child_env(), timeout=60, check=True,
    )
    loaded = proc.stdout
    assert "'swenctrl.cli'" in loaded and "'swenctrl.core'" in loaded
    for module in ("swenctrl.decide", "swenctrl.oracle"):
        assert f"'{module}'" not in loaded


# Runs check and kstar in one process and prints what they loaded.
CHECK_PATH_CHILD = """import io, sys
from contextlib import redirect_stdout
from swenctrl.cli import main
with redirect_stdout(io.StringIO()) as out:
    codes = [main(["check", sys.argv[1], "--k", "1", "--q", "3"]),
             main(["check", sys.argv[1], "--k", "0", "--q", "9"]),
             main(["kstar", sys.argv[1]])]
print(codes, out.getvalue().count("decision"), out.getvalue().count("kstar"))
print(sorted(sys.modules))
"""


@pytest.mark.parametrize("fmt", ["grid", "json"])
def test_check_and_kstar_load_only_the_decision_core(tmp_path, fmt):
    """check (one verdict true, one false, read off a min cut) and kstar run
    on the core alone: no named network, fractions, referee or cross-check,
    and no dataclasses (nor the inspect module it imports)."""
    path = write_pattern(tmp_path, hub_pattern(16), fmt=fmt)
    proc = subprocess.run([sys.executable, "-c", CHECK_PATH_CHILD, path], capture_output=True,
                          text=True, env=_child_env(), timeout=60, check=True)
    ran, loaded = proc.stdout.splitlines()
    assert ran == "[0, 0, 0] 2 1"
    assert "'swenctrl.core'" in loaded
    for module in ("fractions", "swenctrl.flow", "swenctrl.graph", "swenctrl.decide",
                   "swenctrl.oracle", "swenctrl.tools", "dataclasses", "inspect"):
        assert f"'{module}'" not in loaded, module


def test_false_verdict_still_exits_zero(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    code, out, _ = run_cli(capsys, "check", path, "--k", "0", "--q", "5")
    assert code == 0
    assert json.loads(out)["decision"] is False


def test_json_output_byte_deterministic(tmp_path, capsys):
    path = write_pattern(tmp_path, FIG2A)
    _, out1, _ = run_cli(capsys, "check", path, "--k", "1", "--q", "3")
    _, out2, _ = run_cli(capsys, "check", path, "--k", "1", "--q", "3")
    assert out1 == out2
    _, k1, _ = run_cli(capsys, "kstar", path)
    _, k2, _ = run_cli(capsys, "kstar", path)
    assert k1 == k2
    _, o1, _ = run_cli(capsys, "oracle", path, "--k", "1", "--q", "2", "--seed", "9", "--trials", "3")
    _, o2, _ = run_cli(capsys, "oracle", path, "--k", "1", "--q", "2", "--seed", "9", "--trials", "3")
    assert o1 == o2


def test_ci_mode_requires_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SWENCTRL_CI", "1")
    path = write_pattern(tmp_path, FIG2A)
    code, _, err = run_cli(capsys, "oracle", path, "--k", "1", "--q", "2", "--trials", "2")
    assert code == 1 and "--seed" in err
    code, *_ = run_cli(capsys, "oracle", path, "--k", "1", "--q", "2", "--trials", "2", "--seed", "4")
    assert code == 0


def test_certificate_reverifies_from_json(tmp_path, capsys):
    # External-tool style verification: JSON + the pattern file suffice.
    from swenctrl.decide import recheck_certificate
    from swenctrl.pattern import parse_pattern
    from swenctrl.results import Verdict, VerdictStats, certificate_from_dict

    path = write_pattern(tmp_path, FIG2A)
    _, out, _ = run_cli(capsys, "check", path, "--k", "1", "--q", "3")
    obj = json.loads(out)
    pattern = parse_pattern(open(path).read())
    verdict = Verdict(
        obj["decision"],
        certificate_from_dict(obj["certificate"]),
        VerdictStats(obj["theta"], obj["target"]),
    )
    assert recheck_certificate(pattern, verdict)


def test_bench_pattern_has_backbone():
    p = bench_pattern(12, 0.1, seed=0)
    assert all((i, i) in p.stars for i in range(1, 13))
    assert all((i, 13) in p.stars for i in range(1, 13))


def test_fit_loglog_slope_recovers_power():
    ns = [50, 100, 200, 400]
    times = [1e-6 * n**2 for n in ns]
    assert abs(fit_loglog_slope(ns, times) - 2.0) < 1e-6


def test_run_bench_tiny():
    result = run_bench(6, 12, 0.2, seed=3, repeats=1)
    assert [row["n"] for row in result["rows"]] == [6, 12]
    for row in result["rows"]:
        for col in ("build_s", "maxflow_s", "check_s", "kstar_s"):
            assert row[col] >= 0
    assert set(result["slopes"]) == {"build", "maxflow", "check", "kstar"}


def test_bench_size_guard_before_any_row(capsys, monkeypatch):
    sizes = []

    def tiny(n, density, seed):
        sizes.append(n)
        return FIG2A

    monkeypatch.setattr(swenctrl.tools, "bench_pattern", tiny)
    code, out, err = run_cli(capsys, "bench", "--nmin", "4096", "--nmax", "8192",
                             "--density", "0", "--seed", "0", "--repeats", "1")
    assert code == 3 and out == "" and "8192" in err and sizes == []
    run_bench(50, 5000, 0.0, 0, repeats=1)  # the rows stop at 3200
    assert sizes == [50, 100, 200, 400, 800, 1600, 3200]


@pytest.mark.parametrize("kq, exit_code", [(("--k", "-2"), 1), (("--q", str(1 << 62)), 3)],
                         ids=["negative-k", "q-past-guard"])
def test_bench_checks_kq_before_any_transport(capsys, monkeypatch, kq, exit_code):
    """An invalid k exits 1 and a q past the 64-bit guard exits 3, both
    before a transport problem is built or timed."""
    built = []

    def no_transport(*args):
        built.append(args)
        raise AssertionError("bench built a Transport at an unchecked (k, q)")

    monkeypatch.setattr(swenctrl.tools, "Transport", no_transport)
    code, out, err = run_cli(capsys, "bench", "--nmin", "20", "--nmax", "20", "--density",
                             "0.05", "--seed", "0", "--repeats", "1", *kq)
    assert (code, out, built) == (exit_code, "", [])
    assert err


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_repeats_below_one_is_usage_error(capsys, repeats):
    code, out, err = run_cli(capsys, "bench", "--nmin", "4", "--nmax", "8",
                             "--repeats", repeats, "--seed", "0")
    assert code == 1 and out == "" and "repeats" in err


@pytest.mark.parametrize("argv", [("--repeats", "0"), ("--nmin", "9", "--nmax", "8")],
                         ids=["repeats", "nmax-below-nmin"])
def test_bench_usage_error_in_child_process(argv):
    """Run as `python -m swenctrl.cli`, a bench usage error raised in tools
    still exits 1 with one usage line and no traceback."""
    code, out, err = run_cli_process("bench", "--seed", "0", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: require ") and "Traceback" not in err


def test_bench_cli_text(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--nmin", "6", "--nmax", "6", "--repeats", "1",
        "--density", "0.2", "--seed", "2", "--output", "text",
    )
    assert code == 0
    assert "log-log slopes" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


COMMANDS = ("check", "brute", "kstar", "oracle", "crosscheck", "flowdump", "bench")


def _main_outcome(capsys, argv):
    """Exit code (or SystemExit code), stdout and stderr of main(argv)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["-h"], ["--version"], [], ["nosuch"], ["--output", "json"],
    *([command, "-h"] for command in COMMANDS),
    ["check", "FIG2A", "--k", "1"],  # --q missing
    ["check", "FIG2A", "--k", "1", "--q", "3"],
    ["kstar", "FIG2A", "--k", "1"],  # kstar takes no --k
    ["flowdump", "FIG2A", "--k", "1", "--q", "1", "--output", "text"],
    ["check", "--version"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_of_one_subcommand_answers_as_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    """main builds only the subcommand argv[0] names; every answer, help and
    usage error is byte-identical to the parser holding all seven."""
    path = write_pattern(tmp_path, FIG2A)
    argv = [path if arg == "FIG2A" else arg for arg in argv]
    one = _main_outcome(capsys, argv)
    full_parser = swenctrl.cli.build_parser
    monkeypatch.setattr(swenctrl.cli, "build_parser", lambda command=None: full_parser())
    assert _main_outcome(capsys, argv) == one


def test_parser_of_one_subcommand_holds_only_that_one():
    with pytest.raises(Exception, match="invalid choice: 'kstar' \\(choose from 'check'\\)"):
        swenctrl.cli.build_parser("check").parse_args(["kstar", "p.pat"])
    full = "choose from " + ", ".join(f"'{command}'" for command in COMMANDS)
    for command in ("nosuch", None):
        with pytest.raises(Exception, match=full):
            swenctrl.cli.build_parser(command).parse_args(["nosuch"])
