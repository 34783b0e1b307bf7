import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from helpers import FIG1, FIG2A, INTEGRATOR, TWO_CYCLE, hub_pattern

from swenctrl.cli import bench_pattern, fit_loglog_slope, main, run_bench
from swenctrl.pattern import serialize_pattern


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
    from swenctrl.pattern import SparsityPattern

    path = write_pattern(tmp_path, SparsityPattern(25, 0, frozenset()))
    code, _, err = run_cli(capsys, "brute", path, "--k", "0", "--q", "1")
    assert code == 3 and "flow-based" in err


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
], ids=["oversized-n", "oversized-m", "non-utf8", "deep-nesting", "lifted-arcs",
        "flowdump-json-lifted", "oracle-huge-k", "crosscheck-huge-grid", "oracle-huge-trials"])
def test_hostile_input_exit_code_without_traceback(tmp_path, content, argv, expected_code,
                                                   address_space):
    path = tmp_path / "hostile.pat"
    path.write_bytes(content)
    code, _, err = run_cli_process(argv[0], str(path), *argv[1:], address_space=address_space,
                                   stdout=subprocess.DEVNULL)
    assert code == expected_code, err
    assert "Traceback" not in err


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
