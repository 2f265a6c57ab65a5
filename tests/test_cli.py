import itertools
import json
import time

import pytest

from mlqls import gen_queko
from mlqls.cli import build_circuit, cmd_bench, main, parse_device_spec


def test_parse_device_specs():
    assert parse_device_spec("grid:3").num_physical == 9
    assert parse_device_spec("path:5").num_physical == 5
    assert parse_device_spec("sycamore").num_physical == 54
    assert parse_device_spec("eagle").num_physical == 127
    with pytest.raises(ValueError):
        parse_device_spec("hexagon:3")


def test_compile_gen_writes_reverifiable_bundle(tmp_path):
    out = tmp_path / "sol.json"
    rc = main(
        [
            "compile",
            "--device", "grid:3",
            "--gen", "chain:n=6",
            "--mode", "srefine",
            "--seed", "1",
            "--budget-scale", "0.001",
            "--out", str(out),
        ]
    )
    assert rc == 0
    bundle = json.loads(out.read_text())
    assert bundle["meta"]["swaps"] == bundle["solution"]["swap_count"]
    rc = main(["compile", "--mode", "verify", "--solution", str(out)])
    assert rc == 0


def test_verify_rejects_mutated_solution(tmp_path):
    out = tmp_path / "sol.json"
    main(
        [
            "compile",
            "--device", "path:4",
            "--gen", "chain:n=4",
            "--mode", "exact",
            "--budget-scale", "0.01",
            "--out", str(out),
        ]
    )
    bundle = json.loads(out.read_text())
    # permute the first block's mapping
    blocks = bundle["solution"]["blocks"]
    blocks[0]["mapping"][0], blocks[0]["mapping"][1] = (
        blocks[0]["mapping"][1],
        blocks[0]["mapping"][0],
    )
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(bundle))
    assert main(["compile", "--mode", "verify", "--solution", str(mutated)]) == 1


def test_verify_checks_recorded_depth_and_swap_count(tmp_path, capsys):
    out = tmp_path / "sol.json"
    argv = ["compile", "--device", "grid:3", "--gen", "qaoa:n=8", "--mode", "srefine"]
    assert main([*argv, "--out", str(out)]) == 0
    solution = json.loads(out.read_text())["solution"]
    swaps, depth = solution["swap_count"], solution["depth"]
    assert swaps > 0 and depth > 0

    def verify_with(drop=(), **changes):
        bundle = json.loads(out.read_text())
        bundle["solution"].update(changes)
        for key in drop:
            del bundle["solution"][key]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(bundle))
        capsys.readouterr()
        rc = main(["compile", "--mode", "verify", "--solution", str(edited)])
        return rc, capsys.readouterr().out

    assert verify_with(depth=999) == (1, f"FAIL depth: recorded 999, ASAP depth {depth}\n")
    rc, printed = verify_with(swap_count=swaps + 1)
    assert rc == 1
    assert printed == f"FAIL swap_count: recorded {swaps + 1}, SWAPs listed {swaps}\n"
    # a null depth and a missing swap_count are not checked
    assert verify_with(drop=["swap_count"], depth=None) == (0, f"OK swaps={swaps} depth={depth}\n")


def test_exact_bundle_reports_nodes(tmp_path):
    out = tmp_path / "sol.json"
    argv = ["compile", "--device", "path:4", "--gen", "qaoa:n=4", "--mode", "exact"]
    assert main([*argv, "--budget-scale", "0.01", "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["proven_optimal"] and meta["nodes"] > 0


def test_vcycle_bundle_reports_stages(tmp_path):
    # QAOA-8 on grid:3 needs SWAPs, so the V cycle runs after stage one
    out = tmp_path / "sol.json"
    argv = ["compile", "--device", "grid:3", "--gen", "qaoa:n=8", "--mode", "vcycle"]
    assert main([*argv, "--budget-scale", "0.001", "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    stats = meta["stats"]
    assert [s["stage"] for s in stats] == ["srefine", "vcycle1"]
    assert stats[0]["swaps"] > 0
    assert meta["swaps"] == min(s["swaps"] for s in stats)
    assert all(s["seconds"] >= 0 for s in stats)
    assert "levels" in meta and "initial_swaps" not in meta


def test_compile_qasm_file(tmp_path):
    qasm = tmp_path / "c.qasm"
    qasm.write_text("OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n")
    out = tmp_path / "sol.json"
    rc = main(
        [
            "compile",
            "--device", "path:4",
            "--circuit", str(qasm),
            "--mode", "vcycle",
            "--budget-scale", "0.001",
            "--out", str(out),
        ]
    )
    assert rc == 0
    bundle = json.loads(out.read_text())
    assert bundle["meta"]["swaps"] == 0


def test_compile_requires_exactly_one_source(tmp_path):
    rc = main(["compile", "--device", "path:4", "--mode", "srefine"])
    assert rc == 2


def bench_rows(capsys, *argv):
    """The parsed JSON-lines rows that ``mlqls bench argv`` prints."""
    capsys.readouterr()
    assert main(["bench", *argv]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def without_seconds(record):
    """A run record without its wall-clock fields, the only ones that vary
    between runs of the same job."""
    kept = {key: value for key, value in record.items() if key != "seconds"}
    if "stats" in kept:
        kept["stats"] = [without_seconds(stat) for stat in kept["stats"]]
    return kept


def test_bench_chain_suite(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    argv = ["--suite", "chain", "--sizes", "4,6", "--seeds", "2", "--modes", "srefine,vcycle"]
    rows = bench_rows(capsys, *argv, "--budget-scale", "0.001", "--out", str(out))
    assert len(rows) == 2 * 2 * 2  # sizes x seeds x modes
    assert [json.loads(line) for line in out.read_text().splitlines()] == rows
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]  # no CSV or Markdown
    # every chain instance embeds; both modes report zero swaps
    assert all(row["swaps"] == 0 and row["verified"] for row in rows)
    assert [(r["circuit"], r["device"], r["mode"], r["seed"]) for r in rows[:4]] == [
        ("chain_4", "grid:2", "srefine", 0),
        ("chain_4", "grid:2", "srefine", 1),
        ("chain_4", "grid:2", "vcycle", 0),
        ("chain_4", "grid:2", "vcycle", 1),
    ]
    assert all("stats" in r and "levels" in r for r in rows if r["mode"] == "vcycle")


def test_bench_deterministic(capsys):
    argv = ["--suite", "qaoa", "--sizes", "4", "--seeds", "2", "--modes", "srefine,vcycle",
            "--budget-scale", "0.001"]
    a = bench_rows(capsys, *argv)
    b = bench_rows(capsys, *argv)
    assert len(a) == 4 and any(row["stats"] for row in a if row["mode"] == "vcycle")
    assert [without_seconds(row) for row in a] == [without_seconds(row) for row in b]


@pytest.mark.parametrize("mode", ["srefine", "vcycle", "exact"])
def test_bench_row_is_the_compile_record(tmp_path, capsys, mode):
    # both commands describe a run with one record; bench adds only the suite,
    # the instance label and the device spec
    scale = "0.001"
    rows = bench_rows(capsys, "--suite", "qaoa", "--sizes", "6", "--devices", "grid:3",
                      "--seeds", "2", "--modes", mode, "--budget-scale", scale)
    out = tmp_path / "sol.json"
    argv = ["compile", "--device", "grid:3", "--gen", "qaoa:n=6", "--mode", mode, "--seed", "1"]
    assert main([*argv, "--budget-scale", scale, "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert [row["seed"] for row in rows] == [0, 1]
    row = rows[1]
    assert (row.pop("suite"), row.pop("circuit"), row.pop("device")) == ("qaoa", "qaoa_6_s1", "grid:3")
    assert without_seconds(row) == without_seconds(meta)
    extras = {
        "srefine": set(),
        "vcycle": {"stats", "levels"},
        "exact": {"proven_optimal", "timed_out", "nodes"},
    }[mode]
    common = {"mode", "seed", "qubits", "gates", "swaps", "depth", "seconds", "verified"}
    assert set(row) == common | extras


def test_device_file_loading(tmp_path):
    dev = tmp_path / "dev.json"
    dev.write_text(
        json.dumps({"name": "toy", "num_qubits": 3, "edges": [[0, 1], [1, 2]]})
    )
    g = parse_device_spec(f"file:{dev}")
    assert g.num_physical == 3 and g.name == "toy"


def test_device_file_too_sparse_to_connect_exits_2(tmp_path, capsys):
    # one edge cannot connect 10**12 qubits: refused before any per-qubit table
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"name": "x", "num_qubits": 10**12, "edges": [[0, 1]]}))
    argv = ["compile", "--device", f"file:{dev}", "--gen", "chain:n=4", "--mode", "srefine"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: coupling graph is disconnected\n"


@pytest.mark.parametrize("where", ["grid", "file"])
def test_device_over_the_size_limit_exits_2_at_once(tmp_path, capsys, where):
    # grid:473 would need an all-pairs table of about 5·10^10 entries, and a
    # connected 5,000-qubit path file one of 2.5·10^7; both are refused first
    spec = "grid:473"
    if where == "file":
        dev = tmp_path / "dev.json"
        edges = [[i, i + 1] for i in range(4999)]
        dev.write_text(json.dumps({"num_qubits": 5000, "edges": edges}))
        spec = f"file:{dev}"
    start = time.process_time()
    assert main(["compile", "--device", spec, "--gen", "chain:n=4"]) == 2
    assert time.process_time() - start < 1.0
    assert "over the limit of 4096" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--gen", "queko:depth=3", "--mode", "srefine", "--device"],
        ["bench", "--suite", "queko", "--depths", "3", "--modes", "srefine", "--devices"],
    ],
    ids=["compile", "bench"],
)
def test_queko_on_device_without_couplers_exits_2(tmp_path, capsys, argv):
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"num_qubits": 1, "edges": []}))
    assert main([*argv, f"file:{dev}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "has no couplers" in err


def test_verify_bare_solution_with_flags(tmp_path):
    from mlqls import Circuit, Mapping, make_device
    from mlqls.srefine import astar_insert
    from mlqls.verify import solution_to_json

    c = Circuit.from_pairs(3, [(0, 1), (1, 2)])
    dev = make_device("path", 3)
    sol = astar_insert(c, dev, Mapping((0, 1, 2)))
    sol_file = tmp_path / "bare.json"
    sol_file.write_text(json.dumps(solution_to_json(sol)))
    qasm = tmp_path / "c.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncx q[0],q[1];\ncx q[1],q[2];\n')
    rc = main(
        [
            "compile", "--mode", "verify",
            "--solution", str(sol_file),
            "--circuit", str(qasm),
            "--device", "path:3",
        ]
    )
    assert rc == 0


def test_dump_levels_embeds_hierarchy(tmp_path):
    out = tmp_path / "sol.json"
    rc = main(
        [
            "compile",
            "--device", "grid:3",
            "--gen", "qaoa:n=8",
            "--mode", "vcycle",
            "--budget-scale", "0.001",
            "--out", str(out),
        ]
    )
    assert rc == 0
    # every vcycle record carries its levels, finest first
    assert json.loads(out.read_text())["meta"]["levels"][0]["qubits"] == 8


def test_bench_exact_uses_budget_scale(tmp_path, monkeypatch):
    import mlqls.cli as cli

    seen = []
    real = cli.solve_exact

    def spy(circuit, device, cfg=None, **kwargs):
        seen.append(cfg)
        return real(circuit, device, cfg, **kwargs)

    monkeypatch.setattr(cli, "solve_exact", spy)
    scale = 0.002
    cmd_bench(
        "chain", devices=["path:4"], depths=[], sizes=[4], seeds=1,
        modes=["exact"], out=str(tmp_path / "e.jsonl"), budget_scale=scale,
    )
    assert len(seen) == 1 and seen[0] is not None
    assert seen[0].overall_budget == pytest.approx(300 * scale)
    assert seen[0].post_first_solution_budget == pytest.approx(100 * scale)


# A malformed input is either an edit that breaks a compiled bundle, which
# is then re-verified, or a compile command line.
_MALFORMED = {
    "bundle_without_gate_block": lambda b: b["solution"].pop("gate_block"),
    "string_mapping": lambda b: b["solution"]["blocks"][0].update(mapping="0123"),
    "three_element_swap_edge": lambda b: b["solution"]["swaps"].append({"edge": [0, 1, 2], "gap": 0}),
    "circuit_without_gates": lambda b: b["circuit"].pop("gates"),
    "three_element_device_edge": lambda b: b["device"]["edges"][0].append(2),
    "bundle_without_device": lambda b: b.pop("device"),
    "qaoa_gen_without_n": ["compile", "--device", "grid:3", "--gen", "qaoa:", "--mode", "srefine"],
    "chain_gen_without_n": ["compile", "--device", "grid:3", "--gen", "chain:", "--mode", "srefine"],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_bundle_exits_2(tmp_path, capsys, case):
    malformed = _MALFORMED[case]
    argv = malformed
    if callable(malformed):
        out = tmp_path / "sol.json"
        rc = main(
            [
                "compile", "--device", "path:4", "--gen", "chain:n=4", "--mode", "srefine",
                "--budget-scale", "0.001", "--out", str(out),
            ]
        )
        assert rc == 0
        bundle = json.loads(out.read_text())
        malformed(bundle)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bundle))
        argv = ["compile", "--mode", "verify", "--solution", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mode", ["srefine", "vcycle", "exact"])
def test_negative_num_qubits_exits_2(tmp_path, capsys, mode):
    circuit = tmp_path / "neg.json"
    circuit.write_text(json.dumps({"num_qubits": -1, "gates": []}))
    rc = main(["compile", "--device", "grid:2", "--circuit", str(circuit), "--mode", mode])
    assert rc == 2
    assert "num_qubits" in capsys.readouterr().err


@pytest.mark.parametrize("modes", [",", "srefine,greedy", "srefine,srefine"])
def test_bench_rejects_bad_modes_before_any_job(capsys, monkeypatch, modes):
    import mlqls.cli as cli

    calls = []
    monkeypatch.setattr(cli, "_solve", lambda *args: calls.append(args))
    rc = main(["bench", "--suite", "chain", "--sizes", "4", "--modes", modes])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["--suite", "qaoa", "--sizes", "0"], "--sizes 0: 3-regular graph needs"),
        (["--suite", "chain", "--sizes", "4,1"], "--sizes 1: chain needs at least 2 qubits"),
        (["--suite", "qaoa", "--sizes", "8,20", "--devices", "grid:3"],
         "--sizes 20: 20 qubits do not fit on grid:3"),
        (["--suite", "queko", "--depths", "5,-3"], "--depths -3 (--density 0.5): depth must be"),
        (["--suite", "queko", "--depths", "5", "--density", "2"],
         "--depths 5 (--density 2.0): density must be"),
        (["--suite", "chain", "--sizes", "4", "--devices", "grid:3,grid:1"],
         "--devices grid:1: grid requires"),
        (["--suite", "queko", "--depths", "5,x"], "--depths x: "),
        (["--suite", "qaoa", "--sizes", "8,x"], "--sizes x: "),
    ],
    ids=["qaoa_size_0", "chain_size_1", "qaoa_over_device", "queko_negative_depth",
         "queko_density_2", "device_grid_1", "queko_depth_x", "qaoa_size_x"],
)
def test_bench_rejects_bad_instances_before_any_job(capsys, monkeypatch, argv, problem):
    # every instance is built before the first solve, and the error names
    # the option and the value it cannot be built from
    import mlqls.cli as cli

    calls = []
    monkeypatch.setattr(cli, "_solve", lambda *args: calls.append(args))
    assert main(["bench", *argv, "--modes", "srefine"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {problem}")
    assert calls == []


@pytest.mark.parametrize("mode", ["srefine", "vcycle", "exact"])
@pytest.mark.parametrize("scale", ["nan", "0", "-1", "inf"])
def test_budget_scale_checked(capsys, monkeypatch, mode, scale):
    import mlqls.cli as cli

    argvs = [
        ["compile", "--device", "path:4", "--gen", "chain:n=4", "--mode", mode],
        ["bench", "--suite", "chain", "--sizes", "4", "--seeds", "1", "--modes", mode],
    ]
    if scale == "inf":  # no limit: the mapper and the exact solver run to the end
        for argv in argvs:
            assert main([*argv, f"--budget-scale={scale}"]) == 0
        return
    calls = []
    monkeypatch.setattr(cli, "_solve", lambda *args: calls.append(args))
    for argv in argvs:
        assert main([*argv, f"--budget-scale={scale}"]) == 2
        assert capsys.readouterr().err.startswith("error: --budget-scale must be positive")
    assert calls == []


_EMPTY_SUITES = {
    "qaoa_without_sizes": ["--suite", "qaoa"],
    "chain_without_sizes": ["--suite", "chain"],
    "queko_empty_depths": ["--suite", "queko", "--depths", ","],
    "zero_seeds": ["--suite", "chain", "--sizes", "4", "--seeds", "0"],
}


@pytest.mark.parametrize("case", [*sorted(_EMPTY_SUITES), "queko_without_devices"])
def test_bench_without_instances_exits_2(capsys, monkeypatch, case):
    import mlqls.cli as cli

    calls = []
    monkeypatch.setattr(cli, "_solve", lambda *args: calls.append(args))
    if case == "queko_without_devices":  # the command line defaults to grid:4
        with pytest.raises(ValueError, match="no instances"):
            cmd_bench("queko", devices=[], depths=[5], sizes=[], seeds=1, modes=["srefine"])
    else:
        assert main(["bench", *_EMPTY_SUITES[case], "--modes", "srefine"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_qaoa_bench_runs_every_device(capsys):
    rows = bench_rows(capsys, "--suite", "qaoa", "--devices", "grid:3,grid:4", "--sizes", "8",
                      "--seeds", "1", "--modes", "srefine", "--budget-scale", "0.001")
    assert [row["device"] for row in rows] == ["grid:3", "grid:4"]


def test_queko_bench_counts_rows(capsys):
    rows = bench_rows(capsys, "--suite", "queko", "--devices", "grid:3", "--depths", "2,3",
                      "--seeds", "2", "--modes", "srefine", "--budget-scale", "0.001")
    assert len(rows) == 2 * 2


@pytest.mark.parametrize("where", ["circuit", "device", "solution"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, where):
    # the JSON parser recurses once per level, so this nesting overflows it
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "circuit": ["--device", "grid:2", "--circuit", str(deep), "--mode", "srefine"],
        "device": ["--device", f"file:{deep}", "--gen", "chain:n=4", "--mode", "srefine"],
        "solution": ["--mode", "verify", "--solution", str(deep)],
    }[where]
    assert main(["compile", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize(
    "option, spec, problem",
    [
        ("--device", "grid:3:4", "size must be int"),
        ("--device", "grid:x", "size must be int"),
        ("--device", "path:", "size must be int"),
        ("--device", "grid: 3", "size must be int"),
        ("--gen", "queko:depth=5,densty=0.3", "unknown key 'densty'"),
        ("--gen", "qaoa:n=8,depth=3", "unknown key 'depth'"),
        ("--gen", "queko:depth=x", "depth must be int"),
        ("--gen", "queko:density=high", "density must be float"),
        ("--gen", "chain:n", "'n' has no '='"),
        ("--gen", "chain:n=4,n=5", "repeated key 'n'"),
    ],
)
def test_malformed_spec_exits_2(capsys, option, spec, problem):
    # A spec is read whole or refused: no device is built from part of it,
    # and no generator key is dropped. The error names the spec.
    argv = {"--device": "grid:4", "--gen": "chain:n=4", option: spec}
    assert main(["compile", "--mode", "srefine", *itertools.chain(*argv.items())]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(spec) in err and problem in err


def test_well_formed_specs_are_read_whole():
    grid4 = parse_device_spec("grid:4")
    assert parse_device_spec("grid:12").num_physical == 144
    circuit = build_circuit(grid4, gen="queko:depth=3,density=0.3", seed=2)
    assert circuit == gen_queko(grid4, 3, 0.3, 2)[0]
    assert build_circuit(grid4, gen="chain: n = 5").num_qubits == 5
