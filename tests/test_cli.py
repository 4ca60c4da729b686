import json
import os
import sys
import types
from pathlib import Path

import pytest

from latticeopt import cli, groebner, oracle
from latticeopt.instances import (SND_FAMILIES, HsConfig, SndConfig, gen_hs,
                                  gen_snd, gen_snd_family, instance_from_json,
                                  instance_to_json)
from latticeopt.opcost import opcost_oracle, single_scenario_decisions

ROOT = Path(__file__).resolve().parent.parent


def write_matrix(tmp_path, rows, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"rows": rows}))
    return str(path)


def test_verify_passes_and_is_deterministic(capsys):
    assert cli.run(["verify"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["verify"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "0 failures" in first
    assert "FAIL" not in first


def test_gen_hs_round_trips(tmp_path):
    out = tmp_path / "inst.json"
    assert cli.run(["gen-hs", "--n", "3", "--seed", "5", "--scaled",
                    "--out", str(out)]) == 0
    inst = instance_from_json(out.read_text())
    assert inst.num_scenarios == 3
    again = tmp_path / "again.json"
    assert cli.run(["gen-hs", "--n", "3", "--seed", "5", "--scaled",
                    "--out", str(again)]) == 0
    assert out.read_text() == again.read_text()


def test_gen_snd_round_trips(tmp_path):
    out = tmp_path / "snd.json"
    assert cli.run(["gen-snd", "--n", "2", "--seed", "3",
                    "--out", str(out)]) == 0
    inst = instance_from_json(out.read_text())
    assert inst.first_stage_constraints is not None


def test_toric_identity_is_empty(tmp_path, capsys):
    path = write_matrix(tmp_path, [[1, 0], [0, 1]])
    assert cli.run(["toric", "--matrix", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["generators"] == []


def test_groebner_subcommand(tmp_path, capsys):
    path = write_matrix(tmp_path, [[1, 1, 1]])
    assert cli.run(["groebner", "--matrix", path, "--cost", "1,2,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"] == [1, 2, 3]
    assert sorted(tuple(e) for e in doc["elements"]) == [
        (-1, 0, 1), (-1, 1, 0)]


def test_graver_subcommand_and_cap(tmp_path, capsys, monkeypatch):
    path = write_matrix(tmp_path, [[1, 2]])
    assert cli.run(["graver", "--matrix", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(tuple(e) for e in doc["elements"]) == [(-2, 1), (2, -1)]
    big = write_matrix(tmp_path, [[3, -5, 7, -11, 2]], name="big.json")
    monkeypatch.setattr(groebner, "ELEMENT_CAP", 3)
    assert cli.run(["graver", "--matrix", big]) == 3


@pytest.mark.parametrize("command", ["opcost", "toric", "groebner"])
def test_element_cap_hit_exits_3(tmp_path, capsys, monkeypatch, command):
    inst = tmp_path / "inst.json"
    assert cli.run(["gen-snd", "--n", "2", "--seed", "3",
                    "--out", str(inst)]) == 0
    matrix = write_matrix(tmp_path, [[3, 2, 1, 0], [0, 1, 2, 3]])
    args = {"opcost": ["opcost", "--instance", str(inst)],
            "toric": ["toric", "--matrix", matrix],
            "groebner": ["groebner", "--matrix", matrix,
                         "--cost", "1,1,1,1"]}[command]
    monkeypatch.setattr(groebner, "ELEMENT_CAP", 2)
    capsys.readouterr()
    assert cli.run(args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("limit hit: completion exceeded 2 elements")


def test_opcost_kernel_oracle_identical_csv(tmp_path):
    inst = tmp_path / "inst.json"
    assert cli.run(["gen-hs", "--n", "2", "--seed", "7", "--scaled",
                    "--out", str(inst)]) == 0
    o_csv = tmp_path / "o.csv"
    runs = {}
    for threads in ("1", "2"):  # --threads is accepted and ignored
        k_csv = tmp_path / ("k%s.csv" % threads)
        meta = tmp_path / ("meta%s.json" % threads)
        assert cli.run(["--threads", threads, "opcost", "--instance",
                        str(inst), "--method", "kernel", "--out", str(k_csv),
                        "--meta", str(meta)]) == 0
        runs[threads] = (k_csv.read_bytes(),
                         json.dumps(json.loads(meta.read_text())["counters"]))
    assert runs["2"] == runs["1"]
    assert cli.run(["opcost", "--instance", str(inst), "--method", "oracle",
                    "--out", str(o_csv)]) == 0
    assert runs["1"][0] == o_csv.read_bytes()
    doc = json.loads(meta.read_text())
    assert doc["method"] == "kernel"
    # the JSON round trip drops the hook: every cell takes Phase-I over the
    # decisions' set, whose columns cover every sign over the first-stage
    # box and whose cost is the one scenario cost, so W needs no algebra
    assert doc["counters"]["toric_runs"] == 0
    assert doc["counters"]["phase_one_bases"] == 0



def test_meta_reports_the_decisions_phase(tmp_path):
    # SND: the decisions complete W's Phase-I set at x-hat, the kernel
    # build takes it over, and --meta books it to the decisions phase
    inst = tmp_path / "snd.json"
    assert cli.run(["gen-snd", "--n", "6", "--seed", "1", "--max-demand",
                    "2", "--out", str(inst)]) == 0
    meta = tmp_path / "meta.json"
    assert cli.run(["opcost", "--instance", str(inst), "--out",
                    str(tmp_path / "m.csv"), "--meta", str(meta)]) == 0
    doc = json.loads(meta.read_text())
    phase = doc["decisions_phase"]
    assert sorted(phase) == ["M", "W"]
    assert phase["W"]["counters"]["phase_one_bases"] == 1
    assert phase["W"]["timings_us"]["phase_one_us"] > 0
    assert phase["M"]["counters"]["phase_one_bases"] == 0
    assert doc["counters"]["phase_one_bases"] == 0
    # a decisions file carries no Phase-I set: the build completes its own
    rows = tmp_path / "dec.json"
    rows.write_text(json.dumps(doc["decisions"]))
    assert cli.run(["opcost", "--instance", str(inst), "--decisions",
                    str(rows), "--out", str(tmp_path / "f.csv"), "--meta",
                    str(meta)]) == 0
    doc = json.loads(meta.read_text())
    assert doc["decisions_phase"] is None
    assert doc["counters"]["phase_one_bases"] == 1
    assert (tmp_path / "f.csv").read_bytes() == \
        (tmp_path / "m.csv").read_bytes()

def test_oracle_takes_no_box_from_its_caller(tmp_path, capsys):
    # A box smaller than the derived one can hold a point of a cell but not
    # its optimum (at 6 here: 493 and 481 where the kernel gives 426 and
    # 462), so the oracle searches only the box it derives.
    inst = tmp_path / "inst.json"
    assert cli.run(["gen-hs", "--n", "2", "--seed", "7", "--scaled",
                    "--out", str(inst)]) == 0
    capsys.readouterr()
    assert cli.run(["opcost", "--instance", str(inst), "--method", "oracle",
                    "--var-bound", "6"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--var-bound" in err
    hs = instance_from_json(inst.read_text())
    with pytest.raises(TypeError):
        opcost_oracle(hs, single_scenario_decisions(hs), var_bound=6)


def test_oracle_box_holding_the_derived_box_prints_infeasible_cells(
        tmp_path, capsys):
    # The derived box here is 0 <= z <= 3, and a miss in it is an empty
    # cell.
    inst = tmp_path / "inst.json"
    assert cli.run(["gen-snd", "--n", "3", "--seed", "3", "--max-demand", "2",
                    "--out", str(inst)]) == 0
    capsys.readouterr()
    outputs = []
    for method in ("oracle", "kernel"):
        assert cli.run(["opcost", "--instance", str(inst),
                        "--method", method]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == "decision,s0,s1,s2\n0,9,,\n1,,12,10\n2,,,7\n"
    assert outputs.count(outputs[0]) == 2


def test_opcost_decisions_file_and_q_only(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert cli.run(["gen-hs", "--n", "2", "--seed", "7", "--scaled",
                    "--out", str(inst)]) == 0
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps([[7, 0], [0, 4]]))
    assert cli.run(["opcost", "--instance", str(inst), "--decisions",
                    str(dec), "--q-only"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # gamma.x stripped: row 0 loses 35*7, row 1 loses 40*4
    assert lines[1] == "0,%d,%d" % (356 - 245, 426 - 245)
    assert lines[2] == "1,%d,%d" % (462 - 160, 208 - 160)


# K decisions priced in the two scenarios make a K x 2 matrix, whose header
# names the scenarios whatever K is.
@pytest.mark.parametrize("decisions,rows", [
    ([[7, 0]], ["0,356,426"]),
    ([[7, 0], [0, 4], [1, 1]], ["0,356,426", "1,462,208", "2,418,265"]),
    ([], []),
], ids=["one", "three", "none"])
def test_opcost_header_names_every_scenario(tmp_path, capsys, decisions,
                                            rows):
    inst = tmp_path / "inst.json"
    assert cli.run(["gen-hs", "--n", "2", "--seed", "7", "--scaled",
                    "--out", str(inst)]) == 0
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps(decisions))
    assert cli.run(["opcost", "--instance", str(inst), "--decisions",
                    str(dec)]) == 0
    assert capsys.readouterr().out.splitlines() == ["decision,s0,s1"] + rows


def test_bench_emits_json_lines(capsys):
    assert cli.run(["bench", "--n-list", "2", "--seed", "7", "--family",
                    "hs-scaled", "--methods", "kernel,graver,oracle"]) == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines() if line]
    assert len(lines) == 3
    by_method = {rec["method"]: rec for rec in lines}
    assert len({rec["checksum"] for rec in lines}) == 1
    assert by_method["kernel"]["scenario_count"] == 2
    assert by_method["kernel"]["variable_count"] == 8
    assert by_method["kernel"]["counters"]["toric_elements"] > 0
    assert by_method["kernel"]["counters"]["groebner_elements"] > 0
    assert by_method["graver"]["counters"]["graver_elements"] > 0
    for rec in lines:
        assert all(t >= 0 for t in rec["timings_us"].values())
        assert 0 <= rec["total_us_min"] <= rec["total_us_max"]
    for method in ("kernel", "graver"):
        assert by_method[method]["counters"]["walk_steps"] == 6
    oracle_counters = by_method["oracle"]["counters"]
    assert oracle_counters["oracle_solves"] == 4
    assert oracle_counters["walk_steps"] == 0
    # every row carries the shared decisions' phase report: HS's hook
    # leaves W's solver idle, and M's toric set takes four rounds
    phase = by_method["kernel"]["decisions_phase"]
    assert all(rec["decisions_phase"] == phase for rec in lines)
    assert set(phase) == {"M", "W"}
    assert all(set(report) == {"timings_us", "counters"}
               for report in phase.values())
    assert phase["W"]["counters"]["phase_one_bases"] == 0
    assert phase["M"]["counters"]["toric_rounds"] == 4
    assert phase["M"]["counters"]["toric_round_elements"] == 6


def test_bench_rows_count_the_same_work_on_every_run():
    # Counts of work do not drift with the host: two runs of one row give
    # the same build and decisions counters, the completions' pairs queued
    # and S-pair reductions among them
    def counts():
        return [(rec.counters, {solver: report["counters"] for solver, report
                                in rec.decisions_phase.items()})
                for rec in cli.bench("snd-4node-costs-1-9", [3], 1,
                                     ("kernel",))]

    first = counts()
    assert first == counts()
    (_, phase), = first
    assert phase["M"]["buchberger_runs"] == 3
    assert phase["M"]["pairs_queued"] >= phase["M"]["pair_reductions"] > (
        phase["M"]["zero_reductions"]) > 0
    assert phase["W"]["pairs_queued"] > 0


def test_bench_rows_report_medians_and_total_range(monkeypatch):
    # each row runs the decisions and the build BENCH_RUNS times; here a
    # build's timings are fixed per run, so the median and range are known
    builds = []
    real = cli._opcost

    def fixed(method, inst, dec, *args):
        m = real(method, inst, dec, *args)
        builds.append(method)
        m.timings_us.update(dict.fromkeys(m.timings_us, 0),
                            augment_us=10 * len(builds))
        return m

    decisions = iter(range(0, 10 ** 9, 1000))
    monkeypatch.setattr(cli, "_opcost", fixed)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(
        perf_counter_ns=lambda: next(decisions)))
    (rec,) = cli.bench("hs-scaled", (2,), 7, ("kernel",))
    assert builds == ["kernel"] * cli.BENCH_RUNS == ["kernel"] * 5
    # decisions read 1 us per run; augment_us 10, 20, ..., 50
    assert rec.timings_us["decisions_us"] == 1
    assert rec.timings_us["augment_us"] == 30
    assert (rec.total_us_min, rec.total_us_max) == (11, 51)
    assert rec.checksum == cli.matrix_checksum(real(
        "kernel", cli.BENCH_FAMILIES["hs-scaled"](2, 7),
        cli.single_scenario_decisions(cli.BENCH_FAMILIES["hs-scaled"](2, 7))))


def test_bench_label_writes_every_family_to_one_file(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["bench", "--family", "hs-scaled", "--family", "snd",
                    "--n-list", "2", "--methods", "kernel",
                    "--label", "t"]) == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["seed"] == 1
    assert doc["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert doc["cpu_count"] == os.cpu_count()
    assert doc["rows"] == lines
    hs, snd = lines
    assert (hs["family"], hs["variable_count"]) == ("hs-scaled", 8)
    assert (snd["family"], snd["variable_count"]) == ("snd", 6)


def test_bench_builds_every_snd_family_from_its_one_definition():
    # every network design family, the triangle among them, is an
    # instances.SND_FAMILIES entry that bench builds as gen_snd_family does;
    # none has a hook, so its JSON round trip returns an equal instance
    assert gen_snd_family("snd", 10, 1) == gen_snd(
        SndConfig(10, 1, max_demand=2))
    for name in SND_FAMILIES:
        for n, seed in ((10, 1), (30, 1), (7, 3)):
            inst = cli.BENCH_FAMILIES[name](n, seed)
            assert inst == gen_snd_family(name, n, seed), (name, n, seed)
            assert instance_from_json(instance_to_json(inst)) == inst


def test_bench_rejects_an_unknown_family(capsys):
    assert cli.run(["bench", "--family", "hs"]) == 2
    with pytest.raises(KeyError):
        cli.bench("hs", (2,), 1, ("kernel",))


# Standing matrix checksums of each family's instance at seed 1; kernel,
# graver and oracle must all give them.
STANDING_CHECKSUMS = {
    ("hs-scaled", 20): "36ebfb8b8f2274ca",
    ("hs-scaled", 100): "9ed53dcf426c1924",
    ("hs-scaled", 300): "2d2ad3af1a13305e",
    ("hs-unscaled", 10): "b6dfec7b7d0a8fc1",
    ("snd", 30): "51a8ddadf2cbad99",
    ("snd-4node", 30): "9296bdabbb5e30f0",
    ("snd-2commodity", 10): "fadfc7bedbf91bdf",
    ("snd-5node", 10): "84b3764daaa15202",
    ("snd-4node-costs-1-9", 30): "386a1fcc65f477ad",
    ("snd-4node-costs-4-6", 30): "7a09aa506d051332",
}


def test_scaled_hs_at_n300_kernel_equals_graver_with_repeated_cells():
    # at N=300 many cells repeat an earlier row's (cost, b): each is
    # solved once, and the matrix still reads its standing checksum
    inst = cli.BENCH_FAMILIES["hs-scaled"](300, 1)
    dec = single_scenario_decisions(inst)
    mk, mg = cli._opcost("kernel", inst, dec), cli._opcost("graver", inst, dec)
    assert mk.values == mg.values
    assert cli.matrix_checksum(mk) == STANDING_CHECKSUMS[("hs-scaled", 300)]
    assert mk.counters.memo_hits > 0
    assert mk.counters.memo_hits == mg.counters.memo_hits
    assert (mk.counters.augment_calls + mk.counters.memo_hits
            == len(set(dec)) * inst.num_scenarios)


def test_committed_bench_files_record_the_standing_matrices():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no committed BENCH_*.json"
    for path in paths:
        doc = json.loads(path.read_text())
        assert doc["python"] and doc["cpu_count"] >= 1
        sums = {}
        for row in doc["rows"]:
            key = (row["family"], row["scenario_count"])
            sums.setdefault(key, set()).add(row["checksum"])
        assert all(len(found) == 1 for found in sums.values()), \
            (path.name, sums)
        if doc["seed"] == 1:
            for key, (checksum,) in sums.items():
                assert STANDING_CHECKSUMS.get(key, checksum) == checksum, \
                    (path.name, key, checksum)


def test_bench_rejects_an_unknown_method_before_any_work(monkeypatch,
                                                         capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("bench started work before checking methods")

    monkeypatch.setattr(cli, "gen_hs", no_work)
    assert cli.run(["bench", "--n-list", "2", "--methods",
                    "kernel,foo"]) == 2
    err = capsys.readouterr().err
    assert "'foo'" in err
    assert all(m in err for m in ("kernel", "graver", "oracle"))


def test_bench_rejects_a_label_with_a_path_separator_before_any_work(
        tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("bench started work before checking the label")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_sub").mkdir()
    monkeypatch.setattr(cli, "gen_hs", no_work)
    assert cli.run(["bench", "--n-list", "2", "--methods", "kernel",
                    "--label", "sub/x"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "'sub/x'" in err and "path separator" in err
    assert list((tmp_path / "BENCH_sub").iterdir()) == []


def test_oracle_node_cap_hit_exits_3(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    assert cli.run(["gen-hs", "--n", "2", "--seed", "7", "--scaled",
                    "--out", str(inst)]) == 0
    csv = tmp_path / "o.csv"
    monkeypatch.setattr(oracle, "NODE_CAP", 5)
    capsys.readouterr()
    assert cli.run(["opcost", "--instance", str(inst), "--method", "oracle",
                    "--out", str(csv)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert not csv.exists()
    assert err.startswith("limit hit: node cap 5 exceeded")


def test_bad_input_exit_codes(tmp_path, capsys):
    assert cli.run(["toric", "--matrix", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["toric", "--matrix", str(bad)]) == 2
    capsys.readouterr()
    path = write_matrix(tmp_path, [[1, 1, 1]])
    assert cli.run(["groebner", "--matrix", path, "--cost", "1,-2,3"]) == 2
    capsys.readouterr()
    # a cost shorter or longer than the matrix is wide
    assert cli.run(["groebner", "--matrix", path, "--cost", "1,2"]) == 2
    capsys.readouterr()
    assert cli.run(["groebner", "--matrix", path, "--cost", "1,2,3,4"]) == 2
    capsys.readouterr()
    assert cli.run(["no-such-command"]) == 2
    capsys.readouterr()


# Each case is (input kind, payload): a matrix document for `toric`, an
# (entry path, value) edit of a valid instance for `opcost`, or a decisions
# document for `opcost --decisions`. Each once ran on a truncated number or
# died with a traceback.
MALFORMED_INPUTS = {
    "matrix-float-entry": ("matrix", {"rows": [[1.5, 2, 3]]}),
    "matrix-rows-not-a-list": ("matrix", {"rows": 5}),
    "matrix-top-level-list": ("matrix", [[1, 2, 3]]),
    "rhs-float": ("instance", (("scenarios", 0, "rhs", 0), 8.9)),
    "rhs-underscored-string": ("instance",
                               (("scenarios", 0, "rhs", 0), "1_0")),
    "gamma-bool": ("instance", (("gamma",), [True, 40])),
    "scenarios-null": ("instance", (("scenarios",), None)),
    "p-den-zero": ("instance", (("scenarios", 0, "p_den"), 0)),
    "decisions-float": ("decisions", [[7.9, 0], [0, 4]]),
}


@pytest.mark.parametrize("kind,payload", list(MALFORMED_INPUTS.values()),
                         ids=list(MALFORMED_INPUTS))
def test_malformed_json_input_exits_2(tmp_path, capsys, kind, payload):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    if kind == "matrix":
        argv = ["toric", "--matrix", write("m.json", payload)]
    else:
        doc = json.loads(instance_to_json(
            gen_hs(HsConfig(scenario_count=2, seed=7, scaled=True))))
        decisions = []
        if kind == "instance":
            path, value = payload
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            decisions = ["--decisions", write("dec.json", payload)]
        argv = ["opcost", "--instance", write("inst.json", doc)] + decisions
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_checksum_is_order_independent():
    class Grid:
        def __init__(self, values):
            self.values = values

    a = cli.matrix_checksum(Grid(((1, 2), (3, None))))
    b = cli.matrix_checksum(Grid(((1, 2), (3, None))))
    c = cli.matrix_checksum(Grid(((1, 2), (3, 4))))
    assert a == b != c
