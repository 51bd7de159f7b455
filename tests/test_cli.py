"""Command-line interface: exit codes, output formats, determinism."""
import argparse
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pomdp_evals.cli import CSV_COLUMNS, build_parser, main

from conftest import random_pomdp


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_builtin_scenario(capsys):
    code, out, _ = run_cli(capsys, "validate", "--scenario", "uniform-redraw")
    assert code == 0
    doc = json.loads(out)
    assert doc["records"][0]["value"] == 2.0   # state count
    assert "wall_time_s" not in doc


def test_validate_rejects_bad_scenario_file(capsys, tmp_path):
    doc = {
        "states": ["u"], "actions": ["go"], "signals": ["o"],
        "transition": {"u,go": {"u,o": 0.8}},
        "reward": {"u,go": 0.0},
        "initial_belief": [1.0],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 1
    assert "u" in err and "go" in err


@pytest.mark.parametrize("field, value, named", [
    ("transition", {"u,go": {"u,o": "x"}}, "transition row 'u,go' entry 'u,o'"),
    ("transition", {"u,go": 1.0}, "transition row 'u,go'"),
    ("states", 5, "'states'"),
    # a file holding a JSON string names neither another file nor a document
    (None, "other.json", "bad.json does not hold a JSON object"),
])
def test_validate_names_a_malformed_scenario_field(capsys, tmp_path, field, value, named):
    doc = {"states": ["u"], "actions": ["go"], "signals": ["o"],
           "transition": {"u,go": {"u,o": 1.0}}, "reward": {"u,go": 0.0},
           "initial_belief": [1.0], field: value} if field else value
    (tmp_path / "other.json").write_text(json.dumps(doc if field else {}))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_validate_ignores_the_fields_a_scenario_does_not_use(capsys, tmp_path):
    doc = {"states": ["u"], "actions": ["go"], "signals": ["o"],
           "transition": {"u,go": {"u,o": 1.0}}, "reward": {"u,go": 0.0},
           "initial_belief": [1.0], "strategies": 5, "evaluations": 5}
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 0 and json.loads(out)["records"][0]["value"] == 1.0


@pytest.mark.parametrize("option", ["--scenario", "--evaluation"])
def test_a_directory_given_for_a_file_exits_invalid_naming_it(capsys, tmp_path, option):
    argv = {"--scenario": "uniform-redraw", "--strategy": "uniform",
            "--evaluation": '{"kind": "n_stage", "n": 3}', "--horizon": "3", option: str(tmp_path)}
    code, out, err = run_cli(capsys, "evaluate", *[a for kv in argv.items() for a in kv])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {option[2:]} file {tmp_path}") and "Traceback" not in err
    if option == "--scenario":
        code, out, err = run_cli(capsys, "validate", "--scenario", str(tmp_path))
        assert code == 1 and out == "" and f"scenario file {tmp_path}" in err


@pytest.mark.parametrize("option", ["--scenario", "--strategy", "--evaluation"])
def test_a_file_that_is_not_utf8_exits_invalid_naming_it(capsys, tmp_path, option):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe\x00")
    argv = {"--scenario": "uniform-redraw", "--strategy": "uniform",
            "--evaluation": '{"kind": "n_stage", "n": 3}', "--horizon": "3", option: str(path)}
    code, out, err = run_cli(capsys, "evaluate", *[a for kv in argv.items() for a in kv])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {option[2:]} file {path} is not UTF-8")
    assert "Traceback" not in err
    if option == "--scenario":
        code, out, err = run_cli(capsys, "value", "--scenario", str(path), "--horizon", "2")
        assert code == 1 and out == "" and f"scenario file {path} is not UTF-8" in err


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["value", "--scenario", "uniform-redraw", "--frobnicate"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 64


def test_missing_required_inputs_exit_invalid(capsys):
    code, _, err = run_cli(capsys, "value", "--scenario", "uniform-redraw")
    assert code == 1 and "horizon" in err
    code, _, err = run_cli(capsys, "evaluate", "--scenario", "uniform-redraw")
    assert code == 1


def test_budget_overrun_exits_with_budget_code(capsys):
    code, _, err = run_cli(
        capsys, "evaluate", "--scenario", "uniform-redraw",
        "--strategy", "uniform",
        "--evaluation", '{"kind": "n_stage", "n": 30}',
        "--horizon", "30", "--budget", "500")
    assert code == 2
    assert "budget" in err.lower()


def test_value_subcommand_reports_requested_quantities(capsys):
    code, out, _ = run_cli(capsys, "value", "--scenario", "matching-revealed",
                           "--horizon", "8", "--nmax", "16")
    assert code == 0
    recs = {r["parameter"]: r for r in json.loads(out)["records"]}
    assert np.isclose(recs["n=8"]["value"], 1 - 1 / 16)
    assert abs(recs["nmax=16"]["value"] - 1.0) <= recs["nmax=16"]["error_bound"]


def test_evaluate_and_irregularity_exact(capsys):
    args = ["--scenario", "matching-frozen", "--strategy", "hold:0:4:1",
            "--evaluation", '{"kind": "state_block_ex1", "l": 4}',
            "--horizon", "8"]
    code, out, _ = run_cli(capsys, "evaluate", *args)
    assert code == 0
    assert np.isclose(json.loads(out)["records"][0]["value"], 1.0)
    code, out, _ = run_cli(capsys, "irregularity", *args)
    assert code == 0
    assert np.isclose(json.loads(out)["records"][0]["value"], 0.5)


def test_ergodic_subcommand_reports_classes(capsys):
    code, out, _ = run_cli(capsys, "ergodic", "--scenario", "uniform-redraw",
                           "--strategy", "always:wait")
    assert code == 0
    recs = json.loads(out)["records"]
    classes = [r for r in recs if r["parameter"].startswith("class_")]
    assert len(classes) == 1
    assert np.isclose(classes[0]["value"], 0.5)
    assert recs[-1]["parameter"] == "mixing_threshold"


def test_ergodic_requires_finite_memory_strategy(capsys):
    code, _, err = run_cli(capsys, "ergodic", "--scenario", "uniform-redraw",
                           "--strategy", "uniform")
    assert code == 1 and "finite-memory" in err


def test_liminf_subcommand_uses_exact_chain_for_transducers(capsys):
    code, out, _ = run_cli(capsys, "liminf", "--scenario", "blind-switching",
                           "--strategy", "always:T")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["method"] == "ergodic_exact"
    assert np.isclose(rec["value"], 0.5)


def test_invariance_subcommand(capsys, tmp_path):
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps(
        {"atoms": [{"belief": [0.5, 0.5], "mass": 1.0}]}))
    code, out, _ = run_cli(capsys, "invariance", "--scenario", "uniform-redraw",
                           "--measure", str(measure))
    assert code == 0
    assert json.loads(out)["records"][0]["value"] <= 1e-12


def test_non_finite_inputs_exit_invalid(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "irregularity", "--scenario", "uniform-redraw", "--strategy", "always:0",
        "--evaluation", '{"kind":"piecewise_constant","breaks":[2],"levels":[NaN]}',
        "--horizon", "3")
    assert code == 1 and out == "" and "levels entry 0" in err
    measure = tmp_path / "measure.json"
    measure.write_text('{"atoms": [{"belief": [0.5, NaN], "mass": 1.0}]}')
    code, out, err = run_cli(capsys, "invariance", "--scenario", "uniform-redraw",
                             "--measure", str(measure))
    assert code == 1 and out == "" and "non-finite" in err


@pytest.mark.parametrize("spec", ['{"kind": "n_stage"}', '{"kind": "n_stage", "n": NaN}',
                                  '{"kind": "run_block_ex2", "l": "x"}', '{kind',
                                  "[1, 2]", '"x"', "5", "null"])
def test_malformed_evaluation_specs_exit_invalid(capsys, spec):
    code, out, err = run_cli(capsys, "evaluate", "--scenario", "uniform-redraw",
                             "--strategy", "uniform", "--evaluation", spec, "--horizon", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("spec, kind, field", [
    ({"kind": "run_block_ex2", "l": 2.5}, "run_block_ex2", "l"),
    ({"kind": "n_stage", "n": True}, "n_stage", "n"),
    ({"kind": "piecewise_constant", "breaks": [1.9, 3.2], "levels": [0.5, 0.5]},
     "piecewise_constant", "breaks"),
    ({"kind": "limsup_theta", "l": 2, "horizon": "6"}, "limsup_theta", "horizon"),
    ({"kind": "state_block_ex1", "l": 2, "early_state": 0.5}, "state_block_ex1", "early_state"),
])
def test_a_non_integer_evaluation_field_is_rejected_not_truncated(capsys, spec, kind, field):
    code, out, err = run_cli(capsys, "evaluate", "--scenario", "uniform-redraw",
                             "--strategy", "uniform", "--evaluation", json.dumps(spec),
                             "--horizon", "6")
    assert code == 1 and out == ""
    assert err.startswith(f"error: evaluation {kind!r} field {field!r}") and "Traceback" not in err


@pytest.mark.parametrize("spec, field", [
    ({"kind": "run_block_ex2", "l": 3, "target_sate": 1}, "target_sate"),
    ({"kind": "n_stage", "n": 3, "l": 2}, "l"),
    ({"kind": "discounted", "lam": 0.5, "n": 3}, "n"),
    ({"kind": "decreasing", "weights": [0.5, 0.5], "levels": [1]}, "levels"),
    ({"kind": "piecewise_constant", "breaks": [2], "levels": [0.5], "weights": [0.5]},
     "weights"),
    ({"kind": "state_block_ex1", "l": 2, "target_state": 1}, "target_state"),
    ({"kind": "limsup_theta", "l": 2, "horizon": 6, "lambda": 0.5}, "lambda"),
])
def test_an_evaluation_field_its_kind_does_not_read_is_rejected(capsys, spec, field):
    code, out, err = run_cli(capsys, "evaluate", "--scenario", "uniform-redraw",
                             "--strategy", "uniform", "--evaluation", json.dumps(spec),
                             "--horizon", "6")
    assert code == 1 and out == ""
    assert err.startswith(f"error: evaluation {spec['kind']!r} has no field {field!r}")


@pytest.mark.parametrize("spec, what", [
    ('{"kind": "discounted", "lam": "0.5"}', "evaluation 'discounted' field 'lam' is '0.5'"),
    ('{"kind": "discounted", "lam": true}', "evaluation 'discounted' field 'lam' is True"),
    ('{"kind": "piecewise_constant", "breaks": [2], "levels": ["1"]}', "levels entry 0 is '1'"),
    ('{"kind": "discounted", "lambda": Infinity}', "field 'lambda' is inf"),
    ('{"kind": "decreasing", "weights": [0.5, false]}', "weights entry 1 is False"),
    pytest.param('{"kind": "discounted", "lam": 1' + "0" * 400 + '}',
                 "field 'lam' is an integer too large for a float", id="huge-lam"),
    pytest.param('{"kind": "decreasing", "weights": [1' + "0" * 400 + ']}',
                 "weights entry 0 is an integer too large for a float", id="huge-weight"),
    ('{"kind": "discounted", "lam": 0.5, "lambda": 0.5}', "both 'lam' and 'lambda'"),
])
def test_a_float_evaluation_field_is_checked(capsys, spec, what):
    code, out, err = run_cli(capsys, "evaluate", "--scenario", "uniform-redraw",
                             "--strategy", "uniform", "--evaluation", spec, "--horizon", "6")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and what in err and "Traceback" not in err


def test_an_inline_evaluation_longer_than_a_path_name_is_read_as_json(capsys):
    weights = [round(0.5 ** j, 12) for j in range(1, 40)]
    spec = json.dumps({"kind": "decreasing", "weights": weights})
    assert len(spec) > 255
    code, out, err = run_cli(capsys, "evaluate", "--scenario", "uniform-redraw",
                             "--strategy", "uniform", "--evaluation", spec, "--horizon", "6")
    assert code == 0 and err == ""
    assert json.loads(out)["records"][0]["parameter"] == "decreasing"


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ("evaluate", "--scenario", "uniform-redraw", "--strategy",
            "always:wait", "--evaluation", '{"kind": "run_block_ex2", "l": 3}',
            "--horizon", "60", "--samples", "500", "--seed", "11")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    _, timed, _ = run_cli(capsys, *argv, "--timing")
    assert "wall_time_s" in timed


def test_csv_output_has_fixed_columns(capsys):
    code, out, _ = run_cli(capsys, "value", "--scenario", "uniform-redraw",
                           "--horizon", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 2


def test_reproduce_rows_carry_pass_flags(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "ex1", "--l", "4")
    assert code == 0
    recs = json.loads(out)["records"]
    assert len(recs) == 3
    assert all(r["pass"] for r in recs)


def test_strategy_file_round_trips_through_cli(capsys, tmp_path):
    import pomdp_evals as pe

    t = pe.always_strategy(2, 1, 1)
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(pe.transducer_to_dict(t)))
    code, out, _ = run_cli(capsys, "liminf", "--scenario", "blind-switching",
                           "--strategy", str(path))
    assert code == 0
    assert np.isclose(json.loads(out)["records"][0]["value"], 0.5)


@pytest.mark.parametrize("initial", [-1, 3])
def test_transducer_file_with_initial_memory_out_of_range_exits_invalid(capsys, tmp_path,
                                                                        initial):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"type": "transducer", "n_actions": 2, "n_signals": 1,
                                "initial": initial, "act": [0],
                                "update": [[[0], [0]]]}))
    for extra in ([], ["--samples", "10"]):
        code, out, err = run_cli(capsys, "evaluate", "--scenario", "blind-switching",
                                 "--strategy", str(path), "--evaluation",
                                 '{"kind": "n_stage", "n": 3}', "--horizon", "3", *extra)
        assert code == 1 and out == ""
        assert "initial memory" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("initial", 1.5), ("initial", "x"), ("act", [0.7, 1.2]), ("act", [0, True]),
    ("update", [[[0], [1]], [[1], [0.0]]]), ("n_actions", 2.0), ("n_signals", "1"),
])
def test_transducer_file_with_a_non_integer_entry_exits_invalid(capsys, tmp_path, field,
                                                                value):
    doc = {"type": "transducer", "n_actions": 2, "n_signals": 1, "initial": 0,
           "act": [0, 1], "update": [[[0], [1]], [[1], [0]]]}
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({**doc, field: value}))
    for command in (["evaluate", "--evaluation", '{"kind": "n_stage", "n": 3}',
                     "--horizon", "3", "--samples", "10"], ["liminf"]):
        code, out, err = run_cli(capsys, command[0], "--scenario", "blind-switching",
                                 "--strategy", str(path), *command[1:])
        assert code == 1 and out == ""
        assert f"'{field}'" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("n_actions", 3), ("n_signals", 1)])
@pytest.mark.parametrize("command", [
    ["evaluate", "--evaluation", '{"kind": "n_stage", "n": 3}', "--horizon", "3"],
    ["ergodic"], ["liminf"], ["limsup", "--horizon", "20", "--samples", "2"]])
def test_transducer_file_sized_for_another_scenario_exits_invalid(capsys, tmp_path, command,
                                                                  field, value):
    # matching-revealed has 2 actions and 2 signals
    doc = {"type": "transducer", "n_actions": 2, "n_signals": 2, "initial": 0, "act": [0]}
    doc[field] = value
    doc["update"] = np.zeros((1, doc["n_actions"], doc["n_signals"]), dtype=int).tolist()
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command[0], "--scenario", "matching-revealed",
                             "--strategy", str(path), *command[1:])
    assert code == 1 and out == ""
    assert f"'{field}' is {value}, the scenario has 2" in err and "Traceback" not in err


def test_long_discounted_horizon_matches_the_closed_form(capsys):
    # lam = 0.01 at tol 1e-6 needs 1375 stages; revealed matching is worth
    # 1/2 at stage 1 and 1 afterwards, so v_lam = 1 - lam/2
    code, out, err = run_cli(capsys, "value", "--scenario", "matching-revealed",
                             "--discount", "0.01")
    assert code == 0, err
    rec = json.loads(out)["records"][0]
    assert abs(rec["value"] - 0.995) <= rec["error_bound"] + 1e-12


def test_belief_budget_overrun_exits_with_budget_code(capsys, tmp_path, rng):
    # a dense instance: depths 0..h-1 hold sum_d (I*S)^d distinct beliefs
    p = random_pomdp(rng, k=3, n_i=2, n_s=2)
    doc = {"states": p.states, "actions": p.actions, "signals": p.signals,
           "transition": {f"{k},{i}": {f"{l},{s}": float(p.transition[a, b, c, d])
                                       for c, l in enumerate(p.states)
                                       for d, s in enumerate(p.signals)}
                          for a, k in enumerate(p.states) for b, i in enumerate(p.actions)},
           "reward": {f"{k},{i}": float(p.reward[a, b])
                      for a, k in enumerate(p.states) for b, i in enumerate(p.actions)},
           "initial_belief": [1 / 3] * 3}
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    h, n = 5, sum(4 ** d for d in range(5))
    code, _, err = run_cli(capsys, "value", "--scenario", str(path), "--horizon", str(h),
                           "--budget", str(n))
    assert code == 0, err
    code, out, err = run_cli(capsys, "value", "--scenario", str(path), "--horizon", str(h),
                             "--budget", str(n - 1))
    assert code == 2 and out == ""
    assert "budget" in err and "Traceback" not in err


@pytest.mark.parametrize("horizon, samples, seed", [
    (100, 50, 21), (2000, 1000, 2127584515),
])
def test_known_payoffs_flag_checks_the_belief_limsup(capsys, horizon, samples, seed):
    # on these draws the state limsup lies more than 3 SE from the belief
    # limsup; nothing claims the two agree, so the flag does not compare them
    code, out, _ = run_cli(capsys, "reproduce", "known-payoffs", "--horizon", str(horizon),
                           "--samples", str(samples), "--seed", str(seed))
    assert code == 0
    state, belief = json.loads(out)["records"]
    assert belief["gap"] > state["error_bound"]
    assert belief["pass"] is True
    assert abs(belief["value"] - (horizon - 1) / (2 * horizon)) <= 1e-9


@pytest.mark.parametrize("argv", [
    ["limsup", "--scenario", "blind-switching", "--strategy", "always:B",
     "--horizon", "100", "--samples", "0"],
    ["liminf", "--scenario", "blind-switching", "--strategy", "doubling",
     "--horizon", "-5", "--samples", "3"],
    ["evaluate", "--scenario", "uniform-redraw", "--strategy", "always:0",
     "--evaluation", '{"kind": "n_stage", "n": 3}', "--horizon", "0"],
    ["evaluate", "--scenario", "uniform-redraw", "--strategy", "always:0",
     "--evaluation", '{"kind": "n_stage", "n": 3}', "--horizon", "5", "--samples", "0"],
    ["irregularity", "--scenario", "uniform-redraw", "--strategy", "always:0",
     "--evaluation", '{"kind": "n_stage", "n": 3}', "--horizon", "0", "--samples", "5"],
    ["value", "--scenario", "uniform-redraw", "--horizon", "0"],
    ["value", "--scenario", "uniform-redraw", "--nmax", "0"],
    ["reproduce", "ex1", "--l", "0"],
    ["reproduce", "ex2", "--l", "-2"],
    ["reproduce", "known-payoffs", "--horizon", "100", "--samples", "0"],
])
def test_explicit_zero_or_negative_sizes_exit_invalid(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1, out
    assert err.startswith("error: ") and "Traceback" not in err


def test_negative_seed_exits_invalid(capsys):
    code, _, err = run_cli(capsys, "evaluate", "--scenario", "uniform-redraw",
                           "--strategy", "always:0",
                           "--evaluation", '{"kind":"discounted","lam":0.5}',
                           "--horizon", "5", "--samples", "5", "--seed", "-1")
    assert code == 1 and "seed" in err


GOOD_MEASURE = '{"atoms": [{"belief": [0.5, 0.5], "mass": 1.0}]}'
GOOD_STATIONARY = '{"support": [[0.5, 0.5]], "rows": [[0.5, 0.5]]}'


@pytest.mark.parametrize("measure, strategy, expect", [
    ("{atoms", None, "not valid JSON"),
    (None, None, "No such file"),
    ("{}", None, "'atoms'"),
    ('{"atoms": [{"mass": 1.0}]}', None, "'belief'"),
    ('{"atoms": [{"belief": [0.5, 0.5]}]}', None, "'mass'"),
    ('{"atoms": [{"belief": [1, 0], "mass": 0.5}, {"belief": [1, 0, 0], "mass": 0.5}]}',
     None, "different lengths"),
    ('{"atoms": [{"belief": [2, -1], "mass": 1.0}]}', None, "[0, 1]"),
    ('{"atoms": [{"belief": [0.2, 0.3, 0.5], "mass": 1.0}]}', None, "2 entries"),
    (GOOD_MEASURE, "{support", "not valid JSON"),
    (GOOD_MEASURE, "doubling", "No such file"),
    (GOOD_MEASURE, '{"rows": [[0.5, 0.5]]}', "'support'"),
    (GOOD_MEASURE, '{"support": [[0.5, 0.5]]}', "'rows'"),
    (GOOD_MEASURE, '{"support": [[0.5, 0.5, 0]], "rows": [[0.5, 0.5]]}', "2 entries"),
    (GOOD_MEASURE, '{"support": [[0.5, 0.5]], "rows": [[NaN, 1.0]]}', "action row 0"),
    (GOOD_MEASURE, '{"support": [], "rows": []}', "at least one support belief"),
])
def test_malformed_invariance_inputs_exit_invalid(capsys, tmp_path, measure, strategy, expect):
    # each input is a file in tmp_path except the names of missing ones
    def path(name, text):
        if text is None or text == "doubling":
            return text or str(tmp_path / "missing.json")
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    argv = ["invariance", "--scenario", "uniform-redraw", "--measure", path("m.json", measure)]
    if strategy is not None:
        argv += ["--strategy", path("s.json", strategy)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and expect in err and "Traceback" not in err


def test_invariance_reads_a_stationary_strategy_file(capsys, tmp_path):
    (tmp_path / "m.json").write_text(GOOD_MEASURE)
    (tmp_path / "s.json").write_text(GOOD_STATIONARY)
    code, out, _ = run_cli(capsys, "invariance", "--scenario", "uniform-redraw",
                           "--measure", str(tmp_path / "m.json"),
                           "--strategy", str(tmp_path / "s.json"))
    assert code == 0 and json.loads(out)["records"][0]["value"] <= 1e-12


@pytest.mark.parametrize("label, field", [("always:zz", "'zz'"), ("hold:0:x:1", "'x'"),
                                          ("hold:q:2:1", "'q'"), ("hold:0:2:", "''"),
                                          ("hold:0:2:7", "'7'"), ("hold:0:-5:1", "'-5'"),
                                          ("hold:7:0:1", "'7'")])
def test_malformed_builtin_strategy_labels_exit_invalid(capsys, label, field):
    code, out, err = run_cli(capsys, "evaluate", "--scenario", "uniform-redraw",
                             "--strategy", label, "--evaluation", '{"kind": "n_stage", "n": 2}',
                             "--horizon", "2")
    assert code == 1 and out == ""
    assert err.startswith(f"error: strategy {label!r}: {field}") and "Traceback" not in err


@pytest.mark.parametrize("command", ["evaluate", "irregularity"])
@pytest.mark.parametrize("spec", [{"kind": "run_block_ex2", "l": 3, "target_state": 7},
                                  {"kind": "run_block_ex2", "l": 3, "target_state": -1},
                                  {"kind": "state_block_ex1", "l": 2, "early_state": 9},
                                  {"kind": "state_block_ex1", "l": 2, "early_state": 2}])
def test_evaluation_state_outside_the_scenario_exits_invalid(capsys, command, spec):
    key = "target_state" if "target_state" in spec else "early_state"
    for extra in ([], ["--samples", "10"]):
        code, out, err = run_cli(capsys, command, "--scenario", "uniform-redraw",
                                 "--strategy", "uniform", "--evaluation", json.dumps(spec),
                                 "--horizon", "6", *extra)
        assert code == 1 and out == ""
        assert f"{key} {spec[key]} is not a state index in [0, 2)" in err


# a command line each command accepts, and the options it does not read, each
# with a value it would accept if it read it
_ACCEPTED = {
    "validate": ["validate", "--scenario", "uniform-redraw"],
    "value": ["value", "--scenario", "uniform-redraw", "--horizon", "3"],
    "ergodic": ["ergodic", "--scenario", "uniform-redraw", "--strategy", "always:wait"],
    "invariance": ["invariance", "--scenario", "uniform-redraw", "--measure", "MEASURE"],
    "limsup": ["limsup", "--scenario", "blind-switching", "--strategy", "always:B",
               "--horizon", "50", "--samples", "2"],
    "liminf": ["liminf", "--scenario", "blind-switching", "--strategy", "always:T"],
    "reproduce ex1": ["reproduce", "ex1", "--l", "2"],
    "reproduce ex2": ["reproduce", "ex2", "--l", "2", "--samples", "20"],
    "reproduce blind-limsup": ["reproduce", "blind-limsup", "--horizon", "100"],
    "reproduce known-payoffs": ["reproduce", "known-payoffs", "--horizon", "50",
                                "--samples", "5"],
}
_NOT_IN_ANY_EXAMPLE = ["--scenario", "--strategy", "--evaluation", "--budget"]
_UNREAD = {
    "validate": ["--strategy", "--evaluation", "--horizon", "--samples", "--budget"],
    "value": ["--strategy", "--evaluation", "--samples"],
    "ergodic": ["--evaluation", "--horizon", "--samples", "--budget"],
    "invariance": ["--evaluation", "--horizon", "--samples", "--budget"],
    "limsup": ["--evaluation", "--budget"],
    "liminf": ["--evaluation", "--budget"],
    "reproduce ex1": _NOT_IN_ANY_EXAMPLE + ["--samples", "--horizon"],
    "reproduce ex2": _NOT_IN_ANY_EXAMPLE,
    "reproduce blind-limsup": _NOT_IN_ANY_EXAMPLE + ["--l", "--samples"],
    "reproduce known-payoffs": _NOT_IN_ANY_EXAMPLE + ["--l"],
}
_VALUES = {"--scenario": "uniform-redraw", "--strategy": "uniform",
           "--evaluation": '{"kind": "n_stage", "n": 2}', "--horizon": "3",
           "--samples": "5", "--budget": "1000", "--l": "2"}


@pytest.mark.parametrize("command, option",
                         [(c, o) for c, opts in _UNREAD.items() for o in opts])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, tmp_path, command,
                                                             option):
    measure = tmp_path / "measure.json"
    measure.write_text(GOOD_MEASURE)
    argv = [str(measure) if a == "MEASURE" else a for a in _ACCEPTED[command]]
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, _VALUES[option]])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith(f"pomdp-evals {command}: error: unrecognized arguments: {option}")
    assert f"usage: pomdp-evals {command} [-h]" in err


@pytest.mark.parametrize("argv, fix", [
    (["reproduce", "--seed", "3", "ex1"], "pomdp-evals reproduce ex1 --seed 3"),
    (["reproduce", "--l", "9", "--format", "csv", "ex2"],
     "pomdp-evals reproduce ex2 --l 9 --format csv"),
    (["--format", "csv", "validate", "--scenario", "uniform-redraw"],
     "pomdp-evals validate --format csv"),
])
def test_an_option_before_the_subcommand_name_is_a_usage_error(capsys, argv, fix):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    what = "example" if argv[0] == "reproduce" else "command"
    assert f"error: options follow the {what} name, for example '{fix}'" in err
    assert "invalid choice" not in err


def test_importing_the_cli_loads_neither_scipy_nor_networkx():
    # nor does computing a transport distance
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, numpy as np, pomdp_evals.cli, pomdp_evals as pe; "
             "mu = pe.SupportedMeasure.from_pairs([(np.array([0.25, 0.75]), 0.4), "
             "(np.array([1.0, 0.0]), 0.6)]); "
             "assert pe.kr_distance(mu, pe.SupportedMeasure.dirac([0.0, 1.0])) > 0; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))")
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def _readme_commands() -> list:
    """The argument lists of the README's Command line block, continuation
    lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("pomdp-evals ")]


def test_readme_shows_every_command_and_example():
    shown = {" ".join(argv[:2]) if argv[0] == "reproduce" else argv[0]
             for argv in _readme_commands()}
    assert shown == set(_ACCEPTED) | {"evaluate", "irregularity"}


@pytest.mark.parametrize("argv", _readme_commands())
def test_readme_commands_parse(argv):
    build_parser().parse_args(argv)


def _readme_options() -> dict:
    """{command: {option: (choices, default)}} from the README's Command line
    options table.  A cell lists `--name` or `--name a\\|b` (its choices)
    and the default printed after it: a number or a `word`; "—", a formula
    or nothing means the parser holds no default (none, or one the command
    computes)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) != 2 or not cells[0].startswith("`"):
            continue
        options = {}
        for item in re.split(r",\s*(?=`--)", cells[1]):
            name, choices, rest = re.fullmatch(r"`(--[\w-]+)\s*([^`]*)`\s*(.*)", item).groups()
            printed = re.match(r"`([^`]*)`|\d+(?=\s|$)", rest)
            default = None if printed is None else printed[1] or int(printed[0])
            options[name] = (choices.replace("\\|", "|") or None, default)
        for command in re.findall(r"`([^`]+)`", cells[0]):
            table[command] = options
    return table


def _subcommand_parsers() -> dict:
    """{command: subparser} of `build_parser()`, reproduce examples as
    "reproduce <example>"."""
    def children(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    out = {}
    for name, sp in children(build_parser()).items():
        if name == "reproduce":
            out.update({f"reproduce {ex}": esp for ex, esp in children(sp).items()})
        else:
            out[name] = sp
    return out


def test_readme_options_table_matches_the_parser():
    # every command's options, choices and printed defaults, besides --seed,
    # --format and --timing, which every command takes with the defaults the
    # README gives above the table
    table, parsers = _readme_options(), _subcommand_parsers()
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "`--seed` (default 0;" in text and "`--format json|csv` (default `json`)" in text
    assert set(table) == set(parsers)
    for command, sp in parsers.items():
        actions = {a.option_strings[0]: a for a in sp._actions if a.option_strings}
        common = {"-h": None, "--seed": (None, 0), "--format": ("json|csv", "json"),
                  "--timing": (None, False)}
        for name, want in common.items():
            a = actions.pop(name)
            assert want is None or ("|".join(a.choices or ()) or None, a.default) == want
        got = {name: ("|".join(a.choices or ()) or None, a.default)
               for name, a in actions.items()}
        assert got == table[command], command
