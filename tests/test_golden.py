"""Golden outputs: every case in `tests/golden/cli.jsonl` still exits with its
code and prints its stdout byte for byte, and every behaviour-strategy case
in `tests/golden/behavior.jsonl` still plays the same arrays and asks its rule
about the same histories in the same order.  Regenerate the files with
`tests/golden/regenerate.py` only for a deliberate output change."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _regenerate_module():
    spec = importlib.util.spec_from_file_location("golden_regenerate",
                                                  GOLDEN_DIR / "regenerate.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


GOLDEN = _regenerate_module()
_LINES = GOLDEN.GOLDEN.read_text().splitlines()
HEADER = json.loads(_LINES[0])
CASES = [json.loads(line) for line in _LINES[1:]]
_BEHAVIOR_LINES = GOLDEN.BEHAVIOR.read_text().splitlines()
BEHAVIOR_HEADER = json.loads(_BEHAVIOR_LINES[0])
BEHAVIOR_CASES = [json.loads(line) for line in _BEHAVIOR_LINES[1:]]


def test_the_golden_file_covers_every_case_of_its_script():
    assert [c["argv"] for c in CASES] == GOLDEN.CASES
    assert {c["exit"] for c in CASES} == {0, 1, 2, 64}


@pytest.mark.parametrize("case", CASES, ids=[f"{n:02d}-{c['argv'][0]}-{c['argv'][1]}"
                                             for n, c in enumerate(CASES)])
def test_cli_output_matches_the_golden_file(case):
    if case["monte_carlo"] and np.__version__ != HEADER["numpy"]:
        pytest.skip(f"Monte Carlo output recorded under numpy {HEADER['numpy']}, "
                    f"running {np.__version__}")
    problems = GOLDEN.cli_changes(case, GOLDEN.record(case["argv"]))
    assert not problems, " ".join(case["argv"]) + "\n" + "\n".join(problems)


def test_the_behavior_record_covers_every_case_of_its_script():
    assert [tuple(c["case"]) for c in BEHAVIOR_CASES] == GOLDEN.BEHAVIOR_CASES


@pytest.mark.parametrize("case", BEHAVIOR_CASES, ids=["-".join(map(str, c["case"]))
                                                      for c in BEHAVIOR_CASES])
def test_behavior_strategies_match_the_golden_record(case):
    scenario, seed, rule, kernel = case["case"]
    if kernel == "simulate" and np.__version__ != BEHAVIOR_HEADER["numpy"]:
        pytest.skip(f"sampled plays recorded under numpy {BEHAVIOR_HEADER['numpy']}, "
                    f"running {np.__version__}")
    got = GOLDEN.behavior_record(scenario, seed, rule, kernel)
    assert got["digests"] == case["digests"]
    assert got["asked"] == case["asked"]
