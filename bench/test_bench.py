"""Self-tests of the benchmark's inputs, oracle and statistics.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from pathlib import Path

import pytest

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
DATA = wl.PortalData.load(ROOT / "src" / "hl7portal" / "data")


def test_oracle_reproduces_the_readme_golden_session():
    demo = (ROOT / "fixtures" / "demo-patients.txt").read_bytes().decode("latin-1")
    model = wl.SessionModel(DATA, wl.parse_fixture_text(demo))
    replies = [
        model.login(),
        model.use_patient("1750916334996", "ro"),
        model.getter("NAME"),
        model.getter("CNP"),
        model.getter("DRIVERS_LICENSE"),
        model.getter("LAST_ERROR"),
        model.logout(),
    ]
    assert replies == ["OK", "OK", "C. Marius", "1750916334996", "NOK", "Nu exista date.", "OK"]


def test_oracle_failure_answers():
    inputs = wl.Inputs.generate(3, patients=5, absent=1)
    model = wl.SessionModel(DATA, inputs.fixtures)
    assert model.getter("LAST_ERROR") == "None"
    assert model.use_patient(inputs.absent[0], "ro") == "NOK"
    assert model.getter("LAST_ERROR") == "Nu exista date."
    assert model.use_patient(next(iter(inputs.fixtures)), "fr") == "NOK"
    assert model.getter("LAST_ERROR") == "HL7 files not found! Please choose another language!"
    assert model.getter("NAME") == "NOK"


def test_generated_answers_agree_with_the_oracle():
    inputs = wl.Inputs.generate(5)
    for cnp, pid in inputs.fixtures.items():
        for index in range(1, 31):
            assert wl.pid_field(pid, index) == inputs.answers[cnp].get(index), (pid, index)


def test_generated_fixtures_load_in_the_mock():
    from hl7portal.mockserver import parse_fixtures

    inputs = wl.Inputs.generate(5)
    loaded = parse_fixtures(inputs.fixture_bytes().decode("latin-1"))
    assert {f.cnp: f.pid_line for f in loaded} == inputs.fixtures


def _first_sessions(seed: int, workload: str, count: int = 50):
    inputs = wl.Inputs.generate(seed)
    streams = wl.Streams(inputs, DATA, ("127.0.0.1", 2575))
    sessions = streams.sessions(workload, seed, conn=0)
    return inputs.fixture_bytes(), [list(next(sessions)) for _ in range(count)]


@pytest.mark.parametrize("workload", ["getters", "lookups", "churn"])
def test_same_seed_same_inputs(workload):
    assert _first_sessions(9, workload) == _first_sessions(9, workload)
    assert _first_sessions(9, workload) != _first_sessions(10, workload)


def test_percentile_needs_ten_samples_beyond_it():
    assert wl.percentile(list(range(999)), 0.99) is None
    assert wl.percentile(list(range(1000)), 0.99) == 989
    assert wl.percentile(list(range(19)), 0.5) is None
    assert wl.percentile(list(range(20)), 0.5) == 9
    assert wl.percentile([], 0.5) is None
