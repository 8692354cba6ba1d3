import json
import os

import pytest

from liftlab import cli
from liftlab.cli import EXIT_ASSERT, EXIT_CONFIG, EXIT_OK, EXIT_UNKNOWN, main
from liftlab.coeffring import CoeffRingError


def run(args, tmp_path, name="r.json"):
    out = os.path.join(tmp_path, name)
    code = main(args + ["--out", out])
    if not os.path.exists(out):
        return code, None
    with open(out) as fh:
        return code, json.load(fh)


def test_matrix_identity_subcommand(tmp_path):
    code, rep = run(["check", "matrix-identity", "--p", "5", "--m", "3",
                     "--samples", "50"], str(tmp_path))
    assert code == EXIT_OK
    assert rep["failures"] == 0
    assert rep["schema_version"] == 1


def test_examples_f4(tmp_path):
    code, rep = run(["examples", "f4", "--p", "11"], str(tmp_path))
    assert code == EXIT_OK
    names = [a["name"] for a in rep["assertions"]]
    assert "A6 multiplicities (1,3,2)" in names


def test_unknown_subcommand():
    assert main(["nonsense"]) == EXIT_UNKNOWN


def test_exit_code_on_failure(tmp_path):
    # a composite p is refused as an invalid configuration, with no report
    code, rep = run(["selmer", "lift", "--types", "A1", "--p", "4"],
                    str(tmp_path))
    assert code == EXIT_CONFIG
    assert rep is None


@pytest.mark.parametrize("args", [
    ["check", "stability", "--types", "A1", "--p", "9", "--m", "3"],
    ["spaces", "--types", "A2", "--p", "2"],
    ["spaces", "--types", "A2", "--p", "3"],
    ["check", "matrix-identity", "--p", "5", "--m", "2"],
    ["check", "stability", "--types", "A1", "--p", "5", "--m", "0"],
])
def test_parameter_refusals_are_config_errors(tmp_path, capsys, args):
    code, rep = run(args, str(tmp_path))
    assert code == EXIT_CONFIG and rep is None
    assert "config error:" in capsys.readouterr().err


def test_failed_assertion_exits_4(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "matrix_identity_check", lambda *a: 1)
    code, rep = run(["check", "matrix-identity", "--p", "5", "--m", "3",
                     "--samples", "5"], str(tmp_path))
    assert code == EXIT_ASSERT
    assert rep["failures"] == 1


def test_computation_error_exits_4(tmp_path, monkeypatch):
    # an error raised during the computation is a failed run, not a
    # configuration problem
    def fail(*args):
        raise CoeffRingError("division by non-unit")
    monkeypatch.setattr(cli, "matrix_identity_check", fail)
    code, rep = run(["check", "matrix-identity", "--p", "5", "--m", "3"],
                    str(tmp_path))
    assert code == EXIT_ASSERT
    assert "division by non-unit" in rep["assertions"][-1]["detail"]["error"]


def test_report_determinism(tmp_path):
    a1 = os.path.join(tmp_path, "a1.json")
    a2 = os.path.join(tmp_path, "a2.json")
    main(["selmer", "kill", "--types", "A1", "--p", "7", "--rank", "1",
          "--seed", "5", "--out", a1])
    main(["selmer", "kill", "--types", "A1", "--p", "7", "--rank", "1",
          "--seed", "5", "--out", a2])
    with open(a1) as f1, open(a2) as f2:
        assert f1.read() == f2.read()


def test_config_file(tmp_path):
    cfg = os.path.join(tmp_path, "cfg.txt")
    with open(cfg, "w") as fh:
        fh.write("types = A1\np = 7\n")
    code, rep = run(["selmer", "balance", "--config", cfg], str(tmp_path))
    assert code == EXIT_OK
    assert rep["config"]["p"] == [7]


def test_exit_zero_iff_no_failures(tmp_path):
    code, rep = run(["levi-bound", "--types", "A1", "--samples", "5"],
                    str(tmp_path))
    assert (code == EXIT_OK) == (rep["failures"] == 0)
