import hashlib
import itertools
import json
import os
import shutil

import pytest

from liftlab import cli
from liftlab.cli import (EXIT_ASSERT, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK,
                         EXIT_UNKNOWN, main)
from liftlab.coeffring import CoeffRingError
from liftlab.oddness import default_data_dir


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
    # a group with no leaf, and a flag no command takes
    assert main(["check"]) == EXIT_UNKNOWN
    assert main(["selmer"]) == EXIT_UNKNOWN
    assert main(["selmer", "balance", "--model", "foo"]) == EXIT_UNKNOWN
    # a command liftlab no longer has
    assert main(["cohomology", "--p", "5"]) == EXIT_UNKNOWN


def test_exit_code_on_failure(tmp_path, capsys):
    # a p that is not prime is refused as an invalid configuration, with
    # no report
    for args in (["selmer", "lift", "--types", "A1", "--p", "4"],
                 ["oddness", "--types", "A1", "--p", "4"],
                 ["oddness", "--types", "A1", "--p", "1"]):
        code, rep = run(args, str(tmp_path))
        assert code == EXIT_CONFIG
        assert rep is None
        assert "p must be prime" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["check", "stability", "--types", "A1", "--p", "9", "--m", "3"],
    ["spaces", "--types", "A2", "--p", "2"],
    ["spaces", "--types", "A2", "--p", "3"],
    ["check", "matrix-identity", "--p", "5", "--m", "2"],
    ["check", "stability", "--types", "A1", "--p", "5", "--m", "0"],
    # past the exact int64 range, refused before anything runs
    ["check", "matrix-identity", "--p", "101", "--m", "5"],
    ["selmer", "lift", "--types", "A1", "--p", "5", "--max-precision", "14"],
    ["selmer", "lift", "--types", "A1", "--p", "13", "--max-precision", "10"],
    # the lifting driver supports A1 only
    ["selmer", "lift", "--types", "A2", "--p", "5"],
    # an empty list flag
    ["check", "stability", "--types"],
    ["check", "matrix-identity", "--m"],
    ["selmer", "balance", "--p"],
    # inputs that would pass without checking anything
    ["spaces", "--types", "A1", "--f", "0"],
    ["selmer", "lift", "--types", "A1", "--max-precision", "1"],
    # a second value for a flag the command reads once
    ["decompose", "--types", "A1", "--p", "13", "7"],
    ["selmer", "balance", "--types", "A1", "A2"],
    # a value below its flag's least
    ["check", "matrix-identity", "--samples", "0"],
    ["check", "matrix-identity", "--samples", "-3"],
    ["check", "matrix-identity", "--n", "0"],
    ["levi-bound", "--types", "A1", "--samples", "0"],
    ["selmer", "kill", "--rank", "-1"],
    ["check", "matrix-identity", "--seed", "-1"],
    # a p that is not prime, where no ring over p is built to refuse it
    ["oddness", "--types", "A1", "--p", "4"],
    ["oddness", "--types", "A1", "--p", "1"],
    ["examples", "f4", "--p", "4"],
    ["examples", "f4", "--p", "9"],
    ["check", "matrix-identity", "--p", "4"],
    ["selmer", "doubling", "--p", "9"],
    # a Cartan type outside the supported families and ranks
    ["spaces", "--types", "X2"],
    ["spaces", "--types", "A0"],
    ["spaces", "--types", "G3"],
    ["spaces", "--types", "A9"],
    ["levi-bound", "--types", "E6"],
    # a precondition on p or m of the computation asked for
    ["decompose", "--types", "A1", "--p", "3"],
    ["examples", "sl2", "--p", "3"],
    ["decompose", "--types", "B2", "--p", "7"],
    ["examples", "ntorus", "--types", "A2", "--p", "3"],
    ["oddness", "--types", "A2", "--p", "7"],
    # p at or below the Coxeter number of the principal sl2
    ["oddness", "--types", "G2", "--p", "5"],
    ["oddness", "--types", "B3", "--p", "5"],
    ["oddness", "--types", "C3", "--p", "5"],
    ["check", "stability", "--types", "A1", "--p", "5", "--m", "2"],
    ["check", "stability", "--types", "A1", "--p", "5", "--m", "1"],
    # a p past the int64 range: F_p products of the local coordinates,
    # and the ring itself
    ["selmer", "balance", "--types", "A1", "--p", "2147483647"],
    ["selmer", "kill", "--types", "A1", "--p", "2147483647"],
    ["spaces", "--types", "A1", "--p", "2147483647"],
    # a full scan of F_p^rank past chevgroup.SCAN_MAX_CELLS, refused
    # before its array is built (frobenius_b_search)
    ["check", "stability", "--types", "E8", "--p", "31"],
    ["check", "stability", "--types", "E7", "--p", "13"],
    # a ring in the exact int64 range, with a Lie algebra over it past it
    ["check", "stability", "--types", "A2", "--p", "5", "--m", "13"],
])
def test_parameter_refusals_are_config_errors(tmp_path, capsys, args):
    code, rep = run(args, str(tmp_path))
    assert code == EXIT_CONFIG and rep is None
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_selmer_doubling_solves_every_seed(tmp_path, p, seed):
    code, rep = run(["selmer", "doubling", "--p", str(p), "--seed",
                     str(seed)], str(tmp_path))
    assert code == EXIT_OK and rep["failures"] == 0


def _edited_tables(tmp_path, edit):
    """A copy of the shipped tables with the lines of a6.tbl edited."""
    src = default_data_dir()
    for name in os.listdir(src):
        shutil.copy(os.path.join(src, name), str(tmp_path))
    path = os.path.join(str(tmp_path), "a6.tbl")
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    return str(tmp_path)


def test_truncated_table_is_a_config_error(tmp_path, capsys):
    # a --tables file cut short is invalid input, not a failed check
    tables = _edited_tables(tmp_path, lambda lines: lines[:-2])
    code, rep = run(["examples", "f4", "--p", "11", "--tables", tables],
                    str(tmp_path))
    assert code == EXIT_CONFIG and rep is None
    assert "config error:" in capsys.readouterr().err


def test_non_rational_degree_is_a_config_error(tmp_path, capsys):
    # a character whose value at the identity class is b5 has no degree
    tables = _edited_tables(tmp_path, lambda lines: [
        ("b5" + ln[1:]) if ln.startswith("5 1 2 -1") else ln
        for ln in lines])
    code, rep = run(["examples", "f4", "--p", "11", "--tables", tables],
                    str(tmp_path))
    assert code == EXIT_CONFIG and rep is None
    assert "degree 'b5' of a character is not rational" in \
        capsys.readouterr().err


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
    assert "internal_error" not in rep["detail"]


def test_internal_error_exits_5(tmp_path, monkeypatch):
    # an exception that is not a liftlab error is a crash, reported as
    # such and never as a falsified check
    def crash(*args):
        raise IndexError("index 3 is out of bounds")
    monkeypatch.setattr(cli, "matrix_identity_check", crash)
    code, rep = run(["check", "matrix-identity", "--p", "5", "--m", "3"],
                    str(tmp_path))
    assert code == EXIT_INTERNAL
    assert not rep["assertions"][-1]["passed"]
    assert rep["detail"]["internal_error"] == repr(
        IndexError("index 3 is out of bounds"))


def test_report_determinism(tmp_path):
    a1 = os.path.join(tmp_path, "a1.json")
    a2 = os.path.join(tmp_path, "a2.json")
    main(["selmer", "kill", "--types", "A1", "--p", "7", "--rank", "1",
          "--seed", "5", "--out", a1])
    main(["selmer", "kill", "--types", "A1", "--p", "7", "--rank", "1",
          "--seed", "5", "--out", a2])
    with open(a1) as f1, open(a2) as f2:
        assert f1.read() == f2.read()


def test_config_file(tmp_path, capsys):
    # flags come from the command line only: --config, which once read
    # a key = value file, is an unknown argument, and nothing runs
    cfg = os.path.join(tmp_path, "cfg.txt")
    with open(cfg, "w") as fh:
        fh.write("types = A1\np = 7\n")
    code, rep = run(["selmer", "balance", "--config", cfg], str(tmp_path))
    assert code == EXIT_UNKNOWN and rep is None
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_defaults_echo_what_runs(tmp_path):
    # selmer reads --types once, so its default is the first of the
    # shared default; examples has a --types default of its own
    code, rep = run(["selmer", "balance"], str(tmp_path))
    assert code == EXIT_OK and rep["config"]["types"] == ["A1"]
    code, rep = run(["examples", "sl2", "--p", "13"], str(tmp_path))
    assert code == EXIT_OK and rep["config"]["types"] == ["A1", "G2"]


def test_exit_zero_iff_no_failures(tmp_path):
    code, rep = run(["levi-bound", "--types", "A1", "--samples", "5"],
                    str(tmp_path))
    assert (code == EXIT_OK) == (rep["failures"] == 0)


# SHA-256 of `selmer kill --p 7 --rank 2 --seed 3` reports for types the
# README and the benchmark do not run; any change to their bytes must be
# deliberate.
KILL_SHA256 = {
    "G2": "2329d9fbf14e7c2aeff37687f67b7fea203e84f59c099de355fdfe93d9d5e543",
    "A3": "92db33b73fbabb26c052fe93997cb041e1c733b86ad30544e064c734ab8e9806",
    "B3": "30f227ffbca3b42efa6eb6dd7543848518c98846561945410451d5b320679fdd",
    "F4": "10368348d299599fcb3e6697eb872fde7efa52baa03e5f6219c7f8c7d2968e5a",
    "E6": "6382bd9dfe4ad426a0da9316cb3ffe8bbfd425419f7a6b1dd8d3749270ae9654",
}


@pytest.mark.parametrize("types", sorted(KILL_SHA256))
def test_selmer_kill_reports_are_pinned(types, tmp_path):
    out = str(tmp_path / "kill.json")
    assert main(["selmer", "kill", "--types", types, "--p", "7", "--rank",
                 "2", "--seed", "3", "--out", out]) == EXIT_OK
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == KILL_SHA256[types]


# the exit-code grid: every command but the F4 pipeline (slow, and
# pinned on its own) over small types, primes and precisions, with the
# least value of every other flag that has one
EXIT_GRID = {"types": ["A1", "A2", "B2", "G2"],
             "p": ["2", "3", "4", "5", "7", "11", "13"], "m": ["1", "3"]}


def test_exit_codes_over_the_command_grid(tmp_path, capsys):
    bad = []
    for command in cli.COMMANDS:
        if command == "examples f4":
            continue
        names = [name for name, _ in cli.command_flags(command)]
        grid = [[(name, v) for v in EXIT_GRID[name]]
                for name in names if name in EXIT_GRID]
        least = [("--" + name, str(cli.LEAST[name])) for name in names
                 if name in cli.LEAST]
        for values in itertools.product(*grid):
            args = command.split() + [
                x for name, v in values for x in ("--" + name, v)]
            args += [x for pair in least for x in pair]
            code = main(args + ["--out", str(tmp_path / "r.json")])
            err = capsys.readouterr().err
            if code != EXIT_OK and not (code == EXIT_CONFIG
                                        and "config error:" in err):
                bad.append((args, code, err[-200:]))
    assert not bad
