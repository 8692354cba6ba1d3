"""The README's command block and demos, run as a user would."""

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys

import pytest

from liftlab.cli import (COMMANDS, EXIT_OK, Runner, build_parser,
                         command_flags, main)

ROOT = os.path.join(os.path.dirname(__file__), "..")

# SHA-256 of each README command's JSON report, in README order; any
# change to a report's bytes must be deliberate.
REPORT_SHA256 = [
    "e6867ca2ded6d4968af169e7c3e709a7062982f93db436eb9dd9ddb7faeca430",
    "67647132bdc1d4ac459176aa270bd6f68dba37850f786a3be71492cb55357ef2",
    "807a7f7cf278fa9afa11ae6b6d143f9c9accf95af9bd1e284a5166215442c517",
    "0fec2c1aa0ca0ef5e04f95dd0b641afa63765fb2feb8ba440bdeb451c0870f65",
    "e474768c593c7dcbe12a410fe76b4951235372732765dbe2a121c84805b4abf3",
    "f65d4984a28b9f7f5801ddaa46d7fa42be06dae4d3689f2369f0a1ee38af06fe",
    "31b31489979b54b178d7ffaf7f515d04046276f1b4ac8c0c9d6c82ea7aef5977",
    "631e1ec5713bc63b4653f0ddd8a8eb0817481ae5ec517cb0d52c8ac822286320",
    "ebf6330ac2fe876c16188e2bcca33573d5bd1499b03b3e39983562498978c87c",
    "e845c321a72e5c4b7b9b441b9ab025f5fdd1bd8579f2ba24ce6e3adee1cdb2dd",
    "eb7a59c7ced56d252c1f17659a3af1f5b794db833b9edcb9b88dd0a13df71285",
    "d320402e7d1bb6dc7e7e32007ff77ef585cbee789061d34ed0da4a965bdac009",
    "3d63a99ec8ac1c3ffcc36275a045c33329c2c8d71892a3232e5df048906d5f95",
    "7a32eab3ca3e963538e5bf8d0f04aca1d5bb0bd3b0819c61a58de56648d23593",
]


def readme_commands():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(ln, comments=True)[1:] for ln in block.splitlines()
            if ln.startswith("liftlab ")]


def test_readme_reports_are_pinned(tmp_path):
    cmds = readme_commands()
    assert len(cmds) == len(REPORT_SHA256)
    out = str(tmp_path / "report.json")
    for args, want in zip(cmds, REPORT_SHA256):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args + ["--out", out]) == EXIT_OK, args
        with open(out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want, args


def test_readme_lists_each_commands_flags():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[3]
    listed = {}
    for ln in block.splitlines():
        command, _, flags = ln.partition(" --")
        if command:
            listed[command.strip()] = [f.lstrip("-").replace("-", "_")
                                       for f in ("--" + flags).split()]
    assert listed == {command: COMMANDS[command][1].split()
                      for command in COMMANDS}


class ReadRecorder:
    """Stands in for the parsed flags and records which a handler reads,
    and which list flags it iterates over rather than reading [0]."""

    def __init__(self, args):
        self._args, self.read, self.iterated = args, set(), set()

    def __getattr__(self, name):
        self.read.add(name)
        val = getattr(self._args, name)
        if not isinstance(val, list):
            return val
        iterated = self.iterated

        class Values(list):
            def __iter__(self):
                iterated.add(name)
                return super().__iter__()
        return Values(val)


def test_each_command_reads_exactly_its_flags():
    # a flag a command accepts and echoes but never reads misstates
    # what ran; so does a list flag it declares as taking several values
    # but reads only the first of
    runs = [(args, build_parser().parse_args(args))
            for args in readme_commands()]
    assert sorted(parsed.command for _, parsed in runs) == sorted(COMMANDS)
    for args, parsed in runs:
        rec = ReadRecorder(parsed)
        COMMANDS[parsed.command][0](rec, Runner(parsed.command, {}))
        flags = command_flags(parsed.command)
        assert rec.read - {"out"} == {n for n, _ in flags}, args
        assert rec.iterated == {n for n, several in flags if several}, args


# SHA-256 of each demo's stdout; any change to a demo's output must be
# deliberate
DEMO_SHA256 = {
    "01_rings_and_root_data.py":
        "1ae6abcb3b1d6be16c3e0ab1b6c400875373cddc7a36baa8b6127f2902041efc",
    "02_chevalley_group.py":
        "87032bc8f7022a119eb4788d659653ac5b52cb2d97a2e963aa251f349a7b0ead",
    "03_local_conditions.py":
        "9dda28cc7a1fd7fe8b15ec0dcb4fd2812ebe78d2414c9ea2a53bd9772310859a",
    "04_modules_and_examples.py":
        "5af9efeadf3d0ed5a6bb52632a2a95c02a4d49a24727f7d4081717aba9e21513",
    "05_selmer_engine.py":
        "818f05ba0d954e85bbb8c05b1c2f70191b797fcc7e0e5f0efcfe00a9a69aa729",
}
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    # -W error: the suite's filterwarnings = error does not reach into
    # the demo's own process
    proc = subprocess.run([sys.executable, "-W", "error",
                           os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:].decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[demo]
