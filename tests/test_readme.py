"""The README's command block and demos, run as a user would."""

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys

import pytest

from liftlab.cli import EXIT_OK, main

ROOT = os.path.join(os.path.dirname(__file__), "..")

# SHA-256 of each README command's JSON report, in README order; any
# change to a report's bytes must be deliberate.
REPORT_SHA256 = [
    "b5cfc277be7901cb929f0e43cb5a81be9c47884fc08fb3b15278ebe4f8e9ea34",
    "3a8279cd4eeb891cfdcdd6ec9b1f9e33f689f4a21d6bca07012f01d0613fc5de",
    "14bfcb60828a76c85861bc651228f34a56a4cc0ae84aac842dde27f5691b700d",
    "e07b13ce1ad9eadb2d0fd20217d1be24d3af8078eefacd49c4606547a8a6bef1",
    "b0735a84fd568ea2c3ac745ed7e5c0d88e2894398e19ee067180a6d9089f851b",
    "0d952d344bd2d1cc4c04086e918f4d7957a627f192f1013694e2a113b8b2f513",
    "0cb82090165fa28217764e3bca6307caad31531c0d30529b4e34b877b36679e1",
    "e0a271d02bb18bfea667fbf8f3df8f55cd2ca70eab307cc161f575f8d3157090",
    "81b9061be855693ee985ed5a17d59f49135c9340252e27792e77d2fda49c200d",
    "09bb8aa27f9ff07980bbaf2eb6270ebb07a6687fa690e76440f35d314b1b8cc7",
    "93df3a127eddd3c2d72003a7539282ef751744723564fa0b1abd3da6f7d8724a",
    "0e05d02b0656384f1b3ddf09ebc8fb9e6205307f3a8f11811bdb5ef98719f8be",
    "f38d1173959057e55d493e052b0c6b9b9ba2a29e5995f179343c202419e8f499",
    "6a3a29fb62d44102cfb3738df8189ccfa22cafa493b4ca1f7b3a01a59900156a",
    "bc0dc49b38bf9b99acf7e4a5c2026d814dda427887ea72ab1127bd76a52371e8",
]


def readme_commands():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(ln, comments=True)[1:] for ln in block.splitlines()
            if ln.startswith("liftlab ")]


def test_readme_reports_are_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("LIFTLAB_DATA", raising=False)
    cmds = readme_commands()
    assert len(cmds) == len(REPORT_SHA256)
    out = str(tmp_path / "report.json")
    for args, want in zip(cmds, REPORT_SHA256):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args + ["--out", out]) == EXIT_OK, args
        with open(out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want, args


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
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
