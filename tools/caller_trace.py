"""Statements of liftlab that no caller reaches.

Runs every caller outside the tests under a sys.settrace line trace:
one seed-1 pass of each benchmark workload (perfbench/workloads.build),
each command of the README's command block with its report written to
a temporary directory, and each demo.  Then it prints, per function of
src/liftlab, the statements of its body that no line event reached,
and their total.  A statement counts once, in the innermost function
that holds it, and only if its header lines carry bytecode.  A second
section lists the public functions and methods (outside any function,
no part of the name private; dunders are public) of which no statement
was reached at all: a definition that no caller runs.

What it lists runs only under the tests, or never: refusals of bad
input, guards and falsifiable checks belong there; any other path is a
configuration that no caller runs.

    python tools/caller_trace.py

It is a report: it exits 0 whatever it finds.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import shlex
import sys
import tempfile

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
LIBRARY = os.path.join(ROOT, "src", "liftlab")

SEED = 1


class LineTrace:
    """The (file, line) pairs that line events reached in files under
    LIBRARY; file names are realpath-normalised once per code file."""

    def __init__(self):
        self.hits = set()
        self._inside = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        inside = self._inside.get(name)
        if inside is None:
            inside = self._inside[name] = os.path.realpath(name).startswith(
                LIBRARY + os.sep)
        return self._local if inside else None

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)

    def lines(self):
        """realpath -> the set of reached line numbers."""
        out = {}
        for name, line in self.hits:
            out.setdefault(os.path.realpath(name), set()).add(line)
        return out


def run_workloads():
    import workloads
    for name in workloads.GENERATORS:
        state = {}
        for op in workloads.build(name, SEED):
            op.fn(state)


def readme_commands():
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(ln, comments=True)[1:] for ln in block.splitlines()
            if ln.startswith("liftlab ")]


def run_readme(tmp):
    from liftlab.cli import main
    out = os.path.join(tmp, "report.json")
    for args in readme_commands():
        main(args + ["--out", out])


def run_demos():
    demos = os.path.join(ROOT, "demos")
    for name in sorted(os.listdir(demos)):
        if name.endswith(".py"):
            runpy.run_path(os.path.join(demos, name), run_name="__main__")


def _executable_lines(code):
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def _header(stmt):
    """The lines of a statement that are not lines of its sub-statements."""
    inner = [s.lineno for field in ("body", "orelse", "finalbody",
                                    "handlers", "cases")
             for s in getattr(stmt, field, ())]
    last = min(inner) - 1 if inner else stmt.end_lineno
    return range(stmt.lineno, max(last, stmt.lineno) + 1)


def _body_statements(fn):
    """Statements of fn's own body, nested functions and classes
    excluded, and the docstring skipped."""
    out = []
    stack = list(fn.body)
    if stack and isinstance(stack[0], ast.Expr) and isinstance(
            stack[0].value, ast.Constant) and isinstance(
            stack[0].value.value, str):
        stack = stack[1:]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            stack.extend(getattr(node, field, ()))
        for handler in getattr(node, "handlers", ()):
            stack.extend(handler.body)
        for case in getattr(node, "cases", ()):
            stack.extend(case.body)
    return out


def _public_name(name):
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def functions(tree):
    """(qualified name, node, public) of every function, methods and
    nested functions included; public means a function or method
    outside any function with no private part in its name."""
    out = []

    def visit(node, prefix, public):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child,
                            public and _public_name(child.name)))
                visit(child, prefix + child.name + ".", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".",
                      public and _public_name(child.name))
            else:
                visit(child, prefix, public)

    visit(tree, "", True)
    return out


def unreached(hits):
    """module -> [(function, [unreached statement lines], wholly)], with
    wholly true for a public function or method of which no statement
    was reached."""
    report = {}
    for name in sorted(os.listdir(LIBRARY)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(LIBRARY, name)
        with open(path) as fh:
            source = fh.read()
        executable = _executable_lines(compile(source, path, "exec"))
        reached = hits.get(path, set())
        rows = []
        for qual, fn, public in functions(ast.parse(source, path)):
            stmts = [stmt for stmt in _body_statements(fn)
                     if executable.intersection(_header(stmt))]
            missed = sorted(stmt.lineno for stmt in stmts
                            if not reached.intersection(_header(stmt)))
            if missed:
                rows.append((qual, missed,
                             public and len(missed) == len(stmts)))
        if rows:
            report[name[:-3]] = rows
    return report


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    trace = LineTrace()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), trace.active():
        run_workloads()
        run_readme(tmp)
        run_demos()
    report = unreached(trace.lines())
    total = 0
    for module, rows in report.items():
        for qual, lines, _ in rows:
            total += len(lines)
            print("%s.%s: %d  (lines %s)" % (module, qual, len(lines),
                                             ", ".join(map(str, lines))))
    print("statements no caller reaches: %d" % total)
    print()
    wholly = [module + "." + qual for module, rows in report.items()
              for qual, _, whole in rows if whole]
    for name in wholly:
        print(name)
    print("public functions and methods no caller reaches: %d"
          % len(wholly))
    return 0


if __name__ == "__main__":
    sys.exit(main())
