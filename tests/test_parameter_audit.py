"""Every defaulted parameter of liftlab is set by some caller.

A parameter that only its default reaches is a configuration no caller
runs: it belongs in the code as a constant.  The callers are the
library itself, the demos and the benchmark; the tests are not callers
here.  The few parameters kept for their own reasons are listed below
with the reason.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
LIBRARY = os.path.join(ROOT, "src", "liftlab")
CALLERS = [LIBRARY, os.path.join(ROOT, "demos"),
           os.path.join(ROOT, "perfbench")]

# (module, function, parameter): why the default is the only value a
# caller outside the tests passes, and the parameter stays anyway
KEPT = {
    ("cli", "main", "argv"):
        "the entry point; tests pass argv, the console script does not",
    ("rootdata", "ChevalleyBasis.verify_jacobi", "rng"):
        "checking Jacobi exhaustively on the large types is not "
        "feasible, so the test samples with it",
    ("rootdata", "ChevalleyBasis.verify_jacobi", "samples"):
        "the number of triples that test samples",
    ("selmer", "build_synthetic_model", "h0_glob"):
        "a term of the Greenberg-Wiles ledger formula",
    ("selmer", "build_synthetic_model", "h0_glob_star"):
        "a term of the Greenberg-Wiles ledger formula",
    ("selmer", "build_balanced_model", "n_ledger"):
        "the balance test with trivial primes only needs it",
    ("chartable", "brauer_restrict", "p"):
        "the refusal of a p dividing |G| is tested through it",
    ("modp", "_factor_squarefree", "rng"):
        "a test compares it with a reference under many random streams",
    ("localconds", "smoothness_probe", "corrupt"):
        "the probe's own detection test",
}


def _python_files(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read(), path)


def defaulted_parameters():
    """(module, qualified name, parameter, callee name, position) of
    every parameter with a default; position is its index among a
    call's positional arguments (None if keyword-only), and the callee
    name is what a call spells: the class for __init__."""
    out = []

    def visit(node, module, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                pos = args.posonlyargs + args.args
                bound = bool(cls and pos and pos[0].arg in ("self", "cls"))
                qual = "%s.%s" % (cls, child.name) if cls else child.name
                callee = cls if cls and child.name == "__init__" \
                    else child.name
                first = len(pos) - len(args.defaults)
                for i, arg in enumerate(pos[first:], start=first):
                    out.append((module, qual, arg.arg, callee, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((module, qual, arg.arg, callee, None))
                visit(child, module, None)

    for path, tree in _python_files(LIBRARY):
        visit(tree, os.path.splitext(os.path.basename(path))[0], None)
    return out


def calls_by_name():
    """callee name -> [(number of positional arguments, keyword names,
    whether *args or **kwargs may set anything)]."""
    calls = {}
    for top in CALLERS:
        for _, tree in _python_files(top):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if name is None:
                    continue
                keywords = {k.arg for k in node.keywords}
                starred = None in keywords or any(
                    isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (len(node.args), keywords, starred))
    return calls


def unset_parameters():
    calls = calls_by_name()
    return {(module, qual, param)
            for module, qual, param, callee, position in defaulted_parameters()
            if not any(starred or param in keywords
                       or (position is not None and npos > position)
                       for npos, keywords, starred in calls.get(callee, []))}


def test_every_defaulted_parameter_has_a_caller():
    unset = unset_parameters()
    unlisted = sorted(unset - set(KEPT))
    assert not unlisted, (
        "defaulted parameters that no caller sets; make each a constant "
        "or list it with its reason: %r" % unlisted)
    # a kept parameter that a caller now sets needs no entry, and a
    # kept parameter the audit cannot see unset means the audit is blind
    assert sorted(set(KEPT) - unset) == []

