"""Every defaulted parameter of liftlab is set by some caller, and every
public definition is named by one.

A parameter that only its default reaches is a configuration no caller
runs: it belongs in the code as a constant.  A public function, class
or method that no caller names is code that only its tests run.  The
callers are the library itself, the demos and the benchmark; the tests
are not callers here.  The few parameters and definitions kept for
their own reasons are listed below with the reason.
"""

import ast
import collections
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
    ("rootdata", "root_datum", "isogeny"):
        "the simply-connected lattice, whose Levi torsion (Z/3 at A2) "
        "a test checks",
}

# (module, qualified name): why a public definition that no caller
# names stays
KEPT_UNCALLED = {
    ("localconds", "augment_with_center"):
        "acceptance criterion 3 checks dim L^{nu,alpha} on the central "
        "augmentation it builds",
    ("localconds", "fixed_multiplier_restrict"):
        "acceptance criterion 3 checks dim L^{nu,alpha}, which it computes",
    ("selmer", "eta_build"):
        "the paper's multiplicity-free eta, which is to replace the "
        "identity eta of the annihilation loop",
    ("rootdata", "RootDatum.pair_root_coroot"):
        "the scalar reference the tests check coroot_pairings against",
    ("cyclotomic", "CycloContext.galois"):
        "the Galois action zeta -> zeta^s, the reference the tests check "
        "complex conjugation (s = n - 1) and its refusal of a non-unit "
        "s against",
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


def _spelled_names(tree):
    """Every name a tree spells: Name ids, Attribute attrs and the
    imported names of import statements."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def public_definitions():
    """(module, qualified name, node) of every public module-level
    function or class and every public method of a module-level
    class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, tree in _python_files(LIBRARY):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            if not node.name.startswith("_"):
                yield module, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, kinds) and \
                            not sub.name.startswith("_"):
                        yield module, "%s.%s" % (node.name, sub.name), sub


def uncalled_definitions():
    """(module, qualified name) of every public definition whose name
    no caller spells outside the definition itself."""
    spelled = collections.Counter(
        name for top in CALLERS for _, tree in _python_files(top)
        for name in _spelled_names(tree))
    return {(module, qual) for module, qual, node in public_definitions()
            if spelled[node.name]
            == sum(name == node.name for name in _spelled_names(node))}


def test_every_public_definition_has_a_caller():
    uncalled = uncalled_definitions()
    unlisted = sorted(uncalled - set(KEPT_UNCALLED))
    assert not unlisted, (
        "public definitions that only the tests call; give each a caller, "
        "delete it, or list it with its reason: %r" % unlisted)
    # a kept definition that a caller now names needs no entry, and a
    # kept definition the audit cannot see uncalled means the audit is
    # blind
    assert sorted(set(KEPT_UNCALLED) - uncalled) == []
