"""Every defaulted parameter of liftlab is set by some caller, every
public definition is named by one, no library code calls numpy's
module-level any, all or isscalar, and none reads the environment.

A parameter that only its default reaches is a configuration no caller
runs: it belongs in the code as a constant.  A public function, class
or method that no caller names is code that only its tests run.  The
callers are the library itself, the demos and the benchmark; the tests
are not callers here.  The few parameters and definitions kept for
their own reasons are listed below with the reason.

np.any(a) and np.all(a) dispatch through numpy's Python-level reduction
wrapper, about twice the cost of the method a.any() on the small arrays
liftlab reduces, and np.isscalar(x) costs more than the isinstance test
that replaces it; the hot paths call them thousands of times a pass.

A setting read from an environment variable is one more way to set
what a flag or a parameter already sets, and one that a report's
config does not echo.

tools/caller_trace.py reports what the static audit cannot see: the
public definitions that a caller names but no caller runs.  Its report
is checked here on synthetic traces.
"""

import ast
import collections
import importlib.util
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


def _reached_names(tree, module):
    """Names of `module` that a tree can reach: imported from it by
    name (from ...module import name), or read as alias.name where an
    import binds alias to the module.  An attribute or a field that
    only shares a name reaches nothing."""
    bound, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if source == module:
                    names.add(alias.name)
                elif alias.name == module:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname for alias in node.names
                         if alias.asname and
                         alias.name.rsplit(".", 1)[-1] == module)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and
                 isinstance(node.value, ast.Name) and node.value.id in bound)
    return names


def _loads(tree, name):
    return sum(isinstance(node, ast.Name) and node.id == name and
               isinstance(node.ctx, ast.Load) for node in ast.walk(tree))


def public_definitions():
    """(module, module tree, qualified name, node) of every public
    module-level function or class and every public method of a
    module-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, tree in _python_files(LIBRARY):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            if not node.name.startswith("_"):
                yield module, tree, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, kinds) and \
                            not sub.name.startswith("_"):
                        yield (module, tree,
                               "%s.%s" % (node.name, sub.name), sub)


def uncalled_definitions():
    """(module, qualified name) of every public definition no caller
    reaches.  A module-level function or class is reached by an import
    of it, by alias.name with alias bound to its module, or by a load
    of its name in its own module outside its own body; a method, by
    any spelling of its name outside the method itself."""
    trees = [tree for top in CALLERS for _, tree in _python_files(top)]
    spelled = collections.Counter(
        name for tree in trees for name in _spelled_names(tree))
    reached = {}
    uncalled = set()
    for module, tree, qual, node in public_definitions():
        if "." in qual:
            called = spelled[node.name] > sum(
                name == node.name for name in _spelled_names(node))
        else:
            if module not in reached:
                reached[module] = set().union(
                    *(_reached_names(t, module) for t in trees))
            called = node.name in reached[module] or \
                _loads(tree, node.name) > _loads(node, node.name)
        if not called:
            uncalled.add((module, qual))
    return uncalled


def test_reached_names_ignore_homonymous_attributes():
    tree = ast.parse(
        "from liftlab import galoismod as gm\n"
        "from .galoismod import decompose\n"
        "import liftlab.modp as mp\n"
        "dec = decompose(gm.spin(mp.rank))\n"
        "rep = Report(h0=1)\n"
        "print(rep.h0, dec.hom_space, other.restrict)\n")
    assert _reached_names(tree, "galoismod") == {"decompose", "spin"}
    assert _reached_names(tree, "modp") == {"rank"}


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


# numpy functions the library spells as ndarray methods or isinstance
SLOW_NUMPY = {"any", "all", "isscalar"}


def numpy_calls():
    """(file, line, name) of every call np.<name>(...) in the library."""
    for path, tree in _python_files(LIBRARY):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id in ("np", "numpy"):
                yield os.path.basename(path), node.lineno, node.func.attr


def test_no_module_level_numpy_reductions():
    calls = list(numpy_calls())
    slow = [c for c in calls if c[2] in SLOW_NUMPY]
    assert not slow, (
        "use a.any() / a.all() and isinstance(x, (int, np.integer)) "
        "instead: %r" % slow)
    # the scan sees the library's numpy calls at all
    assert any(name == "zeros" for _, _, name in calls)


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """Lines that spell os.environ or os.getenv, as an attribute or as
    a name imported from os."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT \
                or isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(a.name in ENVIRONMENT for a in node.names):
            yield node.lineno


def test_no_module_reads_the_environment():
    reads = [(os.path.basename(path), line)
             for path, tree in _python_files(LIBRARY)
             for line in _environment_reads(tree)]
    assert not reads, (
        "a setting is a flag or a parameter, not an environment "
        "variable: %r" % reads)
    # the scan sees both spellings
    tree = ast.parse("import os\nos.environ.get('X')\nfrom os import getenv\n")
    assert sorted(_environment_reads(tree)) == [2, 3]


def _load_caller_trace():
    path = os.path.join(ROOT, "tools", "caller_trace.py")
    spec = importlib.util.spec_from_file_location("caller_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_caller_trace_lists_public_definitions_no_caller_reaches():
    ct = _load_caller_trace()
    path = os.path.join(ct.LIBRARY, "localconds.py")

    def wholly(hits):
        return {qual for qual, _, whole in ct.unreached(hits)["localconds"]
                if whole}

    nothing = wholly({})
    # functions, methods and dunders count; private names and nested
    # functions do not
    assert {"lift_coordinates", "LocalLift.relation_holds",
            "LocalLift.__init__"} <= nothing
    assert "_check_variant" not in nothing
    assert "lift_coordinates.up" not in nothing
    # one reached statement takes a function off the list, and the
    # statements it left unreached stay in the first section
    with open(path) as fh:
        node = {qual: fn for qual, fn, _ in
                ct.functions(ast.parse(fh.read()))}["lift_coordinates"]
    first = min(stmt.lineno for stmt in ct._body_statements(node))
    partly = ct.unreached({path: {first}})["localconds"]
    assert "lift_coordinates" not in {q for q, _, whole in partly if whole}
    missed = {q: lines for q, lines, _ in partly}["lift_coordinates"]
    assert missed and first not in missed
