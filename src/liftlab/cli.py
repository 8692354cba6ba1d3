"""Command-line front end: verification suites, decompositions,
searches and end-to-end synthetic lifting runs, with machine-readable
JSON reports.  COMMANDS holds one entry per leaf command: its handler
and the flags that handler reads.  A command's parser and its
report's config come from that entry.

Exit codes: 0 all assertions passed, 2 unknown subcommand or argument,
3 invalid configuration (such as a second value for a flag read once,
a value below a flag's least, or a --p that is not prime), 4 assertion
failure (a failed check, or a liftlab error raised during the run), 5
internal error (any other exception, recorded as
detail["internal_error"]).  Identical (config, seed) pairs produce
byte-identical reports: reports carry no timestamps and are serialized
with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import localconds as lc
from . import oddness as od
from . import selmer as sm
from .chartable import CharTableError
from .chevgroup import levi_certificate_check, matrix_identity_check
from .coeffring import LiftlabError, ParameterError, is_prime
from .liftdriver import lifting_driver
from .rootdata import levi_bound, phi_alpha, root_datum

SCHEMA_VERSION = 1
EXIT_OK, EXIT_UNKNOWN, EXIT_CONFIG, EXIT_ASSERT, EXIT_INTERNAL = 0, 2, 3, 4, 5


class Runner:
    def __init__(self, command, config):
        self.command = command
        self.config = config
        self.assertions = []
        self.detail = {}

    def check(self, name, passed, detail=None):
        self.assertions.append({"name": name, "passed": bool(passed),
                                "detail": detail})
        return passed

    @property
    def failures(self):
        return sum(1 for a in self.assertions if not a["passed"])

    def report(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "assertions": self.assertions,
            "failures": self.failures,
            "detail": self.detail,
        }


def _write_report(runner, path):
    text = json.dumps(runner.report(), sort_keys=True, indent=1,
                      default=_json_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


# -- subcommands


def cmd_check_matrix_identity(args, run):
    rng = np.random.default_rng(args.seed)
    for p in args.p:
        for m in args.m:
            fails = matrix_identity_check(p, m, args.n, args.samples, rng)
            run.check("matrix-identity p=%d m=%d" % (p, m), fails == 0,
                      {"samples": args.samples, "failures": fails})


def cmd_check_stability(args, run):
    total = 0
    for name in args.types:
        datum, basis = root_datum(name)
        for p in args.p:
            for m in args.m:
                model = lc.TameLocalModel(datum, basis, p, m, 1 + p)
                for alpha in datum.roots:
                    for variant, vv in (("unr2", "unr"), ("ram2", "ram")):
                        lift, _ = lc.frobenius_member(model, alpha, variant,
                                                      seed=args.seed)
                        for beta in phi_alpha(basis, alpha):
                            lc.stability_check(lift, alpha, vv,
                                               {tuple(beta): 1})
                            total += 1
                omodel = lc.OrdinaryLocalModel(
                    datum, basis, p, m, 1,
                    {"s": tuple([1 + p] * datum.rank),
                     "u1": tuple([1 + 2 * p] * datum.rank)})
                olift = lc.chi_torus_lift(omodel)
                for beta in datum.roots:
                    if not datum._is_positive(beta):
                        lc.ordinary_stability_check(olift, beta)
                        total += 1
        run.check("stability %s" % name, True, {"checks_so_far": total})
    run.detail["total_checks"] = total


def cmd_check_duality(args, run):
    from . import fieldlinalg as fl
    for name in args.types:
        datum, basis = root_datum(name)
        for p in args.p:
            model = lc.TameLocalModel(datum, basis, p, 3, 1 + p)
            K = model.residue
            full = lc.full_h1_basis(K, datum.dim)
            gram = lc.pairing_gram(K, full, full)
            rk = fl.rank_f(K, gram.reshape(2 * datum.dim, 2 * datum.dim, K.r))
            run.check("duality perfect %s p=%d" % (name, p),
                      rk == 2 * datum.dim, {"rank": rk})
            for alpha in datum.roots:
                sp = lc.condition_spaces(model, alpha, "unr")
                run.check("perp description %s p=%d alpha=%s"
                          % (name, p, alpha),
                          sp["l_perp"].dim == datum.dim, None)


def cmd_spaces(args, run):
    for name in args.types:
        datum, basis = root_datum(name)
        for p in args.p:
            model = lc.TameLocalModel(datum, basis, p, 3, 1 + p)
            for alpha in datum.roots:
                sp = lc.condition_spaces(model, alpha, "unr")
                run.check("dim L = dim g (%s, %s, p=%d)" % (name, alpha, p),
                          sp["l"].dim == datum.dim,
                          {"tan": sp["tan"].dim, "s": sp["s"].dim})
            chi = lc.find_regular_chi(datum, p, args.f)
            if chi is None:
                run.check("ordinary dims (%s, p=%d, f=%d)" % (name, p, args.f),
                          True, {"skipped": "no regular chi at this p"})
                continue
            om = lc.OrdinaryLocalModel(datum, basis, p, 3, args.f, chi)
            osp = lc.ordinary_spaces(om)
            dim_n = len(datum.positive_roots)
            run.check("ordinary dims (%s, p=%d, f=%d)" % (name, p, args.f),
                      osp["tan"].dim == datum.rank + dim_n + args.f * dim_n
                      and osp["l"].dim == datum.dim + args.f * dim_n,
                      {"tan": osp["tan"].dim, "l": osp["l"].dim})


def cmd_decompose(args, run):
    rng = np.random.default_rng(args.seed)
    for name in args.types:
        r = od.sym_adjoint_decomposition(name, args.p[0], rng)
        run.check("principal decomposition %s" % name, True, r)
        run.detail[name] = r


def cmd_oddness(args, run):
    for name in args.types:
        datum, basis = root_datum(name)
        rep = od.principal_involution_check(datum, basis, args.p[0])
        run.check("principal involution odd %s" % name, rep.odd,
                  {"fixed_dim": rep.fixed_dim})


def cmd_examples_f4(args, run):
    p = args.p[0]
    reps = od.exceptional_pipeline(p, data_dir=args.tables)
    # the decompositions are read mod p only for a p prime to |G|, the
    # sum of the squared degrees
    bad = ["%s (order %d)" % (r.group, sum(d * d for d in r.degrees))
           for r in reps if not r.brauer_valid]
    if bad:
        raise ParameterError("p = %d divides the order of %s"
                             % (p, " and ".join(bad)))
    a6, psl = reps
    run.check("A6 multiplicities (1,3,2)",
              a6.multiplicities == [0, 0, 0, 1, 3, 0, 2],
              {"multiplicities": a6.multiplicities})
    run.check("trace of order-2 class = -4",
              a6.trace_order2 == -4 and psl.trace_order2 == -4, None)
    run.check("fixed dim 24 = dim Flag(F4)",
              a6.fixed_dim == 24 and a6.dim_flag == 24, None)
    run.check("PSL2(13) has a multiplicity-2 constituent",
              2 in psl.multiplicities, {"multiplicities":
                                        psl.multiplicities})
    run.check("multiplicity-free verdict false (both)",
              not a6.multiplicity_free and not psl.multiplicity_free, None)
    run.detail["reports"] = [vars(r) for r in reps]


def cmd_examples_sl2(args, run):
    rng = np.random.default_rng(args.seed)
    for name in args.types:
        r = od.sym_adjoint_decomposition(name, args.p[0], rng)
        run.check("sl2 family %s" % name, True, r)


def cmd_examples_ntorus(args, run):
    rng = np.random.default_rng(args.seed)
    for name in args.types:
        r = od.normalizer_decomposition(name, args.p[0], rng)
        want = 2 if r["simply_laced"] else 3
        run.check("normalizer %s constituents" % name, r["count"] == want, r)


def cmd_levi_bound(args, run):
    rng = np.random.default_rng(args.seed)
    for name in args.types:
        datum, _ = root_datum(name)
        lb = levi_bound(datum)
        ok = levi_certificate_check(datum, lb["n_prime"], lb["m_g"],
                                    args.q, args.samples, rng)
        run.check("levi bound %s" % name, ok == args.samples,
                  {"n_prime": lb["n_prime"], "m_g": lb["m_g"],
                   "samples": ok})


def _balanced_model(args):
    datum, basis = root_datum(args.types[0])
    model = sm.build_balanced_model(datum, basis, args.p[0],
                                    selmer_rank=args.rank, seed=args.seed)
    model = sm.attach_adjoint_eta(model)
    return model, sm.standard_balanced_system(model)


def cmd_selmer_balance(args, run):
    model, system = _balanced_model(args)
    sel, dual, rep = sm.selmer_compute(model, system)
    run.check("balanced", rep["balanced"], rep)
    run.detail["model"] = json.loads(model.spec_json())


def cmd_selmer_kill(args, run):
    model, system = _balanced_model(args)
    trace, model2, _ = sm.annihilation_loop(
        model, system, np.random.default_rng(args.seed))
    run.check("dual Selmer reaches 0", trace[-1] == (0, 0), {"trace": trace})
    run.detail["trace"] = trace
    run.detail["witnesses"] = [
        {"alpha": list(pl.frame["alpha"]), "t": pl.frame["t"],
         "c": pl.frame["c"]}
        for pl in model2.places if pl.frame]


def cmd_selmer_doubling(args, run):
    p = args.p[0]
    dm = sm.DoublingModel(p, 1, [2], [[1, 0]], [
        {"Y": np.array([0, 1], dtype=np.int64),
         "X": np.array([1], dtype=np.int64), "kind": "gens"},
    ])
    # the image is spanned by (1, 0) and the one family has Y = (0, 1),
    # so every z_T = (s, 1) is reachable
    z = np.array([args.seed % p, 1], dtype=np.int64)
    res = sm.doubling_solve(dm, z, np.random.default_rng(args.seed),
                            exhaustive=True)
    run.check("h|_T = z_T", res["verified"], res)


def cmd_selmer_lift(args, run):
    reports, _ = lifting_driver(args.types[0], args.p[0],
                                args.max_precision, args.seed)
    ok = all(pl.get("membership") for r in reports for pl in r["places"])
    run.check("lifting driver all memberships", ok,
              {"levels": [r["level"] for r in reports]})
    run.detail["levels"] = reports


# each flag's argparse spec (a list, with nargs, or one value), and the
# least value of each integer flag that has one
FLAGS = {
    "types": dict(nargs="*", default=["A1", "A2"]),
    "p": dict(nargs="*", type=int, default=[5]),
    "m": dict(nargs="*", type=int, default=[3]),
    "n": dict(type=int, default=8),
    "samples": dict(type=int, default=100),
    "seed": dict(type=int, default=0),
    "f": dict(type=int, default=1),
    "q": dict(type=int, default=113),
    "rank": dict(type=int, default=1),
    "max_precision": dict(type=int, default=5),
    "tables": dict(default=None),
}
LEAST = {"n": 1, "samples": 1, "seed": 0, "f": 1, "rank": 0}

# command: (handler, the flags it reads[, defaults of its own]).  A list
# flag marked "..." takes several values; an unmarked one takes exactly
# one, and defaults to the first value of its default.
COMMANDS = {
    "check matrix-identity": (cmd_check_matrix_identity,
                              "p... m... n samples seed"),
    "check stability": (cmd_check_stability, "types... p... m... seed"),
    "check duality": (cmd_check_duality, "types... p..."),
    "spaces": (cmd_spaces, "types... p... f"),
    "decompose": (cmd_decompose, "types... p seed"),
    "oddness": (cmd_oddness, "types... p"),
    "examples f4": (cmd_examples_f4, "p tables"),
    "examples sl2": (cmd_examples_sl2, "types... p seed",
                     {"types": ["A1", "G2"]}),
    "examples ntorus": (cmd_examples_ntorus, "types... p seed",
                        {"types": ["A1", "G2"]}),
    "levi-bound": (cmd_levi_bound, "types... q samples seed"),
    "selmer balance": (cmd_selmer_balance, "types p rank seed"),
    "selmer kill": (cmd_selmer_kill, "types p rank seed"),
    "selmer doubling": (cmd_selmer_doubling, "p seed"),
    "selmer lift": (cmd_selmer_lift, "types p max_precision seed"),
}


def command_flags(command):
    """(name, takes several values) for each flag `command` reads."""
    return [(f.rstrip("."), f.endswith("..."))
            for f in COMMANDS[command][1].split()]


def build_parser():
    ap = argparse.ArgumentParser(prog="liftlab")
    subs = {"": ap.add_subparsers(required=True, metavar="command")}
    for command, (_, _, *own) in COMMANDS.items():
        group, _, leaf = command.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(group).add_subparsers(
                required=True, metavar="command")
        sp = subs[group].add_parser(leaf)
        sp.add_argument("--out", default="report.json")
        for name, several in command_flags(command):
            spec = FLAGS[name]
            if "nargs" in spec and not several:
                spec = dict(spec, default=spec["default"][:1])
            sp.add_argument("--" + name.replace("_", "-"), **spec)
        sp.set_defaults(command=command, **(own[0] if own else {}))
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors
        return EXIT_UNKNOWN if exc.code else EXIT_OK
    flags = command_flags(args.command)
    try:
        # values every handler would misread
        for name, several in flags:
            val = getattr(args, name)
            if isinstance(val, list) and not val:
                raise ParameterError("--%s needs at least one value" % name)
            if isinstance(val, list) and len(val) > 1 and not several:
                raise ParameterError("--%s takes one value here" % name)
            if name in LEAST and val < LEAST[name]:
                raise ParameterError("--%s must be at least %d, not %d"
                                     % (name, LEAST[name], val))
            if name == "p" and not all(map(is_prime, val)):
                raise ParameterError("p must be prime, got %s"
                                     % " ".join(map(str, val)))
    except ParameterError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    run = Runner(args.command, {name: getattr(args, name)
                                for name, _ in flags})
    internal = False
    try:
        COMMANDS[args.command][0](args, run)
    except (ParameterError, CharTableError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except LiftlabError as exc:  # a failed check inside a suite
        run.check("run completed", False, {"error": repr(exc)})
    except Exception as exc:  # a crash, not a falsified check
        run.check("run completed", False, {"error": repr(exc)})
        run.detail["internal_error"] = repr(exc)
        internal = True
    _write_report(run, args.out)
    for a in run.assertions:
        mark = "ok" if a["passed"] else "FAIL"
        print("[%s] %s" % (mark, a["name"]))
    print("report: %s (%d assertions, %d failures)"
          % (args.out, len(run.assertions), run.failures))
    if internal:
        return EXIT_INTERNAL
    return EXIT_OK if run.failures == 0 else EXIT_ASSERT


if __name__ == "__main__":
    sys.exit(main())
