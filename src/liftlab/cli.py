"""Command-line front end: verification suites, decompositions,
searches and end-to-end synthetic lifting runs, with machine-readable
JSON reports.

Exit codes: 0 all assertions passed, 2 unknown subcommand, 3 invalid
configuration, 4 assertion failure (a failed check, or a liftlab error
raised during the run), 5 internal error (any other exception, recorded
as detail["internal_error"]).  Identical (config, seed) pairs produce
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
from .coeffring import LiftlabError, ParameterError
from .galoismod import GroupPresentation, MatrixModule, cohomology, decompose
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


def cmd_cohomology(args, run):
    p = args.p[0]
    pres = GroupPresentation(1, (tuple([1] * p),))
    mod = MatrixModule(p, [np.eye(1, dtype=np.int64)], pres)
    d1, _ = cohomology(pres, mod, 1)
    run.check("H1(Z/p, F_p) = F_p", d1 == 1, {"dim": d1})


def cmd_oddness(args, run):
    for name in args.types:
        datum, basis = root_datum(name)
        rep = od.principal_involution_check(datum, basis, args.p[0])
        run.check("principal involution odd %s" % name, rep.odd,
                  {"fixed_dim": rep.fixed_dim})


def cmd_examples(args, run):
    if args.family == "f4":
        reps = od.exceptional_pipeline(args.p[0], data_dir=args.tables)
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
                  not a6.multiplicity_free and not psl.multiplicity_free,
                  None)
        run.detail["reports"] = [vars(r) for r in reps]
    elif args.family == "sl2":
        rng = np.random.default_rng(args.seed)
        for name in args.types:
            r = od.sym_adjoint_decomposition(name, args.p[0], rng)
            run.check("sl2 family %s" % name, True, r)
    elif args.family == "ntorus":
        rng = np.random.default_rng(args.seed)
        for name in args.types:
            r = od.normalizer_decomposition(name, args.p[0], rng)
            want = 2 if r["simply_laced"] else 3
            run.check("normalizer %s constituents" % name,
                      r["count"] == want, r)
    else:
        raise ConfigError("unknown example family %r" % args.family)


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


def cmd_selmer(args, run):
    rng = np.random.default_rng(args.seed)
    if args.mode == "balance":
        datum, basis = root_datum(args.types[0])
        model = sm.build_balanced_model(datum, basis, args.p[0],
                                        selmer_rank=args.rank,
                                        seed=args.seed)
        model = sm.attach_adjoint_eta(model)
        system = sm.standard_balanced_system(model)
        sel, dual, rep = sm.selmer_compute(model, system)
        run.check("balanced", rep["balanced"], rep)
        run.detail["model"] = json.loads(model.spec_json())
    elif args.mode == "kill":
        datum, basis = root_datum(args.types[0])
        model = sm.build_balanced_model(datum, basis, args.p[0],
                                        selmer_rank=args.rank,
                                        seed=args.seed)
        model = sm.attach_adjoint_eta(model)
        system = sm.standard_balanced_system(model)
        trace, model2, _ = sm.annihilation_loop(model, system, rng)
        run.check("dual Selmer reaches 0", trace[-1] == (0, 0),
                  {"trace": trace})
        run.detail["trace"] = trace
        run.detail["witnesses"] = [
            {"alpha": list(pl.frame["alpha"]), "t": pl.frame["t"],
             "c": pl.frame["c"]}
            for pl in model2.places if pl.frame]
    elif args.mode == "doubling":
        p = args.p[0]
        dm = sm.DoublingModel(p, 1, [2], [[1, 0]], [
            {"Y": np.array([0, 1], dtype=np.int64),
             "X": np.array([1], dtype=np.int64), "kind": "gens"},
        ])
        z = np.array([args.seed % p, (1 + args.seed) % p], dtype=np.int64)
        res = sm.doubling_solve(dm, z, rng, exhaustive=True)
        run.check("h|_T = z_T", res["verified"], res)
    elif args.mode == "lift":
        reports, _ = lifting_driver(args.types[0], args.p[0],
                                    args.max_precision, args.seed)
        ok = all(pl.get("membership") for r in reports for pl in r["places"])
        run.check("lifting driver all memberships", ok,
                  {"levels": [r["level"] for r in reports]})
        run.detail["levels"] = reports
    else:
        raise ConfigError("unknown selmer mode %r" % args.mode)


class ConfigError(LiftlabError):
    pass


def _apply_config_file(args, path):
    """Set the flags a `key = value` file names; every list flag but
    --types holds integers."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        key, _, val = (x.strip() for x in ln.partition("="))
        if not hasattr(args, key):
            raise ConfigError("unknown key %r" % key)
        cur = getattr(args, key)
        try:
            if isinstance(cur, list):
                val = [x if key == "types" else int(x) for x in val.split()]
            elif isinstance(cur, int):
                val = int(val)
        except ValueError:
            raise ConfigError("%s takes integers: %r" % (key, val)) from None
        setattr(args, key, val)


def build_parser():
    ap = argparse.ArgumentParser(prog="liftlab")
    sub = ap.add_subparsers(dest="cmd")

    def common(sp, types=("A1", "A2")):
        sp.add_argument("--config", help="key=value file mirroring the flags")
        sp.add_argument("--types", nargs="*", default=list(types))
        sp.add_argument("--p", nargs="*", type=int, default=[5])
        sp.add_argument("--m", nargs="*", type=int, default=[3])
        sp.add_argument("--samples", type=int, default=100)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="report.json")

    chk = sub.add_parser("check")
    chk_sub = chk.add_subparsers(dest="what")
    for what in ("matrix-identity", "stability", "duality"):
        spx = chk_sub.add_parser(what)
        common(spx)
        spx.add_argument("--n", type=int, default=8)

    for name in ("spaces", "decompose", "cohomology", "oddness",
                 "levi-bound"):
        spx = sub.add_parser(name)
        common(spx)
        spx.add_argument("--f", type=int, default=1)
        spx.add_argument("--q", type=int, default=113)

    spx = sub.add_parser("examples")
    spx.add_argument("family", choices=["f4", "sl2", "ntorus"])
    common(spx, types=("A1", "G2"))
    spx.add_argument("--tables", default=None)

    spx = sub.add_parser("selmer")
    spx.add_argument("mode", choices=["balance", "kill", "doubling", "lift"])
    common(spx)
    spx.add_argument("--rank", type=int, default=1)
    spx.add_argument("--max-precision", type=int, default=5)
    spx.add_argument("--model", default=None)
    return ap


_DISPATCH = {
    ("check", "matrix-identity"): cmd_check_matrix_identity,
    ("check", "stability"): cmd_check_stability,
    ("check", "duality"): cmd_check_duality,
    ("spaces", None): cmd_spaces,
    ("decompose", None): cmd_decompose,
    ("cohomology", None): cmd_cohomology,
    ("oddness", None): cmd_oddness,
    ("examples", None): cmd_examples,
    ("levi-bound", None): cmd_levi_bound,
    ("selmer", None): cmd_selmer,
}


def main(argv=None):
    ap = build_parser()
    try:
        args, unknown = ap.parse_known_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors
        return EXIT_UNKNOWN if exc.code else EXIT_OK
    if unknown:
        print("unknown arguments: %s" % " ".join(unknown), file=sys.stderr)
        return EXIT_UNKNOWN
    if args.cmd is None:
        ap.print_help()
        return EXIT_UNKNOWN
    key = (args.cmd, getattr(args, "what", None))
    if args.cmd == "check" and key not in _DISPATCH:
        print("unknown check subcommand", file=sys.stderr)
        return EXIT_UNKNOWN
    fn = _DISPATCH.get(key) or _DISPATCH.get((args.cmd, None))
    if fn is None:
        print("unknown subcommand %r" % args.cmd, file=sys.stderr)
        return EXIT_UNKNOWN
    try:
        if args.config:
            _apply_config_file(args, args.config)
        # values every subcommand would misread
        for key, val in vars(args).items():
            if isinstance(val, list) and not val:
                raise ConfigError("--%s needs at least one value" % key)
        if getattr(args, "f", 1) < 1:
            raise ConfigError("--f must be at least 1, not %d" % args.f)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    config = {k: v for k, v in vars(args).items()
              if k not in ("cmd", "what", "out", "config")}
    run = Runner(" ".join(x for x in (args.cmd, getattr(args, "what", None),
                                      getattr(args, "family", None),
                                      getattr(args, "mode", None)) if x),
                 config)
    internal = False
    try:
        fn(args, run)
    except (ConfigError, ParameterError, CharTableError) as exc:
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
