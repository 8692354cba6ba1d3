"""Seeded input generator and op definitions for the liftlab benchmark.

`build(name, seed)` turns a workload seed into a fixed list of ops.
Every model seed, rng seed and random choice is derived from the
workload seed here, except the MeatAxe streams (see `_meataxe_rng`);
the library only ever receives the generated inputs.

An op is a callable `fn(state) -> (output, ok)`: `output` is the
JSON-ready exact result that enters the result digest, `ok` says
whether the op's own verification passed.  `state` is a dict shared by
the ops of one pass (the lift tower keeps its model there).

Each workload's ops are ordered so that repeated passes do identical
work; only counted ops (`Op.counted`) contribute to `ops_per_s`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from liftlab import localconds as lc
from liftlab import oddness as od
from liftlab import selmer as sm
from liftlab import fieldlinalg as fl
from liftlab.chevgroup import GroupElement
from liftlab.liftdriver import EndToEndModel
from liftlab.rootdata import phi_alpha, root_datum

INT64_LIMIT = 2 ** 63

class GeneratorError(ValueError):
    """The generator was asked for a configuration it must refuse."""


class Op:
    __slots__ = ("kind", "fn", "counted")

    def __init__(self, kind, fn, counted=True):
        self.kind = kind
        self.fn = fn
        self.counted = counted


# -- exact-range guard


def check_exact_range(cartan_type, p, m, r=1):
    """Refuse (type, p, m, r) outside the exact int64 range.

    `CoeffRing.mat_mul` multiplies int64 entries below q = p^m and sums
    n = dim g products per cell, which is exact only while
    n (q - 1)^2 < 2^63.  Past that it wraps silently, so such configs
    are not measured."""
    n = root_datum(cartan_type)[0].dim
    q = p ** m
    if n * (q - 1) ** 2 >= INT64_LIMIT:
        raise GeneratorError(
            "%s over GR(%d^%d, %d): n (q-1)^2 = %d >= 2^63"
            % (cartan_type, p, m, r, n * (q - 1) ** 2))


def max_exact_precision(cartan_type, p, r=1):
    """Largest m with check_exact_range(cartan_type, p, m, r) passing."""
    m = 1
    while True:
        try:
            check_exact_range(cartan_type, p, m + 1, r)
        except GeneratorError:
            return m
        m += 1


# -- canonical outputs


def mat_digest(mat):
    """Short SHA-256 of an exact int64 matrix (shape included)."""
    a = np.ascontiguousarray(np.asarray(mat, dtype=np.int64))
    h = hashlib.sha256(repr(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def canonical(obj):
    """Exact JSON-ready copy: numpy scalars/arrays to ints/lists,
    tuples to lists, dict keys to strings."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2 ** 31, size=k)]


# -- local workloads (local-r1, local-ext)


def _pick_roots(roots, count, rng):
    """`count` seeded roots, or all of them in order when count is None."""
    if count is None:
        return list(roots)
    return [roots[int(k)] for k in rng.choice(len(roots), size=count,
                                               replace=False)]


def _local_config_ops(name, p, m, r, rng, stab_roots, space_roots, gram):
    """The verified local calls for one (type, p, m, r) config: one
    smoothness sample per variant on a simple root; for each of
    `stab_roots` roots a Frobenius member (seeded variant) and stability
    checks for up to two seeded beta in Phi^alpha; ordinary stability
    on up to two negative roots; condition spaces on `space_roots`
    roots; the duality Gram rank when `gram` is set (it depends on the
    residue field only, not on m)."""
    datum, basis = root_datum(name)
    check_exact_range(name, p, m + 1, r)   # smoothness lifts to m + 1
    model = lc.TameLocalModel(datum, basis, p, m, 1 + p, r=r)
    tag = "%s/p%d/m%d/r%d" % (name, p, m, r)
    n = datum.dim
    roots = [tuple(a) for a in datum.roots]
    ops = []

    simple = tuple(datum.positive_roots[0])
    for variant, probe_seed in zip(("plain", "unr2", "ram2"), _seeds(rng, 3)):
        def smooth(state, variant=variant, probe_seed=probe_seed):
            got = lc.smoothness_probe(model, simple, variant, 1,
                                      np.random.default_rng(probe_seed))
            return {"cfg": tag, "smooth": variant, "lifted": got}, got == 1
        ops.append(Op("smoothness_probe", smooth))

    for alpha in _pick_roots(roots, stab_roots, rng):
        variant, vv = (("unr2", "unr"), ("ram2", "ram"))[int(rng.integers(2))]
        frob_seed = int(rng.integers(0, 64))
        pa = [tuple(b) for b in phi_alpha(basis, alpha)]
        betas = [(beta, int(rng.integers(1, p)))
                 for beta in _pick_roots(pa, min(2, len(pa)), rng)]

        def frob(state, alpha=alpha, variant=variant, frob_seed=frob_seed):
            lift, _ = lc.frobenius_member(model, alpha, variant,
                                          seed=frob_seed)
            state[(tag, alpha, variant)] = lift
            return {"cfg": tag, "frob": alpha, "variant": variant,
                    "sigma": mat_digest(lift.sigma.mat),
                    "tau": mat_digest(lift.tau.mat)}, True
        ops.append(Op("frobenius_member", frob))
        for beta, lam in betas:
            def stab(state, alpha=alpha, variant=variant, vv=vv, beta=beta,
                     lam=lam):
                lift = state[(tag, alpha, variant)]
                g, coc = lc.stability_check(lift, alpha, vv, {beta: lam})
                return {"cfg": tag, "stab": [alpha, variant, beta, lam],
                        "g": mat_digest(g.mat),
                        "cocycle": [mat_digest(coc.sigma),
                                    mat_digest(coc.tau)]}, True
            ops.append(Op("stability_check", stab))

    omodel = lc.OrdinaryLocalModel(
        datum, basis, p, m, 1,
        {"s": tuple([1 + p] * datum.rank),
         "u1": tuple([1 + 2 * p] * datum.rank)}, r=r)
    olift = lc.OrdinaryLift(omodel, {
        g: GroupElement(omodel.alg,
                        lc._torus_matrix_from_chi(omodel, g, omodel.ring.q),
                        "torus") for g in omodel.generators})
    negs = [tuple(b) for b in datum.roots if not datum._is_positive(b)]
    for beta in _pick_roots(negs, min(2, len(negs)), rng):
        lam = int(rng.integers(1, p))

        def ostab(state, beta=beta, lam=lam):
            g = lc.ordinary_stability_check(olift, beta, lam)
            return {"cfg": tag, "ostab": [beta, lam],
                    "g": mat_digest(g.mat)}, True
        ops.append(Op("ordinary_stability_check", ostab))

    for alpha in _pick_roots(roots, space_roots, rng):
        def spaces(state, alpha=alpha):
            sp = lc.condition_spaces(model, alpha, "unr")
            dims = {key: int(sp[key].dim) for key in sorted(sp)}
            return ({"cfg": tag, "spaces": alpha, "dims": dims,
                     "l_perp": mat_digest(sp["l_perp"].basis)},
                    dims["l"] == n and dims["l_perp"] == n)
        ops.append(Op("condition_spaces", spaces))

    if gram:
        def gram_rank(state):
            K = model.residue
            full = lc.full_h1_basis(K, n)
            g = lc.pairing_gram(K, full, full).reshape(2 * n, 2 * n, K.r)
            rk = fl.rank_f(K, g)
            return {"cfg": tag, "gram_rank": rk}, rk == 2 * n
        ops.append(Op("duality_gram", gram_rank))
    return ops


def build_local_r1(rng):
    """Matrix-path heavy: stability on every root of every config."""
    ops = []
    for name in ("A1", "A2", "B2", "G2"):
        gram_p = int(rng.choice([5, 7, 13]))
        for p in (5, 7, 13):
            for m in (3, 4):
                ops.extend(_local_config_ops(
                    name, p, m, 1, rng, stab_roots=None, space_roots=1,
                    gram=(p == gram_p and m == 3)))
    return ops


def build_local_ext(rng):
    """Residue-field elimination heavy: condition spaces on every root
    over GR(p^3, r), r > 1."""
    ops = []
    for name in ("A1", "A2", "B2"):
        for r in (2, 3):
            gram_p = int(rng.choice([5, 7]))
            for p in (5, 7):
                ops.extend(_local_config_ops(
                    name, p, 3, r, rng, stab_roots=2, space_roots=None,
                    gram=(p == gram_p)))
    return ops


# -- global-selmer


def _balanced_model(name, n_trivial, p, rank, rng, tries=64):
    """A balanced model whose Selmer rank is exactly `rank`: prescribed
    classes can meet extra random ones, so draws are repeated (seeded)
    until the computed rank matches.  This fixes the number of
    annihilation steps per pass, whatever the seed."""
    datum, basis = root_datum(name)
    for model_seed in _seeds(rng, tries):
        model = sm.build_balanced_model(datum, basis, p, n_trivial=n_trivial,
                                        selmer_rank=rank, seed=model_seed)
        model = sm.attach_adjoint_eta(model)
        system = sm.standard_balanced_system(model)
        if sm.selmer_compute(model, system)[2]["h1_L"] == rank:
            return model, system, model_seed
    raise GeneratorError("no %s model of Selmer rank %d at p=%d in %d draws"
                         % (name, rank, p, tries))


def build_global_selmer(rng):
    ops = []
    i = 0
    for name, n_trivial in (("A1", 1), ("A1", 2), ("A2", 1), ("B2", 1)):
        for p in (5, 7, 13):
            rank = 1 + i % 2
            i += 1
            model, system, model_seed = _balanced_model(name, n_trivial, p,
                                                        rank, rng)
            loop_seed = int(rng.integers(0, 2 ** 31))

            def kill(state, model=model, system=system, loop_seed=loop_seed,
                     tag="%s/t%d/p%d/s%d" % (name, n_trivial, p, model_seed)):
                _, _, rep = sm.selmer_compute(model, system)
                trace, model2, _ = sm.annihilation_loop(
                    model, system, np.random.default_rng(loop_seed))
                steps_ok = all(b == (a[0] - 1, a[1] - 1)
                               for a, b in zip(trace, trace[1:]))
                witnesses = [[pl.frame["alpha"], pl.frame["t"],
                              pl.frame["c"]]
                             for pl in model2.places if pl.frame]
                out = {"model": tag, "balance": rep, "trace": trace,
                       "witnesses": witnesses}
                return out, (rep["balanced"] and trace[-1] == (0, 0)
                             and steps_ok)
            ops.append(Op("selmer_model", kill))
    for p in (5, 7):
        dm = sm.DoublingModel(p, 1, [2], [[1, 0]], [
            {"Y": np.array([0, 1], dtype=np.int64),
             "X": np.array([1], dtype=np.int64), "kind": "gens"}])
        for exhaustive in (True, False):
            for _ in range(3):
                # the toy model reaches exactly the targets with z_1 = 1
                z = np.array([int(rng.integers(0, p)), 1], dtype=np.int64)
                solve_seed = int(rng.integers(0, 2 ** 31))

                def dbl(state, dm=dm, z=z, exhaustive=exhaustive,
                        solve_seed=solve_seed):
                    res = sm.doubling_solve(dm, z,
                                            np.random.default_rng(solve_seed),
                                            exhaustive=exhaustive)
                    out = {"doubling": [dm.p, z, exhaustive],
                           "h_T": res["h_T"], "draws": res.get("draws", 0),
                           "pairs": res["pairs"]}
                    return out, bool(res["verified"])
                ops.append(Op("doubling_solve", dbl))
    return ops


# -- modules

SYM_TYPES = ("A1", "A2", "A3", "B2", "G2", "D4", "B3")


def _meataxe_rng(p):
    """The MeatAxe's random algebra elements come from a stream fixed
    by the field, not by the workload seed: one D4 decomposition takes
    0.44 to 1.09 s depending on the draw, and a few such draws per run
    would make ops_per_s a measure of the draw, not of the code."""
    return np.random.default_rng(p)


def build_modules(rng):
    """Seeded: the normalizer primes.  Fixed: the principal-SL2 list and
    the MeatAxe streams (see _meataxe_rng)."""
    ops = []
    for name in SYM_TYPES:
        datum, _ = root_datum(name)
        want = sorted(2 * e for e in datum.exponents())
        for p in (13, 17):
            def sym(state, name=name, p=p, want=want):
                r = od.sym_adjoint_decomposition(name, p, _meataxe_rng(p))
                iso = sorted(r["isotypic"])
                # D4 is the one type with a multiplicity-two summand
                ok = (r["sym_weights"] == want
                      and r["multiplicity_free"] == (name != "D4"))
                return {"sym": [name, p], "isotypic": iso,
                        "multiplicity_free": r["multiplicity_free"]}, ok
            ops.append(Op("sym_adjoint_decomposition", sym))
    for name in ("A2", "B2", "G2"):
        p = int(rng.choice([7, 11, 13]))

        def norm(state, name=name, p=p):
            r = od.normalizer_decomposition(name, p, _meataxe_rng(p))
            want = 2 if r["simply_laced"] else 3
            return {"normalizer": [name, p], "dims": r["dims"],
                    "count": r["count"]}, r["count"] == want
        ops.append(Op("normalizer_decomposition", norm))

    def f4(state):
        a6, psl = od.exceptional_pipeline(11)
        ok = (a6.trace_order2 == -4 and psl.trace_order2 == -4
              and a6.fixed_dim == 24 and a6.dim_flag == 24
              and a6.multiplicities == [0, 0, 0, 1, 3, 0, 2]
              and 2 in psl.multiplicities
              and not a6.multiplicity_free and not psl.multiplicity_free)
        return {"exceptional": 11,
                "multiplicities": [a6.multiplicities, psl.multiplicities]}, ok
    ops.append(Op("exceptional_pipeline", f4))
    return ops


# -- lift-tower

TOWER_TYPE = "A1"
TOWER_PRIMES = (5, 7, 13)
TOWER_MODELS = 4


def tower_caps():
    """Top precision per prime: the int64-exact cap of the guard."""
    return {p: max_exact_precision(TOWER_TYPE, p) for p in TOWER_PRIMES}


def build_lift_tower(rng):
    caps = tower_caps()
    ops = []
    for p in TOWER_PRIMES:
        check_exact_range(TOWER_TYPE, p, caps[p])
        for model_seed in _seeds(rng, TOWER_MODELS):
            step_seed = int(rng.integers(0, 2 ** 31))

            def init(state, p=p, model_seed=model_seed, step_seed=step_seed):
                e2e = EndToEndModel(TOWER_TYPE, p, model_seed)
                state["tower"] = (e2e, np.random.default_rng(step_seed))
                return {"tower": [p, model_seed],
                        "global": e2e.global_model.spec_json()}, True
            ops.append(Op("model_init", init, counted=False))
            for level in range(3, caps[p] + 1):
                def step(state, level=level):
                    e2e, step_rng = state["tower"]
                    rep = canonical(e2e.step(step_rng))
                    ok = (rep["level"] == level
                          and all(pl["membership"] for pl in rep["places"]))
                    return rep, ok
                ops.append(Op("level", step))
    return ops


GENERATORS = {
    "local-r1": build_local_r1,
    "local-ext": build_local_ext,
    "global-selmer": build_global_selmer,
    "modules": build_modules,
    "lift-tower": build_lift_tower,
}


def build(name, seed):
    """The fixed, seeded op list of one workload."""
    return GENERATORS[name](np.random.default_rng(seed))
