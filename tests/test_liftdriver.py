import hashlib
import json

import numpy as np
import pytest

from liftlab.chevgroup import u_alpha
from liftlab.coeffring import CoeffRing
from liftlab.liftdriver import DriverError, EndToEndModel, lifting_driver


def test_driver_m3():
    reports, e2e = lifting_driver("A1", p=5, max_precision=3, seed=0)
    assert [r["level"] for r in reports] == [3]
    assert all(pl["membership"] for r in reports for pl in r["places"])


def test_driver_m5_all_levels_verified():
    reports, e2e = lifting_driver("A1", p=5, max_precision=5, seed=1)
    assert [r["level"] for r in reports] == [3, 4, 5]
    for r in reports:
        variants = [pl["variant"] for pl in r["places"]]
        assert variants == ["unr2", "ram2", "ordinary"]
        assert all(pl["membership"] for pl in r["places"])


def test_driver_uses_extra_cocycles():
    reports, _ = lifting_driver("A1", p=5, max_precision=5, seed=3)
    assert any(pl["s_part"] for r in reports for pl in r["places"])


def test_driver_other_seed_and_p():
    reports, _ = lifting_driver("A1", p=7, max_precision=4, seed=2)
    assert [r["level"] for r in reports] == [3, 4]


def test_sabotaged_condition_dimension_detected():
    e2e = EndToEndModel("A1", 5, seed=0)
    # corrupting a local condition's dimension breaks the setup solver
    # (the Poitou-Tate correction matrix stops being bijective)
    e2e.local_bases[0] = e2e.local_bases[0][:-1]
    with pytest.raises(DriverError):
        e2e._setup_correction_solver()


@pytest.mark.parametrize("place", [0, 1, 2])
def test_wrong_conjugator_in_correction_is_caught(monkeypatch, place):
    # one correction step compares G newmember with corrected G; a
    # conjugator off by u_beta(p^{m-2}) on a negative root must fail it
    e2e = EndToEndModel("A1", 5, seed=0)
    target = e2e.places[place]
    right = EndToEndModel._correct
    beta = e2e.datum.neg(e2e.datum.positive_roots[0])

    def patched(self, k, *args):
        st = self.places[k]
        if st is target:
            good, R = st.conjugator, st.model.ring
            st.conjugator = lambda: good() @ u_alpha(
                st.model.alg, beta, R.el(R.p ** (R.m - 2)))
        try:
            return right(self, k, *args)
        finally:
            vars(st).pop("conjugator", None)

    monkeypatch.setattr(EndToEndModel, "_correct", patched)
    with pytest.raises(DriverError, match="does not match"):
        e2e.step(np.random.default_rng(5))


def test_driver_uses_no_hensel_inverse(monkeypatch):
    # conjugators carry closed-form inverses and the discrepancy needs
    # only the inverse mod p
    want, _ = lifting_driver("A1", p=5, max_precision=5, seed=3)

    def no_inverse(self, A):
        raise AssertionError("Hensel-lifted inverse called")

    monkeypatch.setattr(CoeffRing, "mat_inv", no_inverse)
    got, _ = lifting_driver("A1", p=5, max_precision=5, seed=3)
    assert got == want


# SHA-256 of the sorted-key JSON of lifting_driver's A1 reports at
# (p, max_precision, seed) the README does not run; any change to their
# bytes must be deliberate.
DRIVER_SHA256 = {
    (7, 6, 2):
        "13dca974d61f526b58b27552af71a33b3c601b993277b614a42465dc17e3b6b2",
    (13, 5, 3):
        "1f6f72515e68b0be34a3c12866b0979bdbaf3009b1c2f8289ac8006df6a308a2",
}


@pytest.mark.parametrize("p, top, seed", sorted(DRIVER_SHA256))
def test_driver_reports_are_pinned(p, top, seed):
    reports, _ = lifting_driver("A1", p=p, max_precision=top, seed=seed)
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DRIVER_SHA256[p, top, seed]
