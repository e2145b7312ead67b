import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspo.errors import DimensionMismatch, NonFinite
from tspo.exact import enumerate_binary, solve_milp_bnb
from tspo.milp import (
    BLOCKS,
    ParamTemplate,
    Slot,
    StandardFormMilp,
    backprop_slots,
    check_feasibility,
    instantiate,
)


def simple_milp(**kw):
    base = dict(c=[2.0, 3.0], A=np.zeros((0, 2)), b=[], G=[[1.0, 1.0]], h=[1.0])
    base.update(kw)
    return StandardFormMilp(**base)


class TestStandardFormMilp:
    def test_shapes_and_props(self):
        m = simple_milp()
        assert (m.d, m.p, m.q) == (2, 0, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            simple_milp(b=[1.0])
        with pytest.raises(DimensionMismatch):
            simple_milp(G=[[1.0, 1.0, 1.0]])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFinite):
            simple_milp(c=[np.nan, 1.0])
        with pytest.raises(NonFinite):
            simple_milp(h=[np.inf])

    def test_int_vars_range(self):
        with pytest.raises(DimensionMismatch):
            simple_milp(int_vars=frozenset({2}))

    def test_arrays_read_only(self):
        m = simple_milp()
        with pytest.raises(ValueError):
            m.c[0] = 5.0


class TestInstantiate:
    def test_identity_slot(self):
        t = ParamTemplate(simple_milp(), (Slot("h", 0, 0),), t=1)
        assert instantiate(t, np.array([5.0])).h[0] == 5.0

    def test_alloy_layout_audit(self):
        # Covering rows G[m, k] must equal the estimated concentration con[k, m]
        # (positive sign: the canonical form is G x >= h).
        from tspo.problems import AlloySpec, alloy_problem

        spec = AlloySpec(K=3, M=2, cost=[1.0, 2.0, 3.0], req=[1.0, 1.5], sigma=[0.1, 0.1, 0.1])
        prob = alloy_problem(spec)
        con = np.arange(1, 7, dtype=float).reshape(3, 2) / 10.0
        milp = instantiate(prob.stage1, con.ravel())
        for k in range(3):
            for m in range(2):
                assert milp.G[m, k] == con[k, m]
        assert np.array_equal(milp.h, spec.req)

    def test_errors(self):
        t = ParamTemplate(simple_milp(), (Slot("h", 0, 0),), t=1)
        with pytest.raises(DimensionMismatch):
            instantiate(t, np.array([1.0, 2.0]))
        with pytest.raises(NonFinite):
            instantiate(t, np.array([np.nan]))

    @given(lam=st.floats(0.0, 1.0), t1=st.floats(-5, 5), t2=st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_affine_in_theta(self, lam, t1, t2):
        tpl = ParamTemplate(simple_milp(), (Slot("h", 0, 0, scale=2.0), Slot("c", 1, 0)), t=1)
        blend = instantiate(tpl, np.array([lam * t1 + (1 - lam) * t2]))
        a = instantiate(tpl, np.array([t1]))
        b = instantiate(tpl, np.array([t2]))
        assert blend.h[0] == pytest.approx(lam * a.h[0] + (1 - lam) * b.h[0], abs=1e-12)
        assert blend.c[1] == pytest.approx(lam * a.c[1] + (1 - lam) * b.c[1], abs=1e-12)

    @pytest.mark.parametrize("family", ["alloy", "knapsack", "nsp", "stocking", "facility"])
    def test_only_slotted_blocks_copied(self, family):
        # An instance owns fresh copies of the blocks that hold a slot and
        # shares the skeleton's read-only arrays for the rest, so instances
        # kept across training epochs do not each hold a copy of G and A.
        from tspo.cli import build_problem

        def buffer(a):
            return a.__array_interface__["data"][0]

        _, prob = build_problem(family, {}, 0.25, 0)
        for tpl in (prob.stage1, prob.stage2):
            sk = tpl.skeleton
            before = {name: getattr(sk, name).copy() for name in BLOCKS}
            milp = instantiate(tpl, np.arange(1.0, tpl.t + 1.0))
            slotted = {s.block for s in tpl.slots}
            for name in BLOCKS:
                shared = buffer(getattr(milp, name)) == buffer(getattr(sk, name))
                assert shared == (name not in slotted), (name, slotted)
                assert np.array_equal(getattr(sk, name), before[name])
        if family == "nsp":
            assert {name for name in BLOCKS if buffer(getattr(milp, name)) != buffer(getattr(sk, name))} == {"h"}

    def test_backprop_slots_adjoint(self):
        # slot pullback must be the transpose of the slot push-forward
        tpl = ParamTemplate(
            simple_milp(),
            (Slot("h", 0, 0, scale=2.0), Slot("c", 0, 1, scale=-1.0), Slot("c", 1, 1, scale=3.0)),
            t=2,
        )
        g = {"h": np.array([5.0]), "c": np.array([7.0, 11.0])}
        out = backprop_slots(tpl, g)
        assert np.allclose(out, [2.0 * 5.0, -7.0 + 3.0 * 11.0])


class TestObjective:
    def test_matches_exact_solver_objective(self):
        rng = np.random.default_rng(0)
        d = 4
        G = np.vstack([-rng.uniform(1, 3, size=(1, d)), -np.eye(d)])
        h = np.concatenate([[-6.0], -np.ones(d)])
        m = StandardFormMilp(c=-rng.uniform(1, 5, size=d), A=np.zeros((0, d)), b=[], G=G, h=h,
                             int_vars=frozenset(range(d)))
        sol = solve_milp_bnb(m)
        assert float(m.c @ sol.x) == pytest.approx(sol.objective, abs=1e-12)


class TestFeasibility:
    def test_boundary_feasible_at_zero_tol(self):
        m = StandardFormMilp(c=[0.0], A=np.zeros((0, 1)), b=[], G=[[1.0]], h=[1.0])
        assert check_feasibility(m, np.array([1.0]), tol=0.0)

    def test_violation_magnitude(self):
        m = StandardFormMilp(c=[0.0], A=np.zeros((0, 1)), b=[], G=[[1.0]], h=[1.0])
        # The violation at x = 0.999 is 1e-3: tolerances just either side of it
        # bracket the measured magnitude.
        assert not check_feasibility(m, np.array([0.999]), tol=1e-6)
        assert not check_feasibility(m, np.array([0.999]), tol=0.999e-3)
        assert check_feasibility(m, np.array([0.999]), tol=1.001e-3)

    def test_integrality_check(self):
        m = StandardFormMilp(c=[0.0], A=np.zeros((0, 1)), b=[], G=np.zeros((0, 1)), h=[],
                             int_vars=frozenset({0}))
        assert not check_feasibility(m, np.array([0.4]))
        assert check_feasibility(m, np.array([1.0 + 1e-9]))

    def test_matches_brute_force_on_knapsack(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(5, 40, size=6)
        m = StandardFormMilp(c=np.zeros(6), A=np.zeros((0, 6)), b=[],
                             G=np.vstack([-s[None, :], -np.eye(6)]),
                             h=np.concatenate([[-100.0], -np.ones(6)]),
                             int_vars=frozenset(range(6)))
        for trial in range(40):
            x = rng.integers(0, 2, size=6).astype(float)
            direct = float(s @ x) <= 100.0
            assert check_feasibility(m, x) == direct
