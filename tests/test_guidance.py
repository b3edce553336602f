"""The in-package RK45 and the guidance trajectories built on it.

scipy's solve_ivp is the oracle: wavepacket._rk45 must reproduce it bit for
bit, and bohm_trajectories must return exactly what the solve_ivp-based
version below returned.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from tunneltime import wavepacket as wp
from tunneltime.scattering import PiecewisePotential
from tunneltime.units import k_of_E


def scipy_rk45(fun, t0, t1, y0, t_eval, rtol, atol):
    """(t, y, success) from solve_ivp, shaped as _rk45 returns them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_ivp(lambda t, y: [fun(float(t), float(y[0]))], (t0, t1), [y0],
                        method="RK45", t_eval=t_eval, rtol=rtol, atol=atol)
    if len(sol.t) == 0:
        return np.array([]), np.array([]), sol.success
    return sol.t, sol.y[0], sol.success


def assert_same(got, want):
    assert got[2] == want[2]
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def run_rk45(fun, t0, t1, y0, t_eval, rtol, atol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wp._rk45(fun, t0, t1, y0, t_eval, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# _rk45 against solve_ivp

coef = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def grids(draw):
    t0 = draw(st.floats(-2.0, 2.0))
    span = draw(st.floats(0.01, 1.5)) * draw(st.sampled_from([-1.0, 1.0]))
    t1 = t0 + span
    lo, hi = min(t0, t1), max(t0, t1)
    inner = draw(st.lists(st.floats(lo, hi), max_size=40))
    ends = draw(st.sampled_from([[], [t0], [t1], [t0, t1]]))
    t_eval = np.unique(np.array(inner + ends, dtype=float))
    if t_eval.size == 0:
        t_eval = np.array([t1])
    return t0, t1, t_eval[::-1] if t1 < t0 else t_eval


@settings(max_examples=120, deadline=None)
@given(a=coef, b=coef, c=coef, w=coef, grid=grids(),
       y0=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
       rtol=st.sampled_from([1e-16, 1e-15, 1e-13, 1e-8, 1e-5, 1e-3]),
       atol=st.sampled_from([1e-12, 1e-8, 1e-6, 1e-3]))
def test_rk45_matches_solve_ivp_bit_for_bit(a, b, c, w, grid, y0, rtol, atol):
    t0, t1, t_eval = grid

    def fun(t, y):
        return a * math.sin(w * t + y) + b * y + c * t * math.cos(y)

    assert_same(run_rk45(fun, t0, t1, y0, t_eval, rtol, atol),
                scipy_rk45(fun, t0, t1, y0, t_eval, rtol, atol))


def test_rk45_clamps_rtol_as_solve_ivp_does():
    with pytest.warns(UserWarning, match="rtol"):
        wp._rk45(lambda t, y: -y, 0.0, 1.0, 1.0, np.linspace(0.0, 1.0, 5), rtol=1e-20, atol=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rk45_blow_up_stops_as_solve_ivp_does(sign):
    # y' = sign y^2, y(0) = 1: y = 1 / (1 - sign t) is singular at t = sign
    def fun(t, y):
        return sign * y * y

    t_eval = np.linspace(0.0, 2.0 * sign, 101)
    got = run_rk45(fun, 0.0, 2.0 * sign, 1.0, t_eval, 1e-3, 1e-6)
    assert not got[2]
    assert 0 < got[0].size < t_eval.size   # the samples before the singularity
    assert_same(got, scipy_rk45(fun, 0.0, 2.0 * sign, 1.0, t_eval, 1e-3, 1e-6))


def test_rk45_empty_span_returns_no_samples():
    t, y, ok = wp._rk45(lambda t, y: 1.0, 0.5, 0.5, 2.0, np.array([0.5]), rtol=1e-6, atol=1e-9)
    assert ok and t.size == 0 and y.size == 0
    assert_same((t, y, ok), scipy_rk45(lambda t, y: 1.0, 0.5, 0.5, 2.0, np.array([0.5]),
                                       1e-6, 1e-9))


# ---------------------------------------------------------------------------
# bohm_trajectories against the solve_ivp version it replaced


def _parent_bohm_trajectories(packet, potential, seeds, t_start, t_end,
                              rho_floor_rel=1e-8, rtol=1e-6, n_out=801):
    """Copy of the solve_ivp-based bohm_trajectories (the oracle), verbatim
    but for the right-hand side's evolve call, which goes to a copy of
    evolve's scalar branch as it stood, so the oracle shares no point
    evaluator with the code under test."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    if not (math.isfinite(t_start) and math.isfinite(t_end) and np.isfinite(seeds).all()):
        raise ValueError(f"t_start, t_end and the seeds must be finite, got "
                         f"t_start={t_start}, t_end={t_end}, seeds={seeds}")
    from scipy.integrate import solve_ivp   # deferred: scipy is slow to import

    ens_u = packet.units
    psi0, _ = wp.evolve(packet, potential, seeds, t_start)
    rho_floor = rho_floor_rel * float(np.max(np.abs(psi0) ** 2))
    t_eval = np.linspace(t_start, t_end, n_out)
    x_scale = 1.0 / packet.dk  # packet spatial width, A

    out = []
    for x0 in seeds:
        hit_floor = [False]

        def rhs(t, y):
            psi, dpsi = _parent_evolve_point(packet, potential, float(y[0]), float(t))
            rho = abs(psi) ** 2
            if rho < rho_floor:
                hit_floor[0] = True
                return [0.0]
            return [ens_u.hbar_over_m * float(np.imag(np.conj(psi) * dpsi)) / rho]

        sol = solve_ivp(rhs, (t_start, t_end), [float(x0)], method="RK45",
                        t_eval=t_eval, rtol=rtol, atol=1e-4 * x_scale)
        xs = sol.y[0]
        traj = wp.BohmTrajectory(t=sol.t, x=xs, degenerate=hit_floor[0] or not sol.success)
        if potential.segments:
            xl, xr = potential.x_left, potential.x_right
            traj.barrier_entry = _parent_first_crossing(sol.t, xs, xl)
            traj.barrier_exit = _parent_first_crossing(sol.t, xs, xr)
        out.append(traj)
    return out


def _parent_evolve_point(packet, potential, x, t):
    ens = wp._ensemble(packet, potential)
    xv, tv = float(x), float(t)
    if not (math.isfinite(xv) and math.isfinite(tv)):
        raise ValueError("x and t must be finite")
    pj, dj = ens.modes_at(xv)
    phase = wp._phase(np.array([tv]), ens.omega)
    return ((phase @ (ens.coef * pj)[:, None])[0, 0],
            (phase @ (ens.coef * dj)[:, None])[0, 0])


def _parent_first_crossing(t, x, level):
    above = x >= level
    idx = np.nonzero(above[1:] & ~above[:-1])[0]
    if above[0]:
        return float(t[0])
    if len(idx) == 0:
        return math.nan
    i = idx[0]
    frac = (level - x[i]) / (x[i + 1] - x[i])
    return float(t[i] + frac * (t[i + 1] - t[i]))


# (V0, d, E, dk, n_nodes, seed region, t_start, t_end, rho_floor_rel)
SCENES = {
    "square": (10.0, 2.0, 5.0, 0.05, 65, (-80.0, -40.0), -1.2e-14, 1e-14, 1e-8),
    "double": (8.0, 1.5, 5.0, 0.04, 65, (-90.0, -50.0), -1.3e-14, 0.8e-14, 1e-8),
    # seeds reach far into the left tail: the outer ones start below the floor
    "floor": (10.0, 2.0, 5.0, 0.05, 49, (-140.0, 20.0), -1.2e-14, 0.6e-14, 1e-2),
}


@pytest.mark.parametrize("name", sorted(SCENES))
def test_bohm_trajectories_match_solve_ivp_version(name):
    V0, d, E, dk, n, region, t0, t1, floor = SCENES[name]
    packet = wp.SpectralPacket.gaussian(float(k_of_E(E)), dk, n_nodes=n)
    if name == "double":
        pot = PiecewisePotential.double_barrier(V0, d, 2.0)
    else:
        pot = PiecewisePotential.square(V0, d)
    seeds = np.linspace(*region, 3)
    kwargs = dict(rho_floor_rel=floor, rtol=1e-5, n_out=61)
    got = wp.bohm_trajectories(packet, pot, seeds, t0, t1, **kwargs)
    want = _parent_bohm_trajectories(packet, pot, seeds, t0, t1, **kwargs)
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.t.tobytes() == w.t.tobytes()
        assert g.x.tobytes() == w.x.tobytes()
        assert g.degenerate == w.degenerate
        for field in ("barrier_entry", "barrier_exit"):
            assert np.array_equal(getattr(g, field), getattr(w, field), equal_nan=True)
    if name == "floor":
        assert any(g.degenerate for g in got)


def test_bohm_trajectories_evaluate_the_guidance_off_evolve(monkeypatch):
    # the right-hand side uses the point evaluator on an ensemble resolved
    # once; evolve serves only the seeds' density
    packet = wp.SpectralPacket.gaussian(float(k_of_E(5.0)), 0.05, n_nodes=49)
    pot = PiecewisePotential.square(10.0, 2.0)
    calls = []
    evolve = wp.evolve

    def counted(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(wp, "evolve", counted)
    trajs = wp.bohm_trajectories(packet, pot, [-70.0, -60.0], -1.2e-14, -0.6e-14, n_out=11)
    assert all(tr.t.size == 11 for tr in trajs)
    assert len(calls) == 1

