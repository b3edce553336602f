"""Bohm trajectories from the 1-D no-crossing property.

The mass to the right of a trajectory is conserved, so bohm_trajectories
needs no ODE: its samples are density quantiles and its barrier entry and
exit come from probe fluxes. Integrations of the guidance equation
x' = J/rho with scipy's solve_ivp are the oracles, compared to a stated
tolerance: the solve_ivp version that bohm_trajectories once was, on the
scenes it handled, and a tight DOP853 integration on transmitted seeds. A
copy of the loop that summed the density once per block of output times is
the oracle of the one sweep that replaced it.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from tunneltime import wavepacket as wp
from tunneltime.scattering import PiecewisePotential
from tunneltime.units import k_of_E, v_of_k


def _parent_bohm_trajectories(packet, potential, seeds, t_start, t_end,
                              rho_floor_rel=1e-8, rtol=1e-6, n_out=801, atol=None):
    """Copy of the solve_ivp-based bohm_trajectories (the oracle), verbatim
    but for the right-hand side's evolve call, which goes to a copy of
    evolve's scalar branch as it stood, so the oracle shares no point
    evaluator with the code under test, and for ``atol`` (A), which
    defaults to the 1e-4 / dk it stepped with."""
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

        sol = solve_ivp(rhs, (t_start, t_end), [float(x0)], method="RK45", t_eval=t_eval,
                        rtol=rtol, atol=1e-4 * x_scale if atol is None else atol)
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


def bohm_velocity(packet, potential, x, t):
    """Guidance velocity J/rho in A/s at (x, t): the right-hand side of the
    tight DOP853 integration below."""
    psi, dpsi = wp.evolve(packet, potential, x, t)
    rho = abs(psi) ** 2
    return float(packet.units.hbar_over_m * np.imag(np.conj(psi) * dpsi) / rho)


def test_bohm_velocity_free_centroid():
    # at the free packet's centroid the guidance velocity is the group velocity
    k = float(k_of_E(5.0))
    packet = wp.SpectralPacket.gaussian(k, 0.02)
    v = bohm_velocity(packet, PiecewisePotential.free(), 0.0, 0.0)
    assert v == pytest.approx(v_of_k(k), rel=1e-3)


def _potential(name, V0, d):
    if name == "double":
        return PiecewisePotential.double_barrier(V0, d, 2.0)
    return PiecewisePotential.square(V0, d)


def _transmitted_seeds(packet, pot, t_start, n):
    """Seeds as `tunneltime bohm` places them: the transmitted quantiles."""
    xc = float(v_of_k(packet.k0)) * t_start
    region = (xc - 6.0 / packet.dk, min(xc + 8.0 / packet.dk, pot.x_left))
    P_T = wp.transmitted_norm(packet, pot)
    return wp.seed_positions(packet, pot, t_start, n, region, quantile_range=(1.0 - P_T, 1.0))


# ---------------------------------------------------------------------------
# against the solve_ivp version it replaced

# (V0, d, E, dk, n_nodes, seed region, t_start, t_end, the oracle's
# rho_floor_rel, bohm_trajectories' degenerate flags)
SCENES = {
    "square": (10.0, 2.0, 5.0, 0.05, 65, (-80.0, -40.0), -1.2e-14, 1e-14, 1e-8, [False] * 3),
    "double": (8.0, 1.5, 5.0, 0.04, 65, (-90.0, -50.0), -1.3e-14, 0.8e-14, 1e-8, [False] * 3),
    # the seeds reach far into the tails: the last lies beyond the packet
    # front at t_start, where no window holds its mass
    "floor": (10.0, 2.0, 5.0, 0.05, 49, (-140.0, 20.0), -1.2e-14, 0.6e-14, 1e-2,
              [False, False, True]),
}

# at the absolute tolerance it stepped with, 1e-4 / dk (2.5e-3 A here), the
# oracle is not converged: weights moved by 3e-13 move its middle "double"
# trajectory by 4.6 A, and rtol 1e-6 moves it by 10.5 A. At rtol 1e-10 and
# atol 1e-8 A it agrees with DOP853 at rtol 1e-12, atol 1e-10 A to 1e-3 A;
# its samples then differ from the quantiles by up to 0.28 A, and its
# sampled crossings from the flux crossings by up to 0.6% of the dwell
X_TOL = 0.5          # A
CROSSING_TOL = 0.05  # of the barrier dwell
# the oracle's (rtol, atol in A); on "floor" it stops at its density floor on
# every seed at the tolerances it stepped with (rtol 1e-5, 1e-4 / dk), and a
# tight run through the far tail takes minutes
ORACLE_TOL = {"square": (1e-10, 1e-8), "double": (1e-10, 1e-8), "floor": (1e-5, None)}


@pytest.mark.parametrize("name", sorted(SCENES))
def test_bohm_trajectories_match_solve_ivp_version(name):
    V0, d, E, dk, n, region, t0, t1, floor, flags = SCENES[name]
    packet = wp.SpectralPacket.gaussian(float(k_of_E(E)), dk, n_nodes=n)
    pot = _potential(name, V0, d)
    seeds = np.linspace(*region, 3)
    got = wp.bohm_trajectories(packet, pot, seeds, t0, t1, n_out=401)
    rtol, atol = ORACLE_TOL[name]
    want = _parent_bohm_trajectories(packet, pot, seeds, t0, t1, rho_floor_rel=floor,
                                     rtol=rtol, n_out=401, atol=atol)
    assert [g.degenerate for g in got] == flags
    compared = 0
    for g, w in zip(got, want):
        assert g.t.tobytes() == w.t.tobytes()
        assert np.isfinite(g.x).all()
        if g.degenerate or w.degenerate:
            continue   # the oracle stops moving below its density floor
        assert np.max(np.abs(g.x - w.x)) < X_TOL
        for field in ("barrier_entry", "barrier_exit"):
            assert abs(getattr(g, field) - getattr(w, field)) < CROSSING_TOL * g.barrier_dwell
        compared += 1
    assert compared >= (0 if name == "floor" else 1)
    if name == "floor":
        # the masses are taken at t_start's front, whatever the first block spans
        assert wp.bohm_trajectories(packet, pot, seeds, t0, t1, n_out=2)[2].degenerate


@pytest.mark.parametrize("name", ["square", "double"])
def test_bohm_trajectories_match_a_tight_guidance_integration(name):
    # on the transmitted seeds the oracle above, at the atol it stepped with,
    # steps over the entry face; DOP853 at atol 1e-8 A agrees with the
    # quantiles to 0.53 A (the quantile grid's spacing) and its sampled
    # crossings with the flux crossings to 0.4% of the dwell
    V0, d, E, dk, n, _, t0, t1, _, _ = SCENES[name]
    packet = wp.SpectralPacket.gaussian(float(k_of_E(E)), dk, n_nodes=n)
    pot = _potential(name, V0, d)
    got = wp.bohm_trajectories(packet, pot, _transmitted_seeds(packet, pot, t0, 3), t0, t1,
                               n_out=801)
    for g in got:
        assert not g.degenerate
        sol = solve_ivp(lambda t, y: [bohm_velocity(packet, pot, float(y[0]), float(t))],
                        (t0, t1), [g.x[0]], method="DOP853", t_eval=g.t, rtol=1e-10, atol=1e-8)
        assert np.max(np.abs(g.x - sol.y[0])) < 0.6
        for field, level in (("barrier_entry", pot.x_left), ("barrier_exit", pot.x_right)):
            want = _parent_first_crossing(sol.t, sol.y[0], level)
            assert abs(getattr(g, field) - want) < 0.01 * g.barrier_dwell


def test_bohm_trajectories_evaluate_the_guidance_off_evolve(monkeypatch):
    # no guidance is integrated: the density comes from one row at t_start
    # (the masses) and one sweep over every output time, the crossings from
    # one flux_records call at the barrier faces on a DT_FINE grid, and
    # evolve is never called
    packet = wp.SpectralPacket.gaussian(float(k_of_E(5.0)), 0.05, n_nodes=49)
    pot = PiecewisePotential.square(10.0, 2.0)
    calls = {"evolve": 0, "rows": [], "sweeps": [], "flux": []}
    blocks, sweep, flux_records = wp._blocks, wp._quantile_sweep, wp.flux_records

    def evolve(*args, **kwargs):
        calls["evolve"] += 1

    def counted_blocks(ens, xs, ts, derivative):
        calls["rows"].append(len(ts))
        return blocks(ens, xs, ts, derivative)

    def counted_sweep(ens, xs, ts, ends, mass):
        calls["sweeps"].append(len(ts))
        return sweep(ens, xs, ts, ends, mass)

    def counted_flux(packet, potential, xs, t_grid=None, **kwargs):
        calls["flux"].append((list(xs), t_grid))
        return flux_records(packet, potential, xs, t_grid=t_grid, **kwargs)

    monkeypatch.setattr(wp, "evolve", evolve)
    monkeypatch.setattr(wp, "_blocks", counted_blocks)
    monkeypatch.setattr(wp, "_quantile_sweep", counted_sweep)
    monkeypatch.setattr(wp, "flux_records", counted_flux)
    n_out = 2 * wp.PHASE_BLOCK + 22
    trajs = wp.bohm_trajectories(packet, pot, [-70.0, -60.0], -1.2e-14, -0.6e-14, n_out=n_out)
    assert all(tr.t.size == tr.x.size == n_out for tr in trajs)
    assert calls["evolve"] == 0
    (probes, t_grid), = calls["flux"]
    assert probes == [0.0, 2.0]
    assert t_grid[0] == -1.2e-14 and t_grid[-1] == -0.6e-14
    assert np.max(np.diff(t_grid)) <= wp.DT_FINE * (1.0 + 1e-9)   # up to linspace rounding
    assert calls["sweeps"] == [n_out]
    assert calls["rows"] == [1, t_grid.size]


# ---------------------------------------------------------------------------
# properties of the quantile and flux routes


def test_crossing_times_are_stable_under_a_one_ulp_change():
    # spatial_paths' scene 12 (bench/workloads.py) as `tunneltime bohm` runs
    # it: one ulp of k0 moves the RK45 dwells of the solve_ivp route by up to
    # 8%; here the crossings move by about 1e-12 relative
    V0, d, E, dk, n = 9.96808, 3.96629, 5.60721, 0.0178504, 125
    t0, t1 = -3.19112e-14, 2.39334e-14
    pot = PiecewisePotential.square(V0, d)
    k0 = float(k_of_E(E))
    packet = wp.SpectralPacket.gaussian(k0, dk, n_nodes=n)
    moved = wp.SpectralPacket.gaussian(math.nextafter(k0, math.inf), dk, n_nodes=n)
    seeds = _transmitted_seeds(packet, pot, t0, 4)
    a = wp.bohm_trajectories(packet, pot, seeds, t0, t1, n_out=401)
    b = wp.bohm_trajectories(moved, pot, seeds, t0, t1, n_out=401)
    for u, v in zip(a, b):
        assert not (u.degenerate or v.degenerate)
        for field in ("barrier_entry", "barrier_exit", "barrier_dwell"):
            assert getattr(v, field) == pytest.approx(getattr(u, field), rel=1e-6, abs=0)


@settings(max_examples=25, deadline=None)
@given(V0=st.floats(4.0, 12.0), d=st.floats(0.5, 6.0), ratio=st.floats(0.3, 1.3),
       dk=st.floats(0.02, 0.06), n_traj=st.integers(2, 8))
def test_trajectories_never_cross_and_crossings_follow_the_mass(V0, d, ratio, dk, n_traj):
    # ordered by seed, the samples never cross; entry and exit times never
    # decrease as the mass to the right grows (first passage of a rising
    # level), with "never" (nan) as the latest
    packet = wp.SpectralPacket.gaussian(float(k_of_E(ratio * V0)), dk, n_nodes=41)
    pot = PiecewisePotential.square(V0, d)
    sigma_t = packet.sigma_t
    t0, t1 = -6.0 * sigma_t, 4.0 * sigma_t
    xc = float(v_of_k(packet.k0)) * t0
    seeds = wp.seed_positions(packet, pot, t0, n_traj, (xc - 4.0 / dk, xc + 4.0 / dk))
    trajs = wp.bohm_trajectories(packet, pot, seeds, t0, t1, n_out=97)
    x = np.array([tr.x for tr in trajs])
    assert np.all(np.diff(x, axis=0) >= 0)
    for field in ("barrier_entry", "barrier_exit"):
        times = np.array([getattr(tr, field) for tr in trajs])[::-1]   # mass rising
        times[np.isnan(times)] = np.inf
        assert np.all(times[1:] >= times[:-1])


def test_seeds_in_and_past_the_barrier_cross_at_t_start():
    # the mass right of a face at t_start counts: a seed already past a
    # face crossed it at t_start on both routes
    packet = wp.SpectralPacket.gaussian(float(k_of_E(5.0)), 0.05, n_nodes=65)
    pot = PiecewisePotential.square(10.0, 2.0)
    t0, t1 = -1e-15, 1e-14
    seeds = np.array([-0.5, 1.0, 3.0])
    trajs = wp.bohm_trajectories(packet, pot, seeds, t0, t1, n_out=801)
    assert not any(tr.degenerate for tr in trajs)
    assert trajs[0].barrier_entry > t0
    assert trajs[1].barrier_entry == trajs[2].barrier_entry == trajs[2].barrier_exit == t0
    assert trajs[1].barrier_exit > t0
    assert wp.bohm_route_disagreement(trajs, pot) < wp.BOHM_ROUTE_TOL


def test_flux_crossings_are_first_passages():
    # the mass that has crossed rises past 0.5, falls back (backflow) and
    # rises again: 0.5 is first reached at t = 1.5, 0.7 only at t = 5, and
    # a mass already right of the probe at t = 0 crosses at t = 0
    t = np.arange(7.0)
    crossed = np.array([0.0, 0.4, 0.6, 0.3, 0.4, 0.7, 0.9])
    got = wp._flux_crossings(t, crossed, np.array([0.0, 0.05, 0.5, 0.7, 0.95]))
    np.testing.assert_allclose(got[:4], [0.0, 0.125, 1.5, 5.0], rtol=0, atol=1e-15)
    assert math.isnan(got[4])


def test_quantiles_match_the_density_and_flag_missed_masses():
    # against the reverse cumulative trapezoid of the whole window, row by
    # row; a mass above a row's total is missed and placed at the left end
    packet = wp.SpectralPacket.gaussian(float(k_of_E(5.0)), 0.05, n_nodes=49)
    pot = PiecewisePotential.square(10.0, 2.0)
    ens = wp._ensemble(packet, pot)
    xs = wp._bohm_grid(packet, pot, -200.0, 150.0)
    ts = np.linspace(-1.2e-14, 6e-15, 9)
    rho = wp._density(ens, xs, ts)
    totals = [np.trapezoid(row, xs) for row in rho]
    mass = np.array([0.0, 1e-6, 0.02, 0.3, 0.9 * min(totals), 1.5 * max(totals)])
    x, missed = wp._quantile_sweep(ens, xs, ts, [xs.size], mass)
    assert missed.tolist() == [[False] * 5 + [True]] * len(ts)
    assert np.all(x[:, -1] == xs[0])
    for row, got in zip(rho, x):
        M = -wp._cumulative_trapezoid(row[::-1], xs[::-1])
        want = np.interp(mass[:-1], M, xs[::-1])
        np.testing.assert_allclose(got[:-1], want, rtol=0, atol=1e-9)


def test_route_disagreement_reads_both_faces():
    pot = PiecewisePotential.square(10.0, 2.0)
    t = np.linspace(0.0, 10.0, 11)
    x = -5.0 + 1.0 * t              # reaches 0 at t = 5 and 2 at t = 7
    def traj(entry, exit_, degenerate=False):
        return wp.BohmTrajectory(t=t, x=x, degenerate=degenerate,
                                 barrier_entry=entry, barrier_exit=exit_)
    assert wp.bohm_route_disagreement([traj(5.0, 7.0)], pot) == 0.0
    assert wp.bohm_route_disagreement([traj(5.0, 7.5)], pot) == pytest.approx(0.5 / 2.5)
    assert wp.bohm_route_disagreement([traj(4.5, 7.0)], pot) == pytest.approx(0.5 / 2.5)
    assert wp.bohm_route_disagreement([traj(5.0, math.nan)], pot) == math.inf
    assert wp.bohm_route_disagreement([traj(5.0, 9.0, degenerate=True)], pot) == 0.0
    assert wp.bohm_route_disagreement([traj(5.0, 9.0)], PiecewisePotential.free()) == 0.0


def test_a_mass_missed_on_any_row_marks_its_trajectory_degenerate(monkeypatch):
    packet = wp.SpectralPacket.gaussian(float(k_of_E(5.0)), 0.05, n_nodes=49)
    pot = PiecewisePotential.square(10.0, 2.0)
    sweep, sweeps = wp._quantile_sweep, []

    def second_block_misses_seed_1(ens, xs, ts, ends, mass):
        x, missed = sweep(ens, xs, ts, ends, mass)
        missed[2 * wp.PHASE_BLOCK - 1, 1] = True   # the last row of the second time block
        sweeps.append((len(ts), len(ends)))
        return x, missed

    monkeypatch.setattr(wp, "_quantile_sweep", second_block_misses_seed_1)
    seeds = _transmitted_seeds(packet, pot, -1.2e-14, 3)
    trajs = wp.bohm_trajectories(packet, pot, seeds, -1.2e-14, 1e-14, n_out=150)
    assert sweeps == [(150, 3)]
    assert [tr.degenerate for tr in trajs] == [False, True, False]


# ---------------------------------------------------------------------------
# against the per-time-block quantile loop that the sweep replaced


def _parent_quantiles(ens, xs, ts, mass, visited=None):
    """Copy of the _quantiles that bohm_trajectories called once per block of
    PHASE_BLOCK output times, verbatim but for its density blocks, which
    copy the _blocks and mode_blocks of the time: the recurrence only on an
    evenly spaced list, direct exp otherwise. visited, when given, collects
    the positions whose modes it forms."""
    B = wp.PHASE_BLOCK
    xd = xs[::-1]
    regions = np.searchsorted(ens.edges, xd, side="right")
    if len(xd) > B and wp._is_even(xd, ens.k):
        mode_blocks = wp._phase_blocks(xd, -ens.k)
    else:
        mode_blocks = ((slice(s, s + B), None) for s in range(0, len(xd), B))
    phase = wp._phase(ts, ens.omega)
    x = np.full((len(ts), mass.size), xs[0])
    missed = np.ones(x.shape, bool)
    rho_end = M_end = None
    for cols, e_p in mode_blocks:
        if visited is not None:
            visited.extend(xd[cols].tolist())
        pm, _ = ens.at(xd[cols], e_p, regions[cols], derivative=False)
        np.multiply(ens.coef, pm, out=pm)
        rho = np.abs(phase @ pm.T) ** 2
        if cols.start:
            rho = np.concatenate([rho_end, rho], axis=1)
            M = np.repeat(M_end[:, None], rho.shape[1], axis=1)
        else:
            M = np.zeros_like(rho)
        pos = xd[max(cols.start - 1, 0):cols.stop]
        M[:, 1:] += np.cumsum((rho[:, 1:] + rho[:, :-1]) * ((pos[:-1] - pos[1:]) / 2.0), axis=1)
        reached = M[:, :, None] >= mass
        r, i = np.nonzero(missed & reached[:, -1])
        j = reached[r, :, i].argmax(axis=1)
        lo = np.maximum(j - 1, 0)
        step = M[r, j] - M[r, lo]
        frac = np.divide(mass[i] - M[r, lo], step, out=np.zeros_like(step), where=step > 0)
        x[r, i] = pos[lo] + frac * (pos[j] - pos[lo])
        missed[r, i] = False
        if not missed.any():
            break
        rho_end, M_end = rho[:, -1:], M[:, -1]
    return x, missed


def _parent_quantile_trajectories(packet, potential, seeds, t_start, t_end, n_out=801,
                                  visited=None):
    """Copy of bohm_trajectories with its loop of _quantiles calls, one per
    block of PHASE_BLOCK output times (the oracle of the sweep)."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    ens = wp._ensemble(packet, potential)
    t_eval = np.linspace(t_start, t_end, n_out)
    v = packet.units.v_of_k(packet.k_nodes)
    v_lo, v_hi = float(v.min()), float(v.max())
    reach = 5.0 / packet.dk
    width = potential.x_right - potential.x_left

    def front(t):
        return max(v_lo * t, v_hi * t) + width + reach

    back = min(v_lo * t_start, v_hi * t_start, 2.0 * potential.x_left - v_hi * t_end - width)
    grid = wp._bohm_grid(packet, potential, min(back - reach, potential.x_left),
                         max(front(t_start), front(t_end), potential.x_right))

    def window_end(ts):
        return min(int(np.searchsorted(grid, max(front(ts[0]), front(ts[-1])))) + 1, grid.size)

    xs = grid[max(int(np.searchsorted(grid, seeds.min(), side="right")) - 1, 0):
              window_end(t_eval[:1])]
    M0 = -wp._cumulative_trapezoid(wp._density(ens, xs, t_start)[::-1], xs[::-1])[::-1]
    mass = np.interp(seeds, xs, M0)
    probe_mass = np.interp([potential.x_left, potential.x_right], xs, M0)
    degenerate = (seeds < xs[0]) | (seeds > xs[-1])
    x = np.empty((seeds.size, n_out))
    for s in range(0, n_out, wp.PHASE_BLOCK):
        ts = t_eval[s:s + wp.PHASE_BLOCK]
        xb, missed = _parent_quantiles(ens, grid[:window_end(ts)], ts, mass, visited)
        x[:, s:s + len(ts)] = xb.T
        degenerate |= missed.any(axis=0)

    entry = exit_ = np.full(seeds.size, math.nan)
    if potential.segments:
        probes = [potential.x_left, potential.x_right]
        t_fine = np.linspace(t_start, t_end, math.ceil((t_end - t_start) / wp.DT_FINE) + 1)
        entry, exit_ = (wp._flux_crossings(t_fine, m0 + rec.N_gt - rec.N_lt, mass)
                        for rec, m0 in zip(wp.flux_records(packet, potential, probes,
                                                           t_grid=t_fine), probe_mass))
    return [wp.BohmTrajectory(t=t_eval, x=x[i], degenerate=bool(degenerate[i]),
                              barrier_entry=float(entry[i]), barrier_exit=float(exit_[i]))
            for i in range(seeds.size)]


# a quantile moves by dM/rho(x) when its mass M moves by dM. Over 300 drawn
# scenes, half at the corner dk = 0.02 with 8 seeds (the widest grids), the
# two routes' summation orders put up to 34 eps/rho between them where
# rho < 1e-4 / A, and up to 86 eps/rho, under 2e-10 A, above. So a sample may
# move by 44 eps/rho or by 5e-10 A: below 1e-9 A wherever rho >= 1e-5 / A
QUANTILE_DRIFT = 44 * np.finfo(float).eps
QUANTILE_FLOOR = 5e-10   # A


def _assert_sweep_matches_parent(packet, pot, seeds, t0, t1, n_out):
    got = wp.bohm_trajectories(packet, pot, seeds, t0, t1, n_out=n_out)
    want = _parent_quantile_trajectories(packet, pot, seeds, t0, t1, n_out=n_out)
    x = np.array([w.x for w in want])
    rho = np.array([np.abs(wp.evolve(packet, pot, x[:, j], t)[0]) ** 2
                    for j, t in enumerate(want[0].t)]).T
    for g, w, r in zip(got, want, rho):
        assert g.t.tobytes() == w.t.tobytes()
        # only the summation order of M and the phase rounding differ
        dx = np.abs(g.x - w.x)
        assert ((dx * r <= QUANTILE_DRIFT) | (dx <= QUANTILE_FLOOR)).all()
        assert g.degenerate == w.degenerate
        for field in ("barrier_entry", "barrier_exit"):
            assert np.array_equal(getattr(g, field), getattr(w, field), equal_nan=True)
    return got


# (V0, d, E, dk, n_nodes, n_traj, t_start, t_end): the README's `bohm`
# example and spatial_paths' scene 12 (bench/workloads.py)
SWEEP_SCENES = {
    "readme": (10.0, 5.0, 5.0, 0.02, 513, 8, -3e-14, 1.5e-14),
    "scene12": (9.96808, 3.96629, 5.60721, 0.0178504, 125, 4, -3.19112e-14, 2.39334e-14),
}


@pytest.mark.parametrize("name", sorted(SWEEP_SCENES))
def test_sweep_matches_per_time_block_quantiles(name):
    V0, d, E, dk, n, n_traj, t0, t1 = SWEEP_SCENES[name]
    packet = wp.SpectralPacket.gaussian(float(k_of_E(E)), dk, n_nodes=n)
    pot = PiecewisePotential.square(V0, d)
    got = _assert_sweep_matches_parent(packet, pot, _transmitted_seeds(packet, pot, t0, n_traj),
                                       t0, t1, 401)
    assert not any(tr.degenerate for tr in got)


@settings(max_examples=12, deadline=None)
@given(V0=st.floats(4.0, 12.0), d=st.floats(0.5, 6.0), ratio=st.floats(0.3, 1.3),
       dk=st.floats(0.02, 0.06), n_traj=st.integers(2, 8))
def test_sweep_matches_per_time_block_quantiles_on_drawn_scenes(V0, d, ratio, dk, n_traj):
    packet = wp.SpectralPacket.gaussian(float(k_of_E(ratio * V0)), dk, n_nodes=41)
    pot = PiecewisePotential.square(V0, d)
    t0, t1 = -6.0 * packet.sigma_t, 4.0 * packet.sigma_t
    xc = float(v_of_k(packet.k0)) * t0
    seeds = wp.seed_positions(packet, pot, t0, n_traj, (xc - 4.0 / dk, xc + 4.0 / dk))
    _assert_sweep_matches_parent(packet, pot, seeds, t0, t1, 2 * wp.PHASE_BLOCK + 9)


def test_sweep_forms_each_position_modes_once(monkeypatch):
    # the per-time-block loop formed the modes of a position once for every
    # block of output times whose window held it; the sweep forms them once
    V0, d, E, dk, n, n_traj, t0, t1 = SWEEP_SCENES["scene12"]
    packet = wp.SpectralPacket.gaussian(float(k_of_E(E)), dk, n_nodes=n)
    pot = PiecewisePotential.square(V0, d)
    seeds = _transmitted_seeds(packet, pot, t0, n_traj)
    sweep, modes = wp._quantile_sweep, wp._Ensemble.modes
    in_sweep, formed = [False], []

    def counted_modes(self, region, x, e_p=None, derivative=True):
        if in_sweep[0]:
            formed.extend(np.ravel(x).tolist())
        return modes(self, region, x, e_p, derivative)

    def flagged_sweep(*args):
        in_sweep[0] = True
        try:
            return sweep(*args)
        finally:
            in_sweep[0] = False

    monkeypatch.setattr(wp._Ensemble, "modes", counted_modes)
    monkeypatch.setattr(wp, "_quantile_sweep", flagged_sweep)
    wp.bohm_trajectories(packet, pot, seeds, t0, t1, n_out=401)
    assert formed and len(set(formed)) == len(formed)
    visited = []   # 3,840 positions against the sweep's 1,377
    _parent_quantile_trajectories(packet, pot, seeds, t0, t1, n_out=401, visited=visited)
    assert len(visited) > 2 * len(formed)


def test_bohm_trajectories_hold_at_most_six_phase_tiles():
    # the mode tile, the two recurrence offsets and the temporaries of one
    # block, each PHASE_BLOCK x Nk complex; the per-time-block loop peaked
    # at 5.1 tiles here, and a sweep that also held a phase tile for each
    # pair of blocks and the previous block's tiles at 7.7
    V0, d, E, dk, n, n_traj, t0, t1 = SWEEP_SCENES["readme"]
    packet = wp.SpectralPacket.gaussian(float(k_of_E(E)), dk, n_nodes=n)
    pot = PiecewisePotential.square(V0, d)
    seeds = _transmitted_seeds(packet, pot, t0, n_traj)   # builds the ensemble outside the trace
    tracemalloc.start()
    try:
        wp.bohm_trajectories(packet, pot, seeds, t0, t1, n_out=401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * wp.PHASE_BLOCK * n * 16
