import dataclasses
import gc
import importlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import parent_arrival_stats, parent_psi_and_dpsi, parent_solve_transfer_matrix
from hypothesis import assume, example, given, settings, strategies as st

from tunneltime import wavepacket as wp
from tunneltime.scattering import (
    PiecewisePotential,
    SquareBarrierParams,
    solve_transfer_matrix,
    step_reflection,
)
from tunneltime.times import dwell_time_closed
from tunneltime.units import ELECTRON, k_of_E

K5 = k_of_E(5.0)
DK = 0.02
FREE = PiecewisePotential.free()
BARRIER = PiecewisePotential.square(10.0, 5.0)


@pytest.fixture(scope="module")
def packet():
    return wp.SpectralPacket.gaussian(K5, DK)


@pytest.fixture
def evaluations(monkeypatch):
    """The calls that reach the mode evaluator; a rejected input makes none."""
    calls = []
    monkeypatch.setattr(wp, "_blocks", lambda *args: calls.append(args))
    return calls


# ---------------------------------------------------------------------------
# packet construction


def test_packet_normalization(packet):
    assert np.sum(packet.weights * packet.amplitude ** 2) == pytest.approx(1.0, rel=1e-13)
    assert packet.k_nodes.min() > 0
    assert packet.sigma_t == pytest.approx(1.0 / (ELECTRON.v_of_k(K5) * DK), rel=1e-14, abs=0)


def test_packet_validation():
    with pytest.raises(ValueError):
        wp.SpectralPacket.gaussian(-1.0, DK)
    with pytest.raises(ValueError):
        wp.SpectralPacket.gaussian(K5, 0.0)


@pytest.mark.parametrize("x0", [-100.0, 1e-9, math.nan])
def test_packet_rejects_an_off_origin_start(packet, x0):
    # the evolution ignored x0 while times.spectrum_summary read it, so a
    # packet with x0 = -100 got centroid and flux times for two starts; a
    # packet has no start field now, so an off-origin start cannot be stated
    with pytest.raises(TypeError, match="x0"):
        dataclasses.replace(packet, x0=x0)
    with pytest.raises(TypeError, match="x0"):
        wp.SpectralPacket(packet.k0, packet.dk, packet.k_nodes, packet.weights,
                          packet.amplitude, x0=x0)


def test_with_nodes_keeps_the_floor():
    # with_nodes dropped gaussian's k_floor: a packet built with k_floor=0.02
    # came back from with_nodes(65) with its lowest node at 2.2e-4
    p = wp.SpectralPacket.gaussian(0.1, 0.05, n_nodes=65)
    assert 0.1 - 5 * 0.05 < wp.K_FLOOR   # the floor binds
    q = p.with_nodes(65)
    for name in ("k_nodes", "weights", "amplitude"):
        assert getattr(q, name).tobytes() == getattr(p, name).tobytes(), name
    r = p.with_nodes(129)
    span = (wp.K_FLOOR, 0.1 + 5 * 0.05)
    for pk in (p, r):   # Gauss-Legendre nodes are interior: the weights span the interval
        assert pk.k_nodes.min() > span[0] and pk.k_nodes.max() < span[1]
        assert pk.weights.sum() == pytest.approx(span[1] - span[0], rel=1e-13)


@pytest.mark.parametrize("name, change", [("k_nodes", lambda a: a + 0.01),
                                          ("weights", lambda a: 2.0 * a),
                                          ("amplitude", lambda a: a * (1.0 + 1e-15))],
                         ids=["k_nodes", "weights", "amplitude"])
def test_with_nodes_rejects_a_packet_gaussian_did_not_build(name, change):
    # with_nodes rebuilt the Gaussian of (k0, dk, units): a packet whose nodes
    # were moved by 0.01 came back from with_nodes(65) with its lowest node
    # at 1.0456 instead of 1.0556, with no error
    p = wp.SpectralPacket.gaussian(K5, DK, n_nodes=65)
    other = dataclasses.replace(p, **{name: change(getattr(p, name))})
    assert getattr(other, name).tobytes() != getattr(p, name).tobytes()
    for n in (65, 129):
        with pytest.raises(ValueError, match="SpectralPacket.gaussian"):
            other.with_nodes(n)
    assert p.with_nodes(65).k_nodes.tobytes() == p.k_nodes.tobytes()


@pytest.mark.parametrize("k0, dk", [(2.8e-8, 1.4e-10), (5e-5, 1e-6)])
def test_packet_below_the_floor_names_it(k0, dk):
    # both raised "math domain error" from a negative norm once the node
    # interval [K_FLOOR, k0 + 5 dk] turned over
    with pytest.raises(ValueError, match="K_FLOOR"):
        wp.SpectralPacket.gaussian(k0, dk)


@pytest.mark.parametrize("n_nodes", [0, -3, 65.0, np.float64(65.0), True, "65"])
def test_packet_rejects_bad_node_count(n_nodes):
    with pytest.raises(ValueError, match="n_nodes must be a positive integer"):
        wp.SpectralPacket.gaussian(K5, DK, n_nodes=n_nodes)


def test_packets_built_alike_are_bit_identical():
    a, b = (wp.SpectralPacket.gaussian(K5, DK, n_nodes=n) for n in (65, np.int64(65)))
    for name in ("k_nodes", "weights", "amplitude"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("k0, dk", [(math.nan, DK), (math.inf, DK), (K5, math.nan),
                                    (K5, math.inf), (-math.inf, DK)])
def test_packet_rejects_non_finite(k0, dk):
    with pytest.raises(ValueError, match="finite"):
        wp.SpectralPacket.gaussian(k0, dk)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_ensemble_rejects_bad_node(packet, bad):
    # a hand-made packet refuses a node that is not finite; one that is not
    # positive passes it, and the solver refuses it
    k = packet.k_nodes.copy()
    k[7] = bad
    match = "k must be finite and positive" if math.isfinite(bad) else "k_nodes must be a finite"
    with pytest.raises(ValueError, match=match):
        odd = wp.SpectralPacket(k0=packet.k0, dk=packet.dk, k_nodes=k, weights=packet.weights,
                                amplitude=packet.amplitude)
        wp._Ensemble(odd, BARRIER)


@pytest.mark.parametrize("name, bad, match", [
    ("k0", math.nan, "k0"), ("k0", 0.0, "k0"), ("k0", -K5, "k0"),
    ("dk", math.inf, "dk"), ("dk", -DK, "dk"), ("dk", 0.0, "dk"),
    ("weights", lambda a: np.where(np.arange(a.size) == 9, math.nan, a), "weights"),
    ("amplitude", lambda a: np.where(np.arange(a.size) == 9, math.inf, a), "amplitude"),
    ("amplitude", lambda a: a.reshape(-1, 1), "amplitude"),
    ("weights", lambda a: a[:-1], "one length"),
    ("k_nodes", lambda a: np.append(a, a[-1] + 1e-3), "one length"),
], ids=["nan-k0", "zero-k0", "negative-k0", "inf-dk", "negative-dk", "zero-dk",
        "nan-weight", "inf-amplitude", "2-D-amplitude", "short-weights", "long-nodes"])
def test_hand_made_packet_rejects_bad_input(packet, name, bad, match):
    # a nan weight gave P_T = nan and nan mean times with no flag, and a
    # negative dk a flux window of no points
    fields = dict(k0=packet.k0, dk=packet.dk, k_nodes=packet.k_nodes,
                  weights=packet.weights, amplitude=packet.amplitude)
    fields[name] = bad(fields[name]) if callable(bad) else bad
    with pytest.raises(ValueError, match=match):
        wp.SpectralPacket(**fields)


def test_ensemble_build_is_one_solve(packet, monkeypatch):
    from tunneltime import scattering as sc

    tally = {}

    def counted(name, orig):
        def call(*args, **kwargs):
            tally[name] = tally.get(name, 0) + 1
            return orig(*args, **kwargs)
        return call

    sweep = counted("sweep", sc._transfer_sweep)
    for mod in (sc, wp):   # both bindings, wherever the solver is looked up
        monkeypatch.setattr(mod, "_transfer_sweep", sweep)
    monkeypatch.setattr(sc, "solve_transfer_matrix", counted("state", sc.solve_transfer_matrix))
    monkeypatch.setattr(sc, "ScatteringState", counted("state", sc.ScatteringState))
    wp._Ensemble(packet, PiecewisePotential.double_barrier(10.0, 2.0, 3.0))
    assert tally == {"sweep": 1}


def test_low_k0_grid_clipped():
    p = wp.SpectralPacket.gaussian(0.01, 0.05)
    assert p.k_nodes.min() >= 1e-4


def test_semi_infinite_rejected(packet):
    with pytest.raises(ValueError):
        wp.evolve(packet, PiecewisePotential.step(10.0), 0.0, 0.0)


# ---------------------------------------------------------------------------
# free propagation against the closed-form spreading gaussian


def analytic_free(x, t, k0=K5, dk=DK):
    a = 1.0 / (2.0 * dk * dk)
    b = ELECTRON.hbar_over_m * t / 2.0
    C = (math.pi * dk * dk) ** (-0.25)
    pref = C / math.sqrt(2.0 * math.pi) * np.sqrt(np.pi / (a + 1j * b))
    return pref * np.exp((2.0 * a * k0 + 1j * x) ** 2 / (4.0 * (a + 1j * b)) - a * k0 * k0)


@pytest.mark.parametrize("t", [0.0, 2e-14, 8e-14])
def test_free_gaussian_modulus(packet, t):
    xc = ELECTRON.v_of_k(K5) * t
    xs = np.linspace(xc - 80, xc + 80, 9)
    psi, _ = wp.evolve(packet, FREE, xs, t)
    ref = analytic_free(xs, t)
    assert np.max(np.abs(np.abs(psi) - np.abs(ref))) <= 1e-6 * np.max(np.abs(ref))


def test_free_norm(packet):
    assert wp.norm_on_window(packet, FREE, 0.0, (-400, 400)) == pytest.approx(1.0, abs=1e-8)


def test_evolve_shape_contract(packet):
    psi, dpsi = wp.evolve(packet, FREE, 0.0, 0.0)
    assert np.isscalar(psi) or psi.ndim == 0
    psi, _ = wp.evolve(packet, FREE, np.zeros(3), 0.0)
    assert psi.shape == (3,)
    psi, _ = wp.evolve(packet, FREE, 0.0, np.zeros(4))
    assert psi.shape == (4,)
    psi, _ = wp.evolve(packet, FREE, np.zeros(3), np.zeros(4))
    assert psi.shape == (4, 3)


def test_centroid_crosses_origin_at_zero(packet):
    xbar, mass = wp.centroid_trajectory(packet, FREE, 0.0, (-300, 300))
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert abs(xbar) < 1e-6 / DK  # within 1e-6 packet widths


def test_centroid_moves_at_group_velocity(packet):
    t = 1.5e-14
    xc = ELECTRON.v_of_k(K5) * t
    xbar, _ = wp.centroid_trajectory(packet, FREE, t, (xc - 300, xc + 300))
    assert xbar == pytest.approx(xc, abs=0.01 / DK)


# ---------------------------------------------------------------------------
# blocked phase evaluation against the direct exp(-i omega t) matrix


def direct_evolve(packet, potential, xs, ts):
    """(Psi, dPsi/dx) of shape (len(ts), len(xs)) from the full phase matrix."""
    ens = wp._ensemble(packet, potential)
    modes = [ens.modes_at(float(x)) for x in xs]
    psi_m = np.array([ens.coef * m[0] for m in modes])
    dpsi_m = np.array([ens.coef * m[1] for m in modes])
    phase = np.exp(-1j * np.outer(ts, ens.omega))
    return phase @ psi_m.T, phase @ dpsi_m.T


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("even", [True, False])
def test_blocked_evolve_matches_direct(packet, even):
    n = 3 * wp.PHASE_BLOCK + 17
    if even:
        ts = -2e-14 + 2e-16 * np.arange(n)
    else:
        ts = np.sort(np.random.default_rng(7).uniform(-2e-14, 2e-14, n))
    omega = wp._ensemble(packet, BARRIER).omega
    assert wp._is_even(ts, omega) == even   # the recurrence runs only on even grids
    xs = np.array([-3.0, 0.0, 2.5, 5.0, 9.0])
    psi, dpsi = wp.evolve(packet, BARRIER, xs, ts)
    psi_d, dpsi_d = direct_evolve(packet, BARRIER, xs, ts)
    assert rel_err(psi, psi_d) <= 1e-12
    assert rel_err(dpsi, dpsi_d) <= 1e-12


@pytest.mark.parametrize("nt", [1, 5, wp.PHASE_BLOCK])
def test_short_time_arrays_are_bit_identical_to_direct(packet, nt):
    ts = np.linspace(-1e-14, 1e-14, nt)
    xs = np.array([-1.0, 2.0, 6.0])
    psi, dpsi = wp.evolve(packet, BARRIER, xs, ts)
    psi_d, dpsi_d = direct_evolve(packet, BARRIER, xs, ts)
    assert np.array_equal(psi, psi_d) and np.array_equal(dpsi, dpsi_d)
    p1, d1 = wp.evolve(packet, BARRIER, 2.0, ts[0])
    p1_d, d1_d = direct_evolve(packet, BARRIER, [2.0], ts[:1])
    assert p1 == p1_d[0, 0] and d1 == d1_d[0, 0]


@settings(max_examples=60, deadline=None)
@given(t0=st.floats(-1e-13, 1e-13), dt=st.floats(1e-18, 1e-15),
       n=st.integers(2, 6 * wp.PHASE_BLOCK))
def test_phase_recurrence_matches_direct_exp(packet, t0, dt, n):
    omega = wp._ensemble(packet, FREE).omega
    ts = t0 + dt * np.arange(n)
    assume(wp._is_even(ts, omega))
    got = np.empty((n, omega.size), complex)
    for rows, phase in wp._phase_blocks(ts, omega):
        got[rows] = phase
    # each factor carries a few ulps of its exp argument
    tol = wp.EVEN_GRID_TOL + 8 * np.finfo(float).eps * np.max(np.abs(ts)) * omega.max()
    assert np.max(np.abs(got - np.exp(-1j * np.outer(ts, omega)))) <= tol


def gather_blocks(ens, xs, ts, derivative):
    """(Psi, dPsi/dx) tables filled from _blocks, each entry exactly once."""
    psi = np.empty((len(ts), len(xs)), complex)
    dpsi = np.empty_like(psi)
    hits = np.zeros(psi.shape, int)
    for rows, cols, p, d in wp._blocks(ens, xs, ts, derivative):
        psi[rows, cols] = p
        hits[rows, cols] += 1
        if derivative:
            dpsi[rows, cols] = d
        else:
            assert d is None
    assert (hits == 1).all()
    return psi, dpsi


@settings(max_examples=80, deadline=None)
@given(x_kind=st.sampled_from(["left", "right", "across", "uneven"]),
       nx=st.sampled_from([1, 9, wp.PHASE_BLOCK, wp.PHASE_BLOCK + 1, 3 * wp.PHASE_BLOCK + 7]),
       x0=st.floats(0.0, 1.0), dx=st.floats(0.05, 1.0),
       nt=st.sampled_from([1, 6, wp.PHASE_BLOCK, wp.PHASE_BLOCK + 1, 3 * wp.PHASE_BLOCK + 5]),
       t_even=st.booleans(), t0=st.floats(-3e-14, 1e-14), dt=st.floats(1e-17, 2e-16),
       derivative=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(x_kind="across", nx=3 * wp.PHASE_BLOCK + 7, x0=1.0, dx=1.0, nt=wp.PHASE_BLOCK + 1,
         t_even=True, t0=-2e-14, dt=2e-16, derivative=True, seed=0)   # short first block
@example(x_kind="across", nx=21, x0=1.0, dx=1.0, nt=3 * wp.PHASE_BLOCK + 5,
         t_even=True, t0=-2e-14, dt=2e-16, derivative=True, seed=0)   # 4 long blocks a product
def test_blocks_match_direct_sums(packet65, x_kind, nx, x0, dx, nt, t_even, t0, dt,
                                  derivative, seed):
    # the folded paths (long even times; long even free runs of positions
    # under at most PHASE_BLOCK times) and the direct ones against modes_at
    # per position times the direct exp(-i omega t) matrix
    rng = np.random.default_rng(seed)
    steps = dx * np.arange(nx)
    xs = {"left": -150.0 - 250.0 * x0 + steps,     # ends left of the barrier
          "right": 5.0 + 250.0 * x0 + steps,
          "across": -60.0 + 50.0 * x0 + steps,     # across it when long
          "uneven": np.sort(rng.uniform(-200.0, 200.0, nx))}[x_kind]
    ts = t0 + dt * np.arange(nt) if t_even else np.sort(rng.uniform(-3e-14, 3e-14, nt))
    ens = wp._ensemble(packet65, BARRIER)
    psi, dpsi = gather_blocks(ens, xs, ts, derivative)
    want_p, want_d = direct_evolve(packet65, BARRIER, xs, ts)
    # relative to the largest sum of term magnitudes, the scale of rounding;
    # and, where the table's maximum is not mostly cancelled (the packet's
    # tails), relative to that maximum, as in the mode-block test
    modes = [ens.modes_at(float(x)) for x in xs]
    for got, want, m in ((psi, want_p, 0), (dpsi, want_d, 1))[:1 + derivative]:
        scale = max(np.sum(np.abs(ens.coef * mode[m])) for mode in modes)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        if np.max(np.abs(want)) >= 0.1 * scale:
            assert rel_err(got, want) <= 1e-12


def test_fold_takes_a_short_block_before_a_long_even_run(packet):
    # 10 positions left of the barrier and 5 inside it, then 184 evenly
    # spaced right of it: the fold's first block of positions is shorter
    # than the later ones, whose columns its buffers must still hold
    xs = np.arange(-10.0, 189.0)
    ts = -2e-14 + 2e-16 * np.arange(wp.PHASE_BLOCK + 1)
    psi, dpsi = wp.evolve(packet, BARRIER, xs, ts)
    want_p, want_d = direct_evolve(packet, BARRIER, xs, ts)
    assert rel_err(psi, want_p) <= 1e-12 and rel_err(dpsi, want_d) <= 1e-12
    assert np.array_equal(wp.current(packet, BARRIER, xs, ts),
                          ELECTRON.hbar_over_m * np.imag(np.conj(psi) * dpsi))
    # a window that starts inside the barrier, at more than PHASE_BLOCK times
    ws = np.arange(2.0, 200.0 + 0.05, 0.1)
    rho = np.abs(direct_evolve(packet, BARRIER, ws, ts)[0]) ** 2
    mass = np.trapezoid(rho, ws, axis=1)
    xbar, got_mass = wp.centroid_trajectory(packet, BARRIER, ts, (2.0, 200.0))
    assert rel_err(got_mass, mass) <= 1e-12
    # the first moment: xbar alone is a ratio of rounding where mass ~ 1e-16
    assert rel_err(xbar * got_mass, np.trapezoid(rho * ws, ws, axis=1)) <= 1e-12


@pytest.mark.parametrize("nx, nt", [(3 * wp.PHASE_BLOCK, 0), (0, 3 * wp.PHASE_BLOCK), (0, 0)])
def test_empty_axes_give_empty_tables(packet, nx, nt):
    xs = np.linspace(-300.0, -100.0, nx)   # an even free run when not empty
    ts = -2e-14 + 2e-16 * np.arange(nt)
    psi, dpsi = wp.evolve(packet, BARRIER, xs, ts)
    assert psi.shape == dpsi.shape == (nt, nx)
    assert wp._density(wp._ensemble(packet, BARRIER), xs, ts).shape == (nt, nx)


def test_even_time_grid_forms_one_phase_tile(packet, monkeypatch):
    # the offset tile of the fold, and no tile per block of times
    calls, phase = [], wp._phase

    def counted_phase(ts, omega):
        calls.append(len(ts))
        return phase(ts, omega)

    monkeypatch.setattr(wp, "_phase", counted_phase)
    monkeypatch.setattr(wp, "_phase_blocks", None)
    ts = -2e-14 + 2e-16 * np.arange(5 * wp.PHASE_BLOCK + 3)
    wp.evolve(packet, BARRIER, [-3.0, 2.5, 9.0], ts)
    assert calls == [wp.PHASE_BLOCK]


def test_fold_products_fill_the_element_budget(monkeypatch):
    # 21 probes x 20,001 even times at 67 nodes, the shape of the flux_probes
    # slow packet's evolve job: FOLD_ELEMS // (67 + 2 PHASE_BLOCK) = 105
    # columns take 5 long blocks of the 21 probes a product, where 32
    # columns took one, in 313 products
    products, fold = [], wp._fold   # the long rows of each product of a part

    def counted(*args):
        for item in fold(*args):
            products.append(item[0])
            yield item

    monkeypatch.setattr(wp, "_fold", counted)
    p = wp.SpectralPacket.gaussian(K5, DK, n_nodes=67)
    t = np.linspace(-1e-13, 1e-13, 20001)
    wp.flux_records(p, BARRIER, np.linspace(0.0, 5.0, 21), t_grid=t)
    blocks = math.ceil(len(t) / wp.PHASE_BLOCK)
    assert blocks == 313 and len(products) == math.ceil(blocks / 5) == 63
    assert all(r.stop - r.start == 5 * wp.PHASE_BLOCK for r in products[:-1])


def test_flux_path_holds_no_tile_sized_temporaries():
    # at the shape above: J is formed in place of the product tile, and the
    # arrival statistics take their trapezoids in one scratch buffer
    p = wp.SpectralPacket.gaussian(K5, DK, n_nodes=67)
    t = np.linspace(-1e-13, 1e-13, 20001)
    xs = np.linspace(0.0, 5.0, 21)
    wp.flux_records(p, BARRIER, xs, t_grid=t[:200])   # ensemble built outside
    tracemalloc.start()
    try:
        recs = wp.flux_records(p, BARRIER, xs, t_grid=t)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        wp.arrival_stats(recs[0])
        transient = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # 4.02 record lengths (dt, the scratch buffer, the side, its moment's
    # weight); 6.01 with np.trapezoid's temporaries
    assert transient <= 4.1 * 8 * len(t)
    # above the table, 2.07 budgets: the fold's buffers (one), numpy's
    # buffers for the broadcast multiply that forms the columns (0.69), the
    # offset tile (0.21) and the modes
    assert peak - 8 * len(xs) * len(t) <= 2.2 * 16 * wp.FOLD_ELEMS


def test_flux_records_hold_less_than_the_per_block_phase_tiles(packet):
    t = np.linspace(-1e-13, 1e-13, 20001)
    wp.flux_records(packet, BARRIER, [0.0, 5.0], t_grid=t[:200])   # ensemble built outside
    tracemalloc.start()
    try:
        wp.flux_records(packet, BARRIER, [0.0, 5.0], t_grid=t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile = 16 * wp.PHASE_BLOCK * len(packet.k_nodes)
    # J is 20001 x 2; the per-time-block phase tiles peaked at J + 3.32
    # tiles, the fold at J + 3.05
    assert peak <= 8 * 2 * 20001 + 3.3 * tile


def test_flux_records_hold_one_table(packet):
    # 21 probes x 20,001 times, the shape of the flux_probes slow packet's
    # evolve job: the records hold one (probe, time) float table, filled
    # tile by tile with no transposed copy, and compute the sign split and
    # cumulants when read
    t = np.linspace(-1e-13, 1e-13, 20001)
    xs = np.linspace(0.0, 5.0, 21)
    wp.flux_records(packet, BARRIER, xs, t_grid=t[:200])   # ensemble built outside
    tracemalloc.start()
    try:
        recs = wp.flux_records(packet, BARRIER, xs, t_grid=t)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = 8 * len(xs) * len(t)
    assert len(recs) == len(xs)
    assert table <= held <= 1.01 * table
    # the fill peaked at the table + 3.28 tiles
    assert peak <= table + 3.3 * 16 * wp.PHASE_BLOCK * len(packet.k_nodes)


@pytest.mark.parametrize("window, tiles", [((10.0, 410.0), 2.7), ((-410.0, -10.0), 3.6)],
                         ids=["transmitted", "reflected"])
def test_centroid_holds_less_than_the_per_block_mode_tiles(packet, window, tiles):
    ts = [-1e-14, 0.0, 1e-14, 2e-14]
    wp.centroid_trajectory(packet, BARRIER, ts, (window[0], window[0] + 20.0))   # built outside
    tracemalloc.start()
    try:
        wp.centroid_trajectory(packet, BARRIER, ts, window)   # 4 x 4001 points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-block mode tiles peaked at 2.70 tiles on the transmitted side
    # and 3.68 on the reflected one, the fold at 2.58 and 2.63
    assert peak <= tiles * 16 * wp.PHASE_BLOCK * len(packet.k_nodes)


# ---------------------------------------------------------------------------
# flux records


def test_incident_flux_normalization(packet):
    rec = wp.flux_series(packet, FREE, 0.0)
    assert np.trapezoid(rec.J, rec.t) == pytest.approx(1.0, abs=1e-8)
    assert rec.N_gt[-1] == pytest.approx(1.0, abs=1e-8)
    assert rec.N_lt[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.all(rec.J_plus >= 0)
    assert np.all(rec.J_minus <= 0)
    np.testing.assert_allclose(rec.J_plus + rec.J_minus, rec.J, atol=1e-300)
    assert np.all(np.diff(rec.N_gt) >= 0)
    assert np.all(np.diff(rec.N_lt) >= 0)


def test_free_arrival_moments(packet):
    st = wp.arrival_stats(wp.flux_series(packet, FREE, 0.0))
    assert st.mean_t_plus == pytest.approx(0.0, abs=1e-18)
    # |envelope|^2 arrival density narrows the width by sqrt(2)
    assert math.sqrt(st.var_t_plus) == pytest.approx(packet.sigma_t / math.sqrt(2.0), rel=1e-2, abs=0)
    assert st.total_plus_flux == pytest.approx(1.0, abs=1e-8)
    assert not st.low_confidence_plus
    assert st.low_confidence_minus  # no backward flux in free space


def test_arrival_stats_zero_flux_flagged():
    t = np.linspace(-1, 1, 51)
    rec = wp.FluxRecord(x=0.0, t=t, J=np.zeros_like(t))
    st = wp.arrival_stats(rec)
    assert math.isnan(st.mean_t_plus) and st.low_confidence_plus
    assert math.isnan(st.mean_t_minus) and st.low_confidence_minus


@pytest.fixture(scope="module")
def thin_exit():
    # the exit probe's forward flux is 1.30e-9, below the default floor
    pot = PiecewisePotential.square(10.0, 8.0)
    p = wp.SpectralPacket.gaussian(float(k_of_E(3.0)), DK, n_nodes=129)
    return wp.flux_records(p, pot, [0.0, 8.0])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 300), even=st.booleans(), shape=st.sampled_from(["pulses", "noise"]),
       side=st.sampled_from(["both", "forward", "backward"]),
       floor=st.sampled_from([wp.FLUX_FLOOR, 0.3]), seed=st.integers(0, 2 ** 32 - 1))
def test_arrival_stats_match_np_trapezoid_bit_for_bit(n, even, shape, side, floor, seed):
    # even and uneven t, J that changes sign or keeps one (a zero-flux side),
    # against the frozen np.trapezoid moments: means, variances, totals, flags
    rng = np.random.default_rng(seed)
    t = np.linspace(-1e-13, 1e-13, n) if even else np.sort(rng.uniform(-1e-13, 1e-13, n))
    if shape == "pulses":   # a forward and a backward arrival, each of about unit weight
        c, w = rng.uniform(-5e-14, 5e-14, 2), rng.uniform(2e-15, 2e-14, 2)
        pulse = np.exp(-((t[:, None] - c) / w) ** 2) / (math.sqrt(math.pi) * w)
        J = pulse[:, 0] - rng.uniform(0.0, 1.0) * pulse[:, 1]
    else:
        J = 1e13 * rng.standard_normal(n)
    J = {"both": J, "forward": np.abs(J), "backward": -np.abs(J)}[side]
    rec = wp.FluxRecord(x=0.0, t=t, J=J)
    got, want = wp.arrival_stats(rec, floor), parent_arrival_stats(rec, floor)
    assert np.array(dataclasses.astuple(got), float).tobytes() == \
        np.array(dataclasses.astuple(want), float).tobytes()


@pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["floor"])   # the incident norm is always 1
def test_arrival_stats_reject_bad_floor_and_norm(thin_exit, name, bad):
    # floor = nan or -1 cleared the exit probe's flag without an error
    rec0, recd = thin_exit
    assert wp.arrival_stats(recd).low_confidence_plus
    assert wp.mean_times(rec0, recd).low_confidence
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        wp.arrival_stats(recd, **{name: bad})
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        wp.mean_times(rec0, recd, **{name: bad})


def test_flux_records_match_per_probe_series(packet):
    g = np.arange(-2e-14, 2e-14, 1e-17)
    xs = [0.0, 2.5, 5.0]
    recs = wp.flux_records(packet, BARRIER, xs, t_grid=g)
    for x, rec in zip(xs, recs):
        one = wp.flux_series(packet, BARRIER, x, t_grid=g)
        assert rec.x == one.x and rec.t is g
        for field in ("J", "J_plus", "J_minus", "N_gt", "N_lt"):
            a, b = getattr(rec, field), getattr(one, field)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.max(np.abs(b)))


def test_shared_window_contains_each_probe_window(packet):
    xs = [-150.0, 0.0, 160.0]
    shared = wp.default_time_grid(packet, FREE, xs)
    for x in xs:
        own = wp.default_time_grid(packet, FREE, x)
        assert shared[0] <= own[0]
        assert shared[-1] >= own[-1] - wp.DT_FINE
    recs = wp.flux_records(packet, FREE, xs)
    assert all(rec.t is recs[0].t for rec in recs)
    for rec in recs:
        assert rec.N_gt[-1] == pytest.approx(1.0, abs=1e-8)


def test_clipped_window_is_flagged():
    # a slow, long free packet: the fixed scan window keeps ~76% of its flux
    slow = wp.SpectralPacket.gaussian(0.362, 0.002)
    stats = wp.arrival_stats(wp.flux_series(slow, FREE, 0.0))
    assert stats.total_plus_flux < 0.9
    assert stats.low_confidence_plus and stats.low_confidence_minus


def test_reference_packet_not_flagged_as_clipped(packet):
    s0, sd = (wp.arrival_stats(r) for r in wp.flux_records(packet, BARRIER, [0.0, 5.0]))
    assert not s0.low_confidence_plus and not s0.low_confidence_minus
    assert not sd.low_confidence_plus


def test_downstream_flux_is_forward_only(packet):
    rec = wp.flux_series(packet, BARRIER, 25.0)
    assert rec.N_lt[-1] <= 1e-9 * rec.N_gt[-1]


@pytest.mark.parametrize("V0, d, E, dk, n_nodes, span", [
    (10.0, 5.0, 5.0, DK, 513, None),
    (2.30166, 3.60052, 0.98293, 0.0034178, 67, 3e-13),
], ids=["reference", "slow"])
def test_exit_flux_equals_transmitted_norm(V0, d, E, dk, n_nodes, span):
    # the README reference packet on its default window, and the benchmark's
    # slow flux_probes packet (seed 1) on a window that holds its flux: the
    # forward flux through the exit meets the spectral P_T to quadrature
    # accuracy (measured -5.5e-13 and -7.2e-13); with frequencies E/hbar and
    # currents (hbar/m) Im(psi* psi') read from two hbars 2.23e-10 apart it
    # was 2.2e-10 high
    pot = PiecewisePotential.square(V0, d)
    p = wp.SpectralPacket.gaussian(float(k_of_E(E)), dk, n_nodes=n_nodes)
    grid = None if span is None else np.arange(-span, span + wp.DT_FINE / 2, wp.DT_FINE)
    rec = wp.flux_series(p, pot, d, t_grid=grid)
    assert not wp.arrival_stats(rec).low_confidence_plus
    assert rec.N_gt[-1] == pytest.approx(wp.transmitted_norm(p, pot), rel=1e-11, abs=0)


@pytest.mark.parametrize("dt_fine", [0.0, -wp.DT_FINE, math.nan, math.inf])
@pytest.mark.parametrize("fn", ["flux_records", "default_time_grid"])
def test_time_grids_reject_bad_step(packet, evaluations, fn, dt_fine):
    # a zero step raised ZeroDivisionError, a negative one gave empty
    # records and nan numpy's arange error
    with pytest.raises(ValueError, match="dt_fine"):
        getattr(wp, fn)(packet, BARRIER, [0.0, 5.0], dt_fine=dt_fine)
    if fn == "flux_records":   # also when an explicit grid leaves it unused
        with pytest.raises(ValueError, match="dt_fine"):
            wp.flux_records(packet, BARRIER, [0.0, 5.0], t_grid=np.array([0.0, 1e-17]),
                            dt_fine=dt_fine)
    assert evaluations == []   # rejected before any evaluation


@pytest.mark.parametrize("t_grid", [[1e-14, 0.0, -1e-14], [0.0, 1e-17, 1e-17, 2e-17],
                                    [0.0, math.nan, 1e-17], [[0.0, 1e-17]]],
                         ids=["reversed", "repeated", "nan", "2-D"])
def test_flux_records_reject_unordered_grid(packet, evaluations, t_grid):
    # the reversed grid gave a forward flux of -1.04e-3 at the exit
    with pytest.raises(ValueError, match="t_grid"):
        wp.flux_records(packet, BARRIER, [0.0, 5.0], t_grid=np.array(t_grid))
    assert evaluations == []


def test_transmitted_norm_consistency(packet):
    # spectral sum against time-integrated downstream flux
    spectral = wp.transmitted_norm(packet, BARRIER)
    rec = wp.flux_series(packet, BARRIER, 5.0)
    assert rec.N_gt[-1] == pytest.approx(spectral, rel=1e-6)
    assert spectral == pytest.approx(4.2828e-05, rel=1e-3)  # frozen value


def test_mean_times_wiring(packet):
    rec0 = wp.flux_series(packet, BARRIER, 0.0)
    recd = wp.flux_series(packet, BARRIER, 5.0)
    mt = wp.mean_times(rec0, recd)
    assert mt.tau_T == mt.tau_Pen
    assert mt.tau_T == pytest.approx(3.4033e-15, rel=1e-3, abs=0)   # frozen
    assert mt.tau_R == pytest.approx(6.6804e-15, rel=1e-3, abs=0)   # frozen
    assert mt.var_tau_T == pytest.approx(
        wp.arrival_stats(rec0).var_t_plus + wp.arrival_stats(recd).var_t_plus, rel=1e-12, abs=0)
    # the transmitted flux (4.3e-5) clears the floor, so tau_T is not flagged;
    # no flux comes back through the exit face, and that flag is not tau_T's
    assert not mt.low_confidence
    assert mt.stats_f.total_minus_flux == 0.0 and mt.stats_f.low_confidence_minus


def test_packet_dwell_matches_spectral_average(packet):
    # [int t J(x2) - int t J(x1)] equals sum_j w g^2 tau_dwell(k_j) exactly
    # (cross terms integrate out); checked against the closed stationary form
    want = sum(w * g * g * dwell_time_closed(SquareBarrierParams(10.0, 5.0), float(k))
               for k, w, g in zip(packet.k_nodes, packet.weights, packet.amplitude))
    got = wp.dwell_time_packet(packet, BARRIER, 0.0, 5.0)
    assert got == pytest.approx(want, rel=1e-3, abs=0)


# ---------------------------------------------------------------------------
# conservation laws


def test_continuity_residual(packet):
    res = wp.continuity_residual(packet, BARRIER, [-3.0, 2.5, 7.0], [-2e-15, 0.0, 2e-15])
    assert res <= 1e-4


def test_norm_conservation(packet):
    vals = [wp.norm_on_window(packet, BARRIER, t, (-700, 705)) for t in (0.0, 1.5e-14, 3e-14)]
    assert max(vals) - min(vals) <= 1e-4


def test_quadrature_doubling(packet):
    refined = packet.with_nodes(1025)
    a = wp.mean_times(wp.flux_series(packet, BARRIER, 0.0),
                      wp.flux_series(packet, BARRIER, 5.0)).tau_T
    b = wp.mean_times(wp.flux_series(refined, BARRIER, 0.0),
                      wp.flux_series(refined, BARRIER, 5.0)).tau_T
    assert abs(b - a) <= 5e-3 * abs(a)


def test_time_grid_refinement(packet):
    a = wp.mean_times(wp.flux_series(packet, BARRIER, 0.0, dt_fine=1e-17),
                      wp.flux_series(packet, BARRIER, 5.0, dt_fine=1e-17)).tau_T
    b = wp.mean_times(wp.flux_series(packet, BARRIER, 0.0, dt_fine=5e-18),
                      wp.flux_series(packet, BARRIER, 5.0, dt_fine=5e-18)).tau_T
    assert abs(b - a) <= 5e-3 * abs(a)


# ---------------------------------------------------------------------------
# independent time-domain evolution cross-check


def test_crank_nicolson_cross_check(packet):
    """Grid TDSE solve reproduces the spectral penetration mean at x = d."""
    dx, dt = 0.1, 4e-17
    x = np.arange(-1300.0, 800.0 + dx / 2, dx)
    V = np.where((x >= 0) & (x < 5.0), 10.0, 0.0)
    t_start, t_end = -6e-14, 2e-14
    nsteps = int(round((t_end - t_start) / dt))

    psi0, _ = wp.evolve(packet, FREE, x, t_start)
    psi = np.ascontiguousarray(psi0)
    assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=1e-9)

    u = ELECTRON
    h22m = u.hbarc_eV_A ** 2 / (2.0 * u.electron_rest_eV)
    lam = 1j * dt / (2.0 * u.hbar_eV_s)
    off = -h22m / dx ** 2
    diag = 2.0 * h22m / dx ** 2 + V
    ab = np.zeros((3, len(x)), complex)
    ab[0, 1:] = lam * off
    ab[1, :] = 1.0 + lam * diag
    ab[2, :-1] = lam * off
    bl, bd = -lam * off, 1.0 - lam * diag

    pidx = [np.argmin(np.abs(x - p)) for p in (0.0, 5.0)]
    J = np.empty((nsteps + 1, 2))
    ts = t_start + dt * np.arange(nsteps + 1)

    def probe(psi):
        d0 = (psi[[i + 1 for i in pidx]] - psi[[i - 1 for i in pidx]]) / (2 * dx)
        return u.hbar_over_m * np.imag(np.conj(psi[pidx]) * d0)

    J[0] = probe(psi)
    for n in range(nsteps):
        rhs = bd * psi
        rhs[1:] += bl * psi[:-1]
        rhs[:-1] += bl * psi[1:]
        psi = sla.solve_banded((1, 1), ab, rhs, overwrite_b=True, check_finite=False)
        J[n + 1] = probe(psi)

    def tbar_plus(Jcol):
        Jp = np.clip(Jcol, 0.0, None)
        return np.trapezoid(ts * Jp, ts) / np.trapezoid(Jp, ts)

    pen_cn = tbar_plus(J[:, 1]) - tbar_plus(J[:, 0])

    spec = []
    for xp in (0.0, 5.0):
        rec = wp.flux_series(packet, BARRIER, xp, t_grid=ts)
        spec.append(wp.arrival_stats(rec).mean_t_plus)
    pen_spec = spec[1] - spec[0]
    assert pen_cn == pytest.approx(pen_spec, rel=5e-2, abs=0)


# ---------------------------------------------------------------------------
# guidance trajectories


def test_seed_positions_quantiles(packet):
    seeds = wp.seed_positions(packet, FREE, 0.0, 5, region=(-150, 150))
    assert np.all(np.diff(seeds) > 0)
    assert abs(seeds[2]) < 1.0  # median near the centroid
    top = wp.seed_positions(packet, FREE, 0.0, 3, region=(-150, 150),
                            quantile_range=(0.9, 1.0))
    assert top.min() > seeds[3]


def test_bohm_free_trajectories_ride_group_velocity(packet):
    t0, t1 = -1.5e-14, 1.5e-14
    x0 = ELECTRON.v_of_k(K5) * t0
    seeds = wp.seed_positions(packet, FREE, t0, 3, region=(x0 - 80, x0 + 80))
    trajs = wp.bohm_trajectories(packet, FREE, seeds, t0, t1, n_out=81)
    for tr, s in zip(trajs, seeds):
        assert not tr.degenerate
        drift = tr.x[-1] - tr.x[0]
        assert drift == pytest.approx(ELECTRON.v_of_k(K5) * (t1 - t0), rel=2e-2)
    # no crossing: initial order preserved everywhere
    xs = np.array([tr.x for tr in trajs])
    assert np.all(np.diff(xs, axis=0) > 0)


def test_zero_amplitude_packet_has_no_flux_support(packet):
    # no probe has flux: the coarse scan itself is the grid
    empty = dataclasses.replace(packet, amplitude=0.0 * packet.amplitude)
    want = np.arange(wp.T_SPAN[0], wp.T_SPAN[1] + wp.DT_COARSE / 2, wp.DT_COARSE)
    grid = wp.default_time_grid(empty, BARRIER, [0.0, 5.0])
    assert len(grid) == 201 and grid.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# blocked mode evaluator


def linear_segment_potential(packet, j=32):
    """Barriers around a middle segment at V = E(k_j): node j is linear there."""
    E_j = float(ELECTRON.E_of_k(float(packet.k_nodes[j])))
    return PiecewisePotential(segments=((0.0, 3.0, 8.0), (3.0, 5.0, E_j), (5.0, 8.0, 2.0)))


def mode_rows(ens, xs):
    """(psi, dpsi) of shape (len(xs), len(k)) gathered from the mode blocks."""
    psi = np.empty((len(xs), len(ens.k)), complex)
    dpsi = np.empty_like(psi)
    for rows, p, d in ens.mode_blocks(xs):
        assert len(p) <= wp.PHASE_BLOCK
        psi[rows], dpsi[rows] = p, d
    return psi, dpsi


@pytest.fixture(scope="module")
def packet65():
    return wp.SpectralPacket.gaussian(K5, DK, n_nodes=65)


@pytest.mark.parametrize("even", [True, False, "piecewise"])
@pytest.mark.parametrize("shape", ["single", "double", "linear"])
def test_mode_blocks_match_transfer_matrix_states(packet65, shape, even, monkeypatch):
    pot = {"single": BARRIER,
           # nodes on both sides of the barrier top; none within rounding of it
           "double": PiecewisePotential.double_barrier(5.3, 2.0, 3.0),
           "linear": linear_segment_potential(packet65)}[shape]
    n = 5 * wp.PHASE_BLOCK + 23
    if even == "piecewise":
        # bohm_trajectories' grid: evenly spaced free pieces of more than one
        # block each, finer pieces inside the segments
        xs = wp._bohm_grid(packet65, pot, -150.0, 160.0)
    elif even:
        xs = np.linspace(-30.0, 40.0, n)
    else:
        xs = np.sort(np.random.default_rng(11).uniform(-30.0, 40.0, n))
    ens = wp._ensemble(packet65, pot)
    assert wp._is_even(xs, ens.k) == (even is True)   # the whole list is even only here
    runs, phase_blocks = [], wp._phase_blocks

    def recorded_phase_blocks(ts, omega):
        runs.append((ts[0], ts[-1]))
        return phase_blocks(ts, omega)

    monkeypatch.setattr(wp, "_phase_blocks", recorded_phase_blocks)
    psi, dpsi = mode_rows(ens, xs)
    for j, k in enumerate(ens.k):
        ref_p, ref_d = solve_transfer_matrix(pot, float(k)).psi_and_dpsi(xs)
        assert rel_err(psi[:, j], ref_p) <= 1e-12
        assert rel_err(dpsi[:, j], ref_d) <= 1e-12
    # the recurrence runs on each evenly spaced free run longer than one
    # block, here on both sides of the potential, and nowhere else
    free = (xs[xs < pot.x_left], xs[xs >= pot.x_right])
    assert min(len(run) for run in free) > wp.PHASE_BLOCK
    assert runs == ([(run[0], run[-1]) for run in free] if even else [])
    if shape == "linear":
        assert ens.segs[1][1][32] == 0.0   # the E = V node: q2 = 0, psi linear there


def test_mode_block_slices_match_their_tiles(packet65):
    # an uneven list of 3 blocks and 17 positions across the barrier: every
    # slice is clipped to the list and as long as its tiles, and the slices
    # cover the list in order
    pot = linear_segment_potential(packet65)
    n = 3 * wp.PHASE_BLOCK + 17
    xs = np.sort(np.random.default_rng(4).uniform(-20.0, 30.0, n))
    ens = wp._ensemble(packet65, pot)
    assert not wp._is_even(xs, ens.k)
    stop = 0
    for rows, p, d in ens.mode_blocks(xs):
        assert rows.start == stop and rows.stop <= n
        assert rows.stop - rows.start == len(p) == len(d)
        stop = rows.stop
    assert stop == n


def per_x_modes(packet, potential):
    """The per-position mode formula of the unblocked engine, as a reference:
    the anchored form, with the anchored solver's coefficients."""
    k = packet.k_nodes
    states = [parent_solve_transfer_matrix(potential, float(kk)) for kk in k]
    amp_T = np.array([s.amp_T for s in states])
    amp_R = np.array([s.amp_R for s in states])
    kap_m, A_m, b_m, pl_m, dl_m = (np.array([getattr(s, f) for s in states]) for f in
                                   ("kappas", "A", "_b_right", "_psi_l", "_dpsi_l"))

    def modes_at(x):
        if not potential.segments or x < potential.x_left:
            e_p = np.exp(1j * k * x)
            e_m = np.conj(e_p)
            return e_p + amp_R * e_m, 1j * k * (e_p - amp_R * e_m)
        if x >= potential.x_right:
            e_p = np.exp(1j * k * x)
            return amp_T * e_p, 1j * k * amp_T * e_p
        for j, (xl, xr, V) in enumerate(potential.segments):
            if xl <= x < xr:
                kap = kap_m[:, j]
                dec = np.exp(-kap * (x - xl))
                grow = np.exp(-kap * (xr - x))
                psi = A_m[:, j] * dec + b_m[:, j] * grow
                dpsi = -kap * A_m[:, j] * dec + kap * b_m[:, j] * grow
                lin = np.abs(kap) * (xr - xl) < 1e-12
                if np.any(lin):
                    psi[lin] = pl_m[lin, j] + dl_m[lin, j] * (x - xl)
                    dpsi[lin] = dl_m[lin, j]
                return psi, dpsi
        raise AssertionError("x not classified")

    return modes_at


def test_short_position_lists_are_bit_identical_to_per_x_formula(packet65):
    pot = linear_segment_potential(packet65)
    rng = np.random.default_rng(5)
    # every region, both edges of each segment, in shuffled order
    xs = np.concatenate([[0.0, 3.0, 5.0, 8.0], rng.uniform(-4.0, 12.0, wp.PHASE_BLOCK - 4)])
    xs = rng.permutation(xs)
    ens = wp._ensemble(packet65, pot)
    assert len(set(np.searchsorted(ens.edges, xs, side="right"))) == 5
    ref = [ens.modes_at(float(x)) for x in xs]
    ref_p = np.array([m[0] for m in ref])
    ref_d = np.array([m[1] for m in ref])
    psi, dpsi = mode_rows(ens, xs)
    assert np.array_equal(psi, ref_p) and np.array_equal(dpsi, ref_d)
    # and the anchored form of the unblocked engine agrees to rounding
    modes_at = per_x_modes(packet65, pot)
    anchored = [modes_at(float(x)) for x in xs]
    assert rel_err(psi, np.array([m[0] for m in anchored])) <= 1e-12
    assert rel_err(dpsi, np.array([m[1] for m in anchored])) <= 1e-12
    ts = np.linspace(-1e-14, 1e-14, 7)
    phase = np.exp(-1j * np.outer(ts, ens.omega))
    got_p, got_d = wp.evolve(packet65, pot, xs, ts)
    assert np.array_equal(got_p, phase @ (ens.coef * ref_p).T)
    assert np.array_equal(got_d, phase @ (ens.coef * ref_d).T)
    assert np.array_equal(wp._density(ens, xs, ts), np.abs(got_p) ** 2)


def oracle_cases(packet65):
    """(potential, energies in eV) pairs: every region kind, both sides of
    each barrier top, and the E = V node of linear_segment_potential."""
    lin = linear_segment_potential(packet65)
    E_lin = [float(ELECTRON.E_of_k(float(k))) for k in packet65.k_nodes]
    return [
        (PiecewisePotential.square(10.0, 5.0), [1.0, 5.0, 9.9, 10.5, 12.0]),
        (PiecewisePotential.square(3.0, 5.0), [1.0, 4.0, 12.0]),
        (PiecewisePotential.double_barrier(5.3, 2.0, 3.0), [1.0, 5.0, 6.0, 12.0]),
        (lin, E_lin),
        (PiecewisePotential.step(10.0), [1.0, 5.0, 9.9, 10.5, 12.0]),
        (PiecewisePotential.step(3.0, x_edge=1.5), [1.0, 4.0, 12.0]),
    ]


def test_psi_and_dpsi_match_interior_copy(packet65):
    xs = np.concatenate([np.linspace(-12.0, 14.0, 521), [0.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0]])
    for pot, energies in oracle_cases(packet65):
        for E in energies:
            st_ = solve_transfer_matrix(pot, float(k_of_E(E)))
            want_p, want_d = parent_psi_and_dpsi(parent_solve_transfer_matrix(pot, st_.k), xs)
            got_p, got_d = st_.psi_and_dpsi(xs)
            assert rel_err(got_p, want_p) <= 1e-12, (pot, E)
            assert rel_err(got_d, want_d) <= 1e-12, (pot, E)
            for x in (-3.0, 0.0, 2.5, 9.0):   # scalars give scalars
                p, d = st_.psi_and_dpsi(x)
                assert np.ndim(p) == 0 and np.ndim(d) == 0
                assert p == st_.psi_and_dpsi(np.array([x]))[0][0]


def test_step_interior_matches_closed_form():
    # below the top psi = (1 + r) e^{-kappa x} in the step (x > 0)
    V0_ = 10.0
    xs = np.linspace(0.0, 6.0, 61)
    for E in (1.0, 5.0, 9.9):
        k = float(k_of_E(E))
        kap = float(ELECTRON.kappa_of(E, V0_))
        st_ = solve_transfer_matrix(PiecewisePotential.step(V0_), k)
        psi, dpsi = st_.psi_and_dpsi(xs)
        want = (1.0 + step_reflection(V0_, k)) * np.exp(-kap * xs)
        assert rel_err(psi, want) <= 1e-12
        assert rel_err(dpsi, -kap * want) <= 1e-12


def test_cumulative_trapezoid_matches_scipy():
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(3)
    for n in (2, 3, 64, 1001, 20001):
        for x in (np.linspace(-1e-13, 1e-13, n), np.sort(rng.uniform(-50.0, 50.0, n))):
            y = rng.standard_normal(n)
            assert np.array_equal(wp._cumulative_trapezoid(y, x),
                                  cumulative_trapezoid(y, x, initial=0.0))


@settings(max_examples=60, deadline=None)
@given(x0=st.floats(-500.0, 500.0), dx=st.floats(1e-3, 1.0),
       n=st.integers(wp.PHASE_BLOCK + 1, 6 * wp.PHASE_BLOCK))
def test_position_recurrence_matches_direct_exp(packet, x0, dx, n):
    ens = wp._ensemble(packet, FREE)
    xs = x0 + dx * np.arange(n)
    assume(wp._is_even(xs, ens.k))
    psi, dpsi = mode_rows(ens, xs)
    direct = np.exp(1j * np.outer(xs, ens.k))
    # each factor carries a few ulps of its exp argument
    tol = wp.EVEN_GRID_TOL + 8 * np.finfo(float).eps * np.max(np.abs(xs)) * ens.k.max()
    assert np.max(np.abs(psi - direct)) <= tol
    assert np.max(np.abs(dpsi - 1j * ens.k * direct)) <= tol * ens.k.max()


def test_norm_on_window_holds_no_position_by_node_matrix(packet):
    wp.evolve(packet, BARRIER, 0.0, 0.0)   # the ensemble is built outside the trace
    tracemalloc.start()
    try:
        wp.norm_on_window(packet, BARRIER, 1e-14, (-1000.0, 1000.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = 16 * 20001 * len(packet.k_nodes)   # one 20001 x 513 complex matrix
    assert peak <= full / 10


# ---------------------------------------------------------------------------
# library-boundary checks and the ensemble cache


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["x", "t", "x-array", "t-array"])
def test_evolve_rejects_non_finite_input(packet, bad, where):
    x, t = 0.0, 0.0
    if where == "x":
        x = bad
    elif where == "t":
        t = bad
    elif where == "x-array":
        x = np.array([0.0, bad, 1.0])
    else:
        t = np.array([0.0, bad])
    with pytest.raises(ValueError):
        wp.evolve(packet, BARRIER, x, t)


def test_ensemble_cache_keys_on_spectral_content():
    # same k0, dk, node count, weights and amplitude; only the nodes move
    pot = PiecewisePotential.square(1.0, 5.0)
    a = wp.SpectralPacket.gaussian(0.1, 0.05, n_nodes=65)
    b = dataclasses.replace(a, k_nodes=a.k_nodes + 0.01)
    for p in (a, b):
        want = sum(w * g * g * abs(solve_transfer_matrix(pot, float(k)).amp_T) ** 2
                   for k, w, g in zip(p.k_nodes, p.weights, p.amplitude))
        assert wp.transmitted_norm(p, pot) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        a.k_nodes[0] = 1.0   # the key stays true: packet arrays are read-only


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["t_start", "t_end", "seeds"])
def test_bohm_trajectories_reject_non_finite_input(packet, monkeypatch, bad, where):
    calls = []
    monkeypatch.setattr(wp, "_blocks", lambda *args, **kwargs: calls.append(args))
    kwargs = {"seeds": [-100.0, -90.0], "t_start": -3e-14, "t_end": 1.5e-14}
    kwargs[where] = [-100.0, bad] if where == "seeds" else bad
    with pytest.raises(ValueError, match="finite"):
        wp.bohm_trajectories(packet, BARRIER, **kwargs)
    assert calls == []   # rejected before the first density evaluation


@pytest.mark.parametrize("kwargs, match", [
    ({"seeds": []}, "at least one seed"),
    ({"t_end": -3e-14}, "t_end must exceed t_start"),
    ({"t_end": -4e-14}, "t_end must exceed t_start"),
    ({"n_out": 0}, "n_out"),
    ({"n_out": 2.5}, "n_out must be an integer"),
    ({"n_out": 401.0}, "n_out must be an integer"),
    ({"n_out": True}, "n_out must be an integer"),
], ids=["no-seeds", "empty-window", "backward-window", "no-samples", "fractional-samples",
        "float-samples", "bool-samples"])
def test_bohm_trajectories_reject_empty_input(packet, monkeypatch, kwargs, match):
    # numpy's zero-size error, and a silent backward run, before this check
    calls = []
    monkeypatch.setattr(wp, "_blocks", lambda *args, **kw: calls.append(args))
    args = {"seeds": [-100.0, -90.0], "t_start": -3e-14, "t_end": 1.5e-14, **kwargs}
    with pytest.raises(ValueError, match=match):
        wp.bohm_trajectories(packet, BARRIER, **args)
    assert calls == []


@pytest.mark.parametrize("n_seeds, region, match", [
    (0, (-150.0, 150.0), "n_seeds"),
    (-2, (-150.0, 150.0), "n_seeds"),
    (3, (150.0, -150.0), "region"),
    (3, (20.0, 20.0), "region"),
    (2.5, (-150.0, 150.0), "n_seeds must be an integer"),
    (3.0, (-150.0, 150.0), "n_seeds must be an integer"),
    (True, (-150.0, 150.0), "n_seeds must be an integer"),
], ids=["no-seeds", "negative", "reversed", "empty", "fractional-seeds", "float-seeds",
        "bool-seeds"])
def test_seed_positions_reject_bad_input(packet, n_seeds, region, match):
    # a reversed region used to return reversed seeds, n_seeds = 0 [] and
    # n_seeds = 2.5 three seeds
    with pytest.raises(ValueError, match=match):
        wp.seed_positions(packet, FREE, 0.0, n_seeds, region)


@pytest.mark.parametrize("quantile_range", [
    (0.0, 1.5), (-0.5, 1.0), (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
    (-math.inf, 1.0), (0.5, 0.5), (0.8, 0.2)],
    ids=["hi-above-1", "lo-below-0", "nan-lo", "nan-hi", "inf-hi", "inf-lo", "empty", "reversed"])
def test_seed_positions_reject_bad_quantile_range(evaluations, quantile_range):
    # (0, 1.5) put a seed at the region's end, (-0.5, 1) one at its start and
    # (nan, 1) gave nan seeds
    p = wp.SpectralPacket.gaussian(K5, DK, n_nodes=129)
    with pytest.raises(ValueError, match="quantile_range"):
        wp.seed_positions(p, BARRIER, 0.0, 4, (-700.0, 0.0), quantile_range=quantile_range)
    assert evaluations == []   # rejected before any evaluation


@pytest.mark.parametrize("fn", ["norm_on_window", "centroid_trajectory"])
@pytest.mark.parametrize("window, dx, match", [
    ((50.0, -50.0), 0.1, "window"),
    ((20.0, 20.0), 0.1, "window"),
    ((-50.0, math.nan), 0.1, "window"),
    ((-math.inf, 50.0), 0.1, "window"),
    ((-50.0, 50.0), -0.1, "dx"),
    ((-50.0, 50.0), 0.0, "dx"),
    ((-50.0, 50.0), math.nan, "dx"),
    ((-50.0, 50.0), math.inf, "dx"),
], ids=["reversed", "empty", "nan-end", "inf-start", "negative-dx", "zero-dx", "nan-dx", "inf-dx"])
def test_spatial_windows_reject_bad_input(packet, evaluations, fn, window, dx, match):
    # a reversed window or a negative dx gave a norm of 0.0 and a centroid of
    # (nan, 0.0); a nan dx numpy's arange error
    with pytest.raises(ValueError, match=match):
        getattr(wp, fn)(packet, BARRIER, 0.0, window, dx=dx)
    assert evaluations == []   # rejected before any evaluation


@pytest.mark.parametrize("window, dx, want", [
    ((0.0, 1.0), 0.25, [0.0, 0.25, 0.5, 0.75, 1.0]),     # dx divides the window
    ((0.0, 1.0), 0.1, np.linspace(0.0, 1.0, 11)),        # ... to within rounding
    ((0.0, 1.0), 0.3, [0.0, 0.25, 0.5, 0.75, 1.0]),      # it does not: 4 steps, not 3.33
    ((0.0, 1.0), 0.7, [0.0, 0.5, 1.0]),
    ((0.0, 1.0), 3.0, [0.0, 1.0]),                        # dx wider than the window
])
def test_window_grid_spans_the_window(window, dx, want):
    # np.arange stopped short of the end or ran past it: (0, 0.7) at dx 0.7,
    # (0, 0.6, 1.2) at dx 0.6, and [0] at dx 3, whose norm was 0.0
    xs = wp._window_grid(window, dx)
    assert xs.tolist() == list(want)
    assert xs[0] == window[0] and xs[-1] == window[1]
    assert np.diff(xs).max() <= dx * (1.0 + 1e-9)   # at most dx, to within rounding


def test_window_grid_keeps_a_dividing_step():
    # the benchmark's 400 A windows at 0.1 A keep their 4001 points
    for lo in (-453.25, -37.9, 5.0, 51.37):
        xs = wp._window_grid((lo, lo + 400.0), 0.1)
        assert xs.size == 4001 and xs[-1] == lo + 400.0


def test_norm_on_a_window_narrower_than_dx_is_not_zero(packet):
    t = -2e-14
    narrow = wp.norm_on_window(packet, BARRIER, t, (-1.0, 0.0), dx=3.0)
    assert narrow == pytest.approx(wp.norm_on_window(packet, BARRIER, t, (-1.0, 0.0), dx=1.0),
                                   rel=1e-14)
    assert narrow > 0.0


@pytest.mark.parametrize("nt, fixture, nx", [
    pytest.param(1, "packet", wp.PHASE_BLOCK + 9, id="1"),
    pytest.param(7, "packet", wp.PHASE_BLOCK + 9, id="7"),
    pytest.param(3 * wp.PHASE_BLOCK + 5, "packet", wp.PHASE_BLOCK + 9, id="197"),
    # 21 positions on 65 nodes: one product takes all four long blocks
    pytest.param(3 * wp.PHASE_BLOCK + 5, "packet65", 21, id="197-65-nodes-21-positions")])
def test_current_and_density_match_evolve_bit_for_bit(request, nt, fixture, nx):
    # both fill their tables block by block from the blocks evolve uses
    packet = request.getfixturevalue(fixture)
    ts = -2e-14 + 2e-16 * np.arange(nt)
    xs = np.linspace(-40.0, 45.0, nx)
    psi, dpsi = wp.evolve(packet, BARRIER, xs, ts)
    J = wp.current(packet, BARRIER, xs, ts)
    assert np.array_equal(J, ELECTRON.hbar_over_m * np.imag(np.conj(psi) * dpsi))
    ens = wp._ensemble(packet, BARRIER)
    assert np.array_equal(wp._density(ens, xs, ts), np.abs(psi) ** 2)
    p1, d1 = wp.evolve(packet, BARRIER, 2.0, ts)
    assert np.array_equal(wp.current(packet, BARRIER, 2.0, ts),
                          ELECTRON.hbar_over_m * np.imag(np.conj(p1) * d1))
    assert np.array_equal(wp._density(ens, xs, ts[0]),
                          np.abs(wp.evolve(packet, BARRIER, xs, ts[0])[0]) ** 2)


def test_packet_frees_its_ensemble_with_it():
    packet = wp.SpectralPacket.gaussian(K5, DK, n_nodes=33)
    wp.transmitted_norm(packet, BARRIER)
    kept = weakref.ref(wp._ensemble(packet, BARRIER))
    del packet
    gc.collect()
    assert kept() is None   # no module-level store keeps it alive


def test_packet_keeps_the_ensemble_of_its_last_potential(monkeypatch):
    built = []
    init = wp._Ensemble.__init__
    monkeypatch.setattr(wp._Ensemble, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    packet = wp.SpectralPacket.gaussian(K5, DK, n_nodes=33)
    ens = wp._ensemble(packet, BARRIER)
    assert wp._ensemble(packet, PiecewisePotential.square(10.0, 5.0)) is ens   # equal, so kept
    assert wp._ensemble(packet, FREE) is not ens
    assert wp._ensemble(packet, BARRIER) is not ens   # one slot: the last potential only
    assert len(built) == 3


def test_alternated_potentials_evolve_as_fresh_packets():
    # a width 1e-12 relative off, and a second barrier, each replace the slot
    pots = [BARRIER, PiecewisePotential.square(10.0, 5.0 * (1.0 + 1e-12)),
            PiecewisePotential.double_barrier(10.0, 2.0, 3.0)]
    xs, ts = np.linspace(-30.0, 40.0, 9), np.linspace(-2e-14, 2e-14, 5)
    packet = wp.SpectralPacket.gaussian(K5, DK, n_nodes=33)
    for pot in pots + pots[::-1] + pots:
        fresh = wp.SpectralPacket.gaussian(K5, DK, n_nodes=33)
        assert wp.current(packet, pot, xs, ts).tobytes() == wp.current(fresh, pot, xs, ts).tobytes()
        assert wp.transmitted_norm(packet, pot) == wp.transmitted_norm(fresh, pot)


@pytest.mark.parametrize("module", ["units", "scattering", "times", "optical", "wavepacket"])
def test_library_holds_no_module_level_mutable_state(module):
    # a module-level store outlives every packet and shares state between
    # calls; an OrderedDict is a dict. cli is left out: its schema and column
    # tables are constants that no call changes
    mod = importlib.import_module(f"tunneltime.{module}")
    mutable = {name for name, value in vars(mod).items()
               if not name.startswith("__") and isinstance(value, (dict, list, set))}
    assert mutable == set()
