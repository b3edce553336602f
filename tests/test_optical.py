import math

import numpy as np
import pytest

from tunneltime import optical as op
from tunneltime.scattering import PiecewisePotential, solve_transfer_matrix
from tunneltime.times import extrapolated_phase_times
from tunneltime.scattering import SquareBarrierParams
from tunneltime.units import ELECTRON, k_of_E

B = 0.02  # m


def spec_at(ratio: float) -> op.WaveguideSpec:
    wc = math.pi * op.C_M_S / B
    return op.WaveguideSpec(b=B, omega=ratio * wc)


# ---------------------------------------------------------------------------
# dispersion


def test_cutoff_values():
    s = spec_at(1.0)
    assert s.omega_c == pytest.approx(math.pi * op.C_M_S / B, rel=1e-14)
    assert s.cutoff_wavelength == pytest.approx(2.0 * B, rel=1e-14)


def test_kappa_zero_at_cutoff():
    kappa, v_g = op.waveguide_dispersion(spec_at(1.0))
    assert abs(kappa) == pytest.approx(0.0, abs=1e-12)
    assert v_g == pytest.approx(0.0, abs=1e-4)


def test_group_velocity_sqrt2():
    kappa, v_g = op.waveguide_dispersion(spec_at(math.sqrt(2.0)))
    assert kappa.imag == 0.0
    assert v_g == pytest.approx(op.C_M_S / math.sqrt(2.0), rel=1e-12)
    assert v_g <= op.C_M_S


def test_evanescent_branch():
    s = spec_at(0.5)
    kappa, v_g = op.waveguide_dispersion(s)
    assert s.evanescent
    assert kappa.real == pytest.approx(0.0, abs=1e-15)
    assert kappa.imag == pytest.approx(
        math.sqrt(s.omega_c ** 2 - s.omega ** 2) / op.C_M_S, rel=1e-12)
    assert math.isnan(v_g)


def test_branch_continuity_at_cutoff():
    below = op.waveguide_dispersion(spec_at(1.0 - 1e-9))[0]
    above = op.waveguide_dispersion(spec_at(1.0 + 1e-9))[0]
    assert abs(below) < 1e-4 * spec_at(1.0).omega_c / op.C_M_S
    assert abs(above) < 1e-4 * spec_at(1.0).omega_c / op.C_M_S


def test_dispersion_body_rows_are_the_scalar_calls():
    wc = math.pi * op.C_M_S / B
    omegas = np.linspace(0.5, 1.5, 2001) * wc
    kappa, v_g = op._dispersion(B, omegas)
    for w, kap, v in zip(omegas.tolist(), kappa.tolist(), v_g.tolist()):
        want_kap, want_v = op.waveguide_dispersion(op.WaveguideSpec(b=B, omega=w))
        assert kap == want_kap and (v == want_v or math.isnan(v) and math.isnan(want_v))
    below = omegas < wc
    assert np.isnan(v_g[below]).all() and (v_g[~below] >= 0).all()
    assert (kappa.real[below] == 0).all() and (kappa.imag[below] > 0).all()
    assert (kappa.imag[~below] == 0).all()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_dispersion_body_rejects_bad_frequencies(bad):
    with pytest.raises(ValueError, match="omega"):
        op._dispersion(B, np.array([1e10, bad]))


def test_cli_dispersion_table_is_one_call(monkeypatch, tmp_path):
    from tunneltime import cli

    sizes = []
    real = op._dispersion

    def counted(b, omega):
        sizes.append(omega.size)
        return real(b, omega)

    monkeypatch.setattr(op, "_dispersion", counted)
    assert cli.main(["optical", "--set", "ratio_points=501", "--out", str(tmp_path)]) == 0
    assert [n for n in sizes if n > 1] == [501]


def test_spec_validation():
    with pytest.raises(ValueError):
        op.WaveguideSpec(b=0.0, omega=1.0)
    with pytest.raises(ValueError):
        op.WaveguideSpec(b=0.01, omega=-2.0)


# ---------------------------------------------------------------------------
# mapping


def test_map_round_trip():
    s = spec_at(0.8)
    m = op.map_quantum_waveguide(s)
    back = op.unmap_quantum_waveguide(m)
    assert back.b == pytest.approx(s.b, rel=1e-12)
    assert back.omega == pytest.approx(s.omega, rel=1e-12)


def test_mapped_kappa_matches_guide():
    s = spec_at(0.8)
    m = op.map_quantum_waveguide(s)
    kappa_guide = op.waveguide_dispersion(s)[0]
    assert m.kappa == pytest.approx(abs(kappa_guide.imag), rel=1e-12)


@pytest.mark.parametrize("ratio", [0.3, 0.6, 0.8, 0.95])
@pytest.mark.parametrize("kapL", [0.5, 3.0, 12.0])
def test_mapped_equals_direct(ratio, kapL):
    s = spec_at(ratio)
    kap = abs(op.waveguide_dispersion(s)[0].imag)
    L = kapL / kap
    direct = op.traversal_time_direct(s, L)
    mapped = op.traversal_time_mapped(s, L)
    assert mapped == pytest.approx(direct, rel=1e-10, abs=0)


def test_traversal_frozen_value():
    # b = 0.02 m, omega = 0.8 omega_c, kappa L = 3
    s = spec_at(0.8)
    kap = abs(op.waveguide_dispersion(s)[0].imag)
    tau = op.traversal_time_direct(s, 3.0 / kap)
    assert tau == pytest.approx(7.011325e-11, rel=1e-6, abs=0)
    assert (3.0 / kap) / tau > op.C_M_S  # superluminal average already here


def test_optical_hartman_saturation():
    s = spec_at(0.8)
    kap = abs(op.waveguide_dispersion(s)[0].imag)
    t1 = op.traversal_time_direct(s, 8.0 / kap)
    t2 = op.traversal_time_direct(s, 16.0 / kap)
    assert t2 == pytest.approx(t1, rel=1e-4, abs=0)  # independent of length


@pytest.mark.parametrize("ratio", [0.3, 0.6, 0.8, 0.95])
def test_saturated_direct_meets_mapped(ratio):
    # from kappa L = 300 the direct form takes its bracket as exactly 2
    s = spec_at(ratio)
    L = 400.0 / abs(op.waveguide_dispersion(s)[0].imag)
    direct = op.traversal_time_direct(s, L)
    assert op.traversal_time_mapped(s, L) == pytest.approx(direct, rel=1e-14, abs=0)


def test_traversal_zero_length():
    assert op.traversal_time_direct(spec_at(0.8), 0.0) == 0.0


def test_traversal_rejects_bad_length():
    with pytest.raises(ValueError, match="L must be >= 0"):
        op.traversal_time_direct(spec_at(0.8), -1e-3)
    for bad in (math.nan, math.inf, [0.1, math.inf]):
        with pytest.raises(ValueError, match="L must be finite and >= 0"):
            op.traversal_time_mapped(spec_at(0.8), bad)


def test_traversal_rejects_propagating():
    with pytest.raises(ValueError):
        op.traversal_time_direct(spec_at(1.5), 0.1)
    with pytest.raises(ValueError):
        op.traversal_time_mapped(spec_at(1.5), 0.1)


def test_superluminal_threshold():
    thr = op.superluminal_threshold(0.8)
    s = spec_at(0.8)
    kap = abs(op.waveguide_dispersion(s)[0].imag)
    for kapL, above in ((thr * 0.9, False), (thr * 1.1, True)):
        L = kapL / kap
        assert bool((L / op.traversal_time_direct(s, L)) > op.C_M_S) == above


@pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_superluminal_threshold_rejects_ratio_outside_unit_interval(ratio):
    with pytest.raises(ValueError, match=r"omega_ratio must lie in \(0, 1\)"):
        op.superluminal_threshold(ratio)


# ---------------------------------------------------------------------------
# two barriers with a gap


V0 = 10.0
EPS = k_of_E(V0)
K5 = k_of_E(5.0)


def test_gap_zero_degenerates_to_single():
    t_gap0, _ = op.double_barrier_time(2.5, 0.0, V0, K5)
    # the phase time of a square barrier is already its whole traversal time
    t_single = extrapolated_phase_times(SquareBarrierParams(V0, 5.0), K5)[0]
    assert t_gap0 == pytest.approx(t_single, rel=1e-9, abs=0)


def test_transparent_limit_is_ballistic():
    t, margin = op.double_barrier_time(3.0, 4.0, 1e-9, K5)
    assert t == pytest.approx(10.0 / ELECTRON.v_of_k(K5), rel=1e-6, abs=0)
    assert margin == 1.0


def test_gap_independence_off_resonance():
    kap = math.sqrt(EPS ** 2 - K5 ** 2)
    d = 15.0 / kap
    t1, m1 = op.double_barrier_time(d, 10.0, V0, K5)
    t2, m2 = op.double_barrier_time(d, 20.0, V0, K5)
    assert min(m1, m2) >= 0.1
    assert abs(t2 - t1) <= 0.05 * abs(t1)


def test_gap_sweep_table():
    rows = op.gap_sweep(5.0, V0, K5, [0.0, 5.0, 10.0])
    assert len(rows) == 3
    assert rows[0][0] == 0.0
    assert all(len(r) == 3 for r in rows)


def test_double_barrier_validation():
    with pytest.raises(ValueError):
        op.double_barrier_time(-1.0, 5.0, V0, K5)
