"""Command line contract: exit codes, config handling, table shapes."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    EPS_MACH,
    HBAR_RATIO,
    PHASE_EPS,
    SLOPE_EPS,
    amplitude_rel,
    assert_close,
    at_top,
    check_top_oracle,
    gap_conds,
    interior_qd,
    phase_scale,
    time_rel,
)

from tunneltime import cli
from tunneltime import wavepacket as wp
from tunneltime.scattering import PiecewisePotential
from tunneltime.units import ELECTRON, k_of_E

V0 = 10.0
EPS = float(k_of_E(V0))

# fast packet settings shared by the slow-path commands
FAST = ["--set", "n_nodes=257", "--set", "dt_fine=1e-16"]


def run(args, out):
    return cli.main(args + ["--out", str(out)])


def read_table(path):
    """(names, array) from one of our CSVs; # lines are headers."""
    lines = [l for l in path.read_text().splitlines()
             if l and not l.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    return names, data


def meta_value(path, key):
    for line in path.read_text().splitlines():
        if line.startswith(f"# meta: {key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


# config plumbing


def test_single_point_one_row(tmp_path):
    assert run(["times", "--set", "V0=10", "--set", "d=5", "--set", "E=5"],
               tmp_path) == 0
    names, data = read_table(tmp_path / "times.csv")
    assert names == cli.TIMES_COLUMNS
    assert data.shape == (1, 17)


def test_config_file_comments_and_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# barrier\n"
        "V0 = 10\n"
        "d = 5   # width in A\n"
        "\n"
        "E = 5\n")
    out = tmp_path / "o"
    assert cli.main(["times", "--config", str(cfgfile), "--set", "d=7",
                     "--out", str(out)]) == 0
    # the override is what lands in the header
    assert "# config: d = 7.0" in (out / "times.csv").read_text()


def test_unknown_key_rejected(tmp_path):
    assert run(["times", "--set", "V0=10", "--set", "d=5", "--set", "E=5",
                "--set", "bogus=1"], tmp_path) == 2


def test_missing_required_key(tmp_path):
    assert run(["times", "--set", "d=5", "--set", "E=5"], tmp_path) == 2


def test_bad_value_type(tmp_path):
    assert run(["times", "--set", "V0=ten", "--set", "d=5", "--set", "E=5"],
               tmp_path) == 2


def test_duplicate_key_in_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("V0 = 10\nV0 = 12\n")
    assert cli.main(["times", "--config", str(cfgfile)]) == 2


def test_malformed_set_item(tmp_path):
    assert run(["times", "--set", "V0"], tmp_path) == 2


def test_k_and_E_both_given(tmp_path):
    assert run(["times", "--set", "V0=10", "--set", "d=5", "--set", "E=5",
                "--set", "k=1"], tmp_path) == 2


def test_two_sweeps_rejected(tmp_path):
    assert run(["times", "--set", "V0=10", "--set", "d=5",
                "--set", "k_min=1", "--set", "k_max=2", "--set", "k_points=3",
                "--set", "E_min=1", "--set", "E_max=2", "--set", "E_points=3"],
               tmp_path) == 2


def test_nonpositive_parameter_rejected(tmp_path):
    assert run(["times", "--set", "V0=-10", "--set", "d=5", "--set", "E=5"],
               tmp_path) == 2


def test_empty_sweep_rejected(tmp_path):
    assert run(["times", "--set", "V0=10", "--set", "d=5",
                "--set", "k_min=1", "--set", "k_max=2", "--set", "k_points=0"],
               tmp_path) == 2


@pytest.mark.parametrize("text, match", [("V0 10", "expected 'key = value'"),
                                         (" = 3", "empty key")])
def test_config_line_without_key_or_equals_rejected(text, match):
    with pytest.raises(cli.ConfigError, match=match):
        cli.parse_config_text(f"d = 5\n{text}\n", source="run.cfg")


@pytest.mark.parametrize("args, message", [
    (["times", "--set", "V0=10", "--set", "d=5", "--set", "k_points=3"],
     "k_points given without k_min/k_max"),
    (["times", "--set", "V0=10", "--set", "d=5", "--set", "k=1",
      "--set", "E_min=1", "--set", "E_max=2", "--set", "E_points=3"],
     "fixed k/E conflicts with a k/E sweep"),
    (["times", "--set", "V0=10", "--set", "E=5"], "missing required config key 'd'"),
    (["reshape", "--set", "V0=10", "--set", "d=-1", "--set", "E=5", "--set", "dk=0.02"],
     "'d' must be >= 0"),
    (["reshape", "--set", "V0=10", "--set", "d=5", "--set", "E=5", "--set", "dk=0.02",
      "--set", "n_grid=1"], "n_grid must be an integer of at least 2"),
    (["optical", "--set", "gap_E=10"], "gap sweep needs gap_E < gap_V0"),
    (["bohm", "--set", "V0=10", "--set", "d=5", "--set", "E=5", "--set", "dk=0.02",
      "--set", "t_start=1e-14", "--set", "t_end=1e-14"], "t_end must exceed t_start"),
    (["bohm", "--set", "V0=10", "--set", "d=5", "--set", "E=5", "--set", "dk=0.02",
      "--set", "n_nodes=65", "--set", "t_start=1e-12", "--set", "t_end=2e-12"],
     "t_start leaves no seeding room left of the barrier"),
    (["evolve", "--set", "V0=10", "--set", "d=5", "--set", "E=5", "--set", "dk=0.02",
      "--set", "svg=maybe"], "key 'svg': cannot parse 'maybe' as bool"),
], ids=["sweep-without-bounds", "fixed-k-with-E-sweep", "times-without-d", "negative-d",
        "one-point-reshape-grid", "gap-above-top", "empty-bohm-window", "no-seeding-room",
        "bool-maybe"])
def test_bad_combination_exits_2_with_its_message(tmp_path, capsys, args, message):
    assert run(args, tmp_path) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_path(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert cli.main(["times", "--set", "V0=10", "--set", "d=5", "--set", "E=5",
                     "--out", str(blocker / "sub")]) == 2


def test_module_entry_point(tmp_path):
    import tunneltime

    src = str(Path(tunneltime.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "tunneltime.cli", "times", "--out", str(tmp_path),
         "--set", "V0=10", "--set", "d=5", "--set", "E=5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert (tmp_path / "times.csv").exists()


def modules_after(code: str, roots=("scipy",)) -> str:
    """The modules under the given top-level names that are loaded once code
    has run in a fresh interpreter."""
    import tunneltime

    src = str(Path(tunneltime.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys; print(sorted(m for m in sys.modules "
         f"if m.split('.')[0] in {tuple(roots)!r}))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs most of a CLI call's start-up; the package does not use it
    assert modules_after("import tunneltime.cli") == "[]"


def test_dwell_time_leaves_scipy_unloaded():
    # the dwell-time quadrature is composite Gauss-Legendre in numpy
    code = ("from tunneltime.scattering import PiecewisePotential\n"
            "from tunneltime.times import dwell_time\n"
            "assert dwell_time(PiecewisePotential.square(10.0, 5.0), 1.0, -2.0, 7.0) > 0")
    assert modules_after(code) == "[]"


def test_float_csv_leaves_fractions_decimal_scipy_unloaded(tmp_path):
    # the CSV float kernel builds its decimal scales from ints, not Fraction
    # or Decimal, whose imports would add to every CLI call's start-up
    code = ("import numpy as np\nfrom pathlib import Path\nfrom tunneltime import cli\n"
            f"cli.write_csv(Path({str(tmp_path / 'f.csv')!r}), "
            "cli.RunConfig('times', {}, Path('.')), ['a', 'b'], "
            "np.array([[1.0, 2.5e-300], [np.nan, -0.0], [1e300, 7.0]]))")
    assert modules_after(code, ("scipy", "fractions", "decimal")) == "[]"
    assert (tmp_path / "f.csv").read_text().endswith(
        "1.00000000000000005e+300,7.00000000000000000e+00\n")


def test_cli_bohm_run_leaves_scipy_unloaded(tmp_path):
    # the trajectories come from density quantiles and probe fluxes, no ODE solver
    args = ["bohm", "--out", str(tmp_path), "--set", "V0=10", "--set", "d=2",
            "--set", "E=5", "--set", "dk=0.05", "--set", "n_nodes=65",
            "--set", "n_traj=2", "--set", "n_out=41", "--set", "with_flux=false"]
    code = f"import tunneltime.cli\nassert tunneltime.cli.main({args!r}) == 0"
    assert modules_after(code) == "[]"
    assert (tmp_path / "bohm_traj.csv").exists()


def test_cli_import_and_bohm_run_leave_numpy_polynomial_unloaded(tmp_path):
    # the Gauss-Legendre rule is the package's own: no numpy.polynomial, no LAPACK
    assert "numpy.polynomial" not in modules_after("import tunneltime.cli", ("numpy",))
    args = ["bohm", "--out", str(tmp_path), "--set", "V0=10", "--set", "d=2",
            "--set", "E=5", "--set", "dk=0.05", "--set", "n_nodes=65",
            "--set", "n_traj=2", "--set", "n_out=41", "--set", "with_flux=false"]
    code = f"import tunneltime.cli\nassert tunneltime.cli.main({args!r}) == 0"
    loaded = modules_after(code, ("numpy",))
    assert "'numpy'" in loaded and "numpy.polynomial" not in loaded


def test_determinism_modulo_timestamp(tmp_path):
    args = ["times", "--set", "V0=10", "--set", "d=5",
            "--set", "k_min=0.5", "--set", "k_max=2.5", "--set", "k_points=9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(list(args), a) == 0
    assert run(list(args), b) == 0

    def stripped(p):
        return [l for l in (p / "times.csv").read_text().splitlines()
                if not l.startswith("# timestamp")]

    ta, tb = stripped(a), stripped(b)
    assert ta == tb
    assert sum(1 for l in (a / "times.csv").read_text().splitlines()
               if l.startswith("# timestamp")) == 1


# times content


def test_sweep_crossing_top_all_finite(tmp_path):
    assert run(["times", "--set", "V0=10", "--set", "d=5",
                "--set", f"k_min={0.5 * EPS}", "--set", f"k_max={2.0 * EPS}",
                "--set", "k_points=61"], tmp_path) == 0
    names, data = read_table(tmp_path / "times.csv")
    assert data.shape[0] == 61
    # row 20 sits on the top, k = eps, where the sideband times m d/(hbar |q|)
    # and hbar k/(V0 |q|) diverge; every other cell is finite
    assert data[20, 0] == EPS
    bl = [names.index("tau_BL_T_s"), names.index("tau_BL_R_s")]
    assert (data[20, bl] == np.inf).all()
    finite = np.isfinite(data)
    finite[20, bl] = True
    assert finite.all()
    # the sweep really does straddle the top
    assert data[0, 0] < EPS < data[-1, 0]


def test_d_sweep_saturation_and_linearity(tmp_path):
    assert run(["times", "--set", "V0=10", "--set", "E=5",
                "--set", "d_min=5", "--set", "d_max=20", "--set", "d_points=4"],
               tmp_path) == 0
    names, data = read_table(tmp_path / "times.csv")
    phase = data[:, names.index("dtau_phase_T_s")]
    bl = data[:, names.index("tau_BL_T_s")]
    # phase time saturates: successive changes shrink fast
    assert abs(phase[3] - phase[2]) < 1e-3 * abs(phase[1] - phase[0])
    # sideband time is linear through the origin in d
    d = data[:, 0] if names[0] == "k" else None
    ds = np.array([5.0, 10.0, 15.0, 20.0])
    assert np.allclose(bl, bl[0] * ds / ds[0], rtol=1e-12)


# evolve


def test_evolve_curves_and_flags(tmp_path):
    code = run(["evolve", "--set", "V0=10", "--set", "d=5", "--set", "E=5",
                "--set", "dk=0.02", "--set", "x_points=20"] + FAST, tmp_path)
    assert code == 0
    names, data = read_table(tmp_path / "evolve.csv")
    assert names == ["x_A", "tau_pen_s", "tau_ret_s", "flux_plus",
                     "flux_minus", "flag"]
    assert data.shape[0] >= 20
    assert data[0, 0] == 0.0 and data[-1, 0] == 5.0
    assert set(np.unique(data[:, 5])) <= {0.0, 1.0}
    # quadrature sizes and floors are recorded
    text = (tmp_path / "evolve.csv").read_text()
    assert "# meta: spectral_nodes = 257" in text
    assert "# meta: flux_floor" in text


def test_evolve_rows_match_mean_times(tmp_path):
    # the command computes each probe's arrival statistics once; each row
    # still reads, as text, what mean_times gives for the entry probe and it
    assert run(["evolve", "--set", "V0=10", "--set", "d=5", "--set", "E=5",
                "--set", "dk=0.02", "--set", "x_points=20"] + FAST, tmp_path) == 0
    lines = [l for l in (tmp_path / "evolve.csv").read_text().splitlines()
             if l and not l.startswith("#")][1:]
    packet = wp.SpectralPacket.gaussian(float(k_of_E(5.0)), 0.02, n_nodes=257)
    recs = wp.flux_records(packet, PiecewisePotential.square(10.0, 5.0),
                           np.linspace(0.0, 5.0, 20), dt_fine=1e-16)
    assert len(lines) == len(recs)
    for line, rec in zip(lines, recs):
        mt = wp.mean_times(recs[0], rec)
        sf = mt.stats_f
        want = ["%.17e" % v for v in (mt.tau_Pen, mt.tau_Ret, sf.total_plus_flux,
                                      sf.total_minus_flux)]
        want.append(str(int(sf.low_confidence_plus or sf.low_confidence_minus)))
        assert line.split(",")[1:] == want


def test_evolve_strict_flags_exit_3(tmp_path):
    # at the exit face there is no backward flux, so the probe is flagged
    code = run(["evolve", "--strict", "--set", "V0=10", "--set", "d=5",
                "--set", "E=5", "--set", "dk=0.02", "--set", "x_points=20"]
               + FAST, tmp_path)
    assert code == 3
    assert (tmp_path / "evolve.csv").exists()


@pytest.mark.parametrize("k0, dk, clipped", [(0.362, 0.002, True), (1.1456, 0.02, False)])
def test_evolve_entry_flag_reports_window_clip(tmp_path, k0, dk, clipped):
    # the slow packet's flux outlasts the fixed scan window at the entry face
    code = run(["evolve", "--strict", "--set", "V0=1", "--set", "d=2",
                "--set", f"k0={k0}", "--set", f"dk={dk}", "--set", "x_points=20"]
               + FAST, tmp_path)
    assert code == 3
    assert meta_value(tmp_path / "evolve.csv", "entry_flag") == str(int(clipped))


def test_evolve_too_few_probes_rejected(tmp_path):
    assert run(["evolve", "--set", "V0=10", "--set", "d=5", "--set", "E=5",
                "--set", "dk=0.02", "--set", "x_points=12"], tmp_path) == 2


def test_evolve_svg_written(tmp_path):
    assert run(["evolve", "--set", "V0=10", "--set", "d=5", "--set", "E=5",
                "--set", "dk=0.02", "--set", "x_points=20", "--set", "svg=true"]
               + FAST, tmp_path) == 0
    svg = (tmp_path / "evolve.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg and "tau_pen(0,x)" in svg


# hartman


def test_hartman_table(tmp_path):
    code = run(["hartman", "--set", "V0=10", "--set", "E=5",
                "--set", "d_min=3", "--set", "d_max=12", "--set", "d_points=4"]
               + FAST, tmp_path)
    assert code == 0
    names, data = read_table(tmp_path / "hartman.csv")
    sat = data[:, names.index("tau_saturation_s")]
    phase = data[:, names.index("dtau_phase_T_s")]
    flux = data[:, names.index("tau_flux_tun_s")]
    kd = data[:, names.index("kappa_d")]
    assert np.ptp(sat) == 0.0
    thick = kd > 10.0
    assert thick.any()
    assert np.all(np.abs(phase[thick] / sat[thick] - 1.0) < 0.01)
    # flux tunnelling time essentially width independent between 6 and 12 A
    assert abs(flux[-1] / flux[1] - 1.0) < 0.10


def test_hartman_svg_written(tmp_path):
    assert run(["hartman", "--set", "V0=10", "--set", "E=5", "--set", "n_nodes=65",
                "--set", "d_min=2", "--set", "d_max=4", "--set", "d_points=3",
                "--set", "dt_fine=1e-16", "--set", "svg=true"], tmp_path) == 0
    svg = (tmp_path / "hartman.svg").read_text()
    assert svg.startswith("<svg")
    # phase, dwell, sideband, flux and saturation against the width
    assert svg.count("<polyline") == 5


def test_hartman_needs_tunnelling_regime(tmp_path):
    assert run(["hartman", "--set", "V0=10", "--set", "E=15"], tmp_path) == 2


HARTMAN_STRICT = ["hartman", "--strict", "--set", "V0=10", "--set", "E=5", "--set", "n_nodes=129"]


def test_hartman_strict_passes_unflagged_widths(tmp_path):
    # no flux comes back through the exit face of a single barrier, so the
    # far probe's backward flux is 0: tau_T does not read it, and it raises
    # no flag
    assert run(HARTMAN_STRICT + ["--set", "d_min=1", "--set", "d_max=3", "--set", "d_points=5"],
               tmp_path) == 0
    names, data = read_table(tmp_path / "hartman.csv")
    assert not data[:, names.index("flag")].any()


def test_hartman_strict_flags_transmitted_flux_below_floor(tmp_path):
    args = ["--set", "d_min=7.2", "--set", "d_max=7.2", "--set", "d_points=1"]
    assert run(HARTMAN_STRICT + args, tmp_path) == 3
    names, data = read_table(tmp_path / "hartman.csv")
    assert data[:, names.index("flag")].tolist() == [1.0]
    # the flag is the transmitted flux's, not a clipped window's
    packet = wp.SpectralPacket.gaussian(float(k_of_E(5.0)), 0.02, n_nodes=129)
    pot = PiecewisePotential.square(10.0, 7.2)
    mt = wp.mean_times(*wp.flux_records(packet, pot, [0.0, 7.2]))
    assert mt.stats_f.total_plus_flux < wp.FLUX_FLOOR
    assert not mt.stats_i.low_confidence_plus


def test_readme_bohm_example_passes_strict(tmp_path):
    cfg = tmp_path / "barrier.cfg"
    cfg.write_text("# 10 eV barrier, 5 A wide, 5 eV packet\nV0 = 10\nd  = 5\nE  = 5\n"
                   "dk = 0.02\n")
    assert run(["bohm", "--strict", "--config", str(cfg)], tmp_path / "out") == 0


# reshape


def test_reshape_free_case_peak_at_k0(tmp_path):
    assert run(["reshape", "--set", "V0=10", "--set", "d=0",
                "--set", "k0=1.0", "--set", "dk=0.05", "--set", "n_grid=801"],
               tmp_path) == 0
    path = tmp_path / "reshape.csv"
    assert float(meta_value(path, "peak_shift")) == 0.0
    names, data = read_table(path)
    assert names == ["k", "T", "f", "product"]
    assert np.allclose(data[:, 1], 1.0)


def test_reshape_opaque_argmax_stable_under_refinement(tmp_path):
    base = ["reshape", "--set", "V0=10", "--set", "d=12.3",
            "--set", "k0_ratio=0.3", "--set", "dk=0.02"]
    assert run(base + ["--set", "n_grid=2001"], tmp_path / "a") == 0
    assert run(base + ["--set", "n_grid=4001"], tmp_path / "b") == 0
    s1 = float(meta_value(tmp_path / "a" / "reshape.csv", "peak_shift"))
    s2 = float(meta_value(tmp_path / "b" / "reshape.csv", "peak_shift"))
    assert abs(s2 - s1) <= 2 * (12 * 0.02 / 2000)


# optical


def test_optical_tables(tmp_path):
    assert run(["optical", "--set", "ratio_points=11", "--set", "kapL_points=5",
                "--set", "gap_points=5"], tmp_path) == 0
    names, disp = read_table(tmp_path / "optical_dispersion.csv")
    ratio = disp[:, 0]
    kre = disp[:, names.index("kappa_re_1_m")]
    kim = disp[:, names.index("kappa_im_1_m")]
    assert np.all(kim[ratio < 1.0] > 0) and np.all(kre[ratio < 1.0] == 0)
    assert np.all(kre[ratio > 1.0] > 0) and np.all(kim[ratio > 1.0] == 0)

    names, trav = read_table(tmp_path / "optical_traversal.csv")
    t_dir = trav[:, names.index("tau_direct_s")]
    t_map = trav[:, names.index("tau_mapped_s")]
    assert np.all(np.abs(t_map / t_dir - 1.0) < 1e-10)
    thr = float(meta_value(tmp_path / "optical_traversal.csv", "superluminal_kapL"))
    speed = trav[:, names.index("speed_over_c")]
    assert np.all((speed > 1.0) == (trav[:, 0] > thr))

    _, gap = read_table(tmp_path / "optical_gap.csv")
    times = gap[:, 1]
    assert np.ptp(times) / times.mean() < 0.05


def test_optical_needs_evanescent_ratio(tmp_path):
    assert run(["optical", "--set", "omega_ratio=1.2"], tmp_path) == 2


# bohm


@pytest.mark.parametrize("args, builds", [
    (["bohm", "--set", "V0=10", "--set", "d=2", "--set", "E=5", "--set", "dk=0.05",
      "--set", "n_nodes=65", "--set", "n_traj=2", "--set", "n_out=41",
      "--set", "with_flux=true"], 1),
    (["evolve", "--set", "V0=10", "--set", "d=2", "--set", "E=5", "--set", "dk=0.05",
      "--set", "n_nodes=65", "--set", "x_points=20", "--set", "dt_fine=1e-16"], 1),
    (["hartman", "--set", "V0=10", "--set", "E=5", "--set", "n_nodes=65",
      "--set", "d_min=2", "--set", "d_max=4", "--set", "d_points=3", "--set", "dt_fine=1e-16"], 3),
], ids=["bohm", "evolve", "hartman"])
def test_packet_commands_build_one_ensemble_per_potential(tmp_path, monkeypatch, args, builds):
    # every call on a run's packet and barrier reuses the ensemble the packet keeps
    built = []
    init = wp._Ensemble.__init__
    monkeypatch.setattr(wp._Ensemble, "__init__",
                        lambda self, *a: built.append(self) or init(self, *a))
    assert run(args, tmp_path) == 0
    assert len(built) == builds


def test_bohm_rejects_a_transmitted_slice_that_rounds_away(tmp_path, capsys):
    # P_T = 1.8e-25 makes 1 - P_T == 1: every seed used to land on the barrier edge
    args = ["bohm", "--set", "V0=10", "--set", "d=20", "--set", "E=2", "--set", "dk=0.02",
            "--set", "n_nodes=65", "--set", "n_traj=2", "--set", "n_out=41"]
    assert run(args, tmp_path) == 2
    assert "transmitted_only=false" in capsys.readouterr().err
    assert run(args + ["--set", "transmitted_only=false", "--set", "with_flux=false"],
               tmp_path) == 0


@pytest.fixture(scope="module")
def bohm_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("bohm")
    code = cli.main(["bohm", "--out", str(out), "--set", "V0=10", "--set", "d=2",
                     "--set", "E=5", "--set", "dk=0.05", "--set", "n_traj=2",
                     "--set", "n_nodes=257", "--set", "n_out=201",
                     "--set", "t_start=-1.2e-14", "--set", "t_end=1e-14"])
    assert code == 0
    return out


def test_bohm_summary_table(bohm_out):
    names, data = read_table(bohm_out / "bohm_summary.csv")
    assert names == ["traj_id", "seed_x_A", "transmitted", "degenerate",
                     "entry_t_s", "exit_t_s", "dwell_s"]
    assert data.shape[0] == 2
    sent = data[:, names.index("transmitted")] == 1.0
    entry = data[:, names.index("entry_t_s")]
    exit_ = data[:, names.index("exit_t_s")]
    assert np.all(exit_[sent] > entry[sent])
    assert float(meta_value(bohm_out / "bohm_summary.csv", "flux_tau_T_s")) > 0
    gap = float(meta_value(bohm_out / "bohm_summary.csv", "bohm_route_disagreement"))
    assert 0 < gap < wp.BOHM_ROUTE_TOL


@pytest.mark.parametrize("setting", ["t_end=inf", "t_end=nan", "t_start=-inf", "t_start=nan"])
def test_bohm_non_finite_window_exits_2_without_csv(tmp_path, capsys, setting):
    args = ["bohm", "--set", "V0=10", "--set", "d=5", "--set", "E=5", "--set", "dk=0.02",
            "--set", "n_nodes=65", "--set", setting]
    assert run(args, tmp_path) == 2
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd, sets", [
    ("evolve", ["--set", "d=5", "--set", "E=5"]),
    ("hartman", ["--set", "E=5"]),
    ("bohm", ["--set", "d=5", "--set", "E=5"]),
])
@pytest.mark.parametrize("n_nodes", ["0", "-3"])
def test_packet_commands_reject_nonpositive_n_nodes(tmp_path, capsys, cmd, sets, n_nodes):
    args = [cmd, "--set", "V0=10", "--set", "dk=0.05", "--set", f"n_nodes={n_nodes}"] + sets
    assert run(args, tmp_path) == 2
    assert "'n_nodes' must be finite and positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bohm_rtol_key_is_gone(tmp_path, capsys):
    assert run(SMALL_BOHM + ["--set", "rtol=1e-5"], tmp_path) == 2
    assert "unknown config keys for 'bohm': rtol" in capsys.readouterr().err


def test_bohm_trajectory_table(bohm_out):
    names, data = read_table(bohm_out / "bohm_traj.csv")
    assert names == ["t_s", "x_0", "x_1"]
    assert data.shape == (201, 3)
    # seeded left of the barrier, ends ordered in time
    assert data[0, 1] < 0 and np.all(np.diff(data[:, 0]) > 0)


SMALL_BOHM = ["bohm", "--set", "V0=10", "--set", "d=2", "--set", "E=5", "--set", "dk=0.05",
              "--set", "n_traj=2", "--set", "n_nodes=65", "--set", "n_out=201",
              "--set", "t_start=-1.2e-14", "--set", "t_end=1e-14",
              "--set", "with_flux=false", "--set", "svg=true", "--strict"]


@pytest.mark.parametrize("index, seed", [(0, -1e5), (1, -1e5), (1, 1e4)],
                         ids=["first-off-left", "second-off-left", "second-off-right"])
def test_bohm_degenerate_trajectory_spans_the_grid(tmp_path, monkeypatch, index, seed):
    # a seed off the packet's grid has a mass no window brackets: its
    # trajectory is flagged degenerate, and still spans the full output grid
    real = wp.seed_positions

    def off_grid(*args, **kwargs):
        seeds = real(*args, **kwargs)
        seeds[index] = seed
        return seeds

    monkeypatch.setattr(wp, "seed_positions", off_grid)
    assert run(SMALL_BOHM, tmp_path) == 3     # the degenerate flag reaches --strict
    names, data = read_table(tmp_path / "bohm_traj.csv")
    assert names == ["t_s", "x_0", "x_1"]
    assert data.shape == (201, 3)
    assert np.array_equal(data[:, 0], np.linspace(-1.2e-14, 1e-14, 201))
    assert np.isfinite(data).all()
    names, summary = read_table(tmp_path / "bohm_summary.csv")
    assert summary[:, names.index("degenerate")].tolist() == [i == index for i in range(2)]
    assert (tmp_path / "bohm_traj.svg").exists()


def test_bohm_determinism_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(SMALL_BOHM, a) == run(SMALL_BOHM, b) == 0
    for name in ("bohm_summary.csv", "bohm_traj.csv"):
        ta, tb = ([l for l in (d / name).read_text().splitlines()
                   if not l.startswith("# timestamp")] for d in (a, b))
        assert ta == tb


@pytest.mark.parametrize("tol, code", [(None, 0), (0.0, 3)], ids=["default", "forced"])
def test_bohm_route_disagreement_flag_reaches_strict(tmp_path, monkeypatch, tol, code):
    # the flux crossings and the sampled crossings differ by a small, nonzero
    # amount (mostly the output step's); a zero tolerance turns it into a flag
    if tol is not None:
        monkeypatch.setattr(wp, "BOHM_ROUTE_TOL", tol)
    assert run(SMALL_BOHM, tmp_path) == code
    gap = float(meta_value(tmp_path / "bohm_summary.csv", "bohm_route_disagreement"))
    assert 0 < gap < 0.05
    names, summary = read_table(tmp_path / "bohm_summary.csv")
    assert not summary[:, names.index("degenerate")].any()


# tables against the frozen package in bench/baseline


def _sets(**values):
    return [a for key, v in values.items() for a in ("--set", f"{key}={v}")]


FROZEN_RUNS = [
    ("times", _sets(V0=10, d=5, k_min=0.2, k_max=2.6, k_points=301)),
    ("times", _sets(V0=6.3, d=3.7, E_min=0.2, E_max=11.0, E_points=301)),
    ("times", _sets(V0=10, E=5, d_min=0.3, d_max=18.0, d_points=301)),
    # across the top, with one node on it
    ("times", _sets(V0=10, d=5, E_min=5, E_max=15, E_points=3)),
    ("times", _sets(V0=10, d=5, E=10)),
    ("reshape", _sets(V0=10, d=5, E=9.5, dk=0.05, n_grid=2001, svg="true")),
    ("optical", _sets(svg="true", ratio_points=301, kapL_points=301, gap_points=5)),
]


def _without_timestamp(path: Path) -> bytes:
    return b"".join(ln for ln in path.read_bytes().splitlines(keepends=True)
                    if not ln.startswith(b"# timestamp: "))


def _split_csv(path: Path):
    """(header lines without the timestamp, column names, float table)."""
    lines = _without_timestamp(path).decode().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return head, body[0], np.array(body[1:], dtype=float).reshape(-1, len(body[0]))


TIMES = {"tau_eq_s", "dtau_phase_T_s", "dtau_phase_R_s", "tau_dwell_s", "tau_larmor_y_s",
         "tau_larmor_z_s", "tau_larmor_x_s", "tau_BL_T_s", "tau_BL_R_s", "tau_complex_re_s",
         "tau_complex_im_s", "tau_mapped_s"}


def _widths(cfg: dict, col: dict):
    """The barrier width of a times or reshape table: the configured d, or
    each row's from tau_eq = m d/(hbar k) in a d sweep."""
    return cfg["d"] if "d" in cfg else col["tau_eq_s"] * col["k"] * ELECTRON.hbar_over_m


def _assert_heads_close(head_n: list, head_o: list, what: str):
    """Header lines equal, except reshape's weight_above_eps, which may move
    by one ulp: it sums T^2 over the grid, and the sum's rounding moves it,
    and the constants line, where the frozen package also lists the hbar it
    stored beside hbarc and c."""
    assert len(head_n) == len(head_o), what
    key = "# meta: weight_above_eps = "
    for a, b in zip(head_n, head_o):
        if b.startswith("# constants: "):
            assert a == re.sub(r" hbar_eV_s=\S+", "", b), what
        elif a != b and a.startswith(key) and b.startswith(key):
            assert_close(float(a[len(key):]), float(b[len(key):]), ulp=1.0,
                         what=f"{what} weight_above_eps")
        else:
            assert a == b, what


def _bounds(cfg: dict, meta: dict, names: list, table: np.ndarray) -> dict:
    """The bound of each column of a frozen package's table: the closed-form
    amplitudes and times within the bounds of conftest.py at the table's
    (k, d), the gap sweep's times within its phase slopes' times the
    sweep's cancellation at each gap (conftest.gap_conds), and every other
    column within 2 ulp (measured: exact)."""
    col = dict(zip(names, table.T))
    qd = None
    if "kapL" in col:                        # optical traversal: q d = kappa L
        qd = col["kapL"]
    elif "kappa_d" in col:                   # hartman: below the top, q d = kappa d
        qd = col["kappa_d"]
    elif "k" in col:                         # times, reshape
        k, d = col["k"], _widths(cfg, col)
        qd = interior_qd(float(k_of_E(cfg["V0"])), k, d)
    out = {}
    for name in names:
        if name in ("T", "R", "product"):
            out[name] = {"rel": amplitude_rel(qd)}
        elif name in ("alpha", "beta"):
            out[name] = {"rel": PHASE_EPS * EPS_MACH, "scale": phase_scale(col["alpha"], k, d)}
        elif name in TIMES:
            out[name] = {"rel": time_rel(qd)}
        elif name == "time_s":                # gap sweep: (2d + L + alpha')/v
            k = float(meta["gap_k"])
            V0_ = cfg.get("gap_V0", cli.OPTICAL_SCHEMA["gap_V0"][1])
            conds = gap_conds(float(meta["gap_d_A"]), V0_, k, col["L_gap_A"])
            out[name] = {"absolute": SLOPE_EPS * EPS_MACH / (1e-6 * k * float(ELECTRON.v_of_k(k)))
                         * conds}
        elif name == "margin":                # |sin(k L + beta)|
            out[name] = {"absolute": PHASE_EPS * EPS_MACH * 1.5 * math.pi}
        else:
            out[name] = {"ulp": 2.0}
    return out


_NUMBER = re.compile(r"(-?\d+\.\d+)")
# the tables each chart plots: (table, y columns); x is the first column
SVG_DATA = {"reshape.svg": ("reshape.csv", ["T", "f", "product"]),
            "optical_gap.svg": ("optical_gap.csv", ["time_s"]),
            "hartman.svg": ("hartman.csv", ["dtau_phase_T_s", "tau_dwell_s", "tau_BL_T_s",
                                            "tau_flux_tun_s", "tau_saturation_s"])}


def _allowed(want: np.ndarray, bound: dict) -> np.ndarray:
    """The absolute drift a column's bound allows at each cell."""
    size = np.abs(bound.get("scale", want))
    if "ulp" in bound:
        return bound["ulp"] * np.spacing(size)
    return bound["rel"] * size if "rel" in bound else np.full(want.shape, bound["absolute"])


def _assert_svg_close(new: Path, old: Path, y_px: float = 0.0):
    """Same text; every printed number within one unit of its last digit
    plus y_px pixels."""
    a, b = (_NUMBER.split(p.read_text()) for p in (new, old))
    assert a[::2] == b[::2], f"{new.name}: text differs"
    for x, y in zip(a[1::2], b[1::2]):
        unit = 10.0 ** -len(y.split(".")[1])
        assert abs(float(x) - float(y)) <= 1.000001 * unit + y_px, (new.name, x, y)


def _assert_outputs_close(new: Path, old: Path, args: list, skip=()):
    """The files of two runs: header and meta lines equal apart from the
    timestamp line and weight_above_eps's last bit (_assert_heads_close),
    float cells within each column's bound, except a times table's rows in
    the frozen package's top window, which meet the independent routes
    (conftest.check_top_oracle). An SVG chart's coordinates lie within one
    unit of their last printed digit, plus the pixels its plotted columns'
    bounds span: a chart scales its y axis to the data's spread, so a flat
    curve magnifies their last digits."""
    cfg = {}
    for item in args[1::2]:
        key, _, value = item.partition("=")
        try:
            cfg[key] = float(value)
        except ValueError:
            pass
    names = sorted(p.name for p in new.iterdir())
    assert names == sorted(p.name for p in old.iterdir())
    allowed = {}
    for name in (n for n in names if n.endswith(".csv")):
        (head_n, cols, table_n), (head_o, cols_o, table_o) = (_split_csv(d / name)
                                                             for d in (new, old))
        assert cols == cols_o, name
        _assert_heads_close(head_n, head_o, name)
        if "tau_BL_R_s" in cols:             # hbar k/(V0 |q|)
            table_o[:, cols.index("tau_BL_R_s")] *= HBAR_RATIO
        meta = dict(ln[len("# meta: "):].split(" = ") for ln in head_o
                    if ln.startswith("# meta: "))
        # a times table's rows in the frozen package's top window meet the
        # independent routes instead
        top = np.zeros(len(table_o), bool)
        if cols == cli.TIMES_COLUMNS:
            k = table_o[:, 0]
            d = np.broadcast_to(_widths(cfg, dict(zip(cols, table_o.T))), k.shape)
            top = at_top(float(k_of_E(cfg["V0"])), k) & (d > 0)
            for i in np.flatnonzero(top):
                check_top_oracle(cfg["V0"], k[i], d[i], dict(zip(cols, table_n[i])))
        for j, (col, bound) in enumerate(_bounds(cfg, meta, cols, table_o).items()):
            allowed[name, col] = (table_o[:, j], _allowed(table_o[:, j], bound))
            if col not in skip:
                rest = {key: v[~top] if np.ndim(v) else v for key, v in bound.items()}
                assert_close(table_n[~top, j], table_o[~top, j], what=f"{name} {col}", **rest)
    for name in (n for n in names if n.endswith(".svg")):
        table, ys = SVG_DATA[name]
        values = np.concatenate([allowed[table, y][0] for y in ys])
        span = max(np.ptp(values), cli.SVG_MIN_REL_SPAN * np.abs(values).max())
        drift = max(allowed[table, y][1].max() for y in ys)
        # cli.write_svg's plot is 415 px high, the data's span padded by 6% each side
        _assert_svg_close(new / name, old / name, y_px=415.0 * drift / (1.12 * span))


@pytest.mark.parametrize("cmd, args", FROZEN_RUNS)
def test_cli_tables_match_frozen_package(frozen, tmp_path, monkeypatch, cmd, args):
    # the frozen writer spreads the gap sweep's times, flat to 4e-9, over the
    # whole plot, so both sides draw that chart with today's writer; every
    # other chart keeps the frozen one (tests/test_stationary.py compares the
    # writers on data that is not flat)
    frozen_svg = frozen["cli"].write_svg

    def write_svg(path, *rest):
        (cli.write_svg if Path(path).name == "optical_gap.svg" else frozen_svg)(path, *rest)

    monkeypatch.setattr(frozen["cli"], "write_svg", write_svg)
    new, old = tmp_path / "new", tmp_path / "old"
    assert run([cmd] + args, new) == 0
    assert frozen["cli"].main([cmd] + args + ["--out", str(old)]) == 0
    _assert_outputs_close(new, old, args)


def test_cli_hartman_stationary_columns_match_frozen_package(frozen, tmp_path):
    # the flux column and the flag come from the packet code, which has
    # changed since
    sets = _sets(V0=10, E=5, d_min=1.0, d_max=9.0, d_points=3, n_nodes=65)
    new, old = tmp_path / "new", tmp_path / "old"
    assert run(["hartman"] + sets, new) == 0
    assert frozen["cli"].main(["hartman"] + sets + ["--out", str(old)]) == 0
    _assert_outputs_close(new, old, sets, skip=("tau_flux_tun_s", "flag"))


def _polyline_ys(path: Path) -> np.ndarray:
    return np.array([float(xy.split(",")[1])
                     for pts in re.findall(r'points="([^"]*)"', path.read_text())
                     for xy in pts.split()])


def test_write_svg_draws_a_series_flat_to_rounding_flat(tmp_path):
    # the gap sweep's times agree to about 4e-9 relative across gaps
    x = np.linspace(0.0, 1.0, 41)
    y = 6.68e-15 * (1.0 + 4e-9 * np.sin(17.0 * x))
    cli.write_svg(tmp_path / "flat.svg", "title", "x", "y", [("t", x, y)])
    ys = _polyline_ys(tmp_path / "flat.svg")
    assert ys.size == x.size and np.ptp(ys) <= 1.0
    # a spread above the floor still fills the plot
    cli.write_svg(tmp_path / "wavy.svg", "title", "x", "y", [("t", x, 1.0 + 1e-3 * np.sin(17.0 * x))])
    assert np.ptp(_polyline_ys(tmp_path / "wavy.svg")) > 300.0
