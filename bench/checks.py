"""Oracle checks on job outputs, each against an independent route.

Every check returns ``(passed, residual)``. Checks run after a worker has
timed its whole job list, with tracing paused, so they add neither to the
job times nor to any span. Byte-identity of outputs across runs is checked
by the parent, from the per-job output digests the workers report.

Two checks, ``flux_capture`` and ``bohm_no_crossing``, probe defects the
package has today and are kept at face value; ``run.DEFECT_PROBES`` lists
them.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from tunneltime import wavepacket as wp
from tunneltime.scattering import PiecewisePotential, solve_transfer_matrix
from tunneltime.units import k_of_E, v_of_k

TOL_PROB = 1e-9          # |T^2 - |t|^2|, |T^2 + R^2 - 1|
TOL_OPTICAL = 1e-9       # relative, direct vs mapped traversal time
TOL_CURRENT = 1e-9       # of max |J| over the sampled points
TOL_CAPTURE = 1e-6       # relative, exit-probe forward flux vs transmitted norm
TOL_MASS = 1e-9
ROWS_SAMPLED = 41


def read_csv(path: Path):
    """(meta dict, column names, float array) of a tunneltime CSV."""
    meta, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# meta: "):
            key, _, val = line[8:].partition(" = ")
            meta[key] = val
        elif not line.startswith("#"):
            body.append(line)
    cols = body[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in body[1:]])
    return meta, cols, data.reshape(len(body) - 1, len(cols))


def _sample(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, ROWS_SAMPLED)).astype(int))


def _packet(E: float, dk: float, n_nodes: int) -> wp.SpectralPacket:
    """The packet the CLI builds from E, dk and n_nodes."""
    return wp.SpectralPacket.gaussian(float(k_of_E(E)), dk, n_nodes=n_nodes)


def transfer_agreement(rows) -> dict:
    """T_vs_transfer and unitarity over (V0, d, k, T, R) rows; R may be None."""
    worst_T = worst_u = 0.0
    for V0, d, k, T, R in rows:
        st = solve_transfer_matrix(PiecewisePotential.square(V0, d), k)
        t2, r2 = abs(st.amp_T) ** 2, abs(st.amp_R) ** 2
        worst_T = max(worst_T, abs(T * T - t2))
        worst_u = max(worst_u, abs(t2 + r2 - 1.0))
        if R is not None:
            worst_u = max(worst_u, abs(T * T + R * R - 1.0))
    return {"T_vs_transfer": (worst_T <= TOL_PROB, worst_T),
            "unitarity": (worst_u <= TOL_PROB, worst_u)}


def check_times(s: dict, out: Path) -> dict:
    _, cols, data = read_csv(out / "times.csv")
    idx = _sample(len(data))
    if "d_points" in s:
        ds = np.linspace(s["d_min"], s["d_max"], s["d_points"])[idx]
    else:
        ds = np.full(idx.size, s["d"])
    k, T, R = (data[idx, cols.index(c)] for c in ("k", "T", "R"))
    return transfer_agreement(zip([s["V0"]] * idx.size, ds, k, T, R))


def check_reshape(s: dict, out: Path) -> dict:
    _, cols, data = read_csv(out / "reshape.csv")
    idx = _sample(len(data))
    k, T = data[idx, cols.index("k")], data[idx, cols.index("T")]
    return transfer_agreement((s["V0"], s["d"], kk, TT, None) for kk, TT in zip(k, T))


def check_optical(s: dict, out: Path) -> dict:
    _, cols, data = read_csv(out / "optical_traversal.csv")
    direct = data[:, cols.index("tau_direct_s")]
    mapped = data[:, cols.index("tau_mapped_s")]
    rel = float(np.max(np.abs(direct - mapped) / np.abs(direct)))
    return {"optical_direct_vs_mapped": (rel <= TOL_OPTICAL, rel)}


def current_vs_modes(packet: wp.SpectralPacket, pot: PiecewisePotential, d: float):
    """J from wavepacket.current against a sum over ScatteringState modes.

    Twelve points: four probes across the barrier, each at the free arrival
    time and one packet time-width either side of it.
    """
    u = packet.units
    v0 = float(v_of_k(packet.k0))
    xs = np.array([0.0, d / 3.0, 2.0 * d / 3.0, d])
    coef = packet.weights * packet.amplitude / math.sqrt(2.0 * math.pi)
    omega = u.E_of_k(packet.k_nodes) / u.hbar_eV_s
    psi_x = np.empty((packet.k_nodes.size, xs.size), complex)
    dpsi_x = np.empty_like(psi_x)
    for j, k in enumerate(packet.k_nodes):
        psi_x[j], dpsi_x[j] = solve_transfer_matrix(pot, float(k), u).psi_and_dpsi(xs)
    got, want = [], []
    for i, x in enumerate(xs):
        for f in (-1.0, 0.0, 1.0):
            t = x / v0 + f * packet.sigma_t
            ph = coef * np.exp(-1j * omega * t)
            psi, dpsi = ph @ psi_x[:, i], ph @ dpsi_x[:, i]
            want.append(u.hbar_over_m * float(np.imag(np.conj(psi) * dpsi)))
            got.append(float(wp.current(packet, pot, float(x), t)))
    want, got = np.array(want), np.array(got)
    resid = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return {"current_vs_modes": (resid <= TOL_CURRENT, resid)}


def check_evolve(s: dict, out: Path) -> dict:
    meta, cols, data = read_csv(out / "evolve.csv")
    packet = _packet(s["E"], s["dk"], s["n_nodes"])
    pot = PiecewisePotential.square(s["V0"], s["d"])
    res = current_vs_modes(packet, pot, s["d"])
    # exit probe (x = d): forward flux equals the transmitted norm unless its
    # forward flag (flux below the floor) is raised
    flux_plus = float(data[-1, cols.index("flux_plus")])
    if flux_plus < float(meta["flux_floor"]):
        res["flux_capture"] = (True, 0.0)
    else:
        P_T = wp.transmitted_norm(packet, pot)
        rel = abs(flux_plus - P_T) / P_T
        res["flux_capture"] = (rel <= TOL_CAPTURE, rel)
    return res


def check_hartman(s: dict, out: Path) -> dict:
    read_csv(out / "hartman.csv")  # must parse; its flux times have no second route
    d = float(np.linspace(s["d_min"], s["d_max"], s["d_points"])[1])
    packet = _packet(s["E"], s["dk"], s["n_nodes"])
    return current_vs_modes(packet, PiecewisePotential.square(s["V0"], d), d)


def check_bohm(s: dict, out: Path) -> dict:
    """Adjacent non-degenerate trajectories, ordered by seed, never cross."""
    _, cols, summary = read_csv(out / "bohm_summary.csv")
    _, _, traj = read_csv(out / "bohm_traj.csv")
    ok = summary[:, cols.index("degenerate")] == 0
    order = np.argsort(summary[:, cols.index("seed_x_A")])
    keep = [int(summary[i, cols.index("traj_id")]) for i in order if ok[i]]
    x = traj[:, 1:][:, keep]
    tol = 1e-3 / s["dk"]   # ten times the integrator's absolute tolerance
    overlap = float(np.max(x[:, :-1] - x[:, 1:], initial=0.0))
    return {"bohm_no_crossing": (overlap <= tol, max(overlap, 0.0))}


CLI_CHECKS = {
    "times": check_times,
    "reshape": check_reshape,
    "optical": check_optical,
    "evolve": check_evolve,
    "hartman": check_hartman,
    "bohm": check_bohm,
}


def check_library(job: dict, value) -> dict:
    p, b = job["packet"], job["barrier"]
    mass = np.atleast_1d(value[1] if job["fn"] == "centroid_trajectory" else value)
    worst = float(max(np.max(mass) - 1.0, -np.min(mass), 0.0))
    res = {"window_mass": (worst <= TOL_MASS, worst)}
    if job["fn"] == "centroid_trajectory":
        packet = _packet(p["E"], p["dk"], p["n_nodes"])
        res.update(current_vs_modes(packet, PiecewisePotential.square(b["V0"], b["d"]),
                                    b["d"]))
    return res
