"""Job lists for the benchmark workloads, drawn from a seed.

A workload is a fixed sequence of job templates. Each template states the
range of every parameter it draws; the seed picks values inside those ranges,
so one seed always yields the same list. Ranges that set the amount of work
(row counts, node counts, packet duration) are kept narrow, so the work per
list stays close across seeds while the physics drawn varies.

Packets are drawn by energy E and temporal width sigma_t = 1/(v(E) dk); dk
follows from the pair. The flux time grid (and so the cost of a flux job)
scales with sigma_t, which makes it the natural knob to hold steady.
"""

from __future__ import annotations

import hashlib
import json
import random

from tunneltime.units import k_of_E, v_of_k


def _speed(E: float) -> float:
    """Group velocity in A/s of an electron with kinetic energy E (eV)."""
    return float(v_of_k(k_of_E(E)))


def _g(x: float) -> float:
    """Six significant digits: short, exactly reproducible --set values."""
    return float(f"{x:.6g}")


class _Draw:
    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")

    def u(self, lo: float, hi: float) -> float:
        return _g(self.rng.uniform(lo, hi))

    def n(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def packet(self, E_lo, E_hi, st_lo, st_hi, V0=None):
        """(E, dk) from E in [E_lo, E_hi] eV (times V0 when given) and
        sigma_t in [st_lo, st_hi] s."""
        E = self.u(E_lo, E_hi)
        if V0 is not None:
            E = _g(E * V0)
        return E, _g(1.0 / (_speed(E) * self.u(st_lo, st_hi)))


def _cli(cmd: str, **values) -> dict:
    return {"kind": "cli", "cmd": cmd, "set": values}


def stationary_sweep(seed: int) -> list[dict]:
    """Closed forms, transfer matrices, optical map and CSV/SVG writers only."""
    r = _Draw(seed, "stationary_sweep")
    jobs = []
    for V0_lo, V0_hi in ((3.0, 7.0), (8.0, 14.0)):
        V0 = r.u(V0_lo, V0_hi)
        jobs.append(_cli("times", V0=V0, d=r.u(2.0, 10.0),
                         k_min=r.u(0.1, 0.3), k_max=r.u(2.0, 2.8), k_points=2000))
        jobs.append(_cli("times", V0=V0, d=r.u(2.0, 10.0),
                         E_min=_g(V0 * r.u(0.02, 0.1)), E_max=_g(V0 * r.u(1.3, 1.8)),
                         E_points=2000))
        jobs.append(_cli("times", V0=V0, E=_g(V0 * r.u(0.2, 0.9)),
                         d_min=r.u(0.3, 1.0), d_max=r.u(12.0, 18.0), d_points=2000))
    for svg in (False, True):
        V0 = r.u(5.0, 12.0)
        E, dk = r.packet(0.3, 0.9, 2e-15, 6e-15, V0=V0)
        jobs.append(_cli("reshape", V0=V0, d=r.u(2.0, 8.0), E=E, dk=dk,
                         n_grid=10001, svg=svg))
    for svg in (False, True):
        gap_V0 = r.u(6.0, 12.0)
        jobs.append(_cli("optical", svg=svg, b=r.u(0.01, 0.05),
                         omega_ratio=r.u(0.5, 0.95),
                         ratio_min=r.u(0.3, 0.6), ratio_max=r.u(1.2, 1.8),
                         ratio_points=5001,
                         kapL_min=r.u(0.2, 0.8), kapL_max=r.u(12.0, 20.0),
                         kapL_points=2001,
                         gap_V0=gap_V0, gap_E=_g(gap_V0 * r.u(0.3, 0.8)),
                         gap_min=r.u(0.5, 2.0), gap_max=r.u(15.0, 25.0),
                         gap_points=2001))
    return jobs


def flux_probes(seed: int) -> list[dict]:
    """Packet flux series at many probes: phase matrix and ensemble builds.

    The first evolve job is a slow, long packet (sigma_t 40-60 fs) whose
    forward flux outlasts the fixed +-1e-13 s scan window; its exit-probe
    flux therefore misses the transmitted norm without a flag. It keeps few
    nodes: its time grid is long, so the default 513 would make it cost as
    much as the rest of the list. The second evolve job runs near the CLI
    default of 513 nodes, where its phase matrix sets the peak RSS. Its
    packet is short (sigma_t ~1.2 fs), which cuts the time grid to a third
    of a 4 fs packet's, so that several runs of the list fit in one
    benchmark run.
    """
    r = _Draw(seed, "flux_probes")
    jobs = []
    E, dk = r.packet(0.4, 1.0, 4e-14, 6e-14)
    jobs.append(_cli("evolve", V0=r.u(1.5, 3.0), d=r.u(2.0, 4.0), E=E, dk=dk,
                     n_nodes=r.n(63, 67), x_points=21))
    V0 = r.u(6.0, 12.0)
    E, dk = r.packet(0.3, 0.7, 1.1e-15, 1.3e-15, V0=V0)
    jobs.append(_cli("evolve", V0=V0, d=r.u(3.0, 7.0), E=E, dk=dk,
                     n_nodes=r.n(509, 517), x_points=21, svg=True))
    for svg in (False, True):
        V0 = r.u(4.0, 12.0)
        E, dk = r.packet(0.2, 0.8, 3.9e-15, 4.1e-15, V0=V0)
        jobs.append(_cli("hartman", V0=V0, E=E, dk=dk,
                         n_nodes=r.n(127, 131),
                         d_min=r.u(1.0, 3.0), d_max=r.u(8.0, 14.0), d_points=4,
                         svg=svg))
    return jobs


def _bohm_scenes() -> list[dict]:
    """The ten Bohm scenes of spatial_paths: drawn once, from a fixed seed,
    within V0 8-10 eV, d 3-4 A, E 0.55-0.65 V0, sigma_t 3.9-4.1 fs and
    125-133 nodes, with 3-5 trajectories in pairs summing to 8."""
    r = _Draw(0, "spatial_paths.scenes")
    scenes = []
    for _ in range(5):
        a = r.n(0, 2)
        for n_traj in (3 + a, 5 - a):
            V0 = r.u(8.0, 10.0)
            d = r.u(3.0, 4.0)
            E, dk = r.packet(0.55, 0.65, 3.9e-15, 4.1e-15, V0=V0)
            scenes.append({"V0": V0, "d": d, "E": E, "dk": dk,
                           "n_nodes": r.n(125, 133), "n_traj": n_traj})
    return scenes


def spatial_paths(seed: int) -> list[dict]:
    """Bohm guidance and spatial windows on ensembles reused many times.

    Each scene is one packet on one barrier: a bohm CLI run, then library
    centroid and norm calls on the same packet, so the library calls find
    the ensemble the CLI run built. Guidance steps per trajectory are
    chaotic in the barrier: a 0.5% change of V0, d or E moves them by a
    factor of 2, so scenes drawn per seed would make the work a lottery.
    The scenes are therefore fixed (``_bohm_scenes``); the seed orders them
    and draws the library calls' times and window placements, whose cost
    does not depend on the values drawn (4 x 4001 and 4001 points).
    """
    r = _Draw(seed, "spatial_paths")
    scenes = _bohm_scenes()
    r.rng.shuffle(scenes)
    jobs = []
    for s in scenes:
        V0, d, E, dk, n = s["V0"], s["d"], s["E"], s["dk"], s["n_nodes"]
        sigma_t = 1.0 / (_speed(E) * dk)
        scene = {"packet": {"E": E, "dk": dk, "n_nodes": n},
                 "barrier": {"V0": V0, "d": d}}
        jobs.append(_cli("bohm", V0=V0, d=d, E=E, dk=dk, n_nodes=n, n_traj=s["n_traj"],
                         with_flux=False, t_start=_g(-8.0 * sigma_t),
                         t_end=_g(6.0 * sigma_t)))
        times = [_g(r.u(f - 0.5, f + 0.5) * sigma_t) for f in (0.0, 2.0, 4.0, 6.0)]
        # transmitted-side centroid (4001 points), norm over the reflected
        # side (4001 points)
        x0 = _g(d + r.u(0.0, 50.0))
        jobs.append({"kind": "lib", "fn": "centroid_trajectory", "t": times,
                     "window": [x0, _g(x0 + 400.0)], "dx": 0.1, **scene})
        x1 = -r.u(0.0, 50.0)
        jobs.append({"kind": "lib", "fn": "norm_on_window", "t": times[-1],
                     "window": [_g(x1 - 400.0), x1], "dx": 0.1, **scene})
    return jobs


WORKLOADS = {
    "stationary_sweep": stationary_sweep,
    "flux_probes": flux_probes,
    "spatial_paths": spatial_paths,
}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of a workload for a seed, with ids in list order."""
    jobs = WORKLOADS[workload](seed)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def digest(jobs: list[dict]) -> str:
    """Content hash of a job list, to show two runs executed the same jobs."""
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()[:16]
