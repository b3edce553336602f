"""One benchmark worker: import the package, run a job list, check outputs.

    python3 bench/worker.py --jobs JOBS.json --result OUT.json
                            [--trace] [--check] [--setup-only] [--reference]
                            [--paired N]

The package is imported from src/ next to this directory, never from an
installed copy. The
worker writes the monotonic clock reading taken right after
``import tunneltime.cli`` returns; the parent subtracts its launch time to get
set-up time. Jobs run in list order in this one process, so library jobs see
the ensembles earlier jobs built, as a library user's would.

With ``--paired N`` the worker also imports the baseline copy of the package
(``baseline/tunneltime``, kept as it was when this benchmark was added) under
the name ``tunneltime_baseline``, and runs every job on both packages back to
back, the baseline first on every other job (which ones depends on N). Each
package keeps its own ensemble cache, so each side sees the list as a
one-package worker would.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MONO = time.CLOCK_MONOTONIC
PACKAGE, BASELINE = "tunneltime", "tunneltime_baseline"


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tunneltime.cli  # noqa: F401  (the set-up a CLI user pays)

    ready = time.clock_gettime(MONO)
    import tunneltime

    if Path(tunneltime.__file__).resolve().parent.parent != src:
        raise SystemExit(f"tunneltime imported from {tunneltime.__file__}, not {src}")
    return ready


def _import_baseline():
    """Import baseline/tunneltime as tunneltime_baseline (its own imports are
    relative, so it loads under any name)."""
    import importlib
    import importlib.util

    init = Path(__file__).resolve().parent / "baseline" / PACKAGE / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        BASELINE, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[BASELINE] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{BASELINE}.cli")


# ---------------------------------------------------------------- jobs

def _argv(job: dict, out: Path) -> list[str]:
    argv = [job["cmd"], "--out", str(out)]
    for key, val in job["set"].items():
        if isinstance(val, bool):
            val = "true" if val else "false"
        argv += ["--set", f"{key}={val}"]
    return argv


def _call_library(job: dict, package: str):
    import importlib

    wp = importlib.import_module(f"{package}.wavepacket")
    scattering = importlib.import_module(f"{package}.scattering")
    units = importlib.import_module(f"{package}.units")

    p, b = job["packet"], job["barrier"]
    packet = wp.SpectralPacket.gaussian(float(units.k_of_E(p["E"])), p["dk"],
                                        n_nodes=p["n_nodes"])
    pot = scattering.PiecewisePotential.square(b["V0"], b["d"])
    return getattr(wp, job["fn"])(packet, pot, job["t"], tuple(job["window"]), dx=job["dx"])


def run_jobs(jobs: list[dict], workdir: Path, tracer=None,
             package: str = PACKAGE) -> list[dict]:
    """Execute jobs in order; a job that raises or exits non-zero is recorded
    as failed and the list goes on. Returns one record per job."""
    import importlib

    cli = importlib.import_module(f"{package}.cli")
    records = []
    for job in jobs:
        rec = {"id": job["id"], "name": job.get("cmd") or job["fn"], "error": None,
               "checks": {}}
        out = workdir / package / f"job{job['id']}"
        if tracer is not None:
            tracer.job = job["id"]
        start = time.perf_counter()
        try:
            if job["kind"] == "cli":
                rc = cli.main(_argv(job, out))
                if rc != 0:
                    rec["error"] = f"exit code {rc}"
            else:
                rec["value"] = _call_library(job, package)
        except Exception as exc:  # noqa: BLE001  (a failing job must not stop the list)
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - start
        rec["out"] = out
        records.append(rec)
    return records


def output_digest(rec: dict) -> str:
    """Hash of what a job produced: its files with the timestamp line
    dropped, or the arrays a library call returned."""
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    if "value" in rec:
        value = rec["value"]
        for part in value if isinstance(value, tuple) else (value,):
            h.update(np.asarray(part, dtype=float).tobytes())
    elif rec["out"].is_dir():
        for path in sorted(rec["out"].iterdir()):
            h.update(path.name.encode())
            for line in path.read_bytes().splitlines():
                if not line.startswith(b"# timestamp:"):
                    h.update(line + b"\n")
    return h.hexdigest()[:16]


def check_jobs(jobs: list[dict], records: list[dict]) -> None:
    """Attach {check: [passed, residual]} to each record that ran cleanly."""
    import checks

    for job, rec in zip(jobs, records):
        if rec["error"] is not None:
            continue
        try:
            if job["kind"] == "cli":
                res = checks.CLI_CHECKS[job["cmd"]](job["set"], rec["out"])
            else:
                res = checks.check_library(job, rec["value"])
        except Exception as exc:  # noqa: BLE001  (an output the oracle cannot read is a miss)
            rec["error"] = f"check raised {type(exc).__name__}: {exc}"
            continue
        rec["checks"] = {k: [bool(ok), float(r)] for k, (ok, r) in res.items()}


# ---------------------------------------------------------------- reference

# rows of the ROADMAP Baseline table: (name, unit, calls timed)
REFERENCE = (("solve_transfer_matrix", "us", 2001), ("closed_form_square", "us", 2001),
             ("time_report", "us", 501), ("ensemble_build", "ms", 21),
             ("flux_series_x0", "ms", 5), ("norm_on_window_20k", "ms", 3),
             ("spectrum_summary", "ms", 15), ("reshaping_check_4001", "ms", 15),
             ("bohm_trajectories_8", "ms", 7))


def reference_table() -> list[tuple[str, str, float, int]]:
    """Per-call medians on the reference barrier (V0 10 eV, d 5 A, E 5 eV,
    dk 0.02, 513 nodes): (row, unit, median, calls)."""
    import statistics

    from tunneltime import times as tms
    from tunneltime import wavepacket as wp
    from tunneltime.scattering import (PiecewisePotential, SquareBarrierParams,
                                       closed_form_square, solve_transfer_matrix)
    from tunneltime.units import k_of_E, v_of_k

    params = SquareBarrierParams(10.0, 5.0)
    pot = PiecewisePotential.square(10.0, 5.0)
    k = float(k_of_E(5.0))
    packet = wp.SpectralPacket.gaussian(k, 0.02, n_nodes=513)
    # bohm seeds as `tunneltime bohm` places them with its defaults
    t0, t1 = -3e-14, 1.5e-14
    xc = float(v_of_k(k)) * t0
    seeds = wp.seed_positions(packet, pot, t0, 8, (xc - 6.0 / 0.02, min(xc + 8.0 / 0.02, 0.0)),
                              quantile_range=(1.0 - wp.transmitted_norm(packet, pot), 1.0))
    fresh = iter(range(1, 10**6))
    calls = {
        "solve_transfer_matrix": lambda: solve_transfer_matrix(pot, k),
        "closed_form_square": lambda: closed_form_square(params, k),
        "time_report": lambda: tms.time_report(params, k),
        # a barrier new to the ensemble cache each call: transmitted_norm
        # then costs one ensemble build
        "ensemble_build": lambda: wp.transmitted_norm(
            packet, PiecewisePotential.square(10.0 * (1.0 + 1e-12 * next(fresh)), 5.0)),
        "flux_series_x0": lambda: wp.flux_series(packet, pot, 0.0),
        "norm_on_window_20k": lambda: wp.norm_on_window(packet, pot, 0.0, (-1000.0, 1000.0)),
        "spectrum_summary": lambda: tms.spectrum_summary(packet, params),
        "reshaping_check_4001": lambda: tms.reshaping_check(params, k, 0.02),
        "bohm_trajectories_8": lambda: wp.bohm_trajectories(packet, pot, seeds, t0, t1,
                                                            n_out=401),
    }
    table = []
    for name, unit, n in REFERENCE:
        samples = []
        for _ in range(n):
            start = time.perf_counter()
            calls[name]()
            samples.append(time.perf_counter() - start)
        scale = 1e6 if unit == "us" else 1e3
        table.append((name, unit, scale * statistics.median(samples), n))
    return table


# ---------------------------------------------------------------- host

def library_info() -> dict:
    """Versions and the BLAS library with its thread count."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    import tunneltime

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "tunneltime": tunneltime.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=Path)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true", help="run the oracle checks")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", action="store_true")
    ap.add_argument("--paired", type=int, metavar="N",
                    help="run each job on the baseline package too")
    ns = ap.parse_args(argv)

    ready = _import_package()
    result = {"ready": ready}
    if ns.reference:
        result["reference"] = reference_table()
    elif not ns.setup_only:
        import resource

        import workloads

        jobs = json.loads(ns.jobs.read_text())
        workdir = ns.result.with_suffix("")
        tracer = None
        if ns.trace:
            from tracer import Tracer

            tracer = Tracer().install()
        start = time.perf_counter()
        if ns.paired is None:
            records = run_jobs(jobs, workdir, tracer)
        else:
            _import_baseline()
            records, baseline = [], []
            for job in jobs:
                sides = (BASELINE, PACKAGE) if (job["id"] + ns.paired) % 2 else (PACKAGE, BASELINE)
                done = {side: run_jobs([job], workdir, package=side)[0] for side in sides}
                records.append(done[PACKAGE])
                baseline.append(done[BASELINE]["seconds"])
            result["baseline_seconds"] = baseline
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.enabled = False
        for rec in records:
            rec["output"] = output_digest(rec)
        if ns.check:
            check_jobs(jobs, records)
        result["digest"] = workloads.digest(jobs)
        result["info"] = library_info()
        result["jobs"] = [{k: v for k, v in r.items() if k not in ("value", "out")}
                          for r in records]
        if tracer is not None:
            tracer.save(ns.result.with_suffix(".spans.npz"))
            result["trace"] = {"spans": tracer.summary(), "counts": dict(tracer.counts),
                               "errors": dict(tracer.errors),
                               "phase_bytes_max": tracer.phase_bytes_max,
                               "ensembles": tracer.ensembles}
    ns.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
