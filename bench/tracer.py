"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` wraps every public function defined in the six package
modules, plus the ``UnitSystem`` conversion methods, and rebinds the wrapper
wherever a module attribute (or a value of a module-level dict, such as
``cli.COMMANDS``) holds the original. ``uninstall`` puts the originals back.

Each wrapped call records one span (name, start, end, parent span, job id) in
flat arrays kept in memory; ``save`` writes them out at the end of a run.
A few wrappers also count work the package does not report itself, such as
phase-matrix elements in ``wavepacket.evolve``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from array import array
from collections import Counter

MODULES = ("units", "scattering", "times", "optical", "wavepacket", "cli")
METHODS = {"units": ("UnitSystem", ("k_of_E", "E_of_k", "v_of_k", "kappa_of"))}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.job_ = array("i")
        self._stack: list[int] = []
        self.job = -1
        self.enabled = True
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.phase_bytes_max = 0
        self._ensembles: set = set()
        self._packet_keys: dict[int, tuple] = {}
        self._restore: list = []

    # ---------------------------------------------------------- spans

    def _wrap(self, module: str, name: str, fn, extra=None):
        sid = len(self.names)
        self.names.append(f"{module}.{name}")
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.t0)
            self.name_.append(sid)
            self.t0.append(0.0)
            self.t1.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.job_.append(self.job)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self.t1[idx] = clock()
                self.t0[idx] = start
                stack.pop()
            if extra is not None:
                extra(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap the package's public functions everywhere they are bound."""
        mods = {m: importlib.import_module(f"tunneltime.{m}") for m in MODULES}
        extras = self._extras()
        swap: dict[int, object] = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    swap[id(obj)] = self._wrap(short, name, obj,
                                               extras.get(f"{short}.{name}"))
        for short, (cls_name, methods) in METHODS.items():
            cls = getattr(mods[short], cls_name)
            for name in methods:
                orig = cls.__dict__[name]
                setattr(cls, name, self._wrap(short, f"{cls_name}.{name}", orig))
                self._restore.append((cls, name, orig))
        package = importlib.import_module("tunneltime")
        for mod in (package, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in swap and swap[id(obj)].__wrapped__ is obj:
                    setattr(mod, name, swap[id(obj)])
                    self._restore.append((mod, name, obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        w = swap.get(id(val))
                        if w is not None and w.__wrapped__ is val:
                            obj[key] = w
                            self._restore.append((obj, key, val))
        return self

    def uninstall(self):
        for target, name, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = orig
            else:
                setattr(target, name, orig)
        self._restore.clear()

    # ---------------------------------------------------------- counters

    def _packet_key(self, packet):
        entry = self._packet_keys.get(id(packet))
        if entry is None or entry[0] is not packet:
            h = hashlib.blake2b(digest_size=16)
            for arr in (packet.k_nodes, packet.weights, packet.amplitude):
                h.update(arr.tobytes())
            entry = (packet, (h.digest(), packet.units))
            self._packet_keys[id(packet)] = entry
        return entry[1]

    def _extras(self):
        import numpy as np

        c = self.counts

        wp = importlib.import_module("tunneltime.wavepacket")
        cli = importlib.import_module("tunneltime.cli")
        evolve_sig = inspect.signature(wp.evolve)
        write_csv_sig = inspect.signature(cli.write_csv)

        def evolve(args, kwargs, out):
            bound = _bind(evolve_sig, args, kwargs)
            packet, potential = bound["packet"], bound["potential"]
            nk = len(packet.k_nodes)
            nt = np.size(bound["t"])
            c["evolve.phase_elems"] += nt * nk
            c["evolve.mode_evals"] += np.size(bound["x"]) * nk
            self.phase_bytes_max = max(self.phase_bytes_max, 16 * nt * nk)
            key = (self._packet_key(packet), potential)
            if key in self._ensembles:
                c["evolve.repeats"] += 1
            else:
                self._ensembles.add(key)

        def flux_series(args, kwargs, out):
            J = np.abs(out.J)
            c["flux_series.time_points"] += J.size
            if J.size:
                c["flux_series.live_points"] += int(np.count_nonzero(J > 1e-8 * J.max()))

        def arrival_stats(args, kwargs, out):
            c["arrival_stats.flags_evaluated"] += 2
            c["arrival_stats.flags_raised"] += (bool(out.low_confidence_plus)
                                                + bool(out.low_confidence_minus))

        def bohm_trajectories(args, kwargs, out):
            c["bohm_trajectories.degenerate"] += sum(bool(tr.degenerate) for tr in out)

        def write_csv(args, kwargs, out):
            path = _bind(write_csv_sig, args, kwargs)["path"]
            c["write_csv.bytes"] += path.stat().st_size

        return {
            "wavepacket.evolve": evolve,
            "wavepacket.flux_series": flux_series,
            "wavepacket.arrival_stats": arrival_stats,
            "wavepacket.bohm_trajectories": bohm_trajectories,
            "cli.write_csv": write_csv,
        }

    @property
    def ensembles(self) -> int:
        """Distinct (packet content, potential) pairs passed to evolve."""
        return len(self._ensembles)

    # ---------------------------------------------------------- output

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds."""
        import numpy as np

        n = len(self.t0)
        names = np.frombuffer(self.name_, dtype=np.int32)[:n]
        dur = np.frombuffer(self.t1, dtype=np.float64)[:n] - np.frombuffer(self.t0, dtype=np.float64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        """Write every span to a .npz file: parallel arrays plus the name table."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name_, dtype=np.int32),
            start=np.asarray(self.t0), end=np.asarray(self.t1),
            parent=np.asarray(self.parent, dtype=np.int32),
            job=np.asarray(self.job_, dtype=np.int32))


def _bind(sig, args, kwargs):
    if not kwargs and len(args) == len(sig.parameters):
        return dict(zip(sig.parameters, args))
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments
