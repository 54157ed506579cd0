"""Per-layer timing of beamlab from outside the package.

``Tracer.install`` replaces each listed function with a timing wrapper in
every beamlab module namespace that binds it, so calls resolved through an
import-time binding (``recon`` binds ``build_phase`` and ``quasimode_eval``,
``pde`` binds ``splu``) and calls resolved as module globals (``cylinder``
calls ``s_a_apply``) are both seen.  Methods are wrapped on their class.
``uninstall`` puts every original back.

Spans are aggregated in memory: per layer the outermost call count, the
inclusive time and the self time (inclusive minus the wrapped children), and
per caller/callee edge the calls and inclusive time.  A recursive call of a
layer already on the stack (``SchrodingerSolver`` builds its per-angle
sub-solvers through its own constructor) is folded into the outer call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path) for every traced layer
LAYERS = [
    ("geometry.trace_geodesic", "beamlab.geometry", "trace_geodesic"),
    ("geometry.pullback_metric", "beamlab.geometry",
     "FermiChart.pullback_metric"),
    ("jacobi.curvature_along", "beamlab.jacobi", "curvature_along"),
    ("jacobi.solve_jacobi", "beamlab.jacobi", "solve_jacobi"),
    ("jacobi.real_pair", "beamlab.jacobi", "real_pair"),
    ("jacobi.epsilon_family", "beamlab.jacobi", "epsilon_family"),
    ("cgo.build_phase", "beamlab.cgo", "build_phase"),
    ("cgo.metric_jet", "beamlab.cgo", "metric_jet"),
    ("cgo.build_amplitude", "beamlab.cgo", "build_amplitude"),
    ("cgo.quasimode_eval", "beamlab.cgo", "quasimode_eval"),
    ("cgo.quasimode_lp_norm", "beamlab.cgo", "quasimode_lp_norm"),
    ("cgo.assemble_cgo", "beamlab.cgo", "assemble_cgo"),
    ("cylinder.conjugated_solve", "beamlab.cylinder", "conjugated_solve"),
    ("cylinder.s_a_apply", "beamlab.cylinder", "s_a_apply"),
    ("pde.solver_build", "beamlab.pde", "SchrodingerSolver.__init__"),
    ("pde.splu", "beamlab.pde", "splu"),
    ("pde.solve", "beamlab.pde", "SchrodingerSolver.solve"),
    ("raytransform.invert_j2_point", "beamlab.raytransform",
     "invert_j2_point"),
    ("recon.beam", "beamlab.recon", "BeamBundle.beam"),
    ("recon.tube_interaction", "beamlab.recon", "tube_interaction"),
    ("recon.dn_moment_v3", "beamlab.recon", "dn_moment_v3"),
    ("recon.full_dn_moment_v3", "beamlab.recon", "full_dn_moment_v3"),
    ("recon.fourier_synthesis", "beamlab.recon", "fourier_synthesis"),
    ("recon.recover_vm", "beamlab.recon", "recover_vm"),
]

# layers whose self time is reported (they call other traced layers)
SELF_TIMED = ("cgo.build_phase", "cgo.assemble_cgo",
              "cylinder.conjugated_solve", "pde.solver_build",
              "recon.tube_interaction", "recon.full_dn_moment_v3")


def metric_names():
    """Per-layer metric names and units, in report order."""
    out = []
    for name, _, _ in LAYERS:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.s", "s"))
        if name in SELF_TIMED:
            out.append((f"{name}.self_s", "s"))
    out.append(("recon.beam.hit_ratio", "1"))
    # the traced round time and the time the wrappers added to it
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.calls = {}
        self.incl = {}
        self.child = {}
        self.edges = {}
        self.beam_hits = 0
        self.invocations = 0      # every wrapper call, folded ones too
        self._stack = []          # [name, child seconds] per open span
        self._patches = []        # (owner, attribute, original)

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.invocations += 1
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, child = stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.incl[name] = self.incl.get(name, 0.0) + dt
                self.child[name] = self.child.get(name, 0.0) + child
                parent = stack[-1][0] if stack else "<workload>"
                edge = self.edges.setdefault(f"{parent}>{name}", [0, 0.0])
                edge[0] += 1
                edge[1] += dt
                if stack:
                    stack[-1][1] += dt
        return wrapper

    def _wrap_beam(self, fn):
        timed = self._wrap("recon.beam", fn)

        @functools.wraps(fn)
        def beam(bundle, *args, **kwargs):
            before = len(bundle._beams)
            out = timed(bundle, *args, **kwargs)
            self.beam_hits += len(bundle._beams) == before
            return out
        return beam

    def install(self):
        for _, modname, _ in LAYERS:
            importlib.import_module(modname)
        mods = {k: v for k, v in sys.modules.items()
                if k.startswith("beamlab") and v is not None}
        for name, modname, attr in LAYERS:
            owner = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapped = (self._wrap_beam(orig) if name == "recon.beam"
                           else self._wrap(name, orig))
                setattr(cls, meth, wrapped)
                self._patches.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def metrics(self, rounds):
        """Per-round averages of every per-layer metric."""
        out = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = self.calls.get(name, 0) / rounds
            out[f"{name}.s"] = self.incl.get(name, 0.0) / rounds
            if name in SELF_TIMED:
                out[f"{name}.self_s"] = (self.incl.get(name, 0.0)
                                         - self.child.get(name, 0.0)) / rounds
        beams = self.calls.get("recon.beam", 0)
        out["recon.beam.hit_ratio"] = self.beam_hits / beams if beams else 0.0
        return out

    def overhead(self, samples=20000):
        """Estimated seconds the wrappers added: every wrapper call so far
        times the measured cost of wrapping a no-op."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        cost = (time.perf_counter() - t0 - bare) / samples
        return self.invocations * cost

    def call_tree(self):
        """Caller>callee edges with calls and inclusive seconds."""
        return {k: {"calls": v[0], "s": v[1]}
                for k, v in sorted(self.edges.items())}
