"""Correctness oracle: every answer is checked against a direct solve.

The reference for each distinct operator ``A(lambda)`` is a SciPy
``splu`` factorization, computed in a separate checker process before the
timed phase (its memory and time never enter the workload's figures).
An answer ``x`` for right-hand side ``b`` passes when both

- its relative A-norm error ``||x - x_ref||_A / ||x_ref||_A`` is at most
  :data:`ANORM_TOL`, and
- its normwise backward error
  ``||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)`` is at most
  :data:`BACKWARD_TOL`.

``||b - A x|| / ||b||`` is deliberately not tested: at lambda = 1e8 the
direct solve itself leaves a relative residual near 1e-7 while its
backward error is at rounding level, so that test would reject correct
answers.  Once per model and scale the checker also verifies that the
assembled stiffness is symmetric and annihilates the six rigid-body
modes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback

import numpy as np

ANORM_TOL = 1e-6
"""Correct SB-BIC(0)/BIC(0)/Diagonal/block CG answers at eps=1e-8 reach at
most 1.1e-7 (lambda = 1e8); a CG answer stopped at eps=1e-3 reaches 1e-3."""

BACKWARD_TOL = 1e-11
"""Correct answers reach at most 2.5e-13 (lambda = 1e4); a 1e-6 relative
perturbation of x reaches 1.4e-6."""

SYMMETRY_TOL = 1e-12
RIGID_TOL = 1e-10


def rhs_vector(rhs, ndof: int, model_load: np.ndarray) -> np.ndarray:
    """The right-hand side a request spec denotes (same rule as the
    serve protocol: ``"model"`` is the assembled load, ``{"seed": k}`` a
    seeded standard-normal vector)."""
    if rhs == "model":
        return model_load
    return np.random.default_rng(int(rhs["seed"])).standard_normal(ndof)


def rhs_key(rhs) -> str:
    return "model" if rhs == "model" else f"seed:{int(rhs['seed'])}"


def answer_errors(a, b: np.ndarray, x: np.ndarray, x_ref: np.ndarray,
                  a_norm_inf: float) -> tuple[float, float]:
    """``(relative A-norm error, normwise backward error)`` of *x*."""
    e = x - x_ref
    ref_energy = float(x_ref @ (a @ x_ref))
    anorm_err = float(np.sqrt(max(float(e @ (a @ e)), 0.0) / ref_energy))
    resid = float(np.abs(b - a @ x).max())
    backward = resid / (a_norm_inf * float(np.abs(x).max()) + float(np.abs(b).max()))
    return anorm_err, backward


def passes(anorm_err: float, backward: float) -> bool:
    return bool(anorm_err <= ANORM_TOL and backward <= BACKWARD_TOL)


def rigid_body_modes(coords: np.ndarray) -> np.ndarray:
    """``(3 n, 6)`` translations and infinitesimal rotations."""
    n = coords.shape[0]
    r = np.zeros((n, 3, 6))
    for k in range(3):
        r[:, k, k] = 1.0
    x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
    r[:, 0, 3], r[:, 1, 3] = -y, x
    r[:, 1, 4], r[:, 2, 4] = -z, y
    r[:, 0, 5], r[:, 2, 5] = z, -x
    return r.reshape(3 * n, 6)


def assembly_defects(mesh, materials) -> list[str]:
    """Symmetry and rigid-body-mode defects of ``assemble_stiffness``."""
    from repro.fem.assembly import assemble_stiffness

    k = assemble_stiffness(mesh, materials).to_csr()
    kmax = float(np.abs(k.data).max())
    defects = []
    asym = abs(k - k.T)
    if asym.nnz and float(asym.data.max()) > SYMMETRY_TOL * kmax:
        defects.append(f"stiffness not symmetric: {float(asym.data.max()):.3e}")
    modes = rigid_body_modes(mesh.coords)
    leak = float(np.abs(k @ modes).max())
    scale = kmax * float(np.abs(modes).max())
    if leak > RIGID_TOL * scale:
        defects.append(f"rigid-body modes not in kernel: {leak / scale:.3e}")
    return defects


# -- the checker process ----------------------------------------------------


def _model_parts(model: str, scale: float):
    from repro.experiments import workloads as wl

    if model == "block":
        return wl.table2_block_mesh(scale), None, wl.block_structure(scale)
    if model == "swjapan":
        from repro.fem.material import IsotropicElastic

        mats = {i: IsotropicElastic(1.0, 0.30) for i in (0, 1, 2)}
        return wl.swjapan_mesh(scale), mats, wl.swjapan_structure(scale)
    raise ValueError(f"unknown model {model!r}")


class _References:
    """Reference solutions keyed by ``(model, scale, penalty, rhs_key)``.

    One operator is factored at a time and dropped once its right-hand
    sides are solved, so the checker's memory stays at one ``splu``."""

    def __init__(self) -> None:
        self.structures: dict = {}
        self.assembly: dict = {}
        self.x_ref: dict = {}
        self.ops: dict = {}

    def structure(self, model: str, scale: float):
        key = (model, scale)
        if key not in self.structures:
            mesh, mats, s = _model_parts(model, scale)
            self.assembly[key] = assembly_defects(mesh, mats)
            self.structures[key] = s
        return self.structures[key]

    def prepare(self, wanted: list[tuple]) -> dict:
        import scipy.sparse.linalg as spla

        by_op: dict = {}
        for model, scale, penalty, rhs in wanted:
            by_op.setdefault((model, scale, float(penalty)), {})[rhs_key(rhs)] = rhs
        for (model, scale, penalty), rhss in by_op.items():
            todo = {k: v for k, v in rhss.items()
                    if (model, scale, penalty, k) not in self.x_ref}
            if not todo:
                continue
            s = self.structure(model, scale)
            a = s.system(penalty).copy()
            if (model, scale, penalty) not in self.ops:
                self.ops[(model, scale, penalty)] = (a, float(abs(a).sum(axis=1).max()))
            lu = spla.splu(a.tocsc())
            for k, rhs in todo.items():
                b = rhs_vector(rhs, s.ndof, s.b)
                self.x_ref[(model, scale, penalty, k)] = (b, lu.solve(b))
            del lu
        return {f"{m}@{sc:g}": d for (m, sc), d in self.assembly.items()}

    def check(self, model: str, scale: float, penalty: float, rhs,
              x: np.ndarray) -> tuple[float, float]:
        key = (model, scale, float(penalty), rhs_key(rhs))
        b, x_ref = self.x_ref[key]
        a, a_norm_inf = self.ops[(model, scale, float(penalty))]
        return answer_errors(a, b, x, x_ref, a_norm_inf)


def _checker_main(conn, src_dir: str) -> None:
    import sys

    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    refs = _References()
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "stop":
            return
        try:
            if msg[0] == "prepare":
                conn.send(("ok", refs.prepare(msg[1])))
            else:
                conn.send(("ok", refs.check(*msg[1:])))
        except Exception:  # report to the client; the checker stays up
            conn.send(("error", traceback.format_exc()))


class Checker:
    """Client handle on the checker process (spawned, so it shares no
    state with the workload and its memory is not the workload's)."""

    def __init__(self, src_dir: str, cpus: set[int]) -> None:
        ctx = mp.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_checker_main, args=(child, src_dir),
                                 name="perfbench-checker")
        self._proc.start()
        child.close()
        # off the workload's CPU, so reference factoring overlaps the warm-up
        os.sched_setaffinity(self._proc.pid, cpus)

    def _call(self, *msg):
        self._conn.send(msg)
        return self._reply()

    def _reply(self):
        status, value = self._conn.recv()
        if status != "ok":
            raise RuntimeError(f"checker failed:\n{value}")
        return value

    def prepare(self, wanted: list[tuple]) -> None:
        """Start factoring every operator in *wanted* and solving its
        right-hand sides; :meth:`prepared` waits for the result."""
        self._conn.send(("prepare", wanted))

    def prepared(self) -> dict:
        """The assembly defects found per model, once references are ready."""
        return self._reply()

    def check(self, model: str, scale: float, penalty: float, rhs,
              x: np.ndarray) -> tuple[float, float]:
        return self._call("check", model, scale, penalty, rhs, x)

    def close(self) -> None:
        try:
            self._conn.send(("stop",))
        except OSError:
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5)
        self._conn.close()
