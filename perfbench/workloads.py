"""The three workloads: cold solves, served traffic, process-transport CG.

Each workload has a ``setup`` (everything before the first timed
operation), a fixed seeded pass of operations, and ``run(op)`` which
executes one operation and returns its answers.  An answer carries the
operator and right-hand side it solved (so the oracle can check it), its
time from submit to answer, and its CG iterations.  The seed changes the
order of a pass, the right-hand sides and the penalty sequence; the make-up
of a pass is the same for every seed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

PENALTIES = (1e4, 1e6, 1e8)


@dataclass
class Answer:
    model: str
    scale: float
    penalty: float
    rhs: object  # "model" or {"seed": k}
    x: np.ndarray | None
    seconds: float
    iterations: int
    ok: bool
    converged: bool = False
    error: str | None = None


@dataclass
class Op:
    kind: str
    requests: list = field(default_factory=list)  # (model, scale, penalty, precond, rhs)


def _vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _seeds(rng: np.random.Generator, n: int) -> list[dict]:
    return [{"seed": int(s)} for s in rng.integers(0, 2**31 - 1, size=n)]


class ColdSolve:
    """Each operation: a contact problem sent to a fresh ``SolverSession``.

    The operation covers mesh and hex8 assembly, BC elimination,
    SB-BIC(0)/BIC(0) symbolic and numeric set-up and CG.  A pass is 16
    problems: block and swjapan at scales 0.7 and 1.0, SB-BIC(0) at each
    of three penalties plus BIC(0) at lambda = 1e4."""

    name = "cold-solve"

    def setup(self) -> None:
        from repro.serve.protocol import SolveRequest
        from repro.serve.session import SolverSession

        self._request = SolveRequest
        self._session = SolverSession
        SolverSession()  # session start: kernel backend resolution + warm-up

    def ops(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        specs = []
        for model in ("block", "swjapan"):
            for scale in (0.7, 1.0):
                specs += [(model, scale, lam, "sbbic0") for lam in PENALTIES]
                specs.append((model, scale, 1e4, "bic0"))
        rhs = _seeds(rng, len(specs))
        order = rng.permutation(len(specs))
        return [Op("cold", [specs[i] + (rhs[i],)]) for i in order]

    def run(self, op: Op) -> list[Answer]:
        model, scale, lam, precond, rhs = op.requests[0]
        session = self._session()
        req = self._request(model=model, scale=scale, penalty=lam,
                            precond=precond, rhs=rhs)
        t0 = time.perf_counter()
        try:
            r = session.solve(req)
        except Exception as exc:  # counted as a failed operation
            return [Answer(model, scale, lam, rhs, None, time.perf_counter() - t0,
                           0, False, error=repr(exc))]
        dt = time.perf_counter() - t0
        return [Answer(model, scale, lam, rhs, r.x, dt, r.iterations, r.ok,
                       r.converged, r.error)]

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb()

    def close(self) -> None:
        pass


class ServeMixed:
    """One closed-loop client submitting through a journaled ``JobQueue``.

    The working set — block and swjapan at scale 1.0 under SB-BIC(0), plus
    the Diagonal factor an ``auto`` request resolves to — is built in set-up
    and stays below the cache capacity.  A pass is 25 operations carrying 32
    right-hand sides:

    - repeat-operator requests (factor hit, CG only): 16 on block, 3 on
      swjapan;
    - per model, 2 penalty changes (in-place numeric refactor; the second
      returns to the pass's starting penalty, so every pass starts from the
      same cache);
    - one 8-RHS batch on swjapan (coalesced block CG);
    - one ``precond: "auto"`` request on swjapan at lambda = 1e4.

    Block hits are half the answers and sit in the middle of the time
    distribution, so the median is a block cache hit.  The slowest answers
    are the block refactors and the ``auto`` request, 3 independent
    operations per pass, so the tail percentile is not one batch's time
    counted eight times.
    """

    name = "serve-mixed"
    MODELS = (("block", 1.0), ("swjapan", 1.0))
    AUTO = ("swjapan", 1.0, 1e4)
    HITS = {"block": (8, 8), "swjapan": (2, 1)}  # before / after the first refactor
    BATCHES = {"block": 0, "swjapan": 1}

    def __init__(self, work_dir: str, seed: int) -> None:
        self._work_dir = work_dir
        rng = np.random.default_rng([seed, 1])
        self.start_penalty = {m: float(rng.choice(PENALTIES)) for m, _ in self.MODELS}

    def setup(self) -> None:
        from repro.serve.protocol import SolveRequest
        from repro.serve.queue import JobQueue
        from repro.serve.session import SolverSession

        self._request = SolveRequest
        # a fresh journal directory: a reused one would replay its policy
        # history and short-circuit job ids that already have results
        self._journal = tempfile.mkdtemp(prefix="serve-", dir=self._work_dir)
        self.queue = JobQueue(SolverSession(), journal_dir=self._journal)
        warm = [(m, s, self.start_penalty[m], "sbbic0", "model") for m, s in self.MODELS]
        warm.append(self.AUTO + ("auto", "model"))
        for spec in warm:
            answers = self.run(Op("warm", [spec]))
            if not answers[0].ok:
                raise RuntimeError(f"working-set warm-up failed: {answers[0].error}")

    def ops(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        ops = []
        for model, scale in self.MODELS:
            lam0 = self.start_penalty[model]
            lam1 = float(rng.choice([p for p in PENALTIES if p != lam0]))
            # hits at lam0, refactor to lam1, hits and batches at lam1,
            # refactor back to lam0: the sequence per model is fixed so
            # every hit is a hit; the models interleave at random
            before, after = self.HITS[model]
            seq = [("hit", lam0)] * before + [("refactor", lam1)]
            seq += [("hit", lam1)] * after + [("batch", lam1)] * self.BATCHES[model]
            seq += [("refactor", lam0)]
            per_model = []
            for kind, lam in seq:
                n = 8 if kind == "batch" else 1
                per_model.append(Op(kind, [(model, scale, lam, "sbbic0", r)
                                           for r in _seeds(rng, n)]))
            ops.append(per_model)
        auto = Op("auto", [self.AUTO + ("auto", _seeds(rng, 1)[0])])
        # interleave the two per-model sequences (order inside each kept)
        # and put the auto request at a seeded position
        seqs = [iter(per_model) for per_model in ops]
        picks = rng.permutation([0] * len(ops[0]) + [1] * len(ops[1]))
        merged = [next(seqs[p]) for p in picks]
        merged.insert(int(rng.integers(0, len(merged) + 1)), auto)
        return merged

    def run(self, op: Op) -> list[Answer]:
        reqs = [self._request(model=m, scale=s, penalty=lam, precond=pc, rhs=rhs)
                for m, s, lam, pc, rhs in op.requests]
        submitted = []
        t_submit = []
        try:
            for req in reqs:
                t_submit.append(time.perf_counter())
                submitted.append(self.queue.submit(req))
            self.queue.process(submitted)
        except Exception as exc:
            t = time.perf_counter()
            return [Answer(m, s, lam, rhs, None, t - t_submit[0], 0, False,
                           error=repr(exc)) for m, s, lam, _, rhs in op.requests]
        t_done = time.perf_counter()
        out = []
        for (m, s, lam, _, rhs), job, t0 in zip(op.requests, submitted, t_submit):
            r = job.response
            out.append(Answer(m, s, lam, rhs, r.x, t_done - t0, r.iterations, r.ok,
                              r.converged, r.error))
        return out

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb()

    def close(self) -> None:
        if hasattr(self, "_journal"):
            shutil.rmtree(self._journal, ignore_errors=True)


class DistSweep:
    """A penalty sweep on one partitioned block system over real processes.

    The block model at scale 0.7 is partitioned contact-aware into 2
    domains and served by the process transport with 2 ranks.  Each
    operation refactors the distributed system to a new lambda with a
    seeded right-hand side, then runs ``parallel_cg`` with localized
    SB-BIC(0).  A pass is 15 operations, each of lambda = 1e4 .. 1e8
    three times."""

    name = "dist-sweep"
    MODEL = ("block", 0.7)
    SWEEP = (1e4, 1e5, 1e6, 1e7, 1e8)
    PER_LAMBDA = 3

    def setup(self) -> None:
        from repro.experiments.workloads import block_structure
        from repro.parallel import contact_aware_partition
        from repro.parallel.distributed import DistributedSystem
        from repro.precond import sb_bic0
        from repro.precond.localized import restrict_groups

        s = block_structure(self.MODEL[1])
        self.structure = s
        part = contact_aware_partition(s.mesh.coords, s.groups, 2)
        n_nodes = s.mesh.n_nodes

        def factory(sub, nodes):
            return sb_bic0(sub, restrict_groups(s.groups, nodes, n_nodes))

        self.system = DistributedSystem.from_global(
            s.system(self.SWEEP[0]), s.b, part, factory, transport="process")
        # the first refactor builds the value maps every later one reuses
        self.system.refactor(s.system(self.SWEEP[-1]), s.b)

    def ops(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        # every penalty PER_LAMBDA times per pass; no penalty twice in a row,
        # also across the boundary between passes
        lams = np.repeat(self.SWEEP, self.PER_LAMBDA)
        while True:
            order = rng.permutation(lams)
            if np.all(order != np.roll(order, 1)):
                break
        model, scale = self.MODEL
        return [Op("dist", [(model, scale, float(lam), "sbbic0", r)])
                for lam, r in zip(order, _seeds(rng, order.size))]

    def run(self, op: Op) -> list[Answer]:
        from repro.parallel import distributed

        model, scale, lam, _, rhs = op.requests[0]
        s = self.structure
        b = np.random.default_rng(rhs["seed"]).standard_normal(s.ndof)
        t0 = time.perf_counter()
        try:
            self.system.refactor(s.system(lam), b)
            res = distributed.parallel_cg(self.system, eps=1e-8, max_iter=20000)
        except Exception as exc:
            return [Answer(model, scale, lam, rhs, None, time.perf_counter() - t0,
                           0, False, error=repr(exc))]
        dt = time.perf_counter() - t0
        return [Answer(model, scale, lam, rhs, res.x, dt, res.iterations, True,
                       res.converged)]

    def peak_rss_mb(self) -> float:
        pids = [p for p in self.system.comm.worker_pids() if p is not None]
        return _vm_hwm_mb() + sum(_vm_hwm_mb(p) for p in pids)

    def close(self) -> None:
        if hasattr(self, "system"):
            self.system.close()


WORKLOADS = ("cold-solve", "serve-mixed", "dist-sweep")


def make(name: str, work_dir: str, seed: int):
    if name == "cold-solve":
        return ColdSolve()
    if name == "serve-mixed":
        return ServeMixed(work_dir, seed)
    if name == "dist-sweep":
        return DistSweep()
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def work_dir(root: str) -> str:
    path = os.path.join(root, "perfbench", ".work")
    os.makedirs(path, exist_ok=True)
    return path
