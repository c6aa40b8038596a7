"""Per-layer tracing from the benchmark's side of the API.

The traced run wraps the repo's public entry points where their callers
look them up (a name bound by ``from ... import`` is patched in the
importing module), and proxies the preconditioner and matrix objects
handed to the Krylov solvers.  Each wrapped call is a span; a span's
*self* time (its duration minus its wrapped children) is charged to one
bucket, so over any operation the bucket self times plus the time no
span covers add up to the operation's wall time exactly.

Nothing here is installed in an untraced run: :meth:`Tracer.install`
patches, :meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

SELF_BUCKETS = (
    "fem.structure_s",
    "fem.hex8_s",
    "fem.system_s",
    "precond.symbolic_s",
    "precond.numeric_s",
    "precond.apply_s",
    "sparse.matvec_s",
    "solvers.krylov_other_s",
    "parallel.exchange_s",
    "parallel.allreduce_s",
    "parallel.halo_check_s",
    "parallel.refactor_s",
    "serve.queue_s",
    "serve.prepare_s",
    "serve.session_s",
    "serve.journal_s",
    "policy.decide_s",
)
"""Buckets that receive self time; with ``unattributed_s`` they partition
the traced wall time."""

COUNTERS = (
    "precond.symbolic_builds",
    "precond.numeric_builds",
    "precond.apply_calls",
    "sparse.matvec_calls",
    "solvers.iterations",
    "parallel.exchanges",
    "parallel.halo_bytes",
    "parallel.allreduces",
    "serve.journal_bytes",
    "serve.factor_hits",
    "serve.factor_refactors",
    "policy.diag_leads",
)


def _supports_out(fn) -> bool:
    try:
        return "out" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


class Tracer:
    """Span stack, self-time buckets and counters for one traced run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.krylov_s = 0.0
        self.krylov_calls = 0
        self.krylov_columns = 0
        self.covered_s = 0.0  # time under root spans
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, bucket: str):
        frame = [0.0]  # child time
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[bucket] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt
            else:
                self.covered_s += dt

    def timed(self, fn, bucket: str, counter: str | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
            with self.span(bucket):
                return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, bucket: str, counter: str | None = None) -> None:
        self.patch(owner, attr, self.timed(getattr(owner, attr), bucket, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced entry point of the repo."""
        from repro.experiments import workloads as wl
        from repro.fem import assembly
        from repro.fem.model import ContactStructure
        from repro.parallel import distributed
        from repro.parallel.distributed import DistributedSystem
        from repro.parallel.transport.process_backend import ProcessTransport
        from repro.policy.ladder import SolverPolicy
        from repro.precond.icfact import BlockICFactorization, ICSymbolic
        from repro.serve import queue, session
        from repro.serve.queue import JobQueue
        from repro.serve.session import SolverSession, Workspace
        from repro.solvers import block_cg, cg

        # fem
        self.wrap(wl, "build_contact_structure", "fem.structure_s")
        self.wrap(assembly, "hex8_stiffness", "fem.hex8_s")
        self.wrap(ContactStructure, "system", "fem.system_s")
        # precond: constructors, symbolic and numeric phases
        self.wrap(ICSymbolic, "__init__", "precond.symbolic_s", "precond.symbolic_builds")
        for name in ("sb_bic0", "bic", "scalar_ic0"):
            self.wrap(session, name, "precond.symbolic_s")
        self.wrap(session, "DiagonalScaling", "precond.numeric_s", "precond.numeric_builds")
        self.wrap(BlockICFactorization, "refactor", "precond.numeric_s",
                  "precond.numeric_builds")
        # sparse: the matvec adapters the solvers build their loops on
        for mod, attr in ((cg, "_as_matvec"), (block_cg, "_as_block_matvec")):
            self.patch(mod, attr, self._timed_adapter(getattr(mod, attr)))
        # solvers
        for name in ("cg_solve", "block_cg_solve"):
            self.patch(session, name, self._krylov(getattr(session, name)))
        self.patch(distributed, "parallel_cg", self._parallel_cg(distributed.parallel_cg))
        # parallel
        self.wrap(DistributedSystem, "refactor", "parallel.refactor_s")
        self.patch(ProcessTransport, "exchange_external",
                   self._exchange(ProcessTransport.exchange_external))
        self.wrap(ProcessTransport, "allreduce_sum_vec", "parallel.allreduce_s",
                  "parallel.allreduces")
        self.wrap(ProcessTransport, "halo_mismatch", "parallel.halo_check_s")
        # serve
        self.wrap(JobQueue, "submit", "serve.queue_s")
        self.wrap(JobQueue, "process", "serve.queue_s")
        self.wrap(SolverSession, "solve_batch", "serve.session_s")
        self.wrap(SolverSession, "prepare_batch", "serve.prepare_s")
        self.wrap(Workspace, "structure", "serve.prepare_s")
        self.patch(Workspace, "preconditioner",
                   self._preconditioner(Workspace.preconditioner))
        self.patch(queue, "write_journal", self._journal(queue.write_journal))
        # policy
        self.patch(SolverPolicy, "decide", self._decide(SolverPolicy.decide))

    # -- wrappers that also count -------------------------------------------

    def _timed_adapter(self, make):
        @functools.wraps(make)
        def adapter(a):
            return self.timed(make(a), "sparse.matvec_s", "sparse.matvec_calls")
        return adapter

    def _krylov(self, solve):
        @functools.wraps(solve)
        def wrapper(a, b, m, *args, **kwargs):
            t0 = time.perf_counter()
            with self.span("solvers.krylov_other_s"):
                res = solve(a, b, _PrecondProxy(m, self), *args, **kwargs)
            self.krylov_s += time.perf_counter() - t0
            self.krylov_calls += 1
            self.krylov_columns += 1 if b.ndim == 1 else b.shape[1]
            self.counts["solvers.iterations"] += res.iterations
            return res
        return wrapper

    def _parallel_cg(self, solve):
        @functools.wraps(solve)
        def wrapper(system, *args, **kwargs):
            preconds = list(system.preconds)
            mats = [dom.a_local for dom in system.domains]
            system.preconds[:] = [_PrecondProxy(m, self) for m in preconds]
            for dom, a in zip(system.domains, mats):
                dom.a_local = _MatvecProxy(a, self)
            t0 = time.perf_counter()
            try:
                with self.span("solvers.krylov_other_s"):
                    res = solve(system, *args, **kwargs)
            finally:
                system.preconds[:] = preconds
                for dom, a in zip(system.domains, mats):
                    dom.a_local = a
            self.krylov_s += time.perf_counter() - t0
            self.krylov_calls += 1
            self.krylov_columns += 1
            self.counts["solvers.iterations"] += res.iterations
            return res
        return wrapper

    def _exchange(self, exchange):
        @functools.wraps(exchange)
        def wrapper(transport, vectors):
            self.counts["parallel.exchanges"] += 1
            self.counts["parallel.halo_bytes"] += 8 * sum(
                dom.local_dofs(ext).size
                for dom in transport.domains
                for ext in dom.recv_tables.values()
            )
            with self.span("parallel.exchange_s"):
                return exchange(transport, vectors)
        return wrapper

    def _preconditioner(self, lookup):
        @functools.wraps(lookup)
        def wrapper(*args, **kwargs):
            with self.span("serve.session_s"):
                m, event = lookup(*args, **kwargs)
            if event == "hit":
                self.counts["serve.factor_hits"] += 1
            elif event == "refactor":
                self.counts["serve.factor_refactors"] += 1
            return m, event
        return wrapper

    def _journal(self, write):
        @functools.wraps(write)
        def wrapper(*args, **kwargs):
            with self.span("serve.journal_s"):
                path = write(*args, **kwargs)
            self.counts["serve.journal_bytes"] += path.stat().st_size
            return path
        return wrapper

    def _decide(self, decide):
        @functools.wraps(decide)
        def wrapper(*args, **kwargs):
            with self.span("policy.decide_s"):
                decision = decide(*args, **kwargs)
            if decision.order[0] == "diag":
                self.counts["policy.diag_leads"] += 1
            return decision
        return wrapper


class _PrecondProxy:
    """Times ``apply``/``apply_block`` of the preconditioner a solver gets;
    every other attribute reads through to the real object."""

    def __init__(self, m, tracer: Tracer) -> None:
        self._m = m
        if _supports_out(m.apply):
            self.apply = tracer.timed(
                lambda r, out=None: m.apply(r, out=out),
                "precond.apply_s", "precond.apply_calls")
        else:
            self.apply = tracer.timed(
                lambda r: m.apply(r), "precond.apply_s", "precond.apply_calls")
        block = getattr(m, "apply_block", None)
        if block is not None:
            self.apply_block = tracer.timed(
                block, "precond.apply_s", "precond.apply_calls")

    def __getattr__(self, name):
        return getattr(self._m, name)


class _MatvecProxy:
    """Times ``a @ v`` on a domain matrix inside the distributed solver."""

    def __init__(self, a, tracer: Tracer) -> None:
        self._a = a
        self._matmul = tracer.timed(a.__matmul__, "sparse.matvec_s",
                                    "sparse.matvec_calls")

    def __matmul__(self, v):
        return self._matmul(v)

    def __getattr__(self, name):
        return getattr(self._a, name)
