"""The benchmark's checks must bite: wrong answers are counted as failed.

Run from the repository root::

    python3 -m pytest -q perfbench/test_checks.py

Feeds the oracle, through the same ``Run`` loop the benchmark uses and a
real checker process, a right answer, a CG answer stopped at eps=1e-3 and
a perturbed answer, and expects exactly the two wrong ones to fail.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import Answer, Op  # noqa: E402

MODEL, SCALE = "swjapan", 0.7


def _solve(penalty: float, rhs: dict, eps: float) -> np.ndarray:
    from repro.experiments.workloads import swjapan_structure
    from repro.precond import sb_bic0
    from repro.solvers import cg_solve

    s = swjapan_structure(SCALE)
    a = s.system(penalty)
    b = oracle.rhs_vector(rhs, s.ndof, s.b)
    return cg_solve(a, b, sb_bic0(a, s.groups), eps=eps).x


class _FixedAnswers:
    """A stand-in workload whose operation returns prepared answers."""

    def __init__(self, answers):
        self.answers = answers

    def run(self, op):
        return self.answers[op.kind]


@pytest.fixture(scope="module")
def checker():
    c = oracle.Checker(SRC, os.sched_getaffinity(0))
    yield c
    c.close()


@pytest.mark.parametrize("penalty", [1e4, 1e8])
def test_wrong_answers_counted_as_failed(checker, penalty):
    rhs = {"seed": 7}
    right = _solve(penalty, rhs, 1e-8)
    loose = _solve(penalty, rhs, 1e-3)
    noise = np.random.default_rng(3).standard_normal(right.size)
    perturbed = right + 1e-6 * np.abs(right).max() * noise
    answers = {
        kind: [Answer(MODEL, SCALE, penalty, rhs, x, 0.01, 1, True, True)]
        for kind, x in (("right", right), ("loose", loose), ("perturbed", perturbed))
    }
    ops = [Op(kind) for kind in answers]
    checker.prepare([(MODEL, SCALE, penalty, rhs)])
    defects = checker.prepared()
    assert defects == {f"{MODEL}@{SCALE:g}": []}

    r = run.Run(_FixedAnswers(answers), checker, ops)
    r.timed(0.0, 1)
    assert r.attempted == 3
    assert r.failed == 2
    assert len(r.errors) == 2 and all("A-norm error" in e for e in r.errors)


def test_raised_and_not_ok_answers_fail(checker):
    rhs = {"seed": 8}
    checker.prepare([(MODEL, SCALE, 1e6, rhs)])
    checker.prepared()
    answers = {
        "raised": [Answer(MODEL, SCALE, 1e6, rhs, None, 0.01, 0, False, error="boom")],
        "not-ok": [Answer(MODEL, SCALE, 1e6, rhs, _solve(1e6, rhs, 1e-8), 0.01, 1,
                          False, True)],
    }
    r = run.Run(_FixedAnswers(answers), checker, [Op(k) for k in answers])
    r.timed(0.0, 1)
    assert (r.attempted, r.failed) == (2, 2)


def test_rigid_body_modes_span_the_kernel_of_a_free_stiffness():
    from repro.experiments.workloads import swjapan_mesh
    from repro.fem.material import IsotropicElastic

    mats = {i: IsotropicElastic(1.0, 0.30) for i in (0, 1, 2)}
    assert oracle.assembly_defects(swjapan_mesh(SCALE), mats) == []
