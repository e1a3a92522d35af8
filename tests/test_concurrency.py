"""Concurrent-read smoke tests: every value object is immutable after
construction, so shared use across threads must give bit-identical
results to sequential use."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from solvable import (
    FamilySpec, SigmaCase, eigenvalues_below, fd_hamiltonian, phi,
    potential, solve_params_quantsys,
)
from solvable.expr import differentiate, evaluate, parse, print_expr, simplify


def test_shared_family_and_polynomials_across_threads():
    fam = FamilySpec(SigmaCase.S, -1.0, 2.0)
    xs = np.linspace(0.1, 5.0, 50)

    def work(ell):
        return phi(fam, ell)(xs)

    sequential = [work(ell) for ell in range(8)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(work, range(8)))
    for a, b in zip(sequential, threaded):
        assert np.array_equal(a, b)


def test_shared_potential_expr_across_threads():
    fam = FamilySpec(SigmaCase.ONE, -2.0, 1.0)
    system = potential(fam, 1)
    xs = np.linspace(-4, 4, 64)

    def work(_):
        return evaluate(system.potential, xs)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(16)))
    base = results[0]
    for r in results[1:]:
        assert np.array_equal(base, r)


def test_independent_eigenpair_generation_in_parallel():
    def work(n):
        return solve_params_quantsys(1.0, 0.0, n, "+").energy

    with ThreadPoolExecutor(max_workers=4) as pool:
        energies = list(pool.map(work, range(6)))
    assert energies == [work(n) for n in range(6)]


def test_fd_hamiltonian_shared_across_threads():
    ham = fd_hamiltonian(lambda x: x * x - 1.0, -8.0, 8.0, 400)

    def work(e_max):
        return eigenvalues_below(ham, e_max)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, [3.0, 5.0, 7.0, 9.0]))
    assert results == [work(e) for e in (3.0, 5.0, 7.0, 9.0)]


def test_shared_expr_memo_filled_from_eight_threads():
    # the threads race to fill the derivative and simplified-form caches
    # of one fresh tree; every result must match a sequential run on an
    # independently built equal tree, bit for bit
    text = "x^(1/6)*exp(-x^(4/3) + 2*x^(2/3))*(4*x^(4/3) - 2*x^(2/3) + 1)"
    xs = np.linspace(0.1, 3.0, 64)

    def work(e):
        d2 = simplify(differentiate(simplify(differentiate(e))))
        s = simplify(e)
        return print_expr(d2), print_expr(s), evaluate(d2, xs).tobytes()

    expected = work(parse(text))
    shared = parse(text)
    start = threading.Barrier(8)

    def racer(_):
        start.wait(timeout=30)
        return work(shared)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60)
                       for f in [pool.submit(racer, i) for i in range(8)]]
    finally:
        sys.setswitchinterval(old)
    assert results == [expected] * 8
    assert differentiate(shared) is differentiate(shared)
