"""The library functions the tasks call, by layer, plain or traced.

Tasks reach the library only through the namespace these functions build,
so a traced run wraps exactly the benchmark's own calls and nothing inside
``src/``.  ``families`` and ``polynomials`` are reached only through
``specfun`` and ``schrodinger``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from solvable import cli, expr, generator, oracle, schrodinger, specfun

# attribute -> (span name, function, counter): a counter maps (args,
# result) to {suffix: number}; CONSTRUCTOR marks a function whose returned
# Exprs are node-counted after the task.
CONSTRUCTOR = "constructor"
LAYERS = {
    "evaluate": ("expr.evaluate", expr.evaluate,
                 lambda args, out: {"points": np.size(args[1])}),
    "potential": ("schrodinger.potential", schrodinger.potential,
                  CONSTRUCTOR),
    "wavefunction": ("schrodinger.wavefunction", schrodinger.wavefunction,
                     CONSTRUCTOR),
    "special_function": ("specfun.special_function",
                         specfun.special_function, None),
    "hm_operator": ("specfun.hm_operator", specfun.hm_operator, None),
    "apply_hm": ("specfun.apply_hm", specfun.apply_hm, None),
    "scalar_product": ("specfun.scalar_product", specfun.scalar_product,
                       None),
    "solve_params_quantsys": ("generator.solve_params_quantsys",
                              generator.solve_params_quantsys, CONSTRUCTOR),
    "integrate": ("oracle.integrate", oracle.integrate,
                  lambda args, out: {"nodes": out.nodes}),
    "fd_hamiltonian": ("oracle.fd_hamiltonian", oracle.fd_hamiltonian,
                       lambda args, out: {"grid_points": out.diag.size}),
    "eigenvalues_below": ("oracle.eigenvalues_below",
                          oracle.eigenvalues_below,
                          lambda args, out: {"levels": len(out)}),
    "residual_norm": ("oracle.residual_norm", oracle.residual_norm, None),
    "cli_run": ("cli.verify_spectrum", cli.run, None),
}


def plain():
    """The unwrapped functions: what an untraced run calls."""
    return SimpleNamespace(**{attr: fn for attr, (_, fn, _) in
                              LAYERS.items()})


def _returned_exprs(result):
    """The Exprs a constructor returned, for node counting."""
    if isinstance(result, expr.Expr):
        return [result]
    if isinstance(result, schrodinger.SchrodingerSystem):
        return [result.potential] + [psi for _, psi in
                                     result.known_eigenpairs]
    return [result.psi]  # ClosedFormEigenpair


def traced(tracer, sink):
    """Wrapped functions feeding ``tracer``; Exprs returned by the
    constructors are appended to ``sink`` to be counted after the task."""

    def collect(args, result):
        sink.extend(_returned_exprs(result))
        return {}

    wrapped = {}
    for attr, (name, fn, count) in LAYERS.items():
        wrapped[attr] = tracer.wrap(
            name, fn, collect if count == CONSTRUCTOR else count)
    return SimpleNamespace(**wrapped)


def node_counts(exprs):
    """(tree nodes, DAG nodes) of a list of Exprs: the size as a tree walk
    and the number of distinct node objects."""
    tree_size = {}

    def walk(e):
        key = id(e)
        if key not in tree_size:
            tree_size[key] = 1 + sum(walk(c) for c in _children(e))
        return tree_size[key]

    tree = sum(walk(e) for e in exprs)
    return tree, len(tree_size)


def _children(e):
    if isinstance(e, expr.Add):
        return e.terms
    if isinstance(e, expr.Mul):
        return e.factors
    if isinstance(e, expr.Pow):
        return (e.base,)
    if isinstance(e, (expr.Exp, expr.Fun)):
        return (e.arg,)
    return ()
