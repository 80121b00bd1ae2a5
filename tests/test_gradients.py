"""Exact gradients of the ascent objectives against central differences.

Each value-and-gradient function maps a stack of states to values and
Hermitian gradients in rho. Composed with rho = XX^dag / tr XX^dag by
engine._x_value_grad, as engine._ascent composes it, it maps a stack of
complex parameters X to values and a complex gradient whose real and
imaginary parts are the derivatives along the real and imaginary parts of
each entry.
"""

from functools import partial

import numpy as np

from qbl import applications as app
from qbl import operators as op
from qbl.engine import BLDatum, _Workspace, _x_value_grad
from qbl.sampling import random_channel, random_pd


def central_differences(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape[1:]):
        for unit in (1.0, 1j):
            step = np.zeros_like(x)
            step[(slice(None),) + idx] = h * unit
            grad[(slice(None),) + idx] += unit * (f(x + step)[0] - f(x - step)[0]) / (2 * h)
    return grad


def assert_gradient_matches(f, x):
    vals, grad = f(x)
    assert np.all(np.isfinite(vals))
    fd = central_differences(f, x)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(grad))))


def random_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_entropic_gradient():
    rng = np.random.default_rng(31)
    e1 = random_channel(3, 2, rng=rng)
    e2 = random_channel(3, 3, rng=rng)
    sig = op.PSDOperator(random_pd(3, rng))
    sigmas = [op.PSDOperator(random_pd(2, rng)), op.PSDOperator(random_pd(3, rng))]
    ws = _Workspace(BLDatum([0.7, 1.3], [e1, e2], sig, sigmas, 0.0))
    assert_gradient_matches(
        partial(_x_value_grad, ws.entropic_value_grad), random_stack(rng, (4, 3, 3))
    )


def test_output_entropy_gradient():
    # -H(E(rho)) over pure states rho = xx^dag / |x|^2: the objective of the
    # minimum-output-entropy datum, whose log rho terms cancel
    rng = np.random.default_rng(32)
    ch = random_channel(3, 2, rng=rng)
    ws = _Workspace(app.min_output_datum(ch))
    assert_gradient_matches(
        partial(_x_value_grad, ws.entropic_value_grad), random_stack(rng, (4, 3, 1))
    )

