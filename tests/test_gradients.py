"""Exact gradients of the ascent objectives against central differences.

Each value-and-gradient function maps a stack of complex parameters to
values and a complex gradient whose real and imaginary parts are the
derivatives along the real and imaginary parts of each entry.
"""

import numpy as np

from qbl import applications as app
from qbl import operators as op
from qbl.engine import BLDatum, _Workspace
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
    assert_gradient_matches(ws.entropic_value_grad, random_stack(rng, (4, 3, 3)))


def test_output_entropy_gradient():
    rng = np.random.default_rng(32)
    ch = random_channel(3, 2, rng=rng)
    assert_gradient_matches(
        lambda vs: app._neg_output_entropy(ch, vs), random_stack(rng, (4, 3, 1))
    )


def test_divergence_ratio_gradient():
    rng = np.random.default_rng(33)
    ch = random_channel(2, 3, rng=rng)
    sig = op.DensityOperator(random_pd(2, rng))
    log_sigma = op.matrix_log(sig).finite
    log_esig = op.matrix_log(op.PSDOperator(ch(sig))).finite
    assert_gradient_matches(
        lambda xs: app._divergence_ratio(ch, log_sigma, log_esig, xs),
        random_stack(rng, (4, 2, 2)),
    )
