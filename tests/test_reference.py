"""The stacked exact gap evaluators, and the search workspace's entropic
objective, against the independent per-matrix reference of
tests/reference.py, on small random data of every rank."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from qbl import channels as ch
from qbl import operators as op
from qbl.engine import BLDatum, analytic_gap, entropic_gap

ROWS = 4


def _psd(rng, d, rank):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return g @ g.conj().T


def _kraus(rng, d_in, d_out, count):
    """count random Kraus operators d_out x d_in made trace-preserving:
    G_a (sum_b G_b^dag G_b)^(-1/2)."""
    g = rng.normal(size=(count, d_out, d_in)) + 1j * rng.normal(size=(count, d_out, d_in))
    vals, vecs = np.linalg.eigh(sum(a.conj().T @ a for a in g))
    return [a @ (vecs / np.sqrt(vals)) @ vecs.conj().T for a in g]


@st.composite
def problems(draw):
    """A datum with d_in and d_out in 1..3, 1 to 3 channels of 1 to 3 Kraus
    operators, sigma of every rank, each sigma_k of every rank (0
    included) or E_k(sigma), q_k in [1e-3, 3], and ROWS states and ROWS omega
    tuples of every rank; a state is drawn on supp sigma or on the whole
    space."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_in = draw(st.integers(1, 3))
    rank = draw(st.integers(1, d_in))
    support = np.linalg.qr(rng.normal(size=(d_in, rank)) + 1j * rng.normal(size=(d_in, rank)))[0]
    sigma = support @ _psd(rng, rank, rank) @ support.conj().T
    q, chans, sigmas, omegas = [], [], [], []
    for _ in range(draw(st.integers(1, 3))):
        d_out = draw(st.integers(1, 3))
        kraus = _kraus(rng, d_in, d_out, draw(st.integers(-(-d_in // d_out), 3)))
        q.append(draw(st.floats(1e-3, 3.0)))
        chans.append(kraus)
        rank_k = draw(st.integers(-1, d_out))  # -1: sigma_k = E_k(sigma)
        sigmas.append(ref.apply(kraus, np.ones(len(kraus)), sigma) if rank_k < 0
                      else _psd(rng, d_out, rank_k))
        omegas.append(np.stack([_psd(rng, d_out, draw(st.integers(1, d_out)))
                                for _ in range(ROWS)]))
    states = []
    for _ in range(ROWS):
        basis = support if draw(st.booleans()) else np.eye(d_in)
        m = basis.shape[1]
        states.append(basis @ _psd(rng, m, draw(st.integers(1, m))) @ basis.conj().T)
    states = np.stack(states)
    c = draw(st.floats(-1.0, 1.0))
    return q, chans, sigma, sigmas, c, states, omegas


def _datum(q, chans, sigma, sigmas, c):
    return BLDatum(q, [ch.Channel(k) for k in chans], op.PSDOperator(sigma),
                   [op.PSDOperator(s) for s in sigmas], c)


def _agree(got, want):
    if not np.isfinite(want):
        return got == want
    return abs(got - want) <= 1e-10 * max(1.0, abs(want))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problems())
def test_stacked_entropic_gap_matches_reference(problem):
    q, chans, sigma, sigmas, c, states, _ = problem
    gaps = entropic_gap(_datum(q, chans, sigma, sigmas, c), states)
    kraus = [(k, np.ones(len(k))) for k in chans]
    for got, rho in zip(gaps, states, strict=True):
        assert _agree(got, ref.entropic_gap(q, kraus, sigma, sigmas, c, rho))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problems())
def test_stacked_analytic_gap_matches_reference(problem):
    q, chans, sigma, sigmas, c, _, omegas = problem
    gaps = analytic_gap(_datum(q, chans, sigma, sigmas, c), omegas)
    kraus = [(k, np.ones(len(k))) for k in chans]
    for i, got in enumerate(gaps):
        want = ref.analytic_gap(q, kraus, sigma, sigmas, c, [om[i] for om in omegas])
        assert _agree(got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems())
def test_workspace_entropic_objective_matches_reference(problem):
    # on a datum without a leak, each state compressed to supp sigma (the
    # search space), the objective sum_k q_k D(E_k rho||sigma_k) - D(rho||sigma)
    # is C minus the reference gap at the lifted state
    q, chans, sigma, sigmas, c, states, _ = problem
    datum = _datum(q, chans, sigma, sigmas, c)
    assume(datum._leak is None)
    _, v, ws = datum._search_space()
    rhos = states if v is None else v.conj().T @ states @ v
    rhos = rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    objective = ws.entropic_objective(rhos)
    stepped, _ = ws.entropic_step(rhos, np.linalg.eigvalsh(rhos))
    kraus = [(k, np.ones(len(k))) for k in chans]
    for i, rho in enumerate(rhos):
        lifted = rho if v is None else v @ rho @ v.conj().T
        want = c - ref.entropic_gap(q, kraus, sigma, sigmas, c, lifted)
        assert _agree(objective[i], want)
        assert _agree(stepped[i], want)
