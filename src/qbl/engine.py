"""BL data, two-sided gap evaluation, and optimal-constant estimation.

A BLDatum bundles (q, channels, sigma, sigmas, C). The entropic gap checks
sum_k q_k D(E_k(rho)||sigma_k) <= D(rho||sigma) + C at a state rho; the
analytic gap checks the dual trace-exponential inequality at a tuple of
omega_k, in the log domain. The optimal constant is the same supremum seen
from either side; it is estimated independently from both, and agreement
of the two estimates is the duality cross-check.

Optimizers work on raw arrays, are vectorized across restarts, and search
a datum with singular sigma on supp sigma (_compress). A datum whose
E_k(sigma) leaks out of supp sigma_k has constant +inf and is reported as
such before any search.
Each estimator step eigendecomposes each iterate once. The batched
workspace applies all channels of a datum as one stacked linear map, one
matmul each way, and stacks the outputs E_k(rho) of equal dimension, so
a step takes one eigh per output dimension, not one per channel; the
matrix functions it applies are those of operators.

Both estimators run one search, a fixed-point loop over exponents followed
by an ascent. The loop iterates rho -> Gibbs(H) with
H = M + sum_k q_k E_k^dag(log E_k rho). A pass takes one eigh of the
proposed exponents, which gives the next states, and one eigh per output
dimension of the E_k(rho), which gives their entropic value and their
next exponents. The plain step is exponentiated-gradient ascent with step
1. The loop accelerates it by Anderson extrapolation of the exponent,
taken only where the entropic value does not drop, and takes the plain
step where a Gibbs spectrum reaches the support cut or a refused
extrapolation has cleared the restart's history. There the plain step is
over-relaxed: its step doubles while the value rises and falls back to 1
when it drops. Where an E_k(rho) is rank-deficient, its kernel eigenvalues
are rounding noise; the log floor of eigh_log, 1e-15 lambda_max, keeps
that noise out of the next exponent. The ascent then polishes every final
state over rho = XX^dag / tr XX^dag, which reaches the rank-deficient
states toward which the loop's exponent diverges, and evaluates the trial
steps of one backtracking round in a single batched call. The two sides
differ only in their random starts (states on the entropic side, the
Gibbs states of random omega tuples on the analytic side) and in how they
certify the winning state: the entropic side re-evaluates its value, the
analytic side re-evaluates exactly the omega tuple the duality proof pairs
with it. A cross-check searches both sides' restarts as one stack, one
loop and one ascent, and each side certifies the best row of its own
half. Every step acts on each row alone, so each side finds what a search
of its restarts alone finds, and both phases count their passes or
iterations per row: a side records the most any of its restarts took.

The work around the search goes per output dimension, not per channel.
The analytic side's starts draw the omega_k of one output dimension with
one random_density call and take their logs with one eigh_log. Its
certificate is one path: it takes the induced logs L_k once
(induced_logs: each channel applied on its own, the E_k(rho) of one
output dimension certified and their logs taken from that one eigh, every
eigenvalue lifted to eigh_log's floor of 1e-15 lambda_max), so each L_k
is one Hermitian matrix and each omega_k has full rank; analytic_gap
evaluates them, and the witness takes the omega_k of one output dimension
as the gibbs states of their L_k and certifies them, as one stack. Each gives, bit for bit, what one
channel at a time gives.

A datum with a consistent reference (tr sigma = 1, E_k(sigma) = sigma_k)
has a critical scale t*, the q scale up to which its constant is 0.
critical_scale finds it by Newton steps on C(t), the constant with q
scaled by t, each step one entropic search of the scaled datum, started
from the Kubo-Mori curvature limit of the ratio and warm-started from the
last step's winner. The contraction coefficient is 1/t* of dpi_datum.

The gap evaluators handle boundary supports exactly via the
support-projected logarithm machinery, and each takes one sample or a
stack of samples (one sample is a stack of one). Membership sampling
evaluates every valid datum one block of samples at a time, each block one
call of the exact evaluator of its form on the compressed datum, entropic
samples drawn on supp sigma: the analytic right-hand side is taken on supp
sigma_k (-inf for sigma_k = 0), and an entropic sample whose E_k(rho) leaks
out of supp sigma_k gets -inf. No sample is evaluated by a second path, and
the reported worst gap is the exact re-evaluation of the witness on the
datum itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Sequence

import numpy as np

from .channels import Channel, adjoint_on_flag, apply, apply_adjoint
from .entropy import INF, relative_entropy, supports_contained
from .errors import DimensionMismatch, Diverged, InvalidDatum, ZeroOperator
from .operators import (
    DensityOperator,
    PSDOperator,
    SupportLog,
    _log_mean,
    density_stack,
    eigh_log,
    floored_log,
    gibbs,
    hermitian_part,
    log_trace_exp_rows,
    matrix_log,
    psd_stack,
    sqrt_psd,
    support_log_stack,
    trace_prod,
    xlogx_sum,
)
from .policy import HERM_RTOL, SUPP_RTOL
from .sampling import blocks, draw, random_density

# the search stops iterating a restart once an iteration gains less than
# this
GAIN_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerBudget:
    """Restart/iteration budget shared by all searches."""

    restarts: int = 32
    max_iters: int = 500
    base_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"a search needs at least one restart, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"a search needs at least one iteration, got {self.max_iters}")

    def seeds(self) -> list[int]:
        return [self.base_seed + i for i in range(self.restarts)]


@dataclass(frozen=True)
class SamplerConfig:
    samples: int = 500
    seed: int = 0
    form: str = "entropic"  # entropic | analytic
    ensembles: tuple[str, ...] = ("hs", "pure", "boundary")

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"sampling needs at least one sample, got {self.samples}")


class BLDatum:
    """One BL inequality instance (q, channels, sigma, sigmas, C).

    On first use a datum computes and keeps its support-leak verdict
    (_support_leak) and its search space (_compress and the _Workspace),
    which both estimators and membership sampling share. It also keeps
    each side's search (_search), for the last budget and extra start
    states that side was searched at: a cross-check searches both sides'
    restarts as one stack, and each estimator then certifies its own
    side's winner. That is safe as their inputs do not change: the fields
    cannot be reassigned, q is a read-only copy, and channels and operators
    hold read-only arrays. What is kept never refers to the datum itself,
    so a dropped datum is freed without the cyclic garbage collector.
    """

    def __init__(
        self,
        q: Sequence[float],
        channels: Sequence[Channel],
        sigma: PSDOperator,
        sigmas: Sequence[PSDOperator],
        c: float = 0.0,
    ):
        self.q = np.array(q, dtype=float)
        self.q.setflags(write=False)
        self.channels = tuple(channels)
        self.sigma = sigma if isinstance(sigma, PSDOperator) else PSDOperator(sigma)
        self.sigmas = tuple(s if isinstance(s, PSDOperator) else PSDOperator(s) for s in sigmas)
        self.c = float(c)
        self._found: dict[str, tuple] = {}  # side: ((budget, starts' bytes), _search result)
        n = len(self.channels)
        if not (len(self.q) == len(self.sigmas) == n):
            raise DimensionMismatch("q, channels, sigmas must have equal length")
        if np.any(self.q <= 0):
            raise ValueError("all weights q_k must be positive")
        for k, (ch, sk) in enumerate(zip(self.channels, self.sigmas)):
            if ch.dim_in != self.sigma.dim:
                raise DimensionMismatch(f"channel {k}: dim_in {ch.dim_in} != dim(sigma)")
            if ch.dim_out != sk.dim:
                raise DimensionMismatch(f"channel {k}: dim_out {ch.dim_out} != dim(sigma_{k})")

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"BLDatum.{name} cannot be reassigned; build a new datum")
        super().__setattr__(name, value)

    @property
    def n(self) -> int:
        return len(self.channels)

    @property
    def dim(self) -> int:
        return self.sigma.dim

    @cached_property
    def _leak(self) -> int | None:
        return _support_leak(self)

    @cached_property
    def _space(self) -> tuple[BLDatum | None, np.ndarray | None, _Workspace]:
        inner, v = _compress(self)
        # None stands for this datum (positive definite sigma), not a cycle
        return (None if inner is self else inner), v, _Workspace(inner)

    def _search_space(self) -> tuple[BLDatum, np.ndarray | None, _Workspace]:
        """_compress(datum) and its _Workspace, built once."""
        inner, v, ws = self._space
        return (self if inner is None else inner), v, ws

    def with_constant(self, c: float) -> "BLDatum":
        return BLDatum(self.q, self.channels, self.sigma, self.sigmas, c)

    def __repr__(self):
        return f"BLDatum(n={self.n}, dim={self.dim}, q={self.q.tolist()}, c={self.c})"


def tensor_datum(d1: BLDatum, d2: BLDatum) -> BLDatum:
    """Product datum (E_k (x) F_k, sigma (x) sigma', ...) with C = C1 + C2."""
    from .channels import tensor as tensor_channel

    if d1.n != d2.n or not np.allclose(d1.q, d2.q):
        raise DimensionMismatch("tensorization needs matching n and q")
    chans = [tensor_channel(a, b) for a, b in zip(d1.channels, d2.channels)]
    sigma = PSDOperator(np.kron(d1.sigma.matrix, d2.sigma.matrix))
    sigmas = [PSDOperator(np.kron(a.matrix, b.matrix)) for a, b in zip(d1.sigmas, d2.sigmas)]
    return BLDatum(d1.q, chans, sigma, sigmas, d1.c + d2.c)


# ---------------------------------------------------------------------------
# Gap evaluators (exact support semantics)
# ---------------------------------------------------------------------------

def entropic_gap(datum: BLDatum, rho):
    """D(rho||sigma) + C - sum_k q_k D(E_k(rho)||sigma_k): a float for one
    state, an array for a stack (n, d, d) of states, one gap per row.

    Non-negative iff the entropic inequality holds at rho. Where
    D(rho||sigma) is +inf the inequality is vacuous and the gap is +inf;
    elsewhere, where some E_k(rho) leaks out of supp sigma_k, it is -inf.
    relative_entropy certifies the states, each normalized to unit trace,
    and each channel is applied to the whole stack.
    """
    mats = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    if mats.shape[-1] != datum.dim:
        raise DimensionMismatch(f"state dim {mats.shape[-1]} != datum dim {datum.dim}")
    d_ref = relative_entropy(rho, datum.sigma)
    total = d_ref + datum.c
    with np.errstate(invalid="ignore"):  # inf - inf where the gap is +inf
        for qk, ch, sk in zip(datum.q, datum.channels, datum.sigmas):
            total = total - qk * relative_entropy(apply(ch, mats), sk)
    gaps = np.where(d_ref == INF, INF, total)
    return gaps if mats.ndim == 3 else float(gaps)


def _omega_logs(om) -> tuple[np.ndarray, dict]:
    """The support-projected logs of one omega (a PSD operator or matrix,
    or a SupportLog, used as it is) or of a stack (n, d, d) of them: a
    stack of finite parts and the kernel flags {row: weight}."""
    if isinstance(om, PSDOperator):
        om = matrix_log(om)
    if isinstance(om, SupportLog):
        return om.finite[None], {} if om.weight is None else {0: om.weight}
    mats = np.asarray(om, dtype=complex)
    return support_log_stack(*psd_stack(mats[None] if mats.ndim == 2 else mats)[1:])


def analytic_gap(datum: BLDatum, omegas: Sequence):
    """log(RHS) - log(LHS) of the trace-exponential inequality at omegas:
    a float for one tuple, an array for K stacks (n, d_k, d_k) of omega_k,
    one gap per row.

    Computed in the log domain for stability; non-negative iff the
    analytic inequality holds at the given tuple. Each omega_k of one
    tuple may also be given by its support-projected logarithm (a
    SupportLog), which is then used as it is. The logs are pulled back
    with one apply_adjoint per channel, their kernel flags with
    adjoint_on_flag, and each side's trace-exponentials are one
    log_trace_exp_rows call per stack: the left-hand side headed by
    log sigma, each right-hand side term taken on supp sigma_k (-inf for
    sigma_k = 0).
    """
    if len(omegas) != datum.n:
        raise DimensionMismatch(f"expected {datum.n} omegas, got {len(omegas)}")
    stacked = all(np.ndim(o) == 3 for o in omegas)
    logs = [_omega_logs(o) for o in omegas]
    n = len(logs[0][0])
    for k, ((finite, _), ch) in enumerate(zip(logs, datum.channels)):
        if finite.shape != (n, ch.dim_out, ch.dim_out):
            raise DimensionMismatch(f"omega_{k} stack {finite.shape} != ({n}, {ch.dim_out}, {ch.dim_out})")
    pushed = np.stack([hermitian_part(apply_adjoint(ch, finite))
                       for ch, (finite, _) in zip(datum.channels, logs)], axis=1)
    flags = {r * datum.n + k: adjoint_on_flag(ch, w)
             for k, (ch, (_, fl)) in enumerate(zip(datum.channels, logs)) for r, w in fl.items()}
    log_lhs = log_trace_exp_rows(pushed, flags, matrix_log(datum.sigma))
    log_rhs = np.full(n, datum.c)
    for qk, sk, (finite, fl) in zip(datum.q, datum.sigmas, logs):
        if not sk.support_rank:
            log_rhs[:] = -INF
            continue
        # log tr exp(L_k / q_k + log sigma_k) on supp sigma_k
        scale = 1.0 / qk
        log_rhs = log_rhs + qk * log_trace_exp_rows(
            (scale * finite)[:, None], {r: scale * w for r, w in fl.items()}, matrix_log(sk))
    with np.errstate(invalid="ignore"):  # -inf - -inf: both sides vanish
        gaps = np.where((log_lhs == -INF) & (log_rhs == -INF), 0.0, log_rhs - log_lhs)
    return gaps if stacked else float(gaps[0])


# ---------------------------------------------------------------------------
# Fast batched evaluators on raw arrays
# ---------------------------------------------------------------------------

def _dim_groups(channels: Sequence[Channel]) -> list[tuple[int, list[int]]]:
    """The channel indices of each output dimension m, as (m, indices),
    ascending in m and, within m, in index."""
    dims = [ch.dim_out for ch in channels]
    order = sorted(range(len(dims)), key=dims.__getitem__)
    return [(m, list(ks)) for m, ks in groupby(order, key=dims.__getitem__)]


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, each row of a stack a (n, k) on its own: numpy sends a single
    row to gemv, whose rounding differs from gemm's, so a single row is
    multiplied as a stack of two. A row's product then does not depend on
    the rows stacked with it (the two sides of a cross-check)."""
    if a.ndim == 2 and len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


class _Workspace:
    """Precomputed arrays for a support-compatible datum with PD sigma
    (_compress); sigma_k = 0 has finite log 0.

    The datum's channels act as one stacked linear map on row-major
    vectorizations, ordered by output dimension so that the outputs of
    each dimension m form one contiguous block of columns: vec(rho) @
    forward holds vec(E_1 rho), ..., vec(E_n rho) side by side, read as
    one (..., g, m, m) stack per block, and Y @ adjoint maps the stacked
    vec(Y_k) to vec(sum_k E_k^dag(Y_k)).
    """

    def __init__(self, datum: BLDatum):
        self.q = datum.q
        self.dim = datum.dim
        self.groups = _dim_groups(datum.channels)
        self.order = [k for _, ks in self.groups for k in ks]
        self.forward = np.concatenate([datum.channels[k].transfer.T for k in self.order], axis=1)
        self.adjoint = np.ascontiguousarray(self.forward.conj().T)
        # per column, the weight q_k of the channel it belongs to
        self.weights = np.repeat(self.q[self.order],
                                 [datum.channels[k].dim_out ** 2 for k in self.order])
        # per output dimension m: its columns and the weights of its channels
        self.blocks = []
        start = 0
        for m, ks in self.groups:
            self.blocks.append((m, slice(start, start + len(ks) * m * m), self.q[ks]))
            start += len(ks) * m * m
        self.log_sigma = matrix_log(datum.sigma).finite
        # finite parts, support-projected
        log_sigmas = [matrix_log(sk).finite if sk.support_rank else np.zeros((sk.dim, sk.dim))
                      for sk in datum.sigmas]
        # M = log sigma - sum_k q_k E_k^dag(log sigma_k): the part of the
        # entropic objective linear in rho is tr(rho M)
        self.linear = self.log_sigma - self._pull_back(self._stacked(log_sigmas) * self.weights)

    # -- the stacked map ---------------------------------------------------
    def _stacked(self, mats: list[np.ndarray]) -> np.ndarray:
        """vec(X_1), ..., vec(X_n) side by side, in the map's column order."""
        return np.concatenate(
            [mats[k].reshape(*mats[k].shape[:-2], -1) for k in self.order], axis=-1
        )

    def _outputs(self, rhos: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """E_k(rho) for every k from one matmul: per output dimension m, the
        (..., g, m, m) stack of its outputs and the weights q_k of its g
        channels."""
        taus = _row_product(rhos.reshape(*rhos.shape[:-2], -1), self.forward)
        return [(taus[..., cols].reshape(*taus.shape[:-1], -1, m, m), qs)
                for m, cols, qs in self.blocks]

    def _pull_back(self, ys: np.ndarray) -> np.ndarray:
        """sum_k E_k^dag(Y_k) from the stacked vec(Y_k), in one matmul."""
        return _row_product(ys, self.adjoint).reshape(*ys.shape[:-1], self.dim, self.dim)

    # -- objectives ----------------------------------------------------
    def entropic_objective(self, rhos: np.ndarray) -> np.ndarray:
        """sum_k q_k D(E_k rho || sigma_k) - D(rho || sigma), batched:
        tr(rho M) - sum lambda log lambda + sum_k q_k sum lambda_k log lambda_k."""
        out = trace_prod(rhos, self.linear) - xlogx_sum(np.linalg.eigvalsh(rhos))
        for taus, qs in self._outputs(rhos):
            out = out + xlogx_sum(np.linalg.eigvalsh(taus)) @ qs
        return out

    def entropic_step(self, rhos: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entropic objective at states rho with spectra vals, and
        H = M + sum_k q_k E_k^dag(log E_k rho), from one eigh per output
        dimension (the E_k(rho) of equal dimension are one stack).

        H = log sigma + sum_k E_k^dag(q_k (log E_k rho - log sigma_k)) is
        the exponent whose Gibbs state is the next fixed-point iterate, and
        H - log rho is the Hermitian gradient of the objective in rho."""
        out = trace_prod(rhos, self.linear) - xlogx_sum(vals)
        logs = []
        for taus, qs in self._outputs(rhos):
            tvals, tlog = eigh_log(taus)
            out = out + xlogx_sum(tvals) @ qs
            logs.append(tlog.reshape(*tlog.shape[:-3], -1))
        return out, self.linear + self._pull_back(np.concatenate(logs, axis=-1) * self.weights)

    def entropic_value_grad(self, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entropic objective at states rho and its Hermitian gradient
        in rho, G = H - log rho = M + sum_k q_k E_k^dag(log E_k rho) - log rho."""
        vals, log_rho = eigh_log(rhos)
        out, h = self.entropic_step(rhos, vals)
        return out, h - log_rho

    def exponent(self, log_omegas: list[np.ndarray]) -> np.ndarray:
        """log sigma + sum_k E_k^dag(log w_k), batched over the leading axes
        the log_omegas[k] share."""
        return self.log_sigma + self._pull_back(self._stacked(log_omegas))


def _gram_states(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density matrices XX^dag / t with t = tr XX^dag, batched; X may be
    d x d (mixed states) or d x 1 (pure states)."""
    rho = xs @ xs.conj().swapaxes(-1, -2)
    t = np.maximum(np.trace(rho, axis1=-2, axis2=-1).real, 1e-300)
    return rho / t[..., None, None], t


def _x_value_grad(value_grad, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """value_grad at rho = XX^dag / t, t = tr XX^dag, with the Hermitian
    gradient G in rho pulled back to the gradient in X (real and imaginary
    parts as one complex array), (2/t)(G - tr(G rho)) X."""
    rhos, t = _gram_states(xs)
    vals, g = value_grad(rhos)
    gx = g @ xs - trace_prod(g, rhos)[..., None, None] * xs
    return vals, (2.0 / t)[..., None, None] * gx


# trial steps t, t/2, t/4 of one backtracking round, evaluated in one
# value_grad call: nearly every iteration accepts one of the first three
# trial steps, and a call's fixed cost is larger than the cost of a row
# (3 measured faster than 2 on both crosscheck workloads)
_LADDER = 3


def _ascent(value_grad, x0: np.ndarray, max_iters: int):
    """Vectorized multi-restart gradient ascent over rho = XX^dag / tr XX^dag
    with backtracking (Armijo) line search, each restart frozen once an
    iteration gains less than GAIN_TOL, or cannot gain it at its first
    trial step; X is d x d or d x 1, as x0 is.

    value_grad(rho) maps a stack of states (restarts on the first axis) to
    the objective values and their Hermitian gradients in rho, each row
    evaluated on its own. Each backtracking round evaluates the next _LADDER
    trial steps t, t/2, ... of every pending restart in one value_grad call
    and accepts the largest that passes the Armijo test. That is the step a
    search trying one step at a time accepts: at most 40 trial steps per
    iteration, none at or below 1e-13. Returns (values, parameters X,
    iterations), the iterations per restart those in which it was active;
    a restart with a start value that is not finite takes none. Every step
    acts on each row alone, so a row ends as it would in an ascent of its
    own.
    """
    x = np.array(x0, dtype=complex)
    fvals, grads = _x_value_grad(value_grad, x)
    axes = tuple(range(1, x.ndim))
    bcast = (slice(None),) + (None,) * (x.ndim - 1)
    rungs = np.arange(_LADDER)
    step = np.full(len(x), 0.25)
    active = np.isfinite(fvals)
    iters = np.zeros(len(x), dtype=int)
    for it in range(max_iters):
        if not active.any():
            break
        idx = np.where(active)[0]
        iters[idx] = it + 1
        f0 = fvals[idx]
        g = grads[idx]
        gn2 = np.sum(np.abs(g) ** 2, axis=axes)
        t = np.maximum(step[idx], 1e-10)
        tried = np.zeros(len(idx), dtype=int)
        # an iteration gains at most about t gn2: a restart that cannot gain
        # GAIN_TOL at its first trial step freezes without trying smaller ones
        pending = t * gn2 >= GAIN_TOL
        while pending.any():
            rows = np.where(pending)[0]
            ts = t[rows, None] * 0.5**rungs
            valid = (ts > 1e-13) & (tried[rows, None] + rungs < 40)
            r, j = np.nonzero(valid)
            trial = x[idx[rows[r]]] + ts[r, j][bcast] * g[rows[r]]
            ft, gt = _x_value_grad(value_grad, trial)
            ok = np.zeros(valid.shape, dtype=bool)
            ok[r, j] = ft > f0[rows[r]] + 1e-4 * ts[r, j] * gn2[rows[r]]
            hit = ok.any(axis=1)
            rung = np.argmax(ok, axis=1)  # the largest step that passed
            # each row's valid trials are a prefix of its rungs, stored
            # row after row
            counts = valid.sum(axis=1)
            acc, sel = rows[hit], (np.cumsum(counts) - counts + rung)[hit]
            x[idx[acc]] = trial[sel]
            fvals[idx[acc]] = ft[sel]
            grads[idx[acc]] = gt[sel]
            t[acc] = ts[hit, rung[hit]]
            pending[acc] = False
            miss, n = rows[~hit], counts[~hit]
            t[miss] *= 0.5**n
            tried[miss] += n
            pending[miss] = (t[miss] > 1e-13) & (tried[miss] < 40)
        step[idx] = np.clip(t * 2.0, 1e-12, 4.0)
        active[idx[fvals[idx] - f0 < GAIN_TOL]] = False
    return fvals, x, iters


# residual differences an Anderson step mixes: on acceptance datum 12 at
# its acceptance budget the best restart comes within 1e-9 of the constant
# after 18 passes with 3 (28 with 1, 15 with 4, 14 with 6), while the
# plain step, frozen on GAIN_TOL, stops 0.2% below it
_WINDOW = 3

# largest relaxation eta of the plain step: on the 20 acceptance-1 data at
# their budget the loop takes 1634 passes with 16 (1739 with 8, 1650 with
# 64; 4176 without relaxation)
_RELAX_CAP = 16.0


def _anderson_coefficients(dr: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row, the real gamma minimizing ||r - sum_j gamma_j dr[:, j]||
    over the _WINDOW differences dr (rows, _WINDOW, d, d), in the real
    inner product Re tr(a^dag b), a zero difference getting gamma_j = 0:
    the normal equations with a ridge of 1e-12 times their trace. A row
    without a finite solution gives nan."""
    rows = len(dr)
    flat = dr.reshape(rows, _WINDOW, -1).view(float)
    gram = flat @ flat.swapaxes(-1, -2)
    ridge = 1e-12 * gram.trace(axis1=1, axis2=2) + 1e-300
    gram.reshape(rows, -1)[:, :: _WINDOW + 1] += ridge[:, None]
    return np.linalg.solve(gram, flat @ r.reshape(rows, -1).view(float)[..., None])[..., 0]


def _fixed_point(ws: _Workspace, rhos: np.ndarray, vals: np.ndarray, max_iters: int):
    """Iterate rho -> Gibbs(H(rho)), H = M + sum_k q_k E_k^dag(log E_k rho),
    from the start states rhos with spectra vals, with safeguarded type-II
    Anderson acceleration in exponent space (Walker and Ni, SIAM J. Numer.
    Anal. 49, 2011).

    The plain step h <- H(Gibbs(h)) is exponentiated-gradient ascent with
    step 1 on the entropic objective F. Each restart keeps the differences
    of the residuals H - h (traceless, as real vectors) and of the
    exponents H over its last _WINDOW + 1 accepted iterates, and proposes H
    minus the combination of exponent differences whose residual
    differences best cancel its residual. Every iterate is valued by F,
    from the entropic_step that also gives its next exponent, so a pass
    takes one eigh of the proposed exponents and one per output dimension.

    A proposal is taken only if F does not drop. A refused Anderson step
    clears the restart's history: from its next pass it takes plain steps
    until its window is full again. A restart whose Gibbs spectrum has
    lambda_min below SUPP_RTOL lambda_max takes the plain step: toward a
    rank-deficient optimum the exponent diverges, and extrapolating it
    stalls.

    After the first pass, whose start states need not be Gibbs states, the
    plain step is over-relaxed (Matz and Duhamel, ITW 2004, read accelerated
    Blahut-Arimoto-type iterations so): each restart keeps the exponent h of
    its current iterate and a step eta, and proposes h + eta (H - h), the
    residual H - h taken traceless so that the exponent's trace does not
    grow with eta. An accepted plain step doubles eta, up to _RELAX_CAP; a
    refused plain step with eta > 1 resets it to 1 and the restart steps
    on. The restarts at the support cut and those refilling their window
    take plain steps, and there the step-1 iteration crawls. Where an
    E_k(rho) is rank-deficient its kernel eigenvalues are rounding noise;
    eigh_log floors them at 1e-15 lambda_max, above that noise, so the next
    exponent is not set by rounding (with the floor below it, the values of
    one restart on two roundings of the same map drifted 1e-6 apart within
    3 passes, and a relaxed step carries such a drift further).

    Stop rule: a restart stops once an accepted step gains less than
    GAIN_TOL, or a plain step at eta = 1 is refused. The live restarts are
    held in compact arrays, compacted when one stops. Returns, per restart,
    the last accepted state, its value F and the passes in which the
    restart was live; a restart with a start value that is not finite
    takes none. Every step acts on each row alone (Anderson coefficients,
    eta, stop rule, compaction), so a row ends as it would in a loop of
    its own.
    """
    f, g = ws.entropic_step(rhos, vals)
    end_rhos, end_f = np.array(rhos, dtype=complex), f
    passes = np.zeros(len(rhos), dtype=int)
    ids = np.flatnonzero(np.isfinite(f))
    d, live = ws.dim, len(ids)
    rho, f, g, vals = rhos[ids], f[ids], g[ids], vals[ids]
    # per restart: the current iterate's traceless residual and exponent,
    # and rings of the last _WINDOW differences of consecutive ones, unused
    # columns zero; all restarts write the same ring column
    r_last = np.zeros((live, d, d), dtype=complex)
    g_last = np.zeros((live, d, d), dtype=complex)
    dr = np.zeros((live, _WINDOW, d, d), dtype=complex)
    dg = np.zeros((live, _WINDOW, d, d), dtype=complex)
    col = 0
    # differences written since the last reset, and how many an Anderson
    # step needs; the first pass is plain and writes none, as its start
    # states need not be Gibbs states and so have no exponent
    depth = np.zeros(live, dtype=int)
    need = np.ones(live, dtype=int)
    ident = np.eye(d) / d
    # per restart: the exponent whose Gibbs state is the current iterate
    # (g stands in before the first pass, which is plain with eta 1) and
    # the plain step's relaxation eta
    h = g
    eta = np.ones(live)
    for it in range(max_iters):
        if not live:
            break
        passes[ids] = it + 1
        plain = (depth < need) | (vals[:, 0] < SUPP_RTOL * vals[:, -1])
        cand = g
        if not plain.all():
            gamma = _anderson_coefficients(dr, r_last)
            if not np.isfinite(gamma).all():
                plain |= ~np.isfinite(gamma).all(axis=1)
            if plain.any():
                gamma[plain] = 0.0
            mix = gamma[:, None, :] @ dg.reshape(live, _WINDOW, -1).view(float)
            cand = g - mix.view(complex).reshape(g.shape)
        relax = plain & (eta > 1.0)
        if relax.any():
            # h + eta (H - h) up to the identity: the traceless residual
            # r_last = H - h keeps the exponent's trace from growing
            cand = np.where(relax[:, None, None], h + eta[:, None, None] * r_last, cand)
        nxt, nvals, _ = gibbs(cand)
        fnew, gnew = ws.entropic_step(nxt, nvals)
        res = gnew - cand
        res -= res.trace(axis1=1, axis2=2)[:, None, None] * ident
        ok = fnew >= f  # false on nan
        stop = np.where(ok, fnew - f < GAIN_TOL, plain & ~relax)
        if it:
            eta = np.where(plain, np.where(ok, np.minimum(2.0 * eta, _RELAX_CAP), 1.0), eta)
        if ok.all():
            rho, vals, g, f, h = nxt, nvals, gnew, fnew, cand
            if it:
                dr[:, col], dg[:, col] = res - r_last, gnew - g_last
                depth += 1
            r_last, g_last = res, gnew
        else:
            sel = ok[:, None, None]
            rho = np.where(sel, nxt, rho)
            vals = np.where(ok[:, None], nvals, vals)
            g = np.where(sel, gnew, g)
            f = np.where(ok, fnew, f)
            h = np.where(sel, cand, h)
            if it:
                dr[:, col] = np.where(sel, res - r_last, 0.0)
                dg[:, col] = np.where(sel, gnew - g_last, 0.0)
            dr[~ok], dg[~ok] = 0.0, 0.0
            need[~ok & ~plain] = _WINDOW
            depth = np.where(ok, depth + (it > 0), 0)
            r_last = np.where(sel, res, r_last)
            g_last = np.where(sel, gnew, g_last)
        col = (col + 1) % _WINDOW
        if stop.any():
            done, keep = ids[stop], ~stop
            end_rhos[done], end_f[done] = rho[stop], f[stop]
            ids, rho, f, g, vals = ids[keep], rho[keep], f[keep], g[keep], vals[keep]
            r_last, g_last, dr, dg = r_last[keep], g_last[keep], dr[keep], dg[keep]
            depth, need, h, eta = depth[keep], need[keep], h[keep], eta[keep]
            live = len(ids)
    end_rhos[ids], end_f[ids] = rho, f
    return end_rhos, end_f, passes


@dataclass
class OptimizationResult:
    """A search's estimate, witness and record: the most fixed-point passes
    and the most ascent iterations any of its restarts took (recorded for
    callers and tests; the CLI does not print them)."""

    value: float
    witness: list[np.ndarray]
    method: str
    restart_seeds: list[int] = field(default_factory=list)
    loop_passes: int = 0
    ascent_iters: int = 0


def _initial_states(d: int, seeds: list[int]) -> np.ndarray:
    kinds = [("hs", "pure", "boundary")[i % 3] for i in range(len(seeds))]
    return random_density(d, [np.random.default_rng(s) for s in seeds], kinds)


def _support_leak(datum: BLDatum) -> int | None:
    """Index of the first k with supp E_k(sigma) not inside supp sigma_k,
    or None. Such a datum has optimal constant +inf: at rho = sigma / tr
    sigma the left-hand side D(E_k(rho) || sigma_k) is already infinite.
    Nothing leaks out of a sigma_k of full support, which is not checked."""
    for k, (ch, sk) in enumerate(zip(datum.channels, datum.sigmas)):
        if sk.support_rank == sk.dim:
            continue
        image = PSDOperator(apply(ch, datum.sigma.matrix))
        if not supports_contained(image, sk):
            return k
    return None


def _compress(datum: BLDatum) -> tuple[BLDatum, np.ndarray | None]:
    """(datum, None) for PD sigma; else the datum on supp sigma (Kraus
    operators K V, V^dag sigma V, the same sigma_k, q and C) and the support
    basis V of sigma. A state off supp sigma has D(rho||sigma) = +inf, and
    log sigma confines the trace-exponential to supp sigma: both data have
    the same constant and gaps, rho on the first being V rho V^dag (_lift)."""
    sigma = datum.sigma
    if sigma.support_rank == sigma.dim:
        return datum, None
    if sigma.support_rank == 0:
        raise ZeroOperator("sigma is the zero operator: no state has finite D(rho||sigma)")
    v = sigma.support_basis()
    chans = [Channel(ch.kraus @ v, ch.label, ch.allow_positive_only, ch.signs)
             for ch in datum.channels]
    inner = np.diag(sigma.eigenvalues[sigma.eigenvalues > sigma.eps_supp])
    return BLDatum(datum.q, chans, inner, datum.sigmas, datum.c), v


def _lift(v: np.ndarray | None, rho: np.ndarray) -> np.ndarray:
    """A state of the compressed datum as a state of the datum: V rho V^dag."""
    return rho if v is None else v @ rho @ v.conj().T


def _start_states(side: str, inner: BLDatum, ws: _Workspace, seeds: list[int]):
    """A side's random starts and their spectra: random states on the
    entropic side, the Gibbs states of random omega tuples on the analytic
    side. omega_k of restart seed s is drawn from default_rng(s 1000003 + k);
    the omegas of one output dimension are drawn, and their logarithms
    taken, as one stack."""
    if side == "entropic":
        rhos = _initial_states(inner.dim, seeds)
        return rhos, np.linalg.eigvalsh(rhos)
    kinds = [("hs", "boundary")[i % 2] for i in range(len(seeds))]
    logs = [None] * inner.n
    for m, ks in ws.groups:
        # the omega_k of every channel k of output dimension m, channel after
        # channel, from one draw and one eigh_log
        rngs = [np.random.default_rng(s * 1000003 + k) for k in ks for s in seeds]
        omegas = random_density(m, rngs, kinds * len(ks))
        for k, log_om in zip(ks, eigh_log(omegas)[1].reshape(len(ks), len(seeds), m, m)):
            logs[k] = log_om
    return gibbs(ws.exponent(logs))[:2]


def _search(datum: BLDatum, budget: OptimizerBudget, *sides: str,
            starts: np.ndarray | None = None) -> list[tuple]:
    """The search of both estimators on a datum that does not leak: the
    accelerated fixed-point loop from each side's random starts, followed
    by the given extra start states (a stack of states on the compressed
    datum), then the exact-gradient ascent from every restart's final
    state. The sides not yet kept on the datum for this budget and these
    starts go as one stack, in the order given, through one loop and one
    ascent, each side on its own consecutive rows. Both act on each row
    alone, so each side finds what a search of its rows alone does. Each
    ascent row starts at a loop end state and accepts only rises, so a
    side's best row is its estimate. Returns, per side, the best entropic
    value, its state on the compressed datum, and the most loop passes and
    ascent iterations any of its rows took."""
    key = (budget, None if starts is None else starts.tobytes())
    todo = [side for side in sides if datum._found.get(side, (None,))[0] != key]
    if todo:
        inner, _, ws = datum._search_space()
        found = [_start_states(side, inner, ws, budget.seeds()) for side in todo]
        if starts is not None:
            extra = np.linalg.eigvalsh(starts)
            found = [(np.concatenate([r, starts]), np.concatenate([v, extra])) for r, v in found]
        rhos, vals = (np.concatenate(a) for a in zip(*found))
        fp_rhos, fp_vals, passes = _fixed_point(ws, rhos, vals, budget.max_iters)
        n = len(rhos) // len(todo)
        rows = [slice(i * n, (i + 1) * n) for i in range(len(todo))]
        if any(not np.isfinite(fp_vals[r]).any() for r in rows):
            raise Diverged("all fixed-point restarts left the support cone")
        fvals, xs, iters = _ascent(ws.entropic_value_grad, sqrt_psd(fp_rhos), budget.max_iters)
        for side, r in zip(todo, rows):
            part = fvals[r]
            i = r.start + int(np.argmax(np.where(np.isfinite(part), part, -np.inf)))
            rho = hermitian_part(_gram_states(xs[i])[0])
            datum._found[side] = (key, (float(fvals[i]), rho,
                                        int(passes[r].max()), int(iters[r].max())))
    return [datum._found[side][1] for side in sides]


def optimal_constant_entropic(
    datum: BLDatum, budget: OptimizerBudget = OptimizerBudget()
) -> tuple[float, DensityOperator, OptimizationResult]:
    """Estimate sup_rho [sum q_k D(E_k rho||sigma_k) - D(rho||sigma)].

    Runs the search (_search) from random states: the accelerated
    fixed-point loop, each restart frozen once a step gains less than
    GAIN_TOL, then the exact-gradient ascent over rho = XX^dag / tr XX^dag
    from every restart's final state, which reaches the rank-deficient
    optima where the loop's plain step crawls. A cross-check has already
    searched these restarts in one stack with the analytic side's, and this
    side's half is read from the datum. Returns the best value found,
    checked to 1e-8 against the workspace objective at its witness state,
    the witness and the search record. The estimate is a lower bound on the
    true optimal constant. A datum whose E_k(sigma) leaks out of supp
    sigma_k has constant +inf, witnessed by sigma / tr sigma.
    """
    seeds = budget.seeds()
    if datum._leak is not None:
        witness = DensityOperator(datum.sigma.matrix)
        return INF, witness, OptimizationResult(INF, [witness.matrix], "support_leak", seeds)
    _, v, ws = datum._search_space()
    best_val, rho, *counts = _search(datum, budget, "entropic")[0]
    check = float(ws.entropic_objective(rho[None])[0])
    if not np.isfinite(check) or abs(check - best_val) > 1e-8:
        raise Diverged(f"witness re-evaluation drifted: {check} vs {best_val}")
    witness = DensityOperator(_lift(v, rho))
    result = OptimizationResult(best_val, [witness.matrix], "fixed_point+ascent", seeds, *counts)
    return best_val, witness, result


def _by_output_dim(datum: BLDatum, stacked, items: list) -> list:
    """stacked, a function of a list of items, applied to the items of each
    output dimension as one list; its results back in channel order."""
    out = [None] * datum.n
    for _, ks in _dim_groups(datum.channels):
        for k, res in zip(ks, stacked([items[k] for k in ks])):
            out[k] = res
    return out


def induced_logs(datum: BLDatum, rho) -> list[SupportLog]:
    """The logarithms L_k = q_k (log E_k(rho) - log sigma_k) of the omega
    tuple the duality proof pairs with a state rho, each one Hermitian
    matrix with no kernel flag. log E_k(rho) is floored_log of its spectrum:
    every eigenvalue is lifted to eigh_log's floor, 1e-15 lambda_max, so a
    rank of E_k(rho) just under the support cut still carries its value.
    Each channel is applied on its own; the E_k(rho) of one output
    dimension are certified, and their logs taken, from one eigh."""
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    taus = [apply(ch, rho) for ch in datum.channels]
    lts = _by_output_dim(datum, lambda mats: floored_log(*density_stack(mats)[1:]), taus)
    return [SupportLog(hermitian_part(lt) - matrix_log(sk).finite).scaled(qk)
            for lt, sk, qk in zip(lts, datum.sigmas, datum.q)]


def induced_analytic_witness(datum: BLDatum, logs) -> list[DensityOperator]:
    """The omega tuple the duality proof pairs with a state rho:
    omega_k = exp(L_k) / tr exp(L_k), the gibbs state of the induced_logs
    L_k (given, or taken here from rho), that is [exp(log E_k(rho) - log
    sigma_k)]^(q_k) normalized, each of full rank. gibbs shifts L_k by its
    top eigenvalue, so a large L_k does not overflow. The L_k carry no
    kernel flag; one that does raises ValueError.

    Evaluating the analytic objective at this tuple is always >= the
    entropic objective at rho. The L_k of one output dimension are
    exponentiated, and the omega_k of one output dimension certified, as
    one stack.
    """
    if not (isinstance(logs, list) and all(isinstance(lk, SupportLog) for lk in logs)):
        logs = induced_logs(datum, logs)
    if any(lk.has_kernel for lk in logs):
        raise ValueError("an induced log flags a kernel")
    return _by_output_dim(datum, lambda lks: DensityOperator.from_stack(
        *density_stack(gibbs(np.stack([lk.finite for lk in lks]))[0])), logs)


def _leak_witness(datum: BLDatum, k: int) -> list[DensityOperator]:
    """Analytic witness of an infinite constant: omega_k maximally mixed on
    ker sigma_k (the direction E_k(sigma) leaks into), every other omega_j
    maximally mixed. The right-hand side then vanishes; the gap is -inf
    whenever some input state is mapped by E_k into ker sigma_k, and the
    supremum is otherwise approached only in a limit."""
    out = []
    for j, sj in enumerate(datum.sigmas):
        if j == k:
            v = sj.eigenvectors[:, sj.eigenvalues <= sj.eps_supp]
            out.append(DensityOperator(v @ v.conj().T))
        else:
            out.append(DensityOperator(np.eye(sj.dim)))
    return out


def optimal_constant_analytic(
    datum: BLDatum, budget: OptimizerBudget = OptimizerBudget()
) -> tuple[float, list[DensityOperator], OptimizationResult]:
    """Estimate the optimal constant from the analytic side, multi-started.

    Runs the entropic side's search (_search: fixed-point loop, then
    ascent) from the Gibbs states of random omega tuples; after a
    cross-check, this side's half of its stacked search is read from the
    datum. The witness is the tuple the duality proof pairs with the best
    final state rho, omega_k ~ exp(L_k) with L_k = q_k (log E_k(rho) -
    log sigma_k) (induced_logs: every eigenvalue of E_k(rho) floored at
    1e-15 lambda_max, so each omega_k has full rank). The reported constant
    is the exact re-evaluation (analytic_gap at C = 0) of the logs L_k, a
    certified lower bound: the analytic value of the induced tuple is at
    least the entropic value at rho. A datum whose E_k(sigma) leaks out of
    supp sigma_k has constant +inf.
    """
    seeds = budget.seeds()
    leak = datum._leak
    if leak is not None:
        witness = _leak_witness(datum, leak)
        return INF, witness, OptimizationResult(
            INF, [w.matrix for w in witness], "support_leak", seeds
        )
    _, v, _ = datum._search_space()
    _, rho, *counts = _search(datum, budget, "analytic")[0]
    try:
        logs = induced_logs(datum, _lift(v, rho))
        best_val = -analytic_gap(datum.with_constant(0.0), logs)
        witness = induced_analytic_witness(datum, logs)
    except ValueError as exc:
        raise Diverged(f"cannot build the induced analytic witness: {exc}") from exc
    result = OptimizationResult(
        float(best_val), [w.matrix for w in witness], "fixed_point+ascent", seeds, *counts
    )
    return float(best_val), witness, result


@dataclass
class DualityReport:
    c_entropic: float
    c_analytic: float
    tol: float
    agree: bool
    witness_entropic: np.ndarray
    witness_analytic: list[np.ndarray]
    seeds: list[int]

    def to_dict(self) -> dict:
        from .serialization import encode_matrix

        return {
            "c_entropic": self.c_entropic,
            "c_analytic": self.c_analytic,
            "tol": self.tol,
            "agree": self.agree,
            "witness_entropic": encode_matrix(self.witness_entropic),
            "witness_analytic": [encode_matrix(w) for w in self.witness_analytic],
            "seeds": list(self.seeds),
            "units": "nats",
        }


def agreement_tol(c: float) -> float:
    """How far the entropic and analytic estimates of a constant c may lie
    apart and still agree: 1e-4 nats, or 1e-3 |c| when that is larger."""
    return max(1e-4, 1e-3 * abs(c)) if np.isfinite(c) else 1e-4


def duality_crosscheck(
    datum: BLDatum, budget: OptimizerBudget = OptimizerBudget()
) -> DualityReport:
    """Estimate the optimal constant from both forms and compare.

    Both sides' restarts are searched as one stack (_search), the entropic
    side's random states first, then the analytic side's Gibbs states; each
    estimator then certifies the best row of its own half, exactly as a
    lone call does. The duality theorem makes the two suprema equal, so
    disagreement beyond tol flags an optimizer or evaluator defect. Failure
    is a report verdict, not an exception.
    """
    if datum._leak is None:
        _search(datum, budget, "entropic", "analytic")
    c_ent, w_ent, _ = optimal_constant_entropic(datum, budget)
    c_ana, w_ana, _ = optimal_constant_analytic(datum, budget)
    tol = agreement_tol(c_ent)
    return DualityReport(
        c_entropic=c_ent,
        c_analytic=c_ana,
        tol=tol,
        agree=bool(c_ent == c_ana or abs(c_ent - c_ana) <= tol),
        witness_entropic=w_ent.matrix,
        witness_analytic=[w.matrix for w in w_ana],
        seeds=budget.seeds(),
    )


def _curvature_limit(datum: BLDatum) -> float:
    """The rho -> sigma limit of the ratio: the top generalized eigenvalue,
    over traceless directions x, of the Kubo-Mori forms (the curvatures of
    the relative entropies) sum_k q_k <E_k x, E_k x>_{sigma_k} against
    <x, x>_sigma, each output form taken on supp sigma_k, where E_k x lives.
    In the matrix units of sigma's eigenbasis the input form is diagonal
    (_log_mean of sigma's spectrum), so it is whitened by a division. The
    top eigenvalue, sum_k q_k, belongs to sigma (the E_k preserve the
    trace), and the traceless matrices are exactly its complement in the
    input form, so the limit is the second-largest."""
    vals, vecs = datum.sigma.eigenvalues, datum.sigma.eigenvectors
    units = np.kron(vecs, vecs.conj())  # column (i, j): vec(v_i v_j^dag), row-major
    form = 0.0
    for qk, ch, sk in zip(datum.q, datum.channels, datum.sigmas):
        keep = sk.eigenvalues > sk.eps_supp
        w = sk.eigenvectors[:, keep]
        # vec(W^dag E_k(X) W) = (W^dag (x) W^T) S_k vec(X)
        tilted = np.kron(w.conj().T, w.T) @ ch.transfer @ units
        form = form + qk * (tilted.conj().T * _log_mean(sk.eigenvalues[keep]).ravel()) @ tilted
    scale = 1.0 / np.sqrt(_log_mean(vals).ravel())
    return float(np.linalg.eigvalsh(scale[:, None] * form * scale)[-2])


def critical_scale(datum: BLDatum, budget: OptimizerBudget = OptimizerBudget()) -> float:
    """t* = inf_rho D(rho||sigma) / S(rho), S(rho) = sum_k q_k D(E_k rho||sigma_k):
    with every q_k scaled by t, C(t) = sup_rho [t S(rho) - D(rho||sigma)]
    is 0 exactly for t <= t*.

    Newton steps on the convex C(t) from t_0 = 1 / _curvature_limit >= t*
    (Dinkelbach's method, Management Science 13, 1967). Step n runs the
    entropic search (_search) of the datum with q scaled by t_n, from its
    random starts and the winner of step n - 1, and returns t_n once
    C(t_n) <= GAIN_TOL. Otherwise its winner rho_n has S = (C + D) / t_n
    with D = D(rho_n||sigma), and t_{n+1} = D / S < t_n is the exact ratio
    of a state, an upper bound on t*. The steps also stop when t falls by
    less than GAIN_TOL t, and after budget.max_iters steps. inf when the
    limit is 0: every E_k is then constant on traceless inputs, so S = 0.
    InvalidDatum unless sigma is positive definite with trace 1 and each
    E_k(sigma) is sigma_k within HERM_RTOL max(1, max |sigma_k entry|).
    """
    sigma = datum.sigma
    if sigma.support_rank < sigma.dim or abs(np.trace(sigma.matrix).real - 1.0) > HERM_RTOL:
        raise InvalidDatum("a critical scale needs a positive definite sigma of trace 1")
    for k, (ch, sk) in enumerate(zip(datum.channels, datum.sigmas)):
        dev = np.max(np.abs(apply(ch, sigma.matrix) - sk.matrix))
        if dev > HERM_RTOL * max(1.0, np.max(np.abs(sk.matrix))):
            raise InvalidDatum(f"sigma_{k} differs from E_{k}(sigma) by {dev:.3e}")
    limit = _curvature_limit(datum)
    if limit <= 0.0:
        return INF
    t, starts = 1.0 / limit, None
    for _ in range(budget.max_iters):
        scaled = BLDatum(t * datum.q, datum.channels, sigma, datum.sigmas, 0.0)
        c, rho = _search(scaled, budget, "entropic", starts=starts)[0][:2]
        if c <= GAIN_TOL:
            break
        d = relative_entropy(DensityOperator(rho), sigma)
        last, t, starts = t, t * d / (c + d), rho[None]
        if last - t < GAIN_TOL * last:
            break
    return t


@dataclass
class VerificationReport:
    """Outcome of sampling one inequality form over an ensemble."""

    form: str
    worst_gap: float
    witness: list[np.ndarray]
    samples: int
    verdict: str = "holds_on_samples"

    def to_dict(self) -> dict:
        from .serialization import encode_matrix

        return {
            "form": self.form,
            "worst_gap": self.worst_gap,
            "witness": [encode_matrix(w) for w in self.witness],
            "samples": self.samples,
            "verdict": self.verdict,
        }


def reevaluate_report(datum: BLDatum, report: VerificationReport) -> float:
    """Recompute the gap at the stored witness (report integrity check)."""
    if report.form == "entropic":
        return entropic_gap(datum, report.witness[0])
    return analytic_gap(datum, report.witness)


def bl_membership(datum: BLDatum, config: SamplerConfig = SamplerConfig()) -> VerificationReport:
    """Sample one form of the inequality and report the worst gap seen.

    The witness is the sample of the first strict minimum over the
    samples' gaps; a nan gap is never selected. The samples come in blocks
    sized by the largest matrix dimension of the compressed datum, input or
    output (sampling.blocks), and each block is one call of the exact
    evaluator of its form (entropic_gap on a stack of states, analytic_gap
    on K stacks of omega_k) on the compressed datum (_compress), singular
    sigma and sigma_k included: entropic samples are drawn on supp sigma
    and the witness is lifted back. The reported worst gap is the exact
    re-evaluation of the witness on the datum (reevaluate_report), and the
    verdict follows from it.
    """
    if config.form not in ("entropic", "analytic"):
        raise ValueError(f"unknown form {config.form!r}")
    rng = np.random.default_rng(config.seed)
    inner, v, _ = datum._search_space()
    worst = INF
    witness: list[np.ndarray] = []
    ensembles = config.ensembles
    start = 0
    for m in blocks(config.samples, max([inner.dim] + [ch.dim_out for ch in inner.channels])):
        kinds = [ensembles[i % len(ensembles)] for i in range(start, start + m)]
        start += m
        if config.form == "entropic":
            samples = [random_density(inner.dim, rng, kinds)]
            gaps = entropic_gap(inner, samples[0])
        else:  # full-support omegas only: "pure" draws "hs"
            n = len(datum.channels)
            flat = draw(rng, [("hs" if kind == "pure" else kind, ch.dim_out)
                              for kind in kinds for ch in datum.channels])
            samples = [np.stack(flat[k::n]) for k in range(n)]
            gaps = analytic_gap(inner, samples)
        below = np.where(gaps < worst, gaps, INF)  # nan compares false
        i = int(np.argmin(below))
        if below[i] < worst:
            worst = float(below[i])
            witness = [stack[i] for stack in samples]
    if v is not None and config.form == "entropic" and witness:
        witness = [_lift(v, witness[0])]
    report = VerificationReport(config.form, worst, witness, config.samples)
    if witness:
        report.worst_gap = float(reevaluate_report(datum, report))
    report.verdict = "holds_on_samples" if report.worst_gap >= -1e-9 else "violated"
    return report


@dataclass
class TensorizationReport:
    worst_gap: float
    constant_product: float
    constant_estimate: float
    verdict: str
    witness: np.ndarray

    def to_dict(self) -> dict:
        from .serialization import encode_matrix

        return {
            "worst_gap": self.worst_gap,
            "constant_product": self.constant_product,
            "constant_estimate": self.constant_estimate,
            "verdict": self.verdict,
            "witness": encode_matrix(self.witness),
            "units": "nats",
        }


def tensorization_check(
    d1: BLDatum,
    d2: BLDatum,
    budget: OptimizerBudget = OptimizerBudget(),
    samples: int = 200,
) -> TensorizationReport:
    """Probe whether (q, C1 + C2) survives tensoring the two data.

    Searches entangled witnesses on the product space: random sampling of
    the entropic gap plus the optimal-constant search. A negative worst
    gap certifies tensorization failure for the combined constant.
    """
    prod = tensor_datum(d1, d2)
    rep = bl_membership(
        prod, SamplerConfig(samples=samples, seed=budget.base_seed, form="entropic")
    )
    c_est, w_opt, _ = optimal_constant_entropic(prod, budget)
    gap_opt = prod.c - c_est
    if gap_opt < rep.worst_gap:
        worst, witness = gap_opt, w_opt.matrix
    else:
        worst, witness = rep.worst_gap, rep.witness[0]
    verdict = "tensorizes_on_samples" if worst >= -1e-8 else "violated"
    return TensorizationReport(
        worst_gap=float(worst),
        constant_product=prod.c,
        constant_estimate=float(c_est),
        verdict=verdict,
        witness=witness,
    )
