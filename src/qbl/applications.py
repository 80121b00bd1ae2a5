"""Prebuilt data and checkers for the worked applications.

Covers generalized sub-additivity (Shearer / Loomis-Whitney and the
conditional variant), entropic uncertainty relations (two-basis and
three-Pauli), minimum output entropy, data processing and its
multiplicative strengthening, and super-additivity of relative entropy.

Uncertainty quantities are reported in bits (the usual convention for
those relations); everything else is in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entropy
from .channels import (
    Channel,
    _pinching,
    adjoint_on_flag,
    apply,
    apply_adjoint,
    basis_rows,
    identity_channel,
    measurement_channel,
    partial_trace,
    pauli_basis,
    ptrace,
)
from .engine import (
    BLDatum,
    OptimizerBudget,
    SamplerConfig,
    bl_membership,
    critical_scale,
    duality_crosscheck,
    optimal_constant_analytic,
    optimal_constant_entropic,
)
from .errors import (
    CoverViolation,
    DimensionMismatch,
    Diverged,
    InvalidEta,
    SingularMarginal,
)
from .operators import (
    DensityOperator,
    PSDOperator,
    density_stack,
    from_spectrum,
    hermitian_part,
    identity,
    lieb_triple_integral,
    matrix_log,
    psd_stack,
    support_log_stack,
    trace_exp_rows,
    weighted_antinorm,
    xlogx_sum,
)
from .policy import PSD_SLACK

LN2 = float(np.log(2.0))


def binary_entropy(x: float) -> float:
    """h(x) = -x ln x - (1-x) ln(1-x) in nats."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log(x) - (1.0 - x) * np.log(1.0 - x))


# ---------------------------------------------------------------------------
# Shearer / Loomis-Whitney
# ---------------------------------------------------------------------------

def shearer_datum(dims: Sequence[int], subsets: Sequence[Sequence[int]], p: int) -> BLDatum:
    """BL datum for the generalized sub-additivity inequality.

    Channels are partial traces onto the subsets, q_k = 1/p, both
    reference operators are (unnormalized) identities, and C = 0. Valid
    whenever every site belongs to at least p of the subsets.
    """
    dims = [int(d) for d in dims]
    m = len(dims)
    if p < 1:
        raise CoverViolation(f"cover multiplicity must be >= 1, got {p}")
    counts = _cover_counts(m, subsets)
    short = [s for s, c in enumerate(counts) if c < p]
    if short:
        raise CoverViolation(f"sites {short} belong to fewer than p={p} subsets")
    chans = [partial_trace(dims, sorted(sub)) for sub in subsets]
    sigma = identity(int(np.prod(dims)))
    sigmas = [identity(ch.dim_out) for ch in chans]
    return BLDatum([1.0 / p] * len(subsets), chans, sigma, sigmas, 0.0)


@dataclass
class ConditionalShearerReport:
    gap: float  # (1/p) sum_k H(A_Sk|B) - H(A_[m]|B), in nats
    conditional_total: float
    conditional_terms: list[float]
    holds: bool


def _conditional_shearer_gap(
    rho, dims: Sequence[int], subsets: Sequence[Sequence[int]], p: int
) -> ConditionalShearerReport:
    dims = [int(d) for d in dims]
    m = len(dims) - 1  # sites 0..m-1, conditioning system is index m
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    mat = rho.matrix
    hb = entropy.von_neumann(DensityOperator(ptrace(mat, dims, [m])))

    def cond_entropy(sites: list[int]) -> float:
        keep = sorted(sites) + [m]
        sub_rho = DensityOperator(ptrace(mat, dims, keep))
        return entropy.von_neumann(sub_rho) - hb

    total = cond_entropy(list(range(m)))
    terms = [cond_entropy(list(sub)) for sub in subsets]
    gap = sum(terms) / p - total
    return ConditionalShearerReport(
        gap=float(gap),
        conditional_total=float(total),
        conditional_terms=[float(t) for t in terms],
        holds=bool(gap >= -1e-9),
    )


def _cover_counts(m: int, subsets: Sequence[Sequence[int]]) -> list[int]:
    counts = [0] * m
    for sub in subsets:
        for s in sub:
            counts[s] += 1
    return counts


def conditional_shearer_check(
    rho, dims: Sequence[int], subsets: Sequence[Sequence[int]], p: int
) -> ConditionalShearerReport:
    """Check the side-information variant on one state.

    The last subsystem is the conditioning system B. Requires an exact
    cover: every site in exactly p subsets. An at-least cover is not
    enough here (see conditional_shearer_probe for a demonstration).
    """
    counts = _cover_counts(len(dims) - 1, subsets)
    wrong = [s for s, c in enumerate(counts) if c != p]
    if wrong:
        raise CoverViolation(f"sites {wrong} are not covered exactly p={p} times")
    return _conditional_shearer_gap(rho, dims, subsets, p)


def conditional_shearer_probe(
    rho, dims: Sequence[int], subsets: Sequence[Sequence[int]], p: int
) -> ConditionalShearerReport:
    """Evaluate the conditional inequality without the exact-cover guard.

    Only the at-least cover of the unconditional statement is enforced;
    this is the probe that shows why the conditional version needs the
    stronger hypothesis (maximally entangled site-B pairs break it)."""
    counts = _cover_counts(len(dims) - 1, subsets)
    short = [s for s, c in enumerate(counts) if c < p]
    if short:
        raise CoverViolation(f"sites {short} belong to fewer than p={p} subsets")
    return _conditional_shearer_gap(rho, dims, subsets, p)


# ---------------------------------------------------------------------------
# Entropic uncertainty relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False)
class BasisPair:
    """Two orthonormal bases of one space, validated once: their rows
    (channels.basis_rows, read-only) and their Maassen-Uffink constant, the
    largest squared overlap c = max |<x|z>|^2. NotOrthonormal for a family
    that is no basis, DimensionMismatch for bases of different dimensions.
    A qbl verify call builds one pair for all of its samples."""

    rows_x: np.ndarray
    rows_z: np.ndarray
    c: float

    def __init__(self, basis_x: Sequence[np.ndarray], basis_z: Sequence[np.ndarray]):
        rows_x, rows_z = basis_rows(basis_x), basis_rows(basis_z)
        c = _max_overlap(rows_x, rows_z)
        rows_x.setflags(write=False)
        rows_z.setflags(write=False)
        for name, value in (("rows_x", rows_x), ("rows_z", rows_z), ("c", c)):
            object.__setattr__(self, name, value)


def maassen_uffink_constant(basis_x: Sequence[np.ndarray], basis_z: Sequence[np.ndarray]) -> float:
    """Largest squared overlap c = max |<x|z>|^2 between two bases."""
    return BasisPair(basis_x, basis_z).c


def _max_overlap(vx: np.ndarray, vz: np.ndarray) -> float:
    """maassen_uffink_constant of two bases given by their basis_rows."""
    if vx.shape != vz.shape:
        raise DimensionMismatch("the two bases span spaces of different dimension")
    return float(np.max(np.abs(vx.conj() @ vz.T) ** 2))


def measurement_entropies_bits(rho, bases: Sequence[Sequence[np.ndarray]]):
    """Shannon entropies in bits of the outcomes of measuring rho in each
    basis: a list of floats for one state, an array (len(bases), n) for a
    stack of n states."""
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    out = []
    for basis in bases:
        rows = basis_rows(basis)
        # column x of mat @ rows^T is mat |x>, and <x| mat |x> its overlap with |x>
        probs = np.einsum("xi,...ix->...x", rows.conj(), mat @ rows.T).real
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=-1, keepdims=True)
        out.append(-xlogx_sum(probs) / LN2)
    return np.array(out) if mat.ndim == 3 else [float(h) for h in out]


def uncertainty_datum(bases: Sequence[Sequence[np.ndarray]]) -> BLDatum:
    """BL datum whose optimal constant is minus the uncertainty bound:
    channels are the basis measurements, q = 1, reference operators are
    identities."""
    chans = [measurement_channel(b) for b in bases]
    d = chans[0].dim_in
    return BLDatum([1.0] * len(chans), chans, identity(d), [identity(d)] * len(chans), 0.0)


def uncertainty_bound_entropic(
    bases: Sequence[Sequence[np.ndarray]], budget: OptimizerBudget = OptimizerBudget()
) -> float:
    """inf_rho [sum_k H(X_k) - H(A)] in nats, estimated from the entropic
    side (= minus the optimal BL constant of the measurement datum)."""
    c_est, _, _ = optimal_constant_entropic(uncertainty_datum(bases), budget)
    return -c_est


def uncertainty_bound_analytic(
    bases: Sequence[Sequence[np.ndarray]], budget: OptimizerBudget = OptimizerBudget()
) -> float:
    """-log sup tr exp(sum_k M_k^dag log omega_k), the dual estimate of the
    same uncertainty bound, in nats."""
    c_est, _, _ = optimal_constant_analytic(uncertainty_datum(bases), budget)
    return -c_est


@dataclass
class MuAnalyticReport:
    # one entry per row of the block of omega pairs
    lhs: np.ndarray  # tr exp(M_X^dag log w1 + M_Z^dag log w2)
    jensen_mid: np.ndarray  # after operator Jensen: tr exp(log M_X(w1) + log M_Z(w2))
    gt_bound: np.ndarray  # after Golden-Thompson: tr M_X(w1) M_Z(w2)
    c: float  # max squared overlap
    gap: np.ndarray  # c - lhs
    chain_holds: np.ndarray


def _jensen_chain(chans, omegas, log_sigma=None, unit_trace=False):
    """The operator-Jensen links of an analytic checker's proof chain for the
    channels E_k, on a block (n, K, d, d) of n omega tuples. Returns per-row
    arrays (lhs (n,), pulled (n, K, d_in, d_in), (vals, vecs), jensen_mid (n,))
    with lhs = tr exp(log sigma + sum_k E_k^dag log w_k), the pulled-back
    operators E_k^dag(w_k), their spectra and eigenvectors, and
    jensen_mid = tr exp(log sigma + sum_k log E_k^dag(w_k)); without
    log_sigma the log sigma term is 0 (sigma = I).
    All n K omegas are validated as one stack, with one eigh for them, one
    stacked E_k^dag per channel for their logs and themselves, and one
    eigh for the pulled-back operators; the sums of rows without a kernel
    flag take one eigh each for lhs and jensen_mid, and a rank-deficient
    omega keeps its kernel flag (support-projected logs). Each row's values
    equal, bit for bit, those of the row as a block of one. With unit_trace,
    ValueError unless every omega has trace 1 within 1e-9, naming the
    traces of the first row that fails: the uncertainty bounds c and 1/4
    hold for unit-trace omegas only."""
    omegas = np.asarray(omegas, dtype=complex)
    k = len(chans)
    if omegas.ndim != 4 or omegas.shape[1] != k:
        raise DimensionMismatch(f"expected {k} omegas per row of a block (n, {k}, d, d), "
                                f"got shape {omegas.shape}")
    n = len(omegas)
    mats, vals, vecs = psd_stack(omegas.reshape(n * k, *omegas.shape[2:]))
    if unit_trace:
        traces = np.trace(mats, axis1=1, axis2=2).real.reshape(n, k)
        off = (abs(traces - 1.0) > 1e-9).any(axis=1)
        if off.any():
            got = traces[np.argmax(off)].tolist()
            raise ValueError(f"the bound needs unit-trace omegas, got traces {got}")
    logs, flags = support_log_stack(vals, vecs)
    both = np.stack([logs, mats], axis=1).reshape(n, k, 2, *mats.shape[1:])
    images = hermitian_part(np.stack([apply_adjoint(ch, both[:, j]) for j, ch in enumerate(chans)],
                                     axis=1))
    pushed, pulled = images[:, :, 0], images[:, :, 1]
    flags = {i: adjoint_on_flag(chans[i % k], w) for i, w in flags.items()}
    lhs = trace_exp_rows(pushed, flags, log_sigma)
    spectra = np.linalg.eigh(pulled)
    d_in = pulled.shape[-1]
    plogs, pflags = support_log_stack(spectra[0].reshape(n * k, d_in),
                                      spectra[1].reshape(n * k, d_in, d_in))
    jensen_mid = trace_exp_rows(plogs.reshape(pulled.shape), pflags, log_sigma)
    return lhs, pulled, spectra, jensen_mid


def mu_analytic_check(bases: BasisPair, omegas) -> MuAnalyticReport:
    """Evaluate the two-measurement trace-exponential bound and its proof
    chain (operator Jensen, then Golden-Thompson, then the overlap bound
    c of the validated pair) on a block (n, 2, d, d) of omega pairs,
    verifying each intermediate step; every field but c has one entry per
    pair, and a single pair is a block of one. The two measurement
    channels are built from the pair's rows on every call."""
    c = bases.c
    chans = [_pinching(bases.rows_x), _pinching(bases.rows_z)]
    lhs, pinched, _, jensen_mid = _jensen_chain(chans, omegas, unit_trace=True)
    gt_bound = np.trace(pinched[:, 0] @ pinched[:, 1], axis1=1, axis2=2).real
    chain = ((lhs <= jensen_mid + PSD_SLACK) & (jensen_mid <= gt_bound + PSD_SLACK)
             & (gt_bound <= c + PSD_SLACK))
    return MuAnalyticReport(lhs=lhs, jensen_mid=jensen_mid, gt_bound=gt_bound, c=c, gap=c - lhs,
                            chain_holds=chain)


@dataclass
class SixStateReport:
    # entropic fields: arrays (n,), one entry per state of the stack
    entropy_sum_bits: np.ndarray | None = None
    h_a_bits: np.ndarray | None = None
    entropic_gap_bits: np.ndarray | None = None  # H(X)+H(Y)+H(Z) - 2 - H(A)
    weaker_bound_gap_bits: np.ndarray | None = None  # vs 3/2 + (3/2) H(A)
    # analytic fields: arrays (m,), one entry per omega triple of the block
    analytic_lhs: np.ndarray | None = None
    analytic_gap: np.ndarray | None = None  # 1/4 - lhs
    jensen_mid: np.ndarray | None = None
    triple_integral: np.ndarray | None = None
    chain_holds: np.ndarray | None = None


def six_state_bases() -> list[list[np.ndarray]]:
    return [pauli_basis("x"), pauli_basis("y"), pauli_basis("z")]


def six_state_check(rho=None, omegas=None) -> SixStateReport:
    """Three-Pauli uncertainty relation, entropic and/or analytic form.

    The entropic side checks H(X) + H(Y) + H(Z) >= 2 + H(A) in bits and
    also reports the weaker two-measurement consequence 3/2 + (3/2) H(A),
    on a stack (n, 2, 2) of states. The analytic side checks
    tr exp(sum M^dag log omega) <= 1/4 on a block (m, 3, 2, 2) of omega
    triples and walks the triple-matrix-integral proof chain, through
    _jensen_chain and one stacked lieb_triple_integral, with the three
    measurement channels built once per call. Every field has one entry
    per state or triple; a single state or triple is a stack of one.
    """
    bases = six_state_bases()
    report = SixStateReport()
    if rho is not None:
        states, vals, _ = density_stack(rho)
        if states.shape[-1] != 2:
            raise DimensionMismatch("six-state relation is a qubit statement")
        hx, hy, hz = measurement_entropies_bits(states, bases)
        report.h_a_bits = -xlogx_sum(vals) / LN2
        report.entropy_sum_bits = hx + hy + hz
        report.entropic_gap_bits = hx + hy + hz - 2.0 - report.h_a_bits
        report.weaker_bound_gap_bits = hx + hy + hz - 1.5 - 1.5 * report.h_a_bits
    if omegas is not None:
        chans = [measurement_channel(b) for b in bases]
        lhs, pinched, (pvals, pvecs), jensen_mid = _jensen_chain(chans, omegas, unit_trace=True)
        triple = lieb_triple_integral(*np.moveaxis(pinched, 1, 0),
                                      spectrum=(pvals[:, 2], pvecs[:, 2]))
        report.analytic_lhs, report.analytic_gap = lhs, 0.25 - lhs
        report.jensen_mid, report.triple_integral = jensen_mid, triple
        report.chain_holds = ((lhs <= jensen_mid + PSD_SLACK) & (jensen_mid <= triple + PSD_SLACK)
                              & (triple <= 0.25 + PSD_SLACK))
    return report


# ---------------------------------------------------------------------------
# Minimum output entropy
# ---------------------------------------------------------------------------

@dataclass
class MinOutputReport:
    h_min: float  # best (smallest) estimate, nats
    direct: float  # min_rho H(E(rho)), the entropic side
    dual: float  # -max_omega log tr exp(log omega_1 + E^dag log omega_2), unit-trace omegas
    witness_state: np.ndarray
    witness_omega: np.ndarray


def min_output_datum(ch: Channel) -> BLDatum:
    """BL datum whose optimal constant is minus the minimum output entropy
    of ch: q = (1, 1), channels (id, E), reference operators identities."""
    one_in, one_out = identity(ch.dim_in), identity(ch.dim_out)
    return BLDatum([1.0, 1.0], [identity_channel(ch.dim_in), ch], one_in, [one_in, one_out], 0.0)


def min_output_entropy(
    ch: Channel, budget: OptimizerBudget = OptimizerBudget(restarts=8)
) -> MinOutputReport:
    """Minimum output entropy min_rho H(E(rho)), as minus the optimal
    constant of min_output_datum estimated from both sides: direct is the
    entropic estimate, dual the analytic one, and their witnesses are the
    entropic state and the omega of the E slot. Diverged is raised when
    the two differ beyond 1e-5.
    """
    rep = duality_crosscheck(min_output_datum(ch), budget)
    direct, dual = -rep.c_entropic, -rep.c_analytic
    if abs(direct - dual) > 1e-5:
        raise Diverged(f"minimum output entropy estimates disagree: {direct} vs {dual}")
    return MinOutputReport(
        h_min=min(direct, dual),
        direct=direct,
        dual=dual,
        witness_state=rep.witness_entropic,
        witness_omega=rep.witness_analytic[1],
    )


# ---------------------------------------------------------------------------
# Data processing and strong data processing
# ---------------------------------------------------------------------------

def dpi_datum(ch: Channel, sigma, eta: float = 1.0) -> BLDatum:
    """BL datum of strong data processing D(E rho||E sigma) <= eta D(rho||sigma):
    q = 1/eta, channel E, reference sigma, sigma_1 = E(sigma), C = 0. Its
    optimal constant is 0 exactly when eta is at least the contraction
    coefficient; eta = 1 is plain data processing."""
    if not 0.0 < eta <= 1.0:
        raise InvalidEta(f"eta must be in (0, 1], got {eta}")
    sig = sigma if isinstance(sigma, PSDOperator) else PSDOperator(sigma)
    return BLDatum([1.0 / eta], [ch], sig, [PSDOperator(apply(ch, sig.matrix))], 0.0)


@dataclass
class DpiAnalyticReport:
    lhs: float  # tr exp(log sigma + E^dag log omega)
    rhs_dual: float  # tr exp(log omega + log E(sigma))
    rhs_weak: float  # tr sigma E^dag(omega) = tr omega E(sigma), the Golden-Thompson bound
    jensen_mid: float  # tr exp(log sigma + log E^dag(omega))
    gap: float  # rhs_dual - lhs
    strictly_stronger: bool  # rhs_dual < rhs_weak


def dpi_analytic_check(sigma, ch: Channel, omega) -> DpiAnalyticReport:
    """Dual analytic form of data processing at one (sigma, omega) pair,
    on dpi_datum(ch, sigma), together with the weaker operator-Jensen /
    Golden-Thompson chain."""
    datum = dpi_datum(ch, sigma)
    omega = omega if isinstance(omega, PSDOperator) else PSDOperator(omega)
    (lhs,), ((pulled,),), _, (jensen_mid,) = _jensen_chain(
        [ch], omega.matrix[None, None], matrix_log(datum.sigma))
    rhs_dual = weighted_antinorm(omega, datum.sigmas[0], 1.0)
    rhs_weak = float(np.trace(datum.sigma.matrix @ pulled).real)
    return DpiAnalyticReport(
        lhs=float(lhs),
        rhs_dual=rhs_dual,
        rhs_weak=rhs_weak,
        jensen_mid=float(jensen_mid),
        gap=float(rhs_dual - lhs),
        strictly_stronger=bool(rhs_dual < rhs_weak - 1e-12),
    )


def contraction_coefficient(
    ch: Channel, sigma, budget: OptimizerBudget = OptimizerBudget(restarts=8)
) -> float:
    """Best multiplicative data-processing constant at a full-support
    reference state: 1 / t* for the critical scale t* of dpi_datum(ch, sigma)
    (engine.critical_scale), which is 0 when t* = inf."""
    sig = sigma if isinstance(sigma, DensityOperator) else DensityOperator(sigma)
    if sig.support_rank < sig.dim:
        raise SingularMarginal("contraction coefficient needs a full-support reference")
    eta = 1.0 / critical_scale(dpi_datum(ch, sig), budget)
    if eta > 1.0 + 1e-9:
        raise Diverged(f"contraction estimate {eta} violates data processing")
    return eta


def depolarizing_sdpi_scalar_gap(t: np.ndarray, p: float, eta: float) -> np.ndarray:
    """Scalar reduction of the unital-qubit strong-DPI inequality for the
    depolarizing channel at the maximally mixed reference:
    2^((eta-1)/eta) (t^eta + (1-t)^eta)^(1/eta) - (t(1-t))^(p/2) (t^(1-p) + (1-t)^(1-p))."""
    if not 0.0 < eta <= 1.0:
        raise InvalidEta(f"eta must be in (0, 1], got {eta}")
    t = np.asarray(t, dtype=float)
    s = 1.0 - t
    with np.errstate(invalid="ignore"):
        lhs = np.where(
            (t > 0) & (s > 0), (t * s) ** (p / 2.0) * (t ** (1.0 - p) + s ** (1.0 - p)), 0.0
        )
    rhs = 2.0 ** ((eta - 1.0) / eta) * (t**eta + s**eta) ** (1.0 / eta)
    return rhs - lhs


def depolarizing_sdpi_scan(p: float, eta: float) -> tuple[float, float]:
    """Minimum scalar-reduction gap over the t-grid of step 1e-3 and its location."""
    grid = np.arange(0.0, 1.0 + 1e-3 / 2, 1e-3)
    gaps = depolarizing_sdpi_scalar_gap(grid, p, eta)
    i = int(np.argmin(gaps))
    return float(gaps[i]), float(grid[i])


# ---------------------------------------------------------------------------
# Super-additivity of relative entropy
# ---------------------------------------------------------------------------

def superadditivity_constant(sigma_ab, dims: tuple[int, int]) -> float:
    """alpha = beta = (1 + 2 || s^-1/2 sigma_AB s^-1/2 - 1 ||_inf)^-1 with
    s = sigma_A (x) sigma_B; equals 1 exactly for product references."""
    da, db = dims
    sig = sigma_ab if isinstance(sigma_ab, DensityOperator) else DensityOperator(sigma_ab)
    if sig.dim != da * db:
        raise DimensionMismatch(f"dims {dims} do not factor dimension {sig.dim}")
    sa = PSDOperator(ptrace(sig.matrix, [da, db], [0]))
    sb = PSDOperator(ptrace(sig.matrix, [da, db], [1]))
    if sa.support_rank < da or sb.support_rank < db:
        raise SingularMarginal("reference marginals must have full support")

    def inv_sqrt(s: PSDOperator) -> np.ndarray:
        return from_spectrum(1.0 / np.sqrt(s.eigenvalues), s.eigenvectors)

    w = np.kron(inv_sqrt(sa), inv_sqrt(sb))
    x = w @ sig.matrix @ w
    dev = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (x + x.conj().T) - np.eye(da * db)))))
    return 1.0 / (1.0 + 2.0 * dev)


def superadditivity_datum(sigma_ab, dims: tuple[int, int]) -> BLDatum:
    """BL datum whose entropic/analytic gaps are the two super-additivity
    inequalities with the computed constant alpha = beta."""
    da, db = dims
    sig = sigma_ab if isinstance(sigma_ab, DensityOperator) else DensityOperator(sigma_ab)
    alpha = superadditivity_constant(sig, dims)
    tr_b = partial_trace([da, db], [0])
    tr_a = partial_trace([da, db], [1])
    sa = PSDOperator(ptrace(sig.matrix, [da, db], [0]))
    sb = PSDOperator(ptrace(sig.matrix, [da, db], [1]))
    return BLDatum([alpha, alpha], [tr_b, tr_a], sig, [sa, sb], 0.0)


@dataclass
class SuperadditivityReport:
    alpha: float
    worst_entropic_gap: float
    worst_analytic_gap: float
    samples: int
    holds: bool


def superadditivity_check(
    sigma_ab, dims: tuple[int, int], samples: int = 200, seed: int = 0
) -> SuperadditivityReport:
    """Sample both forms of the super-additivity inequality at the
    computed constant, each with bl_membership over Hilbert-Schmidt states
    from the same seed."""
    datum = superadditivity_datum(sigma_ab, dims)
    worst_e, worst_a = (
        bl_membership(
            datum, SamplerConfig(samples=samples, seed=seed, form=form, ensembles=("hs",))
        ).worst_gap
        for form in ("entropic", "analytic")
    )
    return SuperadditivityReport(
        alpha=float(datum.q[0]),
        worst_entropic_gap=worst_e,
        worst_analytic_gap=worst_a,
        samples=samples,
        holds=bool(worst_e >= -1e-9 and worst_a >= -1e-9),
    )
