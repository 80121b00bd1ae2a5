"""Dense Hermitian linear algebra for the workbench.

Matrix functions are computed by eigendecomposition. Logarithms of
rank-deficient PSD operators are support-projected: the finite part lives
on the support and the kernel is carried as an explicit PSD weight whose
directions are pushed to -infinity inside trace-exponentials. This makes
tr exp(sum of logs) exact on the joint support instead of relying on
eigenvalue regularization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import (
    DimensionMismatch,
    InvalidExponent,
    NotUnital,
    SingularC,
    ZeroOperator,
)
from .policy import DEFAULT_POLICY, NumericPolicy


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, HermitianOperator):
        return a.matrix
    return np.asarray(a, dtype=complex)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def xlogx_sum(vals: np.ndarray) -> np.ndarray:
    """sum_i x_i log x_i over the last axis of a spectrum stack, with
    0 log 0 = 0 and negative rounding noise clipped to 0."""
    v = np.clip(vals, 0.0, None)
    return np.sum(np.where(v > 1e-300, v * np.log(np.clip(v, 1e-300, None)), 0.0), axis=-1)


def log_sum_exp(vals: np.ndarray) -> np.ndarray:
    """log sum_i exp(x_i) over the last axis (non-empty), shifted by the row
    maximum; an all -inf row gives -inf without a warning, nan propagates."""
    top = np.max(vals, axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    total = np.sum(np.exp(vals - top), axis=-1)
    out = np.log(total, out=np.full(np.shape(total), -np.inf), where=total != 0)
    return out + top[..., 0]


class HermitianOperator:
    """A d x d complex Hermitian matrix with a cached eigendecomposition.

    Instances are immutable: the stored array is read-only and all
    operations return new objects.
    """

    def __init__(self, entries, policy: NumericPolicy = DEFAULT_POLICY):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
        scale = float(np.max(np.abs(mat))) if mat.size else 0.0
        skew = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
        if skew > max(policy.herm_rtol * scale, 1e-300) and skew > 1e-8 * max(1.0, scale):
            raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {skew:.3e}")
        mat = hermitian_part(mat)
        mat.setflags(write=False)
        self._mat = mat
        self._policy = policy
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._mat

    @property
    def policy(self) -> NumericPolicy:
        return self._policy

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self._mat)
            vals.setflags(write=False)
            vecs.setflags(write=False)
            self._eig = (vals, vecs)
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, ascending."""
        return self._eigh()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Unitary matrix of eigenvectors, columns matching eigenvalues."""
        return self._eigh()[1]

    def trace(self) -> float:
        return float(np.trace(self._mat).real)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class PSDOperator(HermitianOperator):
    """Hermitian operator certified positive semi-definite (within eps_supp)."""

    def __init__(self, entries, policy: NumericPolicy = DEFAULT_POLICY):
        super().__init__(entries, policy)
        vals = self.eigenvalues
        lam_max = float(vals[-1]) if vals.size else 0.0
        eps = policy.eps_supp(max(lam_max, 0.0))
        if vals.size and float(vals[0]) < -eps:
            raise ValueError(
                f"matrix is not PSD: min eigenvalue {float(vals[0]):.3e} < -{eps:.3e}"
            )
        self._eps_supp = eps

    @property
    def eps_supp(self) -> float:
        return self._eps_supp

    @property
    def support_rank(self) -> int:
        return int(np.count_nonzero(self.eigenvalues > self._eps_supp))

    def support_basis(self) -> np.ndarray:
        """d x r matrix of orthonormal columns spanning the support."""
        mask = self.eigenvalues > self._eps_supp
        return self.eigenvectors[:, mask]


class DensityOperator(PSDOperator):
    """PSD operator renormalized to unit trace."""

    def __init__(self, entries, policy: NumericPolicy = DEFAULT_POLICY):
        mat = _as_matrix(entries)
        tr = float(np.trace(mat).real)
        if tr <= 0:
            raise ValueError(f"cannot normalize: trace = {tr:.3e}")
        super().__init__(mat / tr, policy)


def identity(d: int, policy: NumericPolicy = DEFAULT_POLICY) -> PSDOperator:
    return PSDOperator(np.eye(d), policy)


def zero(d: int, policy: NumericPolicy = DEFAULT_POLICY) -> HermitianOperator:
    return HermitianOperator(np.zeros((d, d)), policy)


@dataclass(frozen=True)
class SupportLog:
    """A support-projected logarithm: finite Hermitian part plus kernel flag.

    Semantically this is lim_{eps->0} finite + log(eps) * weight; the PSD
    ``weight`` marks directions sent to -infinity (None = full support).
    Summing such terms and tracing the exponential is exact on the joint
    support (= intersection of the individual supports).
    """

    finite: np.ndarray
    weight: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.finite.shape[0]

    @property
    def has_kernel(self) -> bool:
        return self.weight is not None

    def scaled(self, alpha: float) -> "SupportLog":
        """Multiply by a positive scalar; the flagged kernel is unchanged."""
        if alpha <= 0:
            raise InvalidExponent(f"scale factor must be positive, got {alpha}")
        w = None if self.weight is None else alpha * self.weight
        return SupportLog(alpha * self.finite, w)

    def shifted(self, c: float) -> "SupportLog":
        """Add c * identity to the finite part."""
        return SupportLog(self.finite + c * np.eye(self.dim), self.weight)


ExtendedTerm = "SupportLog | HermitianOperator | np.ndarray"


def _coerce_term(term) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(term, SupportLog):
        return term.finite, term.weight
    if isinstance(term, HermitianOperator):
        return term.matrix, None
    arr = np.asarray(term, dtype=complex)
    return hermitian_part(arr), None


def sum_on_joint_support(
    terms: Sequence, policy: NumericPolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """Sum extended-Hermitian terms and restrict to the joint support.

    Returns (eigenvalues, vectors) of the compressed sum, with vectors
    embedded back into the ambient space (d x r, orthonormal columns).
    An empty joint support yields empty arrays.
    """
    if not terms:
        raise ValueError("need at least one term")
    finites, weights = zip(*(_coerce_term(t) for t in terms))
    d = finites[0].shape[0]
    for f in finites:
        if f.shape[0] != d:
            raise DimensionMismatch("terms have mixed dimensions")
    total = np.sum(finites, axis=0)
    live_weights = [w for w in weights if w is not None]
    if not live_weights:
        vals, vecs = np.linalg.eigh(total)
        return vals, vecs
    wsum = hermitian_part(np.sum(live_weights, axis=0))
    wvals, wvecs = np.linalg.eigh(wsum)
    wmax = float(wvals[-1]) if wvals.size else 0.0
    cut = policy.support_leak_tol * max(1.0, wmax)
    basis = wvecs[:, wvals < cut]
    if basis.shape[1] == 0:
        return np.empty(0), np.empty((d, 0))
    compressed = hermitian_part(basis.conj().T @ total @ basis)
    vals, vecs = np.linalg.eigh(compressed)
    return vals, basis @ vecs


def trace_exp_sum(terms: Sequence, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """tr exp(sum of terms), taken on the joint support of all kernel flags."""
    vals, _ = sum_on_joint_support(terms, policy)
    return float(np.sum(np.exp(vals)))


def log_trace_exp_sum(terms: Sequence, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """log tr exp(sum of terms); -inf when the joint support is empty."""
    vals, _ = sum_on_joint_support(terms, policy)
    if vals.size == 0:
        return float("-inf")
    return float(log_sum_exp(vals))


def exp_on_support(terms: Sequence, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """exp(sum of terms) as a d x d matrix, zero on the flagged kernel."""
    vals, vecs = sum_on_joint_support(terms, policy)
    return hermitian_part((vecs * np.exp(vals)) @ vecs.conj().T)


def matrix_log(a: PSDOperator, policy: NumericPolicy | None = None) -> SupportLog:
    """Support-projected natural logarithm of a PSD operator.

    Eigenvalues below eps_supp are not regularized; the corresponding
    kernel projector travels with the result as a -infinity flag.
    """
    if not isinstance(a, PSDOperator):
        a = PSDOperator(a, policy or DEFAULT_POLICY)
    if a.support_rank == 0:
        raise ZeroOperator("cannot take the logarithm of the zero operator")
    vals, vecs = a.eigenvalues, a.eigenvectors
    mask = vals > a.eps_supp
    vs = vecs[:, mask]
    finite = hermitian_part((vs * np.log(vals[mask])) @ vs.conj().T)
    if np.all(mask):
        return SupportLog(finite, None)
    vk = vecs[:, ~mask]
    return SupportLog(finite, vk @ vk.conj().T)


def matrix_exp(h: HermitianOperator, policy: NumericPolicy = DEFAULT_POLICY) -> PSDOperator:
    """exp(H) via eigendecomposition; exact spectral mapping."""
    if isinstance(h, SupportLog):
        return PSDOperator(exp_on_support([h], policy), policy)
    if not isinstance(h, HermitianOperator):
        h = HermitianOperator(h, policy)
    vals, vecs = h.eigenvalues, h.eigenvectors
    return PSDOperator((vecs * np.exp(vals)) @ vecs.conj().T, policy)


def schatten(a: PSDOperator, p: float) -> float:
    """Schatten p-(anti)norm (sum lambda^p)^(1/p); p = inf gives lambda_max."""
    if p != np.inf and p <= 0:
        raise InvalidExponent(f"Schatten exponent must be positive, got {p}")
    if not isinstance(a, PSDOperator):
        a = PSDOperator(a)
    vals = np.clip(a.eigenvalues, 0.0, None)
    if p == np.inf:
        return float(vals[-1])
    if not vals.size or float(vals[-1]) == 0.0:
        return 0.0
    # log-domain to survive large spectra
    pos = vals[vals > 0]
    return float(np.exp(log_sum_exp(p * np.log(pos)) / p))


def weighted_antinorm(
    w: PSDOperator,
    sigma: PSDOperator,
    p: float,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """Sigma-weighted functional (tr exp(p log w + log sigma))^(1/p).

    An anti-norm for p in (0, 1]; accepted for any p > 0 since the
    analytic-form right-hand side uses exponents 1/q_k which may exceed 1.
    Support rules follow trace_exp_sum.
    """
    if p <= 0:
        raise InvalidExponent(f"weighted anti-norm exponent must be positive, got {p}")
    lw = matrix_log(w, policy)
    ls = matrix_log(sigma, policy)
    val = log_trace_exp_sum([lw.scaled(p), ls], policy)
    if val == float("-inf"):
        return 0.0
    return float(np.exp(val / p))


def lieb_triple_integral(
    a: PSDOperator,
    b: PSDOperator,
    c: PSDOperator,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """Integral_0^inf tr a (c^-1 + t)^-1 b (c^-1 + t)^-1 dt.

    Evaluated by adaptive quadrature on s in [0, 1] after t = s/(1-s);
    the s -> 1 endpoint limit is tr(a b). Upper-bounds
    tr exp(log a + log b + log c); that bound is verified in tests, not
    assumed here.
    """
    am, bm, cm = (_as_matrix(x) for x in (a, b, c))
    if not (am.shape == bm.shape == cm.shape):
        raise DimensionMismatch("triple integral needs three same-dimension operators")
    cop = c if isinstance(c, PSDOperator) else PSDOperator(cm, policy)
    if cop.support_rank < cop.dim:
        raise SingularC("third argument must be strictly positive definite")
    gvals, gvecs = cop.eigenvalues, cop.eigenvectors
    at = gvecs.conj().T @ am @ gvecs
    bt = gvecs.conj().T @ bm @ gvecs

    def integrand(s: float) -> float:
        if s >= 1.0:
            return float(np.trace(at @ bt).real)
        t = s / (1.0 - s)
        r = gvals / (1.0 + t * gvals)  # eigenvalues of (c^-1 + t)^-1
        val = np.einsum("ij,j,ji,i->", at, r, bt, r)
        return float(val.real) / (1.0 - s) ** 2

    val, _err = quad(integrand, 0.0, 1.0, epsabs=policy.quad_tol, epsrel=1e-12, limit=200)
    return float(val)


def operator_jensen_check(
    m_adj: Callable[[np.ndarray], np.ndarray],
    x: PSDOperator,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> tuple[bool, float]:
    """Check log(M(x)) - M(log x) >= 0 for a unital positive map M.

    Returns (holds, min eigenvalue of the difference). Raises NotUnital if
    M(identity) deviates from the identity beyond tolerance.
    """
    d = x.dim
    uni = np.asarray(m_adj(np.eye(d, dtype=complex)))
    if np.max(np.abs(uni - np.eye(uni.shape[0]))) > 1e-10:
        raise NotUnital("map does not send the identity to the identity")
    if x.support_rank < d:
        raise ZeroOperator("operator Jensen check needs a strictly PD argument")
    lx = matrix_log(x, policy).finite
    mx = hermitian_part(np.asarray(m_adj(x.matrix)))
    lmx = matrix_log(PSDOperator(mx, policy), policy).finite
    diff = hermitian_part(lmx - np.asarray(m_adj(lx)))
    wmin = float(np.linalg.eigvalsh(diff)[0])
    return wmin >= -policy.psd_slack, wmin


def find_antinorm_counterexample(
    p: float,
    seed: int = 0,
    max_tries: int = 20000,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> dict:
    """Search qubit triples showing |||.|||_{sigma,p} with p > 1 is neither
    a norm nor an anti-norm.

    Draws random PD (w, w', sigma) and records one pair violating
    super-additivity and one violating sub-additivity for the same sigma.
    Returns a dict with keys 'p', 'sigma', 'sub_violation', 'super_violation'
    (matrices as nested lists) or raises RuntimeError if the budget runs out.
    """
    if p <= 1:
        raise InvalidExponent("counterexample search targets p > 1")
    rng = np.random.default_rng(seed)

    def rand_pd() -> np.ndarray:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return g @ g.conj().T + 1e-3 * np.eye(2)

    for _ in range(max(1, max_tries // 200)):
        sigma = rand_pd()
        sig = PSDOperator(sigma, policy)
        sub = sup = None
        for _ in range(200):
            w1, w2 = rand_pd(), rand_pd()
            n12 = weighted_antinorm(PSDOperator(w1 + w2, policy), sig, p, policy)
            n1 = weighted_antinorm(PSDOperator(w1, policy), sig, p, policy)
            n2 = weighted_antinorm(PSDOperator(w2, policy), sig, p, policy)
            gap = n12 - n1 - n2
            scale = max(n12, n1 + n2)
            if gap > 1e-6 * scale and sub is None:
                sub = (w1, w2, gap)
            if gap < -1e-6 * scale and sup is None:
                sup = (w1, w2, gap)
            if sub is not None and sup is not None:
                return {
                    "p": p,
                    "sigma": [[[z.real, z.imag] for z in row] for row in sigma],
                    "sub_violation": {
                        "w1": [[[z.real, z.imag] for z in row] for row in sub[0]],
                        "w2": [[[z.real, z.imag] for z in row] for row in sub[1]],
                        "gap": sub[2],
                    },
                    "super_violation": {
                        "w1": [[[z.real, z.imag] for z in row] for row in sup[0]],
                        "w2": [[[z.real, z.imag] for z in row] for row in sup[1]],
                        "gap": sup[2],
                    },
                }
    raise RuntimeError(f"no counterexample found for p={p} within {max_tries} tries")
