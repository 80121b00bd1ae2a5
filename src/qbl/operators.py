"""Dense Hermitian linear algebra for the workbench.

Matrix functions are computed by eigendecomposition and rebuilt as
V diag(f(w)) V^dag by from_spectrum. Logarithms of rank-deficient PSD
operators are support-projected: the finite part lives on the support and
the kernel is carried as an explicit PSD weight whose directions are
pushed to -infinity inside trace-exponentials. This makes tr exp(sum of
logs) exact on the joint support instead of relying on eigenvalue
regularization. The batched spectral functions the estimators use
(eigh_log and its floored_log, gibbs, sqrt_psd) act on raw stacks
without support handling.
Each support-aware function has one implementation, on stacks, and one
operator or one list of terms is a stack of one: PSDOperator and
DensityOperator keep the certified row of psd_stack and density_stack,
matrix_log is support_logs (support_log_stack as a list) of an operator's
own spectrum, and one list's sum_on_joint_support runs the joint-support
core of exp_on_supports and of the row functions trace_exp_rows and
log_trace_exp_rows, which group lists of equal dimension and support rank
into one stack; a row function takes the rows without a kernel flag of
their own through one eigh, a stacked sum_on_joint_support under a head.
lieb_triple_integral takes three operators or three stacks, and any PSD
third argument, on its support. Certification tests a whole stack first:
a finite stack whose largest skew is within HERM_RTOL, and whose least
eigenvalue is within every row's eps_supp, passes without per-matrix
bounds; any other stack gets them, with the rejection each row would
raise alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidExponent, NotUnital, ZeroOperator
from .policy import HERM_RTOL, PSD_SLACK, SUPP_RTOL, SUPPORT_LEAK_TOL, eps_supp


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, HermitianOperator):
        return a.matrix
    return np.asarray(a, dtype=complex)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def from_spectrum(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """V diag(w) V^dag from eigenvalues w (..., r) and eigenvectors V
    (..., d, r), batched over the leading axes."""
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def trace_prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A B), batched over the leading axes of A and B."""
    return np.einsum("...ij,...ji->...", a, b).real


def xlogx_sum(vals: np.ndarray) -> np.ndarray:
    """sum_i x_i log x_i over the last axis of a spectrum stack, with
    0 log 0 = 0 and negative rounding noise clipped to 0."""
    v = np.maximum(vals, 0.0)
    return np.sum(np.where(v > 1e-300, v * np.log(np.maximum(v, 1e-300)), 0.0), axis=-1)


def log_sum_exp(vals: np.ndarray) -> np.ndarray:
    """log sum_i exp(x_i) over the last axis, shifted by the row maximum; an
    empty or all -inf row gives -inf without a warning, nan propagates."""
    top = np.max(vals, axis=-1, keepdims=True, initial=-np.inf)
    top[~np.isfinite(top)] = 0.0
    total = np.sum(np.exp(vals - top), axis=-1)
    out = np.log(total, out=np.full(np.shape(total), -np.inf), where=total != 0)
    return out + top[..., 0]


def floored_log(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Logarithms of PSD stacks from their spectra (..., d) and eigenvectors
    (..., d, d), each eigenvalue lifted to the floor 1e-15 lambda_max (at
    least 1e-300) so kernels stay finite. eigh returns a kernel eigenvalue
    as rounding noise of about 1e-16 lambda_max, so the floor sits just
    above it: below it the log of a kernel eigenvalue would be the log of
    that noise, which differs between two roundings of the same matrix."""
    floor = np.maximum(vals[..., -1:] * 1e-15, 1e-300)
    return from_spectrum(np.log(np.maximum(vals, floor)), vecs)


def eigh_log(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra and floored_log of PSD stacks, from one eigh."""
    vals, vecs = np.linalg.eigh(mats)
    return vals, floored_log(vals, vecs)


def gibbs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gibbs states exp(H) / tr exp(H) of a Hermitian stack, their spectra
    and log tr exp(H), from one eigh."""
    vals, vecs = np.linalg.eigh(hermitian_part(h))
    top = vals[..., -1:]
    w = np.exp(vals - top)
    z = np.sum(w, axis=-1, keepdims=True)
    w /= z
    return from_spectrum(w, vecs), w, (np.log(z) + top)[..., 0]


def sqrt_psd(rhos: np.ndarray) -> np.ndarray:
    """Batched PSD square roots X with X X^dag = rho."""
    vals, vecs = np.linalg.eigh(rhos)
    return from_spectrum(np.sqrt(np.maximum(vals, 0.0)), vecs)


def _checked_hermitian_part(mats: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix or of each matrix of a stack; ValueError
    if an entry is non-finite or max |A - A^dag| exceeds
    HERM_RTOL * max(1, max |entry|). A finite stack whose largest skew over
    all its matrices is within HERM_RTOL passes every matrix's bound at once;
    only a stack that fails this test pays for the per-matrix scales. The
    finiteness test comes first, so that A - A^dag never meets an infinity."""
    adj = mats.conj().swapaxes(-1, -2)
    if np.isfinite(mats).all() and abs(mats - adj).max(initial=0.0) <= HERM_RTOL:
        return 0.5 * (mats + adj)
    flat = (*mats.shape[:-2], -1)
    scale = np.abs(mats).reshape(flat).max(axis=-1, initial=0.0)
    if not np.isfinite(scale).all():
        raise ValueError("matrix has a non-finite entry")
    skew = np.abs(mats - adj).reshape(flat).max(axis=-1, initial=0.0)
    if (skew > HERM_RTOL * np.maximum(1.0, scale)).any():
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {np.max(skew):.3e}")
    return 0.5 * (mats + adj)


def _square_matrix(entries) -> np.ndarray:
    mat = np.array(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    return mat


class HermitianOperator:
    """A d x d complex Hermitian matrix with its eigendecomposition.

    Instances are immutable: the stored arrays are read-only and all
    operations return new objects.
    """

    def __init__(self, entries):
        mat = _checked_hermitian_part(_square_matrix(entries))
        self._adopt(mat, *np.linalg.eigh(mat))

    def _adopt(self, mat: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
        for a in (mat, vals, vecs):
            a.setflags(write=False)
        self._mat, self._vals, self._vecs = mat, vals, vecs
        return self

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._mat

    @property
    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, ascending."""
        return self._vals

    @property
    def eigenvectors(self) -> np.ndarray:
        """Unitary matrix of eigenvectors, columns matching eigenvalues."""
        return self._vecs

    def trace(self) -> float:
        return float(np.trace(self._mat).real)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class PSDOperator(HermitianOperator):
    """Hermitian operator certified positive semi-definite (within eps_supp):
    the one row of psd_stack of its matrix."""

    _log: SupportLog | None = None  # matrix_log, kept on first use

    def __init__(self, entries):
        mats, vals, vecs = _certified(_square_matrix(entries)[None])
        self._adopt(mats[0], vals[0], vecs[0])

    @classmethod
    def from_stack(cls, mats: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> list:
        """One operator per row of a stack that psd_stack (for a
        DensityOperator, density_stack) has certified: no second eigh."""
        return [cls.__new__(cls)._adopt(*row) for row in zip(mats, vals, vecs)]

    @property
    def eps_supp(self) -> float:
        return eps_supp(float(self._vals[-1]) if self.dim else 0.0)

    @property
    def support_rank(self) -> int:
        return int(np.count_nonzero(self._vals > self.eps_supp))

    def support_basis(self) -> np.ndarray:
        """d x r matrix of orthonormal columns spanning the support."""
        return self._vecs[:, self._vals > self.eps_supp]


class DensityOperator(PSDOperator):
    """PSD operator renormalized to unit trace: the one row of density_stack
    of its matrix."""

    def __init__(self, entries):
        mats, vals, vecs = density_stack(_as_matrix(entries)[None])
        self._adopt(mats[0], vals[0], vecs[0])


def identity(d: int) -> PSDOperator:
    return PSDOperator(np.eye(d))


def zero(d: int) -> HermitianOperator:
    return HermitianOperator(np.zeros((d, d)))


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


def _coerce_term(term) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(term, SupportLog):
        return term.finite, term.weight
    if isinstance(term, HermitianOperator):
        return term.matrix, None
    arr = np.asarray(term, dtype=complex)
    return hermitian_part(arr), None


def _summed(terms: Sequence) -> tuple[np.ndarray, np.ndarray | None]:
    """The sum of the terms' finite parts, in the order of the terms, and
    the sum of their kernel weights (None when no term flags a kernel). A
    term given as an array may be a stack (n, d, d), which makes the sum a
    stack."""
    if not terms:
        raise ValueError("need at least one term")
    finites, weights = zip(*(_coerce_term(t) for t in terms))
    d = finites[0].shape[-1]
    for f in finites:
        if f.shape[-1] != d:
            raise DimensionMismatch("terms have mixed dimensions")
    live = [w for w in weights if w is not None]
    return sum(finites[1:], finites[0]), (sum(live[1:], live[0]) if live else None)


def _flag_supports(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of summed kernel flags (..., d, d) and the mask of those
    below the cut, which span the joint support: a prefix of each
    ascending spectrum."""
    wvals, wvecs = np.linalg.eigh(hermitian_part(weights))
    return wvecs, wvals < SUPPORT_LEAK_TOL * np.maximum(1.0, wvals[..., -1:])


def _eigh_compressed(totals: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of sums (..., d, d) compressed to the columns of basis
    (..., d, r), with the vectors embedded back."""
    basis = np.ascontiguousarray(basis)
    vals, vecs = np.linalg.eigh(hermitian_part(basis.conj().swapaxes(-1, -2) @ totals @ basis))
    return vals, basis @ vecs


def sum_on_joint_support(terms: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Sum extended-Hermitian terms and restrict to the joint support.

    Returns (eigenvalues, vectors) of the compressed sum, with vectors
    embedded back into the ambient space (d x r, orthonormal columns).
    An empty joint support yields empty arrays. The core of
    _joint_support_groups on one list, with nothing to group. A term's
    finite part may be a stack (n, d, d) whose rows share the kernel flags
    of the list: the stack's sums then take one eigh, compressed onto the
    flags' joint support, and the result is stacked.
    """
    total, weight = _summed(terms)
    if weight is None:
        return np.linalg.eigh(total)
    wvecs, below = _flag_supports(weight)
    return _eigh_compressed(total, wvecs[:, below])


def _joint_support_groups(term_lists: Sequence[Sequence]) -> list[tuple]:
    """sum_on_joint_support of each list of terms: one (rows, eigenvalues
    (g, r), vectors (g, d, r)) per group of lists of equal dimension d and
    support rank r. The sums without a kernel flag of one dimension take
    one eigh; those with one take one eigh of their summed flags and one
    per support rank of their compressed sums."""
    sums = [_summed(terms) for terms in term_lists]
    keys: dict[tuple[int, bool], list[int]] = {}
    for i, (total, weight) in enumerate(sums):
        keys.setdefault((total.shape[0], weight is not None), []).append(i)
    groups = []
    for (_, flagged), rows in keys.items():
        totals = np.stack([sums[i][0] for i in rows])
        if not flagged:
            groups.append((rows, *np.linalg.eigh(totals)))
            continue
        wvecs, below = _flag_supports(np.stack([sums[i][1] for i in rows]))
        ranks = np.count_nonzero(below, axis=1)
        for r in sorted(set(ranks.tolist())):
            sel = np.flatnonzero(ranks == r)
            groups.append(([rows[j] for j in sel], *_eigh_compressed(totals[sel], wvecs[sel, :, :r])))
    return groups


def trace_exp_sum(terms: Sequence) -> float:
    """tr exp(sum of terms), taken on the joint support of all kernel flags."""
    vals, _ = sum_on_joint_support(terms)
    return float(np.sum(np.exp(vals)))


def log_trace_exp_sum(terms: Sequence) -> float:
    """log tr exp(sum of terms); -inf when the joint support is empty."""
    return float(log_sum_exp(sum_on_joint_support(terms)[0]))


def exp_on_support(terms: Sequence) -> np.ndarray:
    """exp(sum of terms) as a d x d matrix, zero on the flagged kernel."""
    vals, vecs = sum_on_joint_support(terms)
    return hermitian_part(from_spectrum(np.exp(vals), vecs))


def exp_on_supports(term_lists: Sequence[Sequence]) -> list[np.ndarray]:
    """exp_on_support of each list of terms, the lists of equal dimension
    and support rank exponentiated as one stack."""
    out: list[np.ndarray] = [None] * len(term_lists)
    for rows, vals, vecs in _joint_support_groups(term_lists):
        for i, mat in zip(rows, hermitian_part(from_spectrum(np.exp(vals), vecs))):
            out[i] = mat
    return out


def _rows_reduced(reduce, terms: np.ndarray, flags: dict, head: SupportLog | None) -> np.ndarray:
    """reduce of the spectrum on the joint support of each row's sum of a
    stack of terms: their finite parts (n, K, d, d), the kernel flags
    {r * K + k: weight} of the terms that have one (a None weight counts as
    none), and an optional head, one SupportLog that leads every row's sum.
    The rows without a kernel flag of their own are summed in the order
    of their terms, after the head, and take one eigh: without a head
    directly, with one through a stacked sum_on_joint_support with the
    head's kernel flag, which compresses them onto the head's support in
    that one call. The others go through _joint_support_groups."""
    n, k = terms.shape[:2]
    out = np.empty(n)
    own = sorted({i // k for i, w in flags.items() if w is not None})
    lead = [] if head is None else [head]
    if len(own) < n:
        plain = np.setdiff1d(np.arange(n), own) if own else slice(None)
        rows = terms[plain]
        total = rows[:, 0] if head is None else head.finite + rows[:, 0]
        for j in range(1, k):
            total = total + rows[:, j]
        out[plain] = reduce(np.linalg.eigh(total)[0] if head is None
                            else sum_on_joint_support([SupportLog(total, head.weight)])[0])
    if own:
        lists = [lead + [SupportLog(terms[r, j], flags.get(r * k + j)) for j in range(k)] for r in own]
        for group, vals, _ in _joint_support_groups(lists):
            out[[own[i] for i in group]] = reduce(vals)
    return out


def trace_exp_rows(terms: np.ndarray, flags: dict, head: SupportLog | None = None) -> np.ndarray:
    """trace_exp_sum of each row of a stack of terms (_rows_reduced)."""
    return _rows_reduced(lambda vals: np.sum(np.exp(vals), axis=-1), terms, flags, head)


def log_trace_exp_rows(terms: np.ndarray, flags: dict, head: SupportLog | None = None) -> np.ndarray:
    """log_trace_exp_sum of each row of a stack of terms (_rows_reduced),
    -inf on an empty joint support."""
    return _rows_reduced(log_sum_exp, terms, flags, head)


def _certified(stack: np.ndarray, vectors: bool = True) -> tuple:
    """The Hermitian parts (n, d, d), spectra (n, d) and eigenvectors
    (n, d, d) of a stack of matrices, from one eigh, each matrix certified
    Hermitian and PSD within its eps_supp. Without vectors the spectra come
    from eigvalsh and the eigenvectors are None."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch("expected square matrices of one shape")
    herm = _checked_hermitian_part(stack)
    vals, vecs = np.linalg.eigh(herm) if vectors else (np.linalg.eigvalsh(herm), None)
    if vals[:, :1].min(initial=0.0) >= -SUPP_RTOL:  # every eps_supp is at least SUPP_RTOL
        return herm, vals, vecs
    eps = eps_supp(vals[:, -1:])
    bad = vals[:, :1] < -eps
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals[i, 0]:.3e} < -{eps[i, 0]:.3e}")
    return herm, vals, vecs


def psd_stack(mats: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack of square matrices, each certified Hermitian and PSD, from one
    eigh for the stack: their Hermitian parts (n, d, d), spectra (n, d) and
    eigenvectors (n, d, d). PSDOperator.from_stack makes them operators. A
    3-D ndarray is certified as it is, without a copy per matrix."""
    if isinstance(mats, np.ndarray) and mats.ndim == 3 and len(mats):
        return _certified(mats.astype(complex, copy=False))
    try:
        stack = np.array([_as_matrix(m) for m in mats])
    except ValueError:  # matrices of different shapes
        stack = np.empty(0)
    return _certified(stack)


def support_log_stack(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, dict]:
    """The support-projected logarithms of a PSD stack, from its spectrum
    (n, d) and eigenvectors (n, d, d), as one stack (n, d, d) of finite
    parts and the kernel flags {i: weight} of the operators that have a
    kernel. Eigenvalues at or below eps_supp are not regularized; the kernel
    projector travels with the log as a -infinity flag. When no operator has
    a kernel, the finite parts come from one batched product; otherwise each
    operator's finite part and kernel flag come from its own support and
    kernel columns."""
    keep = vals > eps_supp(vals[:, -1:])
    if keep.all():
        return hermitian_part(from_spectrum(np.log(vals), vecs)), {}
    if not keep.any(axis=1).all():
        raise ZeroOperator("cannot take the logarithm of the zero operator")
    finite = np.empty_like(vecs)
    flags = {}
    for i, (v, u, k) in enumerate(zip(vals, vecs, keep)):
        finite[i] = hermitian_part(from_spectrum(np.log(v[k]), u[:, k]))
        if not k.all():
            kernel = u[:, ~k]
            flags[i] = kernel @ kernel.conj().T
    return finite, flags


def support_logs(vals: np.ndarray, vecs: np.ndarray) -> list[SupportLog]:
    """support_log_stack as one SupportLog per operator of the stack."""
    finite, flags = support_log_stack(vals, vecs)
    return [SupportLog(f, flags.get(i)) for i, f in enumerate(finite)]


def _normalized(mats) -> np.ndarray:
    """A stack (n, d, d) of matrices, each divided by its trace."""
    stack = np.asarray(mats, dtype=complex)
    if stack.ndim != 3:
        raise DimensionMismatch("expected square matrices of one shape")
    tr = np.trace(stack, axis1=1, axis2=2).real
    if not np.isfinite(tr).all():
        raise ValueError("matrix has a non-finite entry")
    if (tr <= 0).any():
        raise ValueError(f"cannot normalize: trace = {tr.min():.3e}")
    return stack / tr[:, None, None]


def density_stack(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack (n, d, d) of matrices, each normalized to unit trace and
    certified: psd_stack of the normalized matrices."""
    return _certified(_normalized(mats))


def matrix_log(a: PSDOperator) -> SupportLog:
    """Support-projected natural logarithm of a PSD operator: support_logs
    of its own spectrum. It is computed once and kept on the operator, as
    read-only arrays, so every caller can share it."""
    if not isinstance(a, PSDOperator):
        a = PSDOperator(a)
    if a._log is None:
        log = support_logs(a.eigenvalues[None], a.eigenvectors[None])[0]
        for arr in (log.finite, log.weight):
            if arr is not None:
                arr.setflags(write=False)
        a._log = log
    return a._log


def matrix_exp(h: HermitianOperator) -> PSDOperator:
    """exp(H) via eigendecomposition; exact spectral mapping, zero on the
    flagged kernel of a SupportLog."""
    if not isinstance(h, (SupportLog, HermitianOperator)):
        h = HermitianOperator(h)
    return PSDOperator(exp_on_support([h]))


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


def weighted_antinorm(w: PSDOperator, sigma: PSDOperator, p: float) -> float:
    """Sigma-weighted functional (tr exp(p log w + log sigma))^(1/p).

    An anti-norm for p in (0, 1]; accepted for any p > 0 since the
    analytic-form right-hand side uses exponents 1/q_k which may exceed 1.
    Support rules follow trace_exp_sum.
    """
    if p <= 0:
        raise InvalidExponent(f"weighted anti-norm exponent must be positive, got {p}")
    lw = matrix_log(w)
    ls = matrix_log(sigma)
    val = log_trace_exp_sum([lw.scaled(p), ls])
    if val == float("-inf"):
        return 0.0
    return float(np.exp(val / p))


def _log_mean(vals: np.ndarray) -> np.ndarray:
    """Divided difference of log on a positive spectrum g (d,), or on each
    spectrum of a stack (n, d): the matrix L_ij = (log g_i - log g_j) /
    (g_i - g_j), with L_ij = 1/max(g_i, g_j) where the two are within 1e-12
    relative (the limit L(x, x) = 1/x)."""
    gi, gj = vals[..., :, None], vals[..., None, :]
    top = np.maximum(gi, gj)
    near = np.abs(gi - gj) <= 1e-12 * top
    logs = np.log(vals)
    split = (logs[..., :, None] - logs[..., None, :]) / np.where(near, 1.0, gi - gj)
    return np.where(near, 1.0 / top, split)


def lieb_triple_integral(a, b, c, spectrum: tuple[np.ndarray, np.ndarray] | None = None):
    """Integral_0^inf tr a (c^-1 + t)^-1 b (c^-1 + t)^-1 dt.

    In the eigenbasis of c (eigenvalues g, a~ and b~ the rotated a and b)
    each t-integral is g_i g_j L(g_i, g_j), with L the log-mean kernel, so
    the integral is the finite sum sum_ij a~_ij b~_ji g_i g_j L(g_i, g_j).
    The kernel goes to 0 as g_i or g_j does, so for a singular c the
    integral is the same sum on supp c: a pair with an eigenvalue at or
    below its eps_supp (the support cut of support_log_stack) weighs 0.
    Upper-bounds tr exp(log a + log b + log c); that bound is verified in
    tests, not assumed here. a, b and c are three operators of one
    dimension, with a float result, or three stacks (n, d, d), with one
    entry per row in an array (n,); one operator is a stack of one. A
    caller that has already eigendecomposed c passes its spectrum
    (eigenvalues ascending, eigenvectors; for a stack, one row each), which
    is then used in place of a certification of c as PSD.
    """
    am, bm, cm = (_as_matrix(x) for x in (a, b, c))
    if not (am.shape == bm.shape == cm.shape) or cm.ndim not in (2, 3):
        raise DimensionMismatch("triple integral needs three same-dimension operators")
    d = cm.shape[-1]
    if spectrum is None:
        if isinstance(c, PSDOperator):
            spectrum = c.eigenvalues, c.eigenvectors
        else:
            spectrum = psd_stack(cm.reshape(-1, d, d))[1:]
    gvals, gvecs = np.reshape(spectrum[0], (-1, d)), np.reshape(spectrum[1], (-1, d, d))
    keep = gvals > eps_supp(gvals[:, -1:])
    rot = gvecs.conj().swapaxes(-1, -2)
    at = rot @ am.reshape(-1, d, d) @ gvecs
    bt = rot @ bm.reshape(-1, d, d) @ gvecs
    g = np.where(keep, gvals, 1.0)  # a cut eigenvalue's log stays finite; its pairs weigh 0
    weight = np.where(keep[:, :, None] & keep[:, None, :],
                      g[:, :, None] * g[:, None, :] * _log_mean(g), 0.0)
    out = np.sum(at * bt.swapaxes(-1, -2) * weight, axis=(-2, -1)).real
    return out if cm.ndim == 3 else float(out[0])


def operator_jensen_check(
    m_adj: Callable[[np.ndarray], np.ndarray],
    x: PSDOperator,
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
    lx = matrix_log(x).finite
    mx = hermitian_part(np.asarray(m_adj(x.matrix)))
    lmx = matrix_log(PSDOperator(mx)).finite
    diff = hermitian_part(lmx - np.asarray(m_adj(lx)))
    wmin = float(np.linalg.eigvalsh(diff)[0])
    return wmin >= -PSD_SLACK, wmin


def find_antinorm_counterexample(p: float, seed: int = 0) -> dict:
    """Search qubit triples showing |||.|||_{sigma,p} with p > 1 is neither
    a norm nor an anti-norm.

    Draws random PD (w, w', sigma) and records one pair violating
    super-additivity and one violating sub-additivity for the same sigma.
    Returns a dict with keys 'p', 'sigma', 'sub_violation', 'super_violation'
    (matrices as nested lists) or raises RuntimeError after 20000 pairs.
    """
    if p <= 1:
        raise InvalidExponent("counterexample search targets p > 1")
    rng = np.random.default_rng(seed)

    def rand_pd() -> np.ndarray:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return g @ g.conj().T + 1e-3 * np.eye(2)

    for _ in range(100):
        sigma = rand_pd()
        sig = PSDOperator(sigma)
        sub = sup = None
        for _ in range(200):
            w1, w2 = rand_pd(), rand_pd()
            n12 = weighted_antinorm(PSDOperator(w1 + w2), sig, p)
            n1 = weighted_antinorm(PSDOperator(w1), sig, p)
            n2 = weighted_antinorm(PSDOperator(w2), sig, p)
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
    raise RuntimeError(f"no counterexample found for p={p} within 20000 tries")
