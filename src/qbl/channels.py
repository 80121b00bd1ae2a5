"""Trace-preserving positive maps in Kraus form.

Kraus operators are the single source of truth; Choi matrices are built on
demand to certify complete positivity. Maps that are positive but not CP
(allowed in the duality theorems) can be registered with
allow_positive_only=True, which replaces the Choi certificate by sampled
positivity spot checks.

Each channel also keeps a read-only transfer matrix derived from its Kraus
stack, S = sum_a s_a K_a (x) conj(K_a), of d_out^2 x d_in^2 complex
entries (256 KB at d_in * d_out = 128). On row-major vectorizations it has
two uses: E(rho) is vec(rho) @ S^T and E^dag(Y) is vec(Y) @ conj(S), each a
single matmul over any stack of matrices.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

from .errors import (
    BadPartition,
    DimensionMismatch,
    InvalidProbability,
    NotCompletelyPositive,
    NotOrthonormal,
    NotTracePreserving,
)
from .operators import SupportLog, hermitian_part
from .policy import DEFAULT_POLICY, NumericPolicy

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class Channel:
    """A trace-preserving positive map in (signed) Kraus form.

    E(X) = sum_i s_i K_i X K_i^dag with signs s_i = +1 by default; all
    signs positive gives an ordinary completely positive channel. Signed
    families represent trace-preserving positive-but-not-CP maps (e.g. the
    transpose); those must be registered with allow_positive_only=True,
    which replaces the Choi certificate by sampled positivity checks.
    """

    def __init__(
        self,
        kraus: Sequence[np.ndarray],
        label: str = "",
        allow_positive_only: bool = False,
        signs: Sequence[float] | None = None,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        dout, din = ops[0].shape
        for k in ops:
            if k.shape != (dout, din):
                raise DimensionMismatch("Kraus operators have mixed shapes")
        self.signs = np.ones(len(ops)) if signs is None else np.asarray(signs, dtype=float)
        if self.signs.shape != (len(ops),):
            raise DimensionMismatch("signs must match the number of Kraus operators")
        acc = sum(s * k.conj().T @ k for s, k in zip(self.signs, ops))
        if np.max(np.abs(acc - np.eye(din))) > 1e-10:
            raise NotTracePreserving(
                f"sum s K^dag K deviates from identity by {np.max(np.abs(acc - np.eye(din))):.3e}"
            )
        stacked = np.stack(ops)
        stacked.setflags(write=False)
        self.signs.setflags(write=False)
        self.kraus = stacked
        # transfer[(i,l),(j,k)] = sum_a s_a K_a[i,j] conj(K_a[l,k]): one matmul
        # over the Kraus index, then an axis permutation
        flat = stacked.reshape(len(ops), dout * din)
        pairs = (self.signs[:, None] * flat).T @ flat.conj()  # [(i,j),(l,k)]
        pairs = pairs.reshape(dout, din, dout, din).transpose(0, 2, 1, 3)
        self.transfer = pairs.reshape(dout * dout, din * din)
        self.transfer.setflags(write=False)
        self.dim_in = din
        self.dim_out = dout
        self.label = label
        self.allow_positive_only = allow_positive_only
        self.policy = policy
        if not allow_positive_only:
            cmin = float(np.linalg.eigvalsh(self.choi_matrix())[0])
            if cmin < -policy.psd_slack:
                raise NotCompletelyPositive(f"Choi matrix eigenvalue {cmin:.3e}")
        else:
            self._spot_check_positivity()

    def _spot_check_positivity(self, samples: int = 16) -> None:
        rng = np.random.default_rng(7)
        for _ in range(samples):
            v = rng.normal(size=self.dim_in) + 1j * rng.normal(size=self.dim_in)
            rho = np.outer(v, v.conj())
            rho /= np.trace(rho).real
            wmin = float(np.linalg.eigvalsh(self(rho))[0])
            if wmin < -self.policy.psd_slack:
                raise NotCompletelyPositive(
                    f"positivity spot check failed: output eigenvalue {wmin:.3e}"
                )

    def choi_matrix(self) -> np.ndarray:
        """Choi matrix sum_ij |i><j| (x) E(|i><j|)."""
        din, dout = self.dim_in, self.dim_out
        choi = np.zeros((din * dout, din * dout), dtype=complex)
        for s, k in zip(self.signs, self.kraus):
            vec = k.T.reshape(-1)  # |i> (x) K|i> stacked over i
            choi += s * np.outer(vec, vec.conj())
        return choi

    def __call__(self, rho) -> np.ndarray:
        return apply(self, rho)

    def adjoint(self, y) -> np.ndarray:
        return apply_adjoint(self, y)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"Channel({self.dim_in}->{self.dim_out}, {len(self.kraus)} Kraus{tag})"


def _mat(x) -> np.ndarray:
    m = getattr(x, "matrix", x)
    return np.asarray(m, dtype=complex)


def _vec_matmul(x, mat: np.ndarray, d: int, d_new: int) -> np.ndarray:
    """vec(X) @ mat on a d x d matrix or a stack of them, unvectorized."""
    m = _mat(x)
    if m.shape[-2:] != (d, d):
        raise DimensionMismatch(f"input shape {m.shape} does not end in ({d}, {d})")
    lead = m.shape[:-2]
    return (m.reshape(*lead, d * d) @ mat).reshape(*lead, d_new, d_new)


def apply(ch: Channel, rho) -> np.ndarray:
    """E(rho) = sum s K rho K^dag on a matrix or a stack (..., d_in, d_in)."""
    return _vec_matmul(rho, ch.transfer.T, ch.dim_in, ch.dim_out)


def apply_adjoint(ch: Channel, y) -> np.ndarray:
    """E^dag(Y) = sum s K^dag Y K on a matrix or a stack (..., d_out, d_out);
    unital when E is trace-preserving."""
    return _vec_matmul(y, ch.transfer.conj(), ch.dim_out, ch.dim_in)


def adjoint_on_log(ch: Channel, slog: SupportLog) -> SupportLog:
    """Push a support-projected logarithm through the adjoint map.

    E^dag is positive, so the -infinity weight stays PSD; its support marks
    the directions excluded from downstream trace-exponentials.
    """
    finite = hermitian_part(apply_adjoint(ch, slog.finite))
    if slog.weight is None:
        return SupportLog(finite, None)
    w = hermitian_part(apply_adjoint(ch, slog.weight))
    if float(np.max(np.abs(w))) < 1e-14:
        return SupportLog(finite, None)
    return SupportLog(finite, w)


def identity_channel(d: int) -> Channel:
    return Channel([np.eye(d)], label=f"id_{d}")


def ptrace(mat, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace by direct index contraction (independent of Kraus forms)."""
    m = _mat(mat)
    dims = list(dims)
    n = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise BadPartition(f"matrix shape {m.shape} incompatible with dims {dims}")
    keep = sorted(keep)
    if any(k < 0 or k >= n for k in keep):
        raise BadPartition(f"keep indices {keep} out of range for {n} subsystems")
    tens = m.reshape(dims + dims)
    # trace discarded subsystems from the back so earlier axis indices stay valid
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        tens = np.trace(tens, axis1=idx, axis2=idx + tens.ndim // 2)
    dkeep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return tens.reshape(dkeep, dkeep)


def partial_trace(dims: Sequence[int], keep: Sequence[int]) -> Channel:
    """Channel tracing out every subsystem not in ``keep``.

    Kraus family {1_keep (x) <j|_discard} composed with the subsystem
    permutation that sorts kept factors first (in their original order).
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise BadPartition(f"keep indices {keep} out of range for dims {dims}")
    discard = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    total = int(np.prod(dims))
    kraus = []
    keep_ranges = [range(dims[i]) for i in keep]
    for j in product(*(range(dims[i]) for i in discard)):
        k = np.zeros((dk, total))
        for row, kept_idx in enumerate(product(*keep_ranges)):
            full = [0] * n
            for pos, i in enumerate(keep):
                full[i] = kept_idx[pos]
            for pos, i in enumerate(discard):
                full[i] = j[pos]
            col = int(np.ravel_multi_index(full, dims))
            k[row, col] = 1.0
        kraus.append(k)
    label = f"ptrace(keep={keep} of {dims})"
    return Channel(kraus, label=label)


def measurement_channel(basis: Sequence[np.ndarray], label: str = "") -> Channel:
    """Pinching channel sum_x <x|.|x> |x><x| for an orthonormal basis."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in basis]
    d = vecs[0].size
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    if len(vecs) != d or np.max(np.abs(gram - np.eye(d))) > 1e-10:
        raise NotOrthonormal("basis is not a complete orthonormal family")
    kraus = [np.outer(v, v.conj()) for v in vecs]
    return Channel(kraus, label=label or "measurement")


def pauli_basis(axis: str) -> list[np.ndarray]:
    """Eigenbases of the qubit Pauli operators, phase conventions fixed."""
    s = 1.0 / np.sqrt(2.0)
    if axis == "x":
        return [np.array([s, s]), np.array([s, -s])]
    if axis == "y":
        return [np.array([s, 1j * s]), np.array([s, -1j * s])]
    if axis == "z":
        return [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    raise ValueError(f"unknown Pauli axis {axis!r}")


def depolarizing(p: float) -> Channel:
    """Qubit depolarizing channel X -> (1-p) X + p (tr X) 1/2."""
    if not 0.0 <= p <= 1.0:
        raise InvalidProbability(f"depolarizing probability must be in [0,1], got {p}")
    kraus = [
        np.sqrt(1.0 - 0.75 * p) * np.eye(2, dtype=complex),
        np.sqrt(0.25 * p) * PAULI_X,
        np.sqrt(0.25 * p) * PAULI_Y,
        np.sqrt(0.25 * p) * PAULI_Z,
    ]
    return Channel(kraus, label=f"depolarizing(p={p})")


def trace_channel(d: int) -> Channel:
    """The trace map A -> (tr A) viewed as a channel into a 1-dim space."""
    kraus = [np.eye(d)[i].reshape(1, d) for i in range(d)]
    return Channel(kraus, label=f"trace_{d}")


def transpose_map(d: int) -> Channel:
    """The transpose X -> X^T: trace-preserving and positive but not CP.

    Signed Kraus family from the Choi eigendecomposition (the swap
    operator): symmetric rank-one units with +, antisymmetric with -.
    """
    kraus, signs = [], []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        kraus.append(m)
        signs.append(1.0)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            kraus.append(m)
            signs.append(1.0)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0 / np.sqrt(2.0)
            m[j, i] = -1.0 / np.sqrt(2.0)
            kraus.append(m)
            signs.append(-1.0)
    return Channel(kraus, label=f"transpose_{d}", allow_positive_only=True, signs=signs)


def tensor(ch1: Channel, ch2: Channel) -> Channel:
    """Tensor product channel with Kraus family {K_i (x) L_j}."""
    kraus = [np.kron(k1, k2) for k1 in ch1.kraus for k2 in ch2.kraus]
    signs = [s1 * s2 for s1 in ch1.signs for s2 in ch2.signs]
    lab = f"({ch1.label or 'ch'})(x)({ch2.label or 'ch'})"
    return Channel(
        kraus,
        label=lab,
        allow_positive_only=ch1.allow_positive_only or ch2.allow_positive_only,
        signs=signs,
    )
