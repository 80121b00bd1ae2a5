"""JSON problem-spec encoding/decoding.

Complex matrices are encoded entrywise as [re, im] pairs; real matrices
(Gaussian covariance data) as plain numbers. Top-level problem specs carry
a "type" of bl_datum, gaussian, or channel_task; decode_spec turns a parsed
spec of any type into its task. A missing or malformed field raises
SpecFormatError with its JSON path.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .channels import Channel
from .engine import BLDatum
from .errors import SpecFormatError
from .gaussian import GaussianState, Subspace
from .operators import DensityOperator, PSDOperator


def encode_matrix(m: np.ndarray) -> list:
    m = np.asarray(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m.astype(complex)]


def decode_matrix(data: Any, path: str = "matrix") -> np.ndarray:
    arr = _decode_real(data, path)
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim == 2:
        return arr.astype(complex)
    raise SpecFormatError(path, f"expected a matrix of [re, im] pairs, got shape {arr.shape}")


def encode_channel(ch: Channel) -> dict:
    out = {
        "kraus": [encode_matrix(k) for k in ch.kraus],
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "label": ch.label,
        "allow_positive_only": ch.allow_positive_only,
    }
    if not np.all(ch.signs == 1.0):
        out["signs"] = [float(s) for s in ch.signs]
    return out


def decode_channel(data: Any, path: str = "channel") -> Channel:
    if not isinstance(data, dict) or "kraus" not in data:
        raise SpecFormatError(path, "expected an object with a 'kraus' field")
    if not isinstance(data["kraus"], list) or not data["kraus"]:
        raise SpecFormatError(f"{path}.kraus", "expected a non-empty list of matrices")
    signs = data.get("signs")
    if signs is not None and not (isinstance(signs, list) and all(map(_finite_number, signs))):
        raise SpecFormatError(f"{path}.signs", "expected a list of finite numbers")
    kraus = [
        decode_matrix(k, f"{path}.kraus[{i}]") for i, k in enumerate(data["kraus"])
    ]
    return Channel(
        kraus,
        label=data.get("label", ""),
        allow_positive_only=bool(data.get("allow_positive_only", False)),
        signs=signs,
    )


def encode_datum(d: BLDatum) -> dict:
    return {
        "type": "bl_datum",
        "q": [float(x) for x in d.q],
        "channels": [encode_channel(ch) for ch in d.channels],
        "sigma": encode_matrix(d.sigma.matrix),
        "sigmas": [encode_matrix(s.matrix) for s in d.sigmas],
        "c": d.c,
    }


def decode_datum(data: dict, path: str = "$") -> BLDatum:
    for key in ("q", "channels", "sigma", "sigmas"):
        if key not in data:
            raise SpecFormatError(f"{path}.{key}", "missing required field")
    for key in ("channels", "sigmas"):
        if not isinstance(data[key], list):
            raise SpecFormatError(f"{path}.{key}", "expected a list")
    channels = [
        decode_channel(c, f"{path}.channels[{i}]") for i, c in enumerate(data["channels"])
    ]
    sigma = _decode_psd(data["sigma"], f"{path}.sigma")
    sigmas = [_decode_psd(s, f"{path}.sigmas[{i}]") for i, s in enumerate(data["sigmas"])]
    q = _decode_weights(data["q"], f"{path}.q")
    c = data.get("c")
    c = 0.0 if c is None else c
    if not _finite_number(c):
        raise SpecFormatError(f"{path}.c", "expected a finite number")
    return BLDatum(q, channels, sigma, sigmas, c)


def _decode_psd(data: Any, path: str) -> PSDOperator:
    m = decode_matrix(data, path)
    try:
        return PSDOperator(m)
    except ValueError as exc:
        raise SpecFormatError(path, str(exc)) from exc


def _decode_weights(q: Any, path: str) -> list:
    if not isinstance(q, list) or not q or not all(_finite_number(x) and x > 0 for x in q):
        raise SpecFormatError(path, "expected a non-empty list of finite positive numbers")
    return q


def _decode_real(data: Any, path: str) -> np.ndarray:
    """A nested list of finite real numbers (a matrix, or a vector) as an
    array."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(path, f"not a numeric nested list: {exc}") from exc
    if not np.isfinite(arr).all():
        raise SpecFormatError(path, "matrix has a non-finite entry")
    return arr


def _finite_number(x: Any) -> bool:
    """Whether x is a finite JSON number (a bool is not a number)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def decode_spec(data: Any) -> dict:
    """The task of a parsed problem spec, a dict whose "kind" is the spec's
    type: a bl_datum's "datum"; a gaussian task (decode_gaussian_task); a
    channel_task's "task" (contraction, the default, or min_output_entropy),
    "channel" and, when the spec gives one, "sigma", a density matrix."""
    if not isinstance(data, dict) or "type" not in data:
        raise SpecFormatError("$.type", "missing required field")
    kind = data["type"]
    if kind == "bl_datum":
        return {"kind": "bl_datum", "datum": decode_datum(data)}
    if kind == "gaussian":
        return decode_gaussian_task(data)
    if kind != "channel_task":
        raise SpecFormatError("$.type", f"unknown problem type {kind!r}")
    task = data.get("task", "contraction")
    if task not in ("contraction", "min_output_entropy"):
        raise SpecFormatError("$.task", "expected 'contraction' or 'min_output_entropy'")
    out = {"kind": "channel_task", "task": task,
           "channel": decode_channel(data.get("channel"), "$.channel")}
    if "sigma" in data:
        sigma = decode_matrix(data["sigma"], "$.sigma")
        try:
            DensityOperator(sigma)
        except ValueError as exc:
            raise SpecFormatError("$.sigma", str(exc)) from exc
        out["sigma"] = sigma
    return out


def decode_gaussian_task(data: dict, path: str = "$") -> dict:
    """A gaussian task: {"kind": "gaussian", "state", "subspaces", "q"}."""
    for key in ("cov", "subspaces", "q"):
        if key not in data:
            raise SpecFormatError(f"{path}.{key}", "missing required field")
    cov = _decode_real(data["cov"], f"{path}.cov")
    mean = data.get("mean")
    state = GaussianState(cov, None if mean is None else _decode_real(mean, f"{path}.mean"))
    if not isinstance(data["subspaces"], list):
        raise SpecFormatError(f"{path}.subspaces", "expected a list")
    subs = [Subspace(_decode_real(b, f"{path}.subspaces[{i}]"))
            for i, b in enumerate(data["subspaces"])]
    q = _decode_weights(data["q"], f"{path}.q")
    if len(q) != len(subs):
        raise SpecFormatError(f"{path}.q", f"expected {len(subs)} weights, one per subspace")
    return {"kind": "gaussian", "state": state, "subspaces": subs, "q": [float(x) for x in q]}
