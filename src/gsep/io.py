"""JSON schemas for correlation matrices and certificates.

Two tiny formats, both plain JSON so they survive hand editing:

* correlation matrix: ``{"n": int, "m": int, "gamma": [[...], ...]}``
  with ``gamma`` row-major of size ``2(n+m)``;
* certificate: ``{"gamma_A": [[...]], "gamma_B": [[...]], "P": [[...]],
  "margins": [a, b, p]}``.

Serialization is canonical (sorted keys, fixed separators, two-space
indent), so dump-load-dump is byte-for-byte stable.
"""

from __future__ import annotations

import json
import sys
from typing import IO

import numpy as np

from .certify import SeparabilityCertificate
from .gaussian import BipartiteCM, CMError

__all__ = [
    "SchemaError",
    "dump_certificate",
    "dump_cm",
    "load_certificate",
    "load_cm",
    "parse_certificate",
    "parse_cm",
]


class SchemaError(ValueError):
    """The JSON document does not match the expected schema."""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _matrix_from_json(obj, name: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise SchemaError(f"{name!r} must be a non-empty list of rows")
    widths = {len(row) for row in obj}
    if len(widths) != 1:
        raise SchemaError(f"{name!r} has ragged rows")
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{name!r} contains non-numeric entries") from exc
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name!r} contains non-finite entries")
    return arr


def _json_object(text: str, keys: set[str]) -> dict:
    """Parse ``text`` as a JSON object that has at least ``keys``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    missing = keys - doc.keys()
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")
    return doc


def _read_text(source: str | IO[str]) -> str:
    """The whole text of a path or an open text stream."""
    if hasattr(source, "read"):
        return source.read()
    with open(source, encoding="utf-8") as handle:
        return handle.read()


def parse_cm(text: str) -> BipartiteCM:
    """Parse a correlation-matrix JSON document."""
    doc = _json_object(text, {"n", "m", "gamma"})
    n, m = doc["n"], doc["m"]
    if (not isinstance(n, int) or not isinstance(m, int)
            or isinstance(n, bool) or isinstance(m, bool) or n < 1 or m < 1):
        raise SchemaError(f"'n' and 'm' must be positive integers, got {n!r}, {m!r}")
    gamma = _matrix_from_json(doc["gamma"], "gamma")
    d = 2 * (n + m)
    if gamma.shape != (d, d):
        raise SchemaError(
            f"'gamma' must be {d}x{d} for n={n}, m={m}, got {gamma.shape}"
        )
    try:
        return BipartiteCM.from_gamma(gamma, n, m)
    except CMError as exc:
        raise SchemaError(str(exc)) from exc


def dump_cm(cm: BipartiteCM) -> str:
    """Serialize a bipartite CM to canonical JSON."""
    return _canonical({"n": cm.n, "m": cm.m, "gamma": cm.gamma.tolist()})


def load_cm(source: str | IO[str]) -> BipartiteCM:
    """Load a CM from a path or an open text stream."""
    return parse_cm(_read_text(source))


def parse_certificate(text: str) -> tuple[SeparabilityCertificate, tuple[float, float, float]]:
    """Parse a certificate JSON document; returns it with its stored margins."""
    doc = _json_object(text, {"gamma_A", "gamma_B", "P", "margins"})
    gamma_a = _matrix_from_json(doc["gamma_A"], "gamma_A")
    gamma_b = _matrix_from_json(doc["gamma_B"], "gamma_B")
    noise = _matrix_from_json(doc["P"], "P")
    margins = doc["margins"]
    # NaN, infinities and numbers past the float range would not dump again
    if (not isinstance(margins, list) or len(margins) != 3
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       and abs(x) <= sys.float_info.max for x in margins)):
        raise SchemaError("'margins' must be a list of three numbers, all finite")
    cert = SeparabilityCertificate(gamma_A=gamma_a, gamma_B=gamma_b, P=noise)
    return cert, (float(margins[0]), float(margins[1]), float(margins[2]))


def dump_certificate(certificate: SeparabilityCertificate, margins: tuple[float, ...]) -> str:
    """Serialize ``(certificate, margins)``, the pair :func:`parse_certificate` returns."""
    return _canonical({
        "gamma_A": certificate.gamma_A.tolist(),
        "gamma_B": certificate.gamma_B.tolist(),
        "P": certificate.P.tolist(),
        "margins": list(margins),
    })


def load_certificate(source: str | IO[str]):
    """Load a certificate from a path or an open text stream."""
    return parse_certificate(_read_text(source))
