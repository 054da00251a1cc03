"""JSON persistence for families, reconstructed states, and certificates.

The interchange document stores every complex entry as an [re, im] pair.
:func:`write_json` writes every document and certificate as one line of
compact JSON, with numbers in Python's shortest round-trippable decimal
form, so a save followed by a load reproduces each float bit for bit.  The
loader validates everything it reads at a fixed tolerance and names the
offending (basis, vector, entry) when a matrix fails; a document is never
trusted just because this package wrote it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Optional

import numpy as np

from .algebra import _MAX_ENTRY, MubFamily, _check_tolerance
from .verify import VerificationReport, _projector_invariants

__all__ = [
    "FORMAT_VERSION",
    "LOAD_TOLERANCE",
    "FamilyDocument",
    "file_sha256",
    "load_family",
    "report_payload",
    "save_family",
    "write_json",
]

FORMAT_VERSION = "1"

# Looser than construction tolerances: serialized third-party families may
# carry a few more ulps of noise than freshly built ones.
LOAD_TOLERANCE = 1e-9


def _is_number(x) -> bool:
    """A JSON number; ``bool`` subclasses ``int`` but true/false are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_plain_matrix(raw: list, d: int) -> bool:
    """True when ``raw`` holds d rows of d [re, im] pairs of plain numbers.

    Exact-type checks through ``set(map(...))`` run at C speed, so a
    well-formed matrix costs no per-entry Python call.  False means only
    that the per-entry checks must look, not that the matrix is invalid:
    numeric subclasses such as ``np.float64`` fail this test but are
    accepted there.  ``bool`` is its own type, so true/false never pass.
    """
    if set(map(type, raw)) != {list} or set(map(len, raw)) != {d}:
        return False
    entries = list(chain.from_iterable(raw))
    return (
        set(map(type, entries)) == {list}
        and set(map(len, entries)) == {2}
        and set(map(type, chain.from_iterable(entries))) <= {int, float}
    )


def _pairs(array: np.ndarray) -> list:
    """Nested lists of a complex array, each entry an [re, im] pair of floats."""
    return np.ascontiguousarray(array).view(float).reshape(*array.shape, 2).tolist()


@dataclass(frozen=True)
class FamilyDocument:
    """In-memory form of the interchange JSON for a projector family.

    ``bases`` is the raw JSON-shaped list: one dict per basis with its
    ``basis_index`` and a ``projectors`` list of {alpha, matrix} dicts.
    ``states`` optionally mirrors that structure with amplitude vectors.
    ``metadata`` is free-form (generator, seed, timestamp and the like).
    """

    format_version: str
    dimension: int
    bases: list
    states: Optional[list] = None
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_family(
        cls,
        family: MubFamily,
        states=None,
        metadata: Optional[dict] = None,
    ) -> "FamilyDocument":
        """Build a document from a family, optionally with its state vectors."""
        bases = [
            {
                "basis_index": a,
                "projectors": [
                    {"alpha": alpha, "matrix": matrix} for alpha, matrix in enumerate(matrices)
                ],
            }
            for a, matrices in enumerate(_pairs(family.projectors))
        ]
        states_doc = None
        if states is not None:
            arr = np.asarray(states, dtype=complex)
            if arr.shape != (family.num_bases, family.dim, family.dim):
                raise ValueError(
                    f"states shaped {arr.shape} do not match the family "
                    f"({family.num_bases} bases, dim {family.dim})"
                )
            states_doc = [
                {
                    "basis_index": a,
                    "vectors": [
                        {"alpha": alpha, "amplitudes": amplitudes}
                        for alpha, amplitudes in enumerate(vectors)
                    ],
                }
                for a, vectors in enumerate(_pairs(arr))
            ]
        return cls(
            format_version=FORMAT_VERSION,
            dimension=family.dim,
            bases=bases,
            states=states_doc,
            metadata=dict(metadata or {}),
        )

    def to_payload(self) -> dict:
        payload = {
            "format_version": self.format_version,
            "dimension": self.dimension,
            "bases": self.bases,
        }
        if self.states is not None:
            payload["states"] = self.states
        payload["metadata"] = self.metadata
        return payload

    @classmethod
    def from_payload(cls, payload) -> "FamilyDocument":
        if not isinstance(payload, dict):
            raise ValueError("document root must be a JSON object")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}")
        dimension = payload.get("dimension")
        if not _is_index(dimension) or dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        bases = payload.get("bases")
        if not isinstance(bases, list) or not bases:
            raise ValueError("document must contain a nonempty 'bases' list")
        metadata = payload.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError("metadata must be a JSON object")
        states = payload.get("states")
        if states is not None and not isinstance(states, list):
            raise ValueError("'states', when present, must be a list")
        return cls(
            format_version=version,
            dimension=dimension,
            bases=bases,
            states=states,
            metadata=metadata,
        )

    def _parse_matrix(self, raw, where: str) -> np.ndarray:
        d = self.dimension
        if not isinstance(raw, list) or len(raw) != d:
            raise ValueError(f"{where}: matrix must have {d} rows")
        if not _is_plain_matrix(raw, d):
            for p, row in enumerate(raw):
                if not isinstance(row, list) or len(row) != d:
                    raise ValueError(f"{where}: row {p} must have {d} entries")
                for q, pair in enumerate(row):
                    if (
                        not isinstance(pair, list)
                        or len(pair) != 2
                        or not all(map(_is_number, pair))
                    ):
                        raise ValueError(f"{where}, entry ({p}, {q}): expected an [re, im] pair")
        try:
            pairs = np.array(raw, dtype=float)
        except OverflowError:  # an integer literal beyond the float range
            pairs = None
        # One comparison refuses NaN and inf as well as parts so large that
        # the invariant checks would overflow.
        if pairs is None or not np.all(np.abs(pairs) <= _MAX_ENTRY):
            raise ValueError(
                f"{where}: matrix entries must be finite, with parts up to {_MAX_ENTRY:.0e}"
            )
        return pairs.view(complex).reshape(d, d)

    def to_family(self, tolerance: float = LOAD_TOLERANCE) -> MubFamily:
        """Validate the document and return its projector family.

        Checks structure first (index completeness, projector counts, matrix
        shapes and entries), so nothing larger than the document itself is
        allocated for a document that declares a huge dimension.  Then the
        projector invariants of the family at ``tolerance``: Hermitian
        symmetry (worst entry named), unit trace, and no eigenvalue below
        ``-tolerance``.  The first failing matrix, by basis index and then
        document order, is reported with its first failed check in that
        order.  The returned family keeps the spectrum this check solved.
        """
        _check_tolerance(tolerance)
        d = self.dimension
        indexed = {}
        for item in self.bases:
            if not isinstance(item, dict) or "basis_index" not in item:
                raise ValueError("each basis must be an object with a 'basis_index'")
            a = item["basis_index"]
            if not _is_index(a) or a in indexed:
                raise ValueError(f"basis_index {a!r} is invalid or duplicated")
            indexed[a] = item
        n = len(indexed)
        if sorted(indexed) != list(range(n)):
            raise ValueError(f"basis_index values must cover 0..{n - 1}, got {sorted(indexed)}")
        if not 1 <= n <= d + 1:
            raise ValueError(f"num_bases must lie in 1..d+1 = 1..{d + 1}, got {n}")

        labels, rows, parsed = [], [], {}
        for a in range(n):
            projectors = indexed[a].get("projectors")
            if not isinstance(projectors, list) or len(projectors) != d:
                raise ValueError(f"basis {a}: expected {d} projectors")
            seen = set()
            for entry in projectors:
                if not isinstance(entry, dict) or "alpha" not in entry:
                    raise ValueError(f"basis {a}: each projector needs an 'alpha'")
                alpha = entry["alpha"]
                if not _is_index(alpha) or not 0 <= alpha < d or alpha in seen:
                    raise ValueError(f"basis {a}: alpha {alpha!r} is invalid or duplicated")
                seen.add(alpha)
                labels.append(f"basis {a}, vector {alpha}")
                rows.append(a * d + alpha)
                parsed[rows[-1]] = self._parse_matrix(entry.get("matrix"), labels[-1])

        family = MubFamily(np.array([parsed[row] for row in range(n * d)]).reshape(n, d, d, d))
        hermiticity, worst_entry, trace, lowest = _projector_invariants(family)
        # The invariants come in label order; read them in document order.
        failing = ((hermiticity > tolerance) | (trace > tolerance) | (lowest < -tolerance))[rows]
        if failing.any():
            k = int(np.argmax(failing))
            where, i = labels[k], rows[k]
            if hermiticity[i] > tolerance:
                p, q = divmod(int(worst_entry[i]), d)
                raise ValueError(
                    f"{where}, entry ({p}, {q}): Hermitian symmetry violated "
                    f"by {hermiticity[i]:.3e} (tolerance {tolerance:.1e})"
                )
            if trace[i] > tolerance:
                raise ValueError(
                    f"{where}: trace deviates from 1 by {trace[i]:.3e} "
                    f"(tolerance {tolerance:.1e})"
                )
            raise ValueError(
                f"{where}: eigenvalue {lowest[i]:.3e} below -{tolerance:.1e}; not positive-semidefinite"
            )
        return family


def write_json(payload: dict, path: Optional[str]) -> None:
    """Write a payload as one line of JSON to ``path``, or to stdout without one.

    The package's only JSON encoder: one-shot ``json.dumps`` without
    indentation runs in json's C encoder and keeps full-precision floats.
    """
    text = json.dumps(payload) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"could not write {path!r}: {exc}") from exc


def save_family(
    family: MubFamily,
    path: Optional[str],
    states=None,
    metadata: Optional[dict] = None,
) -> None:
    """Write a family (optionally with its states) to a JSON document.

    Without a path the document goes to stdout, as :func:`write_json` writes
    it.  The save/load round trip reproduces every projector entry
    bit-exactly.  Filesystem problems surface as errors carrying the path.
    """
    doc = FamilyDocument.from_family(family, states=states, metadata=metadata)
    write_json(doc.to_payload(), path)


def load_family(path: str, tolerance: float = LOAD_TOLERANCE) -> MubFamily:
    """Read and validate a family document; returns its projectors.

    Raises on unreadable files, malformed JSON, structural inconsistencies,
    and projector-invariant violations (named per basis, vector, entry).
    """
    _check_tolerance(tolerance)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise OSError(f"could not read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not valid JSON: {exc}") from exc
    return FamilyDocument.from_payload(payload).to_family(tolerance)


def file_sha256(path: str) -> str:
    """Hex digest of a file's contents, for report provenance."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def report_payload(
    report: VerificationReport,
    tool_version: str,
    source_path: Optional[str] = None,
) -> dict:
    """JSON payload for a verification certificate, with provenance fields.

    Every report field is a key, in field order; array fields (the Gram
    matrix) come last, after the provenance, and fields left at ``None``
    are omitted.
    """
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    arrays = {k: v.tolist() for k, v in values.items() if isinstance(v, np.ndarray)}
    payload = {"tool_version": tool_version}
    payload.update((k, v) for k, v in values.items() if k not in arrays and v is not None)
    if source_path is not None:
        payload["input_path"] = source_path
        payload["input_sha256"] = file_sha256(source_path)
    payload.update(arrays)
    return payload
