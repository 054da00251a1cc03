"""JSON persistence for families, reconstructed states, and certificates.

The interchange document stores every complex entry as an [re, im] pair.
:func:`write_json` writes every document and certificate as one line of
compact JSON, byte for byte what ``json.dumps`` writes, with numbers in
Python's shortest round-trippable decimal form, so a save followed by a
load reproduces each float bit for bit.  A save hands the writer the
family's arrays as float [re, im] views, never as nested lists; they are
spelled run by run, each run of up to 16 384 numbers from a table of its
own distinct floats (at most 26 in a closed-form family at d = 13), so
the writer's memory does not grow with the document.  The loader parses
a document whose numbers repeat through a bounded table of literals.  It
checks the types and shapes of all of a document's matrices level by
level, flattened, and converts their numbers with one ``np.array`` call;
it reads matrix by matrix only when that check misses, to name the bad
entry.  It validates all it reads at a fixed tolerance and names the
offending (basis, vector, entry) when a matrix fails; a document is never
trusted because this package wrote it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain, count, groupby
from typing import Optional

import numpy as np

from .algebra import _MAX_ENTRY, MAX_FAMILY_BYTES, MubFamily, _check_tolerance
from .verify import VerificationReport

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

# Distinct float literals a load remembers.  A closed-form document spells
# a few dozen values tens of thousands of times; the bound caps what a
# document of distinct literals costs.  A load uses the table only when at
# most a quarter of the float literals in its first and last _HEAD
# characters, pooled, differ: a document can repeat its first basis and
# spell every later number once.
_FLOAT_LITERALS = 1024
_HEAD = 4096
_FLOAT = re.compile(r"-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)")

# Numbers whose texts the writer builds at once, from equally shaped arrays.
_RUN = 1 << 14

# Largest document a load reads, checked before reading: a family of
# MAX_FAMILY_BYTES of projectors with every [re, im] entry spelled at the
# writer's widest (54 bytes with its separator), and as many bytes again
# for its states, brackets and keys, which take fewer from d = 3 on.
_MAX_DOCUMENT_BYTES = (
    2
    * (MAX_FAMILY_BYTES // np.dtype(complex).itemsize)
    * len(json.dumps([-2.2250738585072014e-308] * 2) + ", ")
)


def _is_number(x) -> bool:
    """A JSON number; ``bool`` subclasses ``int`` but true/false are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _plain_numbers(matrices: list, d: int) -> Optional[np.ndarray]:
    """Every number of ``matrices``, in order, as one float array; None unless all are plain.

    Plain means each matrix is a list of d rows of d [re, im] lists of
    ``int`` and ``float`` values whose parts are finite and at most 1e150.
    Each level is flattened with ``chain.from_iterable`` and checked by
    exact type and length through ``set(map(...))``, at C speed, so a
    well-formed document costs no Python call per matrix or entry.  None
    means only that the per-matrix checks must look, not that a matrix is
    invalid: numeric subclasses such as ``np.float64`` miss here but are
    accepted there, and only there is a bad entry named.  ``bool`` is its
    own type, so true/false never pass.
    """
    level = matrices
    for length in (d, d, 2):
        if set(map(type, level)) != {list} or set(map(len, level)) != {length}:
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        numbers = np.array(level, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return numbers if np.all(np.abs(numbers) <= _MAX_ENTRY) else None  # False for NaN too


def _indexed(array: np.ndarray, items: str, key: str) -> list:
    """Document shape of a C-contiguous complex (n, d, ...) array, entries as [re, im] views."""
    pairs = array.view(float).reshape(*array.shape, 2)
    return [
        {"basis_index": a, items: [{"alpha": alpha, key: v} for alpha, v in enumerate(group)]}
        for a, group in enumerate(pairs)
    ]


def _listed(value):
    """``value`` with each array in it, among nested dicts and lists, as nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_listed(item) for item in value]
    return value


@dataclass(frozen=True)
class FamilyDocument:
    """In-memory form of the interchange JSON for a projector family.

    ``bases`` is the raw JSON-shaped list: one dict per basis with its
    ``basis_index`` and a ``projectors`` list of {alpha, matrix} dicts.
    ``states`` optionally mirrors that structure with amplitude vectors.
    ``metadata`` is free-form (generator, seed, timestamp and the like).
    Read from JSON, matrices and amplitudes are nested [re, im] lists; built
    by :meth:`from_family`, float (..., 2) views of the family's arrays.
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
        """Build a document from a family, optionally with its state vectors.

        The states are copied; their parts must be finite and at most
        1e150 in magnitude, like a family's projector entries.
        """
        bases = _indexed(family.projectors, "projectors", "matrix")
        states_doc = None
        if states is not None:
            arr = np.array(states, dtype=complex)
            if arr.shape != (family.num_bases, family.dim, family.dim):
                raise ValueError(
                    f"states shaped {arr.shape} do not match the family "
                    f"({family.num_bases} bases, dim {family.dim})"
                )
            if not np.all(np.abs(arr.view(float)) <= _MAX_ENTRY):  # False for NaN too
                raise ValueError(
                    f"state amplitudes must be finite, with parts up to {_MAX_ENTRY:.0e}"
                )
            states_doc = _indexed(arr, "vectors", "amplitudes")
        return cls(
            format_version=FORMAT_VERSION,
            dimension=family.dim,
            bases=bases,
            states=states_doc,
            metadata=dict(metadata or {}),
        )

    def to_payload(self, arrays: bool = False) -> dict:
        """The document as a JSON payload of plain nested lists.

        With ``arrays``, the float arrays of a document built by
        :meth:`from_family` stay arrays, for :func:`write_json` to encode.
        """
        listed = (lambda value: value) if arrays else _listed
        payload = {
            "format_version": self.format_version,
            "dimension": self.dimension,
            "bases": listed(self.bases),
        }
        if self.states is not None:
            payload["states"] = listed(self.states)
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
        for p, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != d:
                raise ValueError(f"{where}: row {p} must have {d} entries")
            for q, pair in enumerate(row):
                if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
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

    def _where(self, row: int) -> str:
        return "basis {}, vector {}".format(*divmod(row, self.dimension))

    def _stacked(self, matrices: list, rows: list) -> np.ndarray:
        """The raw matrices as one (N, d, d) complex array, in their order.

        All at once when every number is plain; otherwise each matrix in
        turn, so the first bad one is named with its first bad entry.
        """
        d = self.dimension
        # A document built by from_family holds arrays: read as their lists.
        matrices = [raw.tolist() if isinstance(raw, np.ndarray) else raw for raw in matrices]
        numbers = _plain_numbers(matrices, d)
        if numbers is None:
            parsed = [self._parse_matrix(raw, self._where(row)) for raw, row in zip(matrices, rows)]
            return np.array(parsed, dtype=complex).reshape(-1, d, d)
        return numbers.view(complex).reshape(-1, d, d)

    def to_family(self, tolerance: float = LOAD_TOLERANCE) -> MubFamily:
        """Validate the document and return its projector family.

        Checks structure first (index completeness, projector counts, matrix
        shapes and entries), so nothing larger than the document itself is
        allocated for a document that declares a huge dimension.  The
        matrices are checked and converted together, every level of their
        nesting at once; only a document with a bad or non-plain number (a
        numeric subclass such as ``np.float64``) is read matrix by matrix,
        which names the first bad entry.  A structural error is reported
        after any bad matrix before it in the document.  Then the family's
        cached :attr:`~MubFamily.invariants` at ``tolerance``: Hermitian
        symmetry (worst entry named), unit trace, and no eigenvalue below
        ``-tolerance``.  The first failing matrix, by basis index and then
        document order, is reported with its first failed check in that
        order.  A family whose every projector is certified rank 1 within
        ``tolerance`` by its one-column residual passes the eigenvalue check
        without an eigensolve; any other is solved once.  The returned
        family keeps its certificate and any spectrum this check solved.
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

        rows, matrices = [], []
        try:
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
                    rows.append(a * d + alpha)
                    matrices.append(entry.get("matrix"))
        except ValueError:
            # The document is checked in order: a bad matrix before the
            # structural error is named instead.
            self._stacked(matrices, rows)
            raise

        # In label order; no stack but the family's own outlives this line.
        family = MubFamily(self._stacked(matrices, rows)[np.argsort(rows)].reshape(n, d, d, d))
        hermiticity, worst_entry, trace = family.invariants
        # Weyl's inequality puts no eigenvalue below -r, so a family whose
        # every residual is within tolerance passes without a solve.
        _, r = family.rank_one_certificate
        lowest = -r if np.all(r <= tolerance) else family.spectrum.eigenvalues[:, -1]
        # The invariants come in label order; read them in document order.
        failing = ((hermiticity > tolerance) | (trace > tolerance) | (lowest < -tolerance))[rows]
        if failing.any():
            i = rows[int(np.argmax(failing))]
            where = self._where(i)
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


def _hold(arrays: list, slot: str, value):
    """``json.dumps`` hook: note a nonempty float array and stand ``slot`` in its place."""
    if type(value) is np.ndarray and value.dtype == float:
        if not value.size:
            return value.tolist()
        arrays.append(value)
        return slot
    return json.JSONEncoder().default(value)  # raises json's own TypeError


def _spell(values: np.ndarray) -> list:
    """JSON text of each float in ``values``, from one ``json.dumps`` call."""
    return json.dumps(values.tolist())[1:-1].split(", ") if len(values) else []


def _separators(shape: tuple) -> np.ndarray:
    """What ``json.dumps`` writes between consecutive numbers of an array shaped ``shape``."""
    seps = np.full(math.prod(shape) - 1, ", ", dtype=object)
    step = 1
    for depth, length in enumerate(reversed(shape[1:]), 1):
        step *= length
        seps[step - 1 :: step] = "]" * depth + ", " + "[" * depth
    return seps


def _texts(arrays: list):
    """Yield the ``json.dumps`` text of each nonempty float array's nested list, in turn.

    Equally shaped arrays are read in runs of up to ``_RUN`` numbers.  Each
    run is spelled from its own table of distinct floats, keyed by bit
    pattern so that -0.0 and 0.0 stay apart, with one ``json.dumps`` call
    that spells NaN and Infinity as it would.  No more than one run's texts
    are held at once, so the writer's memory does not grow with the document.
    """
    for shape, group in groupby(arrays, key=np.shape):
        group, size = list(group), math.prod(shape)
        step = max(1, _RUN // size)
        separators, opener, closer = _separators(shape), "[" * len(shape), "]" * len(shape)
        for first in range(0, len(group), step):
            run = np.concatenate([a.ravel() for a in group[first : first + step]])
            bits, index = np.unique(run.view(np.uint64), return_inverse=True)
            numbers = np.array(_spell(bits.view(float)), dtype=object)[index]
            parts = np.empty((len(index) // size, 2 * size - 1), dtype=object)
            parts[:, 0::2] = numbers.reshape(-1, size)
            parts[:, 1::2] = separators
            yield from (opener + "".join(row) + closer for row in parts.tolist())


def write_json(payload: dict, path: Optional[str]) -> None:
    """Write a payload as one line of JSON to ``path``, or to stdout without one.

    The package's only JSON encoder.  The bytes are exactly
    ``json.dumps(payload) + "\\n"``, with each float64 ``np.ndarray`` read
    as its ``tolist()``.  One ``json.dumps`` call encodes the skeleton, with
    a placeholder string for each array.  The skeleton is built before the
    target is opened, so a payload that cannot be encoded raises json's own
    error and leaves an existing file untouched.  The arrays' texts (a
    family document's [re, im] pairs) are built while writing, each run of
    equally shaped arrays from its own table of distinct floats, so the
    whole document is never held as one string.
    """
    for attempt in count():
        arrays, slot = [], f"\0array {attempt}"
        pieces = json.dumps(payload, default=partial(_hold, arrays, slot)).split(json.dumps(slot))
        if len(pieces) == len(arrays) + 1:  # no string of the payload reads as the slot
            break
    texts = _texts(arrays)

    def write(handle) -> None:
        for piece, text in zip(pieces, texts):
            handle.write(piece)
            handle.write(text)
        handle.write(pieces[-1] + "\n")

    if not path:
        write(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            write(handle)
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
    write_json(doc.to_payload(arrays=True), path)


def load_family(path: str, tolerance: float = LOAD_TOLERANCE) -> MubFamily:
    """Read and validate a family document; returns its projectors.

    Raises on unreadable files, files larger than any document of a family
    within :data:`~mubkit.algebra.MAX_FAMILY_BYTES` (refused before a byte
    is read), malformed JSON, structural inconsistencies, and
    projector-invariant violations (named per basis, vector, entry).
    When the numbers at the head and the tail of the document repeat, as
    in a closed-form family, float literals are parsed through a bounded
    per-load table keyed by their text, so a repeated literal costs a
    lookup; otherwise each is parsed by ``float``.
    """
    _check_tolerance(tolerance)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size > _MAX_DOCUMENT_BYTES:
                raise ValueError(
                    f"family document {path!r} has {size} bytes, "
                    f"above the {_MAX_DOCUMENT_BYTES}-byte limit"
                )
            text = handle.read()
        payload = json.loads(text, parse_float=_parse_float(text))
    except OSError as exc:
        raise OSError(f"could not read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not valid JSON: {exc}") from exc
    return FamilyDocument.from_payload(payload).to_family(tolerance)


class _FloatLiterals(dict):
    """Float of each literal text, parsed once; the first _FLOAT_LITERALS are kept."""

    def __missing__(self, text: str) -> float:
        value = float(text)
        if len(self) < _FLOAT_LITERALS:
            self[text] = value
        return value


def _parse_float(text: str):
    """``parse_float`` for a document: a literal table if its head and tail floats repeat."""
    tail = max(len(text) - _HEAD, _HEAD)  # a short document's literals are sampled once
    sample = _FLOAT.findall(text, 0, _HEAD) + _FLOAT.findall(text, tail)
    if 4 * len(set(sample)) <= len(sample):
        return _FloatLiterals().__getitem__
    return float


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
