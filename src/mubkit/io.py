"""JSON persistence for families and reconstructed states.

The interchange document stores every complex entry as an [re, im] pair.
:func:`write_json` writes every payload it is given as one line of
compact JSON, byte for byte what ``json.dumps`` writes, with numbers in
Python's shortest round-trippable decimal form, so a save followed by a
load reproduces each float bit for bit.  A save hands the writer the
family's arrays as float [re, im] views, which it spells run by run, so
its memory does not grow with the document.  ``_read_document`` is the
only reader of an input document: it reads each once, bounded, and a
document's SHA-256 is of the very bytes that were parsed and validated.
The loader validates all it reads at a fixed tolerance, a document's
states against its projectors too, though it returns only the family; a
document is never trusted because this package wrote it, and an object
that repeats a key is refused rather than read as its last value.  One
walk reads the ``bases`` and the ``states`` sections alike and names the
first defect in document order, structural or a bound, by (basis,
vector, entry).  Each projector's matrix, and each state's amplitudes,
becomes a float array as ``json.loads`` finishes it, so the nested
[re, im] lists of a whole document never exist at once: a load's peak
memory, a refusal's too, is its bytes and their text, about twice the file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, groupby
from typing import Optional

import numpy as np

from .algebra import (
    LOAD_TOLERANCE,
    MAX_FAMILY_BYTES,
    MubFamily,
    _bounded,
    _check_parts,
    _check_tolerance,
    _where,
)
from .reconstruct import eigen_hermitian

__all__ = [
    "FORMAT_VERSION",
    "LOAD_TOLERANCE",
    "FamilyDocument",
    "load_family",
    "save_family",
    "write_json",
]

FORMAT_VERSION = "1"

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

# Largest document a load reads, checked against a file's size before
# reading and against a pipe's bytes as they are read: a family of
# MAX_FAMILY_BYTES of projectors with every [re, im] entry spelled at the
# writer's widest (54 bytes with its separator), and as many bytes again
# for its states, brackets and keys, which take fewer from d = 3 on.
_MAX_DOCUMENT_BYTES = (
    2
    * (MAX_FAMILY_BYTES // np.dtype(complex).itemsize)
    * len(json.dumps([-2.2250738585072014e-308] * 2) + ", ")
)

# Bytes a load reads at once from a pipe, which has no size to read by.
_CHUNK = 1 << 20


def _is_number(x) -> bool:
    """A JSON number; ``bool`` subclasses ``int`` but true/false are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _first(failing: np.ndarray, rows: list) -> Optional[int]:
    """The label row of the first ``failing`` entry in document order ``rows``, or None."""
    failing = failing[rows]
    return rows[int(np.argmax(failing))] if failing.any() else None


def _plain_matrix(raw: list, shape: Optional[tuple] = None) -> Optional[np.ndarray]:
    """``raw`` as a float (m, m, 2) array, m its length; None unless it is plain.

    Plain means m rows of m [re, im] lists of ``int`` and ``float`` values,
    none an integer beyond the float range; with a ``shape`` of (m, 2), m
    [re, im] lists, as a state's amplitudes are.  Each level's lengths are
    checked through ``set(map(len, ...))`` before it is flattened with
    ``chain.from_iterable``, and the leaves' exact types are checked once,
    all at C speed, so a well-formed matrix costs no Python call per entry.
    Containers need no type check of their own: in a JSON tree, a string
    or object where a list belongs either yields string leaves or fails a
    length, and a number, true/false or null makes ``len`` raise.  None
    means only that the per-matrix checks must look, not that the matrix
    is invalid: numeric subclasses such as ``np.float64`` miss here but are
    accepted there, and only there is a bad entry named.  ``bool`` is its
    own type, so true/false never pass.  Parts are not bounded here; the
    loader's walk bounds what it resolves.
    """
    shape, level = shape or (len(raw), len(raw), 2), raw
    try:
        for length in shape[1:]:
            if set(map(len, level)) != {length}:
                return None
            level = list(chain.from_iterable(level))
    except TypeError:  # a leaf where a list belongs
        return None
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        return np.array(level, dtype=float).reshape(shape)
    except OverflowError:  # an integer literal beyond the float range
        return None


def _parse_entry(raw, shape: tuple, where: str) -> np.ndarray:
    """``raw`` as a float array of ``shape``, a matrix's (d, d, 2) or a state's (d, 2).

    Read entry by entry: names the first bad entry and accepts numeric
    subclasses such as ``np.float64``.  An array is read as its lists,
    which name a bad entry as the document spells it; an integer beyond the
    float range reads as inf, for the walk's bound to refuse.  Its parts
    are not bounded here.
    """
    d, matrix = shape[0], len(shape) == 3
    if isinstance(raw, np.ndarray):
        raw = raw.tolist()
    if not isinstance(raw, list) or len(raw) != d:
        rows = "matrix must have {} rows" if matrix else "amplitudes must have {} entries"
        raise ValueError(f"{where}: {rows.format(d)}")
    for p, row in enumerate(raw if matrix else [raw]):
        if not isinstance(row, list) or len(row) != d:
            raise ValueError(f"{where}: row {p} must have {d} entries")
        for q, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
                entry = (p, q) if matrix else q
                raise ValueError(f"{where}, entry {entry}: expected an [re, im] pair")
    try:
        return np.array(raw, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        return np.full(shape, np.inf)


def _converted(pairs: list) -> dict:
    """``json.loads`` object pairs hook: the object's dict, plain [re, im] lists as float arrays.

    Called as the parser finishes each object, so a matrix's or a state's
    nested lists are freed as soon as it is read, and a document's tree of
    [re, im] lists never exists whole.  An object that repeats a key is
    refused: ``json.loads`` alone would keep the last value and load bytes
    whose first value is bad.  In any object with an ``alpha``, a list
    ``matrix`` or ``amplitudes`` is converted; anything else, a matrix or
    amplitude list that is not plain among them, is returned as parsed,
    for the loader to judge.
    """
    entry = dict(pairs)
    if len(entry) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} is repeated in one object")
            seen.add(key)
    if "alpha" in entry:
        matrix, amplitudes = entry.get("matrix"), entry.get("amplitudes")
        if type(matrix) is list and (array := _plain_matrix(matrix)) is not None:
            entry["matrix"] = array
        if type(amplitudes) is list:
            if (array := _plain_matrix(amplitudes, (len(amplitudes), 2))) is not None:
                entry["amplitudes"] = array
    return entry


def _indexed(array: np.ndarray, items: str, key: str) -> list:
    """Document shape of a C-contiguous complex (n, d, ...) array, entries as [re, im] views."""
    pairs = array.view(float).reshape(*array.shape, 2)
    return [
        {"basis_index": a, items: [{"alpha": alpha, key: v} for alpha, v in enumerate(group)]}
        for a, group in enumerate(pairs)
    ]


@dataclass(frozen=True)
class FamilyDocument:
    """In-memory form of the interchange JSON for a projector family.

    ``bases`` is the raw JSON-shaped list: one dict per basis with its
    ``basis_index`` and a ``projectors`` list of {alpha, matrix} dicts.
    ``states`` optionally mirrors that structure with amplitude vectors.
    ``metadata`` is free-form (generator, seed, source and the like).
    Loaded by :func:`load_family`, each plain matrix is a float (d, d, 2)
    array and each plain amplitude list a float (d, 2) array, converted as
    it was parsed, and everything else is as parsed; built by
    :meth:`from_family`, matrices and amplitudes are float (..., 2) views
    of the family's arrays.
    :meth:`to_payload` hands out these lists and arrays as they are.
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
            _check_parts(arr, "state amplitudes")
            states_doc = _indexed(arr, "vectors", "amplitudes")
        return cls(FORMAT_VERSION, family.dim, bases, states_doc, dict(metadata or {}))

    def to_payload(self) -> dict:
        """The document as a JSON payload, holding the document's own lists and arrays.

        :func:`write_json` encodes it as ``json.dumps`` would with each
        array read as its ``tolist()``.
        """
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
        if "states" in payload and not isinstance(states, list):
            raise ValueError("'states', when present, must be a list")
        return cls(version, dimension, bases, states, metadata)

    def _walk(self, section: list, n: Optional[int], items: str, key: str, prefix: str = ""):
        """A section's float arrays, per basis in label order, and its label rows in document order.

        ``bases`` is walked with ("projectors", "matrix") and ``n`` None, for
        its own count; ``states`` with ("vectors", "amplitudes"), the
        family's ``n`` and the ``prefix`` "states: " on each refusal.  In
        document order: one object per basis with its own ``basis_index``,
        indices covering 0..n-1, n in 1..d+1, then, basis by basis, a list
        of d objects whose alphas cover 0..d-1, its slots made only then.
        An entry's float, C-contiguous array of its shape, as the parse hook
        or :meth:`from_family` makes it, passes as it is; anything else is
        read by :func:`_parse_entry`.  One vectorised bound over what is
        resolved runs at the end and before any structural refusal, so the
        first defect in document order is named, structural or a bound.
        """
        d, indexed = self.dimension, {}
        for item in section:
            if not isinstance(item, dict) or "basis_index" not in item:
                raise ValueError(f"{prefix}each basis must be an object with a 'basis_index'")
            a = item["basis_index"]
            if not _is_index(a) or a in indexed:
                raise ValueError(f"{prefix}basis_index {a!r} is invalid or duplicated")
            indexed[a] = item
        n = len(indexed) if n is None else n
        if sorted(indexed) != list(range(n)):
            raise ValueError(
                f"{prefix}basis_index values must cover 0..{n - 1}, got {sorted(indexed)}"
            )
        if not 1 <= n <= d + 1:
            raise ValueError(f"num_bases must lie in 1..d+1 = 1..{d + 1}, got {n}")
        shape, parts = ((d, d, 2), "matrix entries") if key == "matrix" else ((d, 2), key)
        slots, resolved, rows = [], [], []
        try:
            for a in range(n):
                entries, basis = indexed[a].get(items), f"{prefix}basis {a}"
                if not isinstance(entries, list) or len(entries) != d:
                    raise ValueError(f"{basis}: expected {d} {items}")
                slots.append([None] * d)
                for entry in entries:
                    if not isinstance(entry, dict) or "alpha" not in entry:
                        raise ValueError(f"{basis}: each {items[:-1]} needs an 'alpha'")
                    alpha = entry["alpha"]
                    if not _is_index(alpha) or not 0 <= alpha < d or slots[a][alpha] is not None:
                        raise ValueError(f"{basis}: alpha {alpha!r} is invalid or duplicated")
                    array = entry.get(key)
                    ready = type(array) is np.ndarray and array.dtype == float
                    if not ready or array.shape != shape or not array.flags.c_contiguous:
                        array = _parse_entry(array, shape, f"{basis}, vector {alpha}")
                    slots[a][alpha] = array
                    resolved.append(array)
                    rows.append(a * d + alpha)
        finally:
            if resolved:
                bounded = _bounded(np.array(resolved)).reshape(len(resolved), -1).all(axis=1)
                if not bounded.all():
                    k = int(np.argmin(bounded))
                    _check_parts(resolved[k], f"{_where(rows[k], d, prefix)}: {parts}")
        return slots, rows

    def _check_states(self, family: MubFamily, tolerance: float) -> None:
        """Refuse a ``states`` section that is malformed or contradicts ``family``.

        Structure and bounds as :meth:`_walk` reads the bases: one
        {basis_index, vectors} object per basis of the family, each with d
        {alpha, amplitudes} objects, each ``amplitudes`` d [re, im] number
        pairs with parts bounded as a matrix's are, the first defect in
        document order named.  Then, check by check: ||v||^2 within
        ``tolerance`` of 1, and Re <v|P|v> within it of 1 for the projector
        P of the same label.  Each names its first failing state, by basis
        index and then document order.
        """
        n, d = family.num_bases, family.dim
        slots, rows = self._walk(self.states, n, "vectors", "amplitudes", "states: ")
        where = partial(_where, d=d, prefix="states: ")
        values = np.array(slots).reshape(n * d, d, 2)
        flat = values.reshape(n * d, 2 * d)
        squared = np.einsum("ij,ij->i", flat, flat)
        if (i := _first(~(np.abs(squared - 1.0) <= tolerance), rows)) is not None:
            raise ValueError(
                f"{where(i)}: squared norm deviates from 1 by {abs(squared[i] - 1.0):.3e} "
                f"(tolerance {tolerance:.1e})"
            )
        # <v|P|v> = ||v||^2 <u|P|u> for the unit u = v / ||v||, whose terms
        # stay finite; the product passes the float range only at a
        # tolerance past 1e150, and then reads inf, which no tolerance passes.
        norms = np.sqrt(squared)
        unit = values.view(complex).reshape(n * d, d) / np.where(norms > 0.0, norms, 1.0)[:, None]
        stack = family.projectors.reshape(n * d, d, d)
        with np.errstate(over="ignore"):
            overlap = squared * (unit.conj()[:, None] @ stack @ unit[:, :, None])[:, 0, 0].real
        if (i := _first(~(np.abs(overlap - 1.0) <= tolerance), rows)) is not None:
            raise ValueError(
                f"{where(i)}: <v|P|v> with its projector deviates from 1 by "
                f"{abs(overlap[i] - 1.0):.3e} (tolerance {tolerance:.1e})"
            )

    def to_family(self, tolerance: float = LOAD_TOLERANCE) -> MubFamily:
        """Validate the document and return its projector family.

        :meth:`_walk` reads the ``bases`` before the family is stacked, so a
        document declaring a huge dimension allocates nothing larger than
        itself.  Then the family's cached :attr:`~MubFamily.invariants` at
        ``tolerance``: Hermitian symmetry (worst entry named), unit trace,
        and no eigenvalue below ``-tolerance``; the first failing matrix, by
        basis index and then document order, is named with its first failed
        check.  A family whose every projector is certified rank 1 within
        ``tolerance`` by its one-column residual passes the eigenvalue check
        without an eigensolve; any other is solved here, and the solve is
        not kept.  The returned family keeps its certificate.  A ``states``
        section is checked last, by :meth:`_check_states`, and then dropped.
        """
        _check_tolerance(tolerance)
        d = self.dimension
        slots, rows = self._walk(self.bases, None, "projectors", "matrix")
        # The only copy of the projectors, from complex views of the arrays.
        family = MubFamily([[m.view(complex).reshape(d, d) for m in basis] for basis in slots])
        hermiticity, trace = family.invariants
        # Weyl's inequality puts no eigenvalue below -r, so a family whose
        # every residual is within tolerance passes without a solve.
        stack = family.projectors.reshape(-1, d, d)
        _, r = family.rank_one_certificate
        if np.all(r <= tolerance):
            lowest = -r
        else:
            spectrum = eigen_hermitian(stack, hermiticity_tol=np.inf, values_only=True)
            lowest = spectrum.eigenvalues[:, -1]
        # The invariants come in label order; read them in document order.
        failing = (hermiticity > tolerance) | (trace > tolerance) | (lowest < -tolerance)
        if (i := _first(failing, rows)) is not None:
            where = _where(i, d)
            if hermiticity[i] > tolerance:
                p, q = divmod(int(np.abs(stack[i] - stack[i].conj().T).argmax()), d)
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
        if self.states is not None:
            self._check_states(family, tolerance)
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
    whole document is never held as one string; a file takes them through
    a 64 KiB buffer.
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
        with open(path, "w", encoding="utf-8", buffering=1 << 16) as handle:
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
    write_json(doc.to_payload(), path)


def load_family(path: str, tolerance: float = LOAD_TOLERANCE) -> MubFamily:
    """Read and validate a family document; returns its projectors.

    Raises on unreadable files, documents larger than any document of a
    family within :data:`~mubkit.algebra.MAX_FAMILY_BYTES` (a regular file
    is refused by its size before a byte is read, a pipe once one byte
    past the limit has been read), malformed or too deeply nested JSON,
    structural inconsistencies, projector-invariant violations (named
    per basis, vector, entry), and states that are malformed or contradict
    their projectors (named per basis and vector).  When the numbers at the
    head and the tail of the document repeat, as in a closed-form family,
    float literals are parsed through a bounded per-load table keyed by
    their text, so a repeated literal costs a lookup; otherwise each is
    parsed by ``float``.
    Each projector's plain matrix, and each state's plain amplitude list,
    is converted to a float array as the parser finishes it, and its lists
    are freed then, so the peak memory of a load is the document's bytes
    plus its text, about twice its size; only the matrix or amplitude list
    that fails, if one does, is read entry by entry.
    A document that is not UTF-8, or has an object that repeats a key, is
    refused with its path named.
    """
    return _load_family(path, tolerance)[0]


def _load_family(path: str, tolerance: float = LOAD_TOLERANCE, digest: bool = False) -> tuple:
    """:func:`load_family`'s family, and with ``digest`` the SHA-256 of the bytes it read."""
    _check_tolerance(tolerance)
    text, sha256 = _read_document(path, digest)
    try:
        payload = json.loads(text, parse_float=_parse_float(text), object_pairs_hook=_converted)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path!r} is nested too deeply to parse: {exc}") from exc
    except ValueError as exc:  # a repeated key, or an integer too long for int()
        raise ValueError(f"{path!r}: {exc}") from exc
    del text  # freed before the family is allocated
    return FamilyDocument.from_payload(payload).to_family(tolerance), sha256


def _read_document(path: str, digest: bool) -> tuple:
    """The text at ``path`` and, with ``digest``, the hex SHA-256 of its bytes.

    Refused when longer than _MAX_DOCUMENT_BYTES.
    """
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size > _MAX_DOCUMENT_BYTES:
                raise ValueError(
                    f"family document {path!r} has {size} bytes, "
                    f"above the {_MAX_DOCUMENT_BYTES}-byte limit"
                )
            # A regular file is read in one step; a pipe reports no size,
            # so it is read in chunks, counted.
            step, chunks, left = max(size + 1, _CHUNK), [], _MAX_DOCUMENT_BYTES + 1
            while left and (chunk := handle.read(min(step, left))):
                chunks.append(chunk)
                left -= len(chunk)
    except OSError as exc:
        raise OSError(f"could not read {path!r}: {exc}") from exc
    if not left:
        raise ValueError(
            f"family document {path!r} runs past the {_MAX_DOCUMENT_BYTES}-byte limit"
        )
    data = b"".join(chunks)
    sha256 = hashlib.sha256(data).hexdigest() if digest else None
    # Decoded as a text-mode read would: a BOM is kept, for json to refuse,
    # and line ends are read as "\n", so JSON error positions stay the same.
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path!r} is not UTF-8 text: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text, sha256


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

