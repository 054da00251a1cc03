"""JSON persistence for families, reconstructed states, and certificates.

The interchange document stores every complex entry as an [re, im] pair.
:func:`write_json` writes every document and certificate as one line of
compact JSON, byte for byte what ``json.dumps`` writes, with numbers in
Python's shortest round-trippable decimal form, so a save followed by a
load reproduces each float bit for bit.  A family document repeats few
distinct floats (26 among the 61 516 of a closed-form family at d = 13),
so the writer formats each distinct float once and joins the pair blocks
from a table of those texts; the loader likewise parses each distinct
literal once through a bounded cache.  The loader validates everything
it reads at a fixed tolerance and names the offending (basis, vector,
entry) when a matrix fails; a document is never trusted just because this
package wrote it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
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

# Distinct float literals a load remembers, least recently used out first.
# A closed-form document spells a few dozen values tens of thousands of
# times; the bound caps what a document of distinct literals costs.
_FLOAT_LITERALS = 1024


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
        hermiticity, worst_entry, trace = _projector_invariants(family)
        # Weyl's inequality puts no eigenvalue below -r, so a family whose
        # every residual is within tolerance passes without a solve.
        _, r = family.rank_one_certificate
        lowest = -r if np.all(r <= tolerance) else family.spectrum.eigenvalues[:, -1]
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


def _pair_block(value: list) -> Optional[tuple]:
    """(nested, rows, pairs per row) when ``value`` is a block of [float, float] pairs.

    A block is a row of pairs (not nested, one row) or a list of equally
    long rows of pairs (nested), as :func:`_pairs` builds them.  Like
    :func:`_is_plain_matrix`, exact-type checks run at C speed; every part
    must be exactly ``float``, so ints, bools and float subclasses are left
    to ``json.dumps``.  None for anything else.
    """
    lengths = set(map(len, value))
    inner = list(chain.from_iterable(value))
    kinds = set(map(type, inner))
    if lengths == {2} and kinds == {float}:
        return False, 1, len(value)
    if (
        len(lengths) == 1
        and kinds == {list}
        and set(map(len, inner)) == {2}
        and set(map(type, chain.from_iterable(inner))) == {float}
    ):
        return True, len(value), len(inner) // len(value)
    return None


def _walk(value, pieces: list, blocks: list, open_ids: set) -> None:
    """Append the JSON text of ``value`` to ``pieces``, with a block index where pairs go.

    ``blocks`` receives (block, nested, rows, pairs per row) for each pair
    block.  Lists that hold lists or dicts and nonempty dicts with only
    ``str`` keys are walked; everything else is encoded by ``json.dumps``,
    which raises for what it cannot encode.
    """
    kind = type(value)
    kinds = set(map(type, value)) if kind in (list, dict) else None
    if kind is list and kinds == {list} and (shape := _pair_block(value)):
        blocks.append((value, *shape))
        pieces.append(len(blocks) - 1)
        return
    if kind is list and not kinds.isdisjoint((list, dict)):
        items, opener, closer = value, "[", "]"
    elif kind is dict and kinds == {str}:
        items, opener, closer = value.items(), "{", "}"
    else:
        pieces.append(json.dumps(value))
        return
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")  # json's own message
    open_ids.add(id(value))
    pieces.append(opener)
    for i, item in enumerate(items):
        if i:
            pieces.append(", ")
        if kind is dict:
            pieces.append(encode_basestring_ascii(item[0]) + ": ")
            item = item[1]
        _walk(item, pieces, blocks, open_ids)
    pieces.append(closer)
    open_ids.discard(id(value))


def _spell(values: np.ndarray) -> list:
    """JSON text of each float in ``values``, from one ``json.dumps`` call."""
    return json.dumps(values.tolist())[1:-1].split(", ") if len(values) else []


class _PairBlocks:
    """The pair blocks of one payload, encoded from one table of their distinct floats.

    Floats are keyed by their bit pattern, so -0.0 and 0.0 stay apart,
    and spelled by ``json.dumps``, so each reads exactly as json writes
    it, NaN and Infinity included.  A value that occurs more than once is
    spelled here, once; a value that occurs once is spelled with its block
    in :meth:`text`, so a document of distinct values never holds all
    their texts at once.
    """

    def __init__(self, blocks: list):
        self.blocks = blocks
        sizes = [2 * rows * cols for _, _, rows, cols in blocks]
        self.bounds = np.cumsum([0] + sizes).tolist()
        pairs = chain.from_iterable(
            chain.from_iterable(block) if nested else block for block, nested, _, _ in blocks
        )
        parts = np.fromiter(chain.from_iterable(pairs), dtype=float, count=self.bounds[-1])
        bits, self.index, counts = np.unique(
            parts.view(np.uint64), return_inverse=True, return_counts=True
        )
        del parts
        self.values = bits.view(float)
        self.repeated = counts > 1
        self.texts = np.empty(len(bits), dtype=object)
        self.texts[self.repeated] = _spell(self.values[self.repeated])

    def text(self, k: int) -> str:
        """JSON text of block ``k``: its numbers interleaved with their separators, joined once."""
        _, nested, _, cols = self.blocks[k]
        index = self.index[self.bounds[k] : self.bounds[k + 1]]
        numbers = self.texts[index]
        once = np.flatnonzero(~self.repeated[index])
        numbers[once] = _spell(self.values[index[once]])
        parts = np.empty(2 * len(numbers) - 1, dtype=object)
        parts[0::2] = numbers
        parts[1::2] = ", "
        parts[3::4] = "], ["
        if not nested:
            return "[[" + "".join(parts) + "]]"
        parts[4 * cols - 1 :: 4 * cols] = "]], [["
        return "[[[" + "".join(parts) + "]]]"


def write_json(payload: dict, path: Optional[str]) -> None:
    """Write a payload as one line of JSON to ``path``, or to stdout without one.

    The package's only JSON encoder.  The bytes are exactly
    ``json.dumps(payload) + "\\n"`` for every payload.  The pair blocks
    that hold a family document's numbers (lists of [re, im] float pairs,
    or of rows of them) are encoded from one value table per call: each
    distinct float is formatted once, by ``json.dumps``, and each block is
    joined from those texts.  Keys are escaped by json's own string
    encoder; every other value goes through ``json.dumps``.  The payload is
    walked and the table built before the target is opened, so a payload
    that cannot be encoded raises and leaves an existing file untouched;
    each block's text is then built only as it is written, so the whole
    document is never held as one string.
    """
    pieces, blocks = [], []
    _walk(payload, pieces, blocks, set())
    encoded = _PairBlocks(blocks)

    def write(handle) -> None:
        for piece in pieces:
            handle.write(encoded.text(piece) if type(piece) is int else piece)
        handle.write("\n")

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
    write_json(doc.to_payload(), path)


def load_family(path: str, tolerance: float = LOAD_TOLERANCE) -> MubFamily:
    """Read and validate a family document; returns its projectors.

    Raises on unreadable files, malformed JSON, structural inconsistencies,
    and projector-invariant violations (named per basis, vector, entry).
    Each float literal is parsed through a bounded per-load cache, so a
    repeated literal costs a lookup.
    """
    _check_tolerance(tolerance)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle, parse_float=lru_cache(maxsize=_FLOAT_LITERALS)(float))
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
