"""Spans around calls into mubkit's public functions, recorded from outside the package.

A :class:`Tracer` replaces each traced function, in every mubkit module
that binds it, with a wrapper that records a span (name, start, end,
parent) and restores the originals on exit.  Nothing inside ``src/`` is
changed; calls the package makes to its own public functions through
module globals (``build_family`` calling ``verify_family``, ``load_family``
calling ``FamilyDocument.to_family``) are caught because the globals are
patched too.  Spans stay in memory; :func:`layer_metrics` reduces them to
the per-layer numbers.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# The residuals of a verification certificate, named alike as VerificationReport
# fields and as keys of the certificate JSON.
CERT_RESIDUALS = (
    "max_self_residual",
    "max_cross_residual",
    "trace_residual",
    "hermiticity_residual",
    "angle_check",
)


def _report_info(args, kwargs, report) -> dict:
    worst = max(getattr(report, name) for name in CERT_RESIDUALS)
    return {"passed": bool(report.passed), "residual_max": float(worst)}


def _targets():
    """(span name, owner, attribute, info) for every traced public callable."""
    import mubkit.cli
    import mubkit.construct
    import mubkit.gauss
    import mubkit.io
    import mubkit.reconstruct
    import mubkit.search
    import mubkit.verify
    from mubkit.io import FamilyDocument
    from mubkit.search import SearchState

    return [
        ("construct.build_family", mubkit.construct, "build_family", None),
        ("verify.verify_family", mubkit.verify, "verify_family", _report_info),
        ("verify.verify_states", mubkit.verify, "verify_states", None),
        (
            "reconstruct.eigen_hermitian",
            mubkit.reconstruct,
            "eigen_hermitian",
            lambda a, k, r: {"sweeps": r.sweeps},
        ),
        ("reconstruct.reconstruct_all", mubkit.reconstruct, "reconstruct_all", None),
        ("io.from_family", FamilyDocument, "from_family", None),
        ("io.to_payload", FamilyDocument, "to_payload", None),
        ("io.from_payload", FamilyDocument, "from_payload", None),
        ("io.to_family", FamilyDocument, "to_family", None),
        (
            "io.write_json",
            mubkit.io,
            "write_json",
            lambda a, k, r: {"bytes": os.path.getsize(a[1])},
        ),
        (
            "io.load_family",
            mubkit.io,
            "load_family",
            lambda a, k, r: {"bytes": os.path.getsize(a[0])},
        ),
        ("search.from_family", SearchState, "from_family", None),
        (
            "search.run_search",
            mubkit.search,
            "run_search",
            lambda a, k, r: {"iterations": r.iterations_used},
        ),
        (
            "search.polish",
            mubkit.search,
            "polish",
            lambda a, k, r: {"iterations": r.iterations_used},
        ),
        ("search.objective", mubkit.search, "objective", None),
        ("search.gradient", mubkit.search, "gradient", None),
        ("gauss.check_factoring", mubkit.gauss, "check_factoring", None),
        ("cli.cli_dispatch", mubkit.cli, "cli_dispatch", lambda a, k, r: {"command": a[0][0]}),
    ]


class Tracer:
    """Context manager that records spans while active and restores everything on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "mubkit" or n.startswith("mubkit.")]
        for name, owner, attr, info in _targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__, info)))
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, raw, info))
            else:
                wrapped = self._wrap(name, raw, info)
                for module in modules:
                    if vars(module).get(attr) is raw:
                        self._patch(module, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name, func, info):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced


def _child_seconds(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return covered


def aggregate(spans: list[Span]) -> dict:
    """Per span name: call count, total seconds and self seconds (children excluded)."""
    child_seconds = _child_seconds(spans)
    out: dict = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.seconds
        entry["self_s"] += span.seconds - child_seconds[i]
    return out


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics that spans alone determine; None where no span measured them."""
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
    child_seconds = _child_seconds(spans)

    def picked(*names):
        return [spans[i] for n in names for i in by_name.get(n, [])]

    def total(*names):
        chosen = picked(*names)
        return sum(s.seconds for s in chosen) if chosen else None

    def median_us(name):
        chosen = picked(name)
        return statistics.median(s.seconds for s in chosen) * 1e6 if chosen else None

    def info_sum(name, key):
        chosen = picked(name)
        return sum(s.info.get(key, 0) for s in chosen) if chosen else None

    def self_total(name):
        chosen = by_name.get(name, [])
        if not chosen:
            return None
        return sum(spans[i].seconds - child_seconds[i] for i in chosen)

    def command_total(command):
        chosen = [s for s in picked("cli.cli_dispatch") if s.info.get("command") == command]
        return sum(s.seconds for s in chosen) if chosen else None

    searches = picked("search.run_search", "search.polish")
    # Polishing an exact family takes no iterations and says nothing about the rate.
    searching = [s for s in searches if s.info.get("iterations", 0) > 0]
    passing = [s.info["residual_max"] for s in picked("verify.verify_family") if s.info.get("passed")]
    eigen = picked("reconstruct.eigen_hermitian")
    return {
        "construct.build_family_s": total("construct.build_family"),
        "verify.verify_family_s": total("verify.verify_family"),
        "verify.verify_states_s": total("verify.verify_states"),
        "verify.cert_residual_max": max(passing) if passing else None,
        "reconstruct.eigen_us": median_us("reconstruct.eigen_hermitian"),
        "reconstruct.eigen_solves": len(eigen) if eigen else None,
        "reconstruct.jacobi_sweeps": info_sum("reconstruct.eigen_hermitian", "sweeps"),
        "reconstruct.reconstruct_all_s": total("reconstruct.reconstruct_all"),
        "io.serialize_s": total("io.from_family", "io.to_payload"),
        "io.write_s": total("io.write_json"),
        "io.parse_s": self_total("io.load_family"),
        "io.validate_s": total("io.from_payload", "io.to_family"),
        "io.bytes_written": info_sum("io.write_json", "bytes"),
        "io.bytes_read": info_sum("io.load_family", "bytes"),
        "search.from_family_s": total("search.from_family"),
        "search.objective_us": median_us("search.objective"),
        "search.gradient_us": median_us("search.gradient"),
        "search.iterations": sum(s.info.get("iterations", 0) for s in searches) if searches else None,
        "search.iterations_per_s": sum(s.info["iterations"] for s in searching)
        / sum(s.seconds for s in searching)
        if searching
        else None,
        "gauss.check_factoring_s": total("gauss.check_factoring"),
        "cli.construct_s": command_total("construct"),
        "cli.verify_s": command_total("verify"),
        "cli.reconstruct_s": command_total("reconstruct"),
        "cli.search_s": command_total("search"),
        "cli.self_s": self_total("cli.cli_dispatch"),
    }
