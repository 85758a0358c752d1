"""The numba import probe that perfbench's provenance records.

The package keeps only :func:`availability`, which
``perfbench/workload.py::provenance()`` imports at the end of every
benchmark run to stamp ``numba_available`` / ``numba_reason`` into its
report.  No simulation path reads it: every protocol runs on its NumPy
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NumbaAvailability", "availability"]

#: Cached result of the import probe: ``(importable, reason)``.
_IMPORT_PROBE: tuple[bool, str] | None = None


@dataclass(frozen=True)
class NumbaAvailability:
    """Outcome of the numba import probe.

    Attributes
    ----------
    enabled:
        Whether ``numba`` is importable in this process.
    reason:
        Human-readable explanation, with the version when importable.
    """

    enabled: bool
    reason: str


def availability() -> NumbaAvailability:
    """Whether numba is importable, and why (not).

    The probe runs once per process and is cached — importing numba is
    expensive, and a missing numba cannot appear mid-process.
    """
    global _IMPORT_PROBE
    if _IMPORT_PROBE is None:
        try:
            import numba
        except Exception as exc:  # ImportError or a broken installation
            _IMPORT_PROBE = (
                False,
                f"numba is not importable ({type(exc).__name__}: {exc})",
            )
        else:
            _IMPORT_PROBE = (True, f"numba {getattr(numba, '__version__', 'unknown')} available")
    return NumbaAvailability(*_IMPORT_PROBE)
