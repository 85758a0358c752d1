"""The single probe deciding whether the HTTP serving layer can be built.

The core of :mod:`repro.serve` — cache keys, the job queue, the result
cache, the service facade — is framework-free and always importable.  Only
the HTTP layer (:mod:`repro.serve.app`) needs FastAPI, which ships behind
the optional ``[serve]`` extra.  Everything that cares asks
:func:`availability` instead of importing ``fastapi`` directly, so the
"extra not installed" decision is made exactly once, for exactly one reason,
and surfaces as a clean one-line error rather than an ImportError traceback.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeAvailability", "availability"]

#: Cached result of the import probe: ``(importable, reason, version)``.
_IMPORT_PROBE: tuple[bool, str, str | None] | None = None


@dataclass(frozen=True)
class ServeAvailability:
    """Outcome of the HTTP-layer probe.

    Attributes
    ----------
    enabled:
        Whether :func:`repro.serve.create_app` can build the FastAPI app.
    reason:
        Human-readable explanation (surfaced by ``/healthz`` when serving,
        and by the error raised when the extra is missing).
    fastapi_version:
        The installed FastAPI version, or ``None`` when not importable.
    """

    enabled: bool
    reason: str
    fastapi_version: str | None = None


def availability() -> ServeAvailability:
    """Whether the FastAPI layer is importable, and why (not).

    The probe runs once per process and is cached — a missing extra cannot
    appear mid-process.
    """
    global _IMPORT_PROBE
    if _IMPORT_PROBE is None:
        try:
            import fastapi
        except Exception as exc:  # ImportError or a broken installation
            _IMPORT_PROBE = (
                False,
                "fastapi is not importable "
                f"({type(exc).__name__}: {exc}); install the [serve] extra",
                None,
            )
        else:
            version = getattr(fastapi, "__version__", "unknown")
            _IMPORT_PROBE = (True, f"fastapi {version} available", version)
    return ServeAvailability(*_IMPORT_PROBE)
