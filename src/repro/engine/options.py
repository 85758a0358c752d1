"""A single frozen bundle for the execution knobs shared by every runner.

Engine, workers, jit and the four checkpoint fields are how a workload
runs, never what it computes.  :class:`ExecutionOptions` is the one place
they are declared and validated: :func:`repro.scenarios.runner.run_scenario`
and :func:`repro.scenarios.runner.run_sweep` take them only as
``options=ExecutionOptions(...)``, next to the ``effort``/``preset``
keywords that choose what runs.  :func:`execution_metadata` stamps the
resolved settings into ``metadata["execution"]``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

from repro.engine.errors import ConfigurationError
from repro.engine.parallel import resolve_workers

__all__ = ["ExecutionOptions", "execution_metadata", "jit_status"]


@dataclasses.dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a workload — everything except *what* to run.

    Parameters
    ----------
    engine:
        Engine name to force, ``"auto"`` to auto-select, or ``None`` to
        defer to the spec's pinned engine / auto policy.
    workers:
        ``None`` (serial), ``"auto"`` (capped CPU count) or an integer
        worker-process count for sharded execution.
    jit:
        Request the compiled kernel backend (best effort; the availability
        outcome is recorded in the result metadata).
    checkpoint_every / checkpoint_dir / resume_from / interrupt_after:
        Crash-recovery knobs, as documented on
        :func:`repro.engine.runner.run_engine_trials`.
    """

    engine: str | None = None
    workers: int | str | None = None
    jit: bool = False
    checkpoint_every: int | None = None
    checkpoint_dir: Any = None
    resume_from: Any = None
    interrupt_after: int | None = None

    def __post_init__(self) -> None:
        from repro.engine.registry import validate_engine_request

        validate_engine_request(self.engine)
        resolve_workers(self.workers)
        if not isinstance(self.jit, bool):
            raise ConfigurationError(f"jit must be a bool, got {self.jit!r}")
        for name in ("checkpoint_every", "interrupt_after"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigurationError(
                    f"{name} must be a positive integer or None, got {value!r}"
                )
        if self.interrupt_after is not None and not self.checkpointing:
            raise ConfigurationError(
                "interrupt_after requires checkpointing "
                "(checkpoint_every/checkpoint_dir/resume_from)"
            )

    @property
    def checkpointing(self) -> bool:
        """Whether any crash-recovery knob is active."""
        return (
            self.checkpoint_every is not None
            or self.checkpoint_dir is not None
            or self.resume_from is not None
        )

    def replace(self, **changes: Any) -> "ExecutionOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


def jit_status(jit: bool) -> str:
    """Resolved jit mode: ``"off"``, ``"compiled"`` or ``"fallback: <why>"``."""
    if not jit:
        return "off"
    from repro.kernels import availability

    status = availability()
    return "compiled" if status.enabled else f"fallback: {status.reason}"


def execution_metadata(
    *,
    requested_engine: str | None,
    engines_used: Sequence[str],
    workers: int | None,
    jit: bool,
) -> dict[str, Any]:
    """The fully resolved execution config stamped on every result.

    Auto-resolved knobs (``engine=None``/``"auto"``, ``workers="auto"``)
    are recorded *after* resolution so cached artifacts are self-describing:
    the block alone reproduces the run without re-deriving the auto policy.
    """
    engines = list(dict.fromkeys(engines_used))
    return {
        "requested_engine": requested_engine,
        "engine": engines[0] if len(engines) == 1 else "mixed",
        "engines": engines,
        "workers": workers,
        "jit_requested": jit,
        "jit": jit_status(jit),
    }
