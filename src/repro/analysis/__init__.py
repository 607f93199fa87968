"""Correctness tooling for the task runtime (TileSan + lint).

Three layers, all built on the same premise as the paper's runtime:
the task DAG is only as correct as the declared tile footprints.

* :mod:`.sanitizer` — **TileSan**, a dynamic footprint sanitizer.
  While a task's payload runs (eagerly in ``Runtime.submit`` or on a
  :class:`~repro.runtime.parallel.ParallelExecutor` worker), every
  actual ``DistMatrix`` tile access is recorded and diffed against the
  task's declared ``reads``/``writes``.  Undeclared accesses are data
  races waiting for the threads backend; phantom declarations are
  over-synchronization.
* :mod:`.races` — a **happens-before race checker** over a recorded
  :class:`~repro.runtime.graph.TaskGraph`: any two conflicting tile
  accesses with no dependency path between them are a true race the
  threaded backend could hit.  Exposed as ``TaskGraph.check_races()``.
* :mod:`.lint` — **repro-lint**, a static AST pass with repo-specific
  rules over task-submitting code (footprints declared, payload tile
  accesses covered, no re-entrant syncs inside payloads).

The ``repro lint`` CLI verb drives all three; the tier-1 suite runs
with ``REPRO_SANITIZE=raise`` in CI.
"""

from .lint import LintFinding, lint_paths, lint_source
from .races import RaceError, RaceFinding, ancestor_bitsets, check_races
from .sanitizer import (
    SANITIZE_MODES,
    SanitizerError,
    SanitizerFinding,
    SanitizerWarning,
    TileSanitizer,
    sanitize_mode_from_env,
)

__all__ = [
    "LintFinding",
    "lint_paths",
    "lint_source",
    "RaceError",
    "RaceFinding",
    "ancestor_bitsets",
    "check_races",
    "SANITIZE_MODES",
    "SanitizerError",
    "SanitizerFinding",
    "SanitizerWarning",
    "TileSanitizer",
    "sanitize_mode_from_env",
]
