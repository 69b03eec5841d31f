"""Pure terminal evaluation, memoized.

Built on the purity guarantee of :meth:`MacroLegalizer.legalize` (every
call rewinds to the canonical start state), a terminal legalize-and-place
result is a function of the assignment alone, so :class:`TerminalCache`
memoizes it within a run and, persisted to a run dir or a shared file,
across runs.
"""

from repro.parallel.cache import TerminalCache, environment_fingerprint

__all__ = [
    "TerminalCache",
    "environment_fingerprint",
]
