"""Central deprecation registry for the public API.

Every backwards-compatibility shim in the codebase funnels through
:func:`warn_deprecated` with a key registered in :data:`DEPRECATIONS`.
An empty registry means no shim is live; the machinery stays so that
any future deprecation keeps two guarantees cheaply:

* the test suite can run *warning-clean* — ``pyproject.toml`` escalates
  :class:`ReproDeprecationWarning` (and only it — third-party
  ``DeprecationWarning`` noise is untouched) to an error, so no in-repo
  code path may rely on a deprecated spelling;
* ``scripts/check_api_surface.py --deprecations`` fails when a
  registered deprecation is missing from the DESIGN.md section 12
  migration table, so every warning a user can hit documents its
  replacement.

Keys are stable identifiers; the values are the *old* spelling (which
must appear verbatim in the migration table) and the replacement.
"""

from __future__ import annotations

import warnings
from typing import Dict, Tuple

__all__ = ["ReproDeprecationWarning", "DEPRECATIONS", "warn_deprecated"]


class ReproDeprecationWarning(DeprecationWarning):
    """A deprecation emitted by this codebase's own compatibility shims."""


#: key -> (old spelling, replacement).  The old spelling must appear
#: verbatim in the DESIGN.md migration table (section 12).
DEPRECATIONS: Dict[str, Tuple[str, str]] = {}


def warn_deprecated(key: str, stacklevel: int = 3) -> None:
    """Emit the registered :class:`ReproDeprecationWarning` for ``key``."""
    old, new = DEPRECATIONS[key]
    warnings.warn(
        "{} is deprecated; use {} (see the migration table in DESIGN.md "
        "section 12)".format(old, new),
        ReproDeprecationWarning, stacklevel=stacklevel)
