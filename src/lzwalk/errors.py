"""Exception types and hard caps shared across the package.

The caps live here, next to the ``ResourceLimitError`` that enforces them,
because every CLI mode validates against them and this module imports no
numpy: ``edge``, a linear ``sweep`` and every usage error check them
without loading an engine.  ``walk``, ``genfun``, ``pathsum`` and
``verify`` import them from here, so each cap is defined once.
"""

# longest walk; larger requests raise ResourceLimitError before anything is
# allocated (the cost estimate is in the ``walk`` docstring)
MAX_EVOLVE_STEPS = 100_000

# largest n_max and order - 1 of genfun.bounded_gf_table.  At the cap `series
# --steps 2000`, which keeps only its snapshot columns (1.5 MiB traced peak,
# the largest part the 36 baby rows), takes 0.04-0.05 s at p = 0.49 and 0.8
# and 0.06 s at p = 0.2 on a 2-core VM; a full table, which no CLI mode asks
# for, is two 2001 x 2001 complex arrays (122 MiB) and takes 1.2-2.0 s
# there, one dot per entry
MAX_TABLE_STEPS = 2000

# largest sweep grid; cost is linear in the points: at the cap a run takes
# 0.9-1.2 s and 64 MB peak RSS for CSV, 1.2-1.7 s and 99 MB for JSON
# (2-core shared VM, in process)
MAX_SWEEP_POINTS = 100_000

# longest path enumeration: the path count grows exponentially with tau
TAU_CAP = 16

# smallest tau_max verify.run_all accepts: check_recursion_relation's n_max
TAU_MIN = 4


class SingularityError(ValueError):
    """A series division met a (numerically) vanishing constant term."""


class DelocalizedError(ValueError):
    """An edge-state quantity was requested outside the localized regime."""


class ResourceLimitError(RuntimeError):
    """A hard cap (path length, step count) would be exceeded."""
