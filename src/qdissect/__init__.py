"""qdissect: truncated q-series engine and congruence verification harness.

The package verifies eta-quotient dissection identities, replays derivation
chains move by move on truncated series, and checks arithmetic-progression
congruence families for regular-bipartition counting streams against an
independent combinatorial oracle.  Each name is imported from the module
that defines it: ``series``, ``qexpr``, ``oracle``, ``identities``,
``registry``, ``congruences`` or ``cli``.
"""

__version__ = "0.1.0"
