"""Every numerical tolerance of the package, in one table.

The exact algebra leaves rounding residues of about ``1e-16`` times the size
of its inputs; each bound below sits orders of magnitude above that.  The
modules that apply a bound import it from here under its name in this table;
code and tests that need a bound import it from here too.

========================  ======  ==========================================================
name                      value   bound on
========================  ======  ==========================================================
``TABLE_TOL``             1e-10   ``FiniteRangeFunctional.equal``: max table deviation (fixed;
                                  ``equal`` passes ``deviation`` a budget of ``1e-3`` times it)
``DEVIATION_BUDGET``      1e-12   ``deviation``: mass left to terms it does not materialize;
                                  ``essential_window``: mass of the terms it leaves out
``RESIDUAL_TOL``          1e-9    ``decompose``: reconstruction and kernel-identity residual
``MARTINGALE_TOL``        1e-10   ``decompose``: one-step conditional expectation of a
                                  martingale component
``ORDER_CHECK_TOL``       1e-10   ``order_violations``: both band conditions per axis
``IDENTITY_TOL``          1e-10   ``selftest``: the exact-identity suites (the coboundary
                                  reconstruction and kernel rows use ``RESIDUAL_TOL``)
``TAIL_SUM_TOL``          1e-12   ``selftest``: the tail-sum suite's ``rhs - lhs``
``TAIL_SUM_RTOL``         1e-12   ``tail_sum_inequality``: relative slack of ``lhs >= rhs``
``CENTER_RTOL``           1e-12   ``|E f| / (1 + ||f||)`` of a functional taken as centered
``TERM_DROP``             1e-14   dependence profiles: a term at most ``TERM_DROP (1 + ||f||)``
                                  is an exact zero and is left out
``PROJECTION_DROP``       1e-12   ``projective_decomposition``: the same, relative to ``f``
``DELTA_BOUND_SLACK``     1e-9    ``comparison_report``: slack of each per-site physical
                                  dependence against its closed-form lower bound
========================  ======  ==========================================================

The ``selftest`` report's tolerance column prints ``IDENTITY_TOL``,
``RESIDUAL_TOL`` and ``TAIL_SUM_TOL`` (and ``0.0`` for the adapted-window
check).
"""

TABLE_TOL = 1e-10
DEVIATION_BUDGET = 1e-12
RESIDUAL_TOL = 1e-9
MARTINGALE_TOL = 1e-10
ORDER_CHECK_TOL = 1e-10
IDENTITY_TOL = 1e-10
TAIL_SUM_TOL = 1e-12
TAIL_SUM_RTOL = 1e-12
CENTER_RTOL = 1e-12
TERM_DROP = 1e-14
PROJECTION_DROP = 1e-12
DELTA_BOUND_SLACK = 1e-9
