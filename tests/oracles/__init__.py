"""Reference implementations the property tests compare the program against.

Each module here is a slow, exact alternative to an analytic model that
the program runs, kept only so tests can require agreement:

* :mod:`tests.oracles.memory` — one warp access priced at its exact line
  phase, against the phase-averaged region builders of
  :mod:`repro.kernels.loads`;
* :mod:`tests.oracles.trace` — lane-by-lane address enumeration, against
  the same builders and the static memory lint;
* :mod:`tests.oracles.scheduler` — the greedy event-driven block
  distributor, against the wave model of Eqns (8)-(9);
* :mod:`tests.oracles.expr` — a symmetric stencil written out as taps,
  against the general-expression evaluator and the parser;
* :mod:`tests.oracles.smem` — the bank-conflict degree by counting lanes
  into banks, against the closed form of
  :func:`repro.analysis.memaccess.analytic_conflict_degree`.

The package holds no ``test_*`` modules, so pytest collects nothing here.
"""
