"""repro.check — static checks: the code rules and the invariant auditor.

One package, one CLI (``repro check`` / ``python -m repro.check`` /
``repro-check``), one rule catalog (:func:`~repro.check.engine.catalog`)
and one file walk (:func:`~repro.check.engine.check_paths`):

* **code rules** (:mod:`~repro.check.rules`,
  :mod:`~repro.check.program_rules`, RPR0xx/1xx) over ``*.py`` files:
  determinism, canonical units, eager errors, sim-time safety, hot-path
  hygiene and the whole-program checks, with ``# repro: noqa RPR### —
  reason`` for deliberate exceptions;
* **the buffer-invariant auditor** (:mod:`~repro.check.invariants`,
  :mod:`~repro.check.artifacts`, RPR2xx) over specs and artifacts:
  threshold sums fit buffers, reserved rates fit links, routes connect,
  churn regions are feasible, artifacts carry current schema tags.  It
  is also the campaign runner's pre-flight.

``docs/checking.md`` gives each rule's rationale with good/bad examples.
The package re-exports nothing: import each name from the module that
defines it (``repro.check.engine.check_paths``, ...).  Importing
:mod:`repro.check.invariants` (the pre-flight) or
:mod:`repro.check.findings` therefore loads none of the code-rule
modules, and checking ``*.py`` files loads none of the auditor's.
"""
