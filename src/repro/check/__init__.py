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
Names resolve lazily, so importing :mod:`repro.check.invariants` (the
pre-flight) or :mod:`repro.check.findings` loads none of the code-rule
modules, and checking ``*.py`` files loads none of the auditor's.
"""

from __future__ import annotations

import importlib

#: public name -> the submodule defining it.
_EXPORTS = {
    "Finding": "findings",
    "LintParseError": "findings",
    "LintUsageError": "findings",
    "INVARIANT_CATALOG": "registry",
    "LintContext": "registry",
    "ProjectRule": "registry",
    "RULE_REGISTRY": "engine",  # engine import registers the rules
    "Rule": "registry",
    "register": "registry",
    "catalog": "engine",
    "check_paths": "engine",
    "failing": "engine",
    "lint_source": "engine",
    "render_json": "reporters",
    "render_text": "reporters",
    "summarize": "reporters",
    "check_scenario": "invariants",
    "check_scenario_dict": "invariants",
    "check_spec_file": "invariants",
    "check_artifact_file": "artifacts",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.check' has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.check.{module}"), name)
