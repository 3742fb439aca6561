"""The buffer-invariant auditor: semantic checks without simulation.

The paper's guarantee — conformant flows stay lossless whenever their
thresholds fit the shared buffer (Section 2) — rests on invariants the
fabric only enforces *while running*: per-node threshold sums, link
capacity over reserved rates, connected routes, feasible churn admission
regions.  This module verifies them statically, over a
:class:`~repro.experiments.fabric.NetworkScenario` or a raw spec file,
by booking the scenario through the fabric's own admission code:
burst inflation via
:meth:`~repro.experiments.fabric.NetworkScenario.hop_sigmas`, and each
hop's region (eqs. 5-9 of the paper) — or, under reclamation, its live
buffer pool — via :func:`~repro.experiments.fabric.churn.book_hops` and
:func:`~repro.experiments.fabric.churn.hop_decision`, the test every
arriving flow gets.  What the auditor passes, the fabric books.

Invariant findings reuse :class:`repro.check.findings.Finding` with
``RPR2##`` codes and a severity:

* scenarios **with churn** must book every static flow — the fabric
  raises :class:`~repro.errors.ConfigurationError` otherwise, so
  refusals are ``error`` severity;
* scenarios **without churn** get ``warning`` severity, and only the
  conformant subpopulation is booked: overloading a buffer with
  non-conformant traffic is the paper's own experimental method, but a
  conformant population outside the region silently voids the lossless
  guarantee the experiment claims to demonstrate.
"""

from __future__ import annotations

from repro.analysis.admission import Rejection
from repro.errors import ConfigurationError
from repro.experiments.fabric.churn import book_hops, churn_scheme_faults, hop_decision
from repro.experiments.fabric.scenario import NetworkScenario
from repro.check.findings import Finding
from repro.net.topology import per_hop_sigma

__all__ = [
    "check_scenario",
    "check_spec_data",
]

def check_scenario(
    scenario: NetworkScenario, path: str = "<scenario>", name: str = ""
) -> list[Finding]:
    """Audit one constructed scenario; returns RPR201/202/204 findings.

    Structural validity (RPR203) is enforced by the constructors; raw
    data goes through the same gate in :func:`check_spec_entry`.
    """
    prefix = f"spec {name!r}: " if name else ""
    has_churn = scenario.churn is not None
    severity = "error" if has_churn else "warning"
    # With churn this is the fabric's own pre-booking (which raises on a
    # refusal); without churn only the conformant flows carry a
    # guarantee worth auditing.
    booked = [flow for flow in scenario.flows if has_churn or flow.spec.conformant]
    hops, refusals = book_hops(scenario, booked, scenario.hop_sigmas())
    findings = [
        Finding(
            "RPR202" if decision.reason is Rejection.BANDWIDTH_LIMITED else "RPR201",
            f"{prefix}flow {flow.flow_id} does not fit link {state.label} "
            f"({decision.reason.value}): its reservation (sigma {sigma:.0f} bytes, "
            f"rho {flow.token_rate:.0f} bytes/s) exceeds what is left of the "
            f"{state.rate:.0f}-bytes/s link (eq. 5/7) or of the "
            f"{state.buffer_size:.0f}-byte buffer (eq. 6/8-9; under reclamation, "
            "of the pool, for the base threshold sigma + rho B/R)",
            path,
            1,
            severity=severity,
        )
        for flow, state, sigma, decision in refusals
    ]
    if has_churn:
        findings.extend(_check_churn(scenario, hops, not refusals, path, prefix))
    return findings


def _check_churn(
    scenario: NetworkScenario, hops: dict, booked_clean: bool, path: str, prefix: str
) -> list[Finding]:
    """RPR204: scheme family at churn hops and residual-region feasibility."""
    faults = churn_scheme_faults(scenario)
    findings = [Finding("RPR204", f"{prefix}{fault}", path, 1) for fault in faults]
    if not booked_clean or faults:
        # The fabric raises before churn starts; feasibility over a
        # partially booked or mis-schemed region would be noise.
        return findings

    churn = scenario.churn
    for template in churn.templates:
        for route in churn.routes:
            states = [hops[hop] for hop in zip(route, route[1:])]
            delays = [state.delay_bound for state in states]
            sigmas = per_hop_sigma(template.bucket, template.token_rate, delays)
            if all(
                hop_decision(state, sigma, template.token_rate)
                for state, sigma in zip(states, sigmas)
            ):
                return findings
    findings.append(
        Finding(
            "RPR204",
            f"{prefix}churn admission region is infeasible: after "
            "booking the static flows, no template/route pair fits at "
            "every hop — every dynamic arrival would be blocked",
            path,
            1,
        )
    )
    return findings


def check_spec_entry(raw: dict, path: str, index: int = 0) -> list[Finding]:
    """Audit one spec-file entry (either input form)."""
    # Imported here: the spec module pulls in the campaign runner, which
    # the check import path must not load eagerly.
    from repro.experiments.spec import ScenarioSpec

    if not isinstance(raw, dict):
        return [
            Finding(
                "RPR203",
                f"spec entry {index} must be a JSON object, got "
                f"{type(raw).__name__}",
                path,
                1,
            )
        ]
    label = str(raw.get("name", f"entry {index}"))
    try:
        scenario = ScenarioSpec.from_dict(raw).scenario
    except ConfigurationError as exc:
        return [Finding("RPR203", f"spec {label!r}: {exc}", path, 1)]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [
            Finding("RPR203", f"spec {label!r}: malformed entry: {exc!r}", path, 1)
        ]
    return check_scenario(scenario, path, label)


def check_spec_data(raw, path: str) -> list[Finding]:
    """Audit parsed spec-file contents (one spec object or a list of them)."""
    entries = raw if isinstance(raw, list) else [raw]
    if not entries:
        return [Finding("RPR203", "spec file contains no entries", path, 1)]
    findings: list[Finding] = []
    for index, entry in enumerate(entries):
        findings.extend(check_spec_entry(entry, path, index))
    return findings
