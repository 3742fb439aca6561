"""The buffer-invariant auditor: semantic checks without simulation.

The paper's guarantee — conformant flows stay lossless whenever their
thresholds fit the shared buffer (Section 2) — rests on invariants the
fabric only enforces *while running*: per-node threshold sums, link
capacity over reserved rates, connected routes, feasible churn admission
regions.  This module verifies them statically, over a
:class:`~repro.experiments.fabric.NetworkScenario` or a raw spec file,
with the very functions :mod:`repro.experiments.fabric.build` applies at
run time (burst inflation via
:meth:`~repro.experiments.fabric.NetworkScenario.hop_sigmas`, region
selection via the scheme family, eqs. 5-9 of the paper).

Invariant findings reuse :class:`repro.check.findings.Finding` with
``RPR2##`` codes and a severity:

* scenarios **with churn** must satisfy the full admission region — the
  fabric raises :class:`~repro.errors.ConfigurationError` otherwise, so
  violations are ``error`` severity;
* scenarios **without churn** get ``warning`` severity, and only the
  conformant subpopulation is booked: overloading a buffer with
  non-conformant traffic is the paper's own experimental method, but a
  conformant population outside the region silently voids the lossless
  guarantee the experiment claims to demonstrate.
"""

from __future__ import annotations

import json
import pathlib

from repro.analysis.admission import AdmissionControl, Rejection
from repro.errors import ConfigurationError
from repro.experiments.fabric.build import _CHURN_SCHEMES, _admission_for
from repro.experiments.fabric.scenario import ChurnSpec, NetworkScenario
from repro.check.findings import Finding
from repro.net.topology import per_hop_sigma

__all__ = [
    "check_scenario",
    "check_scenario_dict",
    "check_spec_data",
    "check_spec_entry",
    "check_spec_file",
]

def check_scenario(
    scenario: NetworkScenario, path: str = "<scenario>", name: str = ""
) -> list[Finding]:
    """Audit one constructed scenario; returns RPR201/202/204 findings.

    Structural validity (RPR203) is enforced by the constructors; use
    :func:`check_scenario_dict` to audit raw data through the same gate.
    """
    findings: list[Finding] = []
    prefix = f"spec {name!r}: " if name else ""
    has_churn = scenario.churn is not None
    severity = "error" if has_churn else "warning"
    mode = scenario.churn.admission if has_churn else "auto"
    hop_sigmas = scenario.hop_sigmas()

    regions: dict[tuple[str, str], AdmissionControl] = {}
    for link in scenario.links:
        node = scenario.node(link.src)
        regions[(link.src, link.dst)] = _admission_for(
            node.scheme, mode, link.rate, node.buffer_size
        )

    # Book the statics hop by hop: with churn this mirrors the fabric's
    # pre-booking (which raises on failure); without churn only the
    # conformant flows carry a guarantee worth auditing.
    booked_clean = True
    for routed in scenario.flows:
        if not has_churn and not routed.spec.conformant:
            continue
        for key, sigma in hop_sigmas[routed.spec.flow_id].items():
            region = regions[key]
            decision = region.admit(sigma, routed.spec.token_rate)
            if decision:
                continue
            booked_clean = False
            label = f"{key[0]}->{key[1]}"
            if decision.reason is Rejection.BANDWIDTH_LIMITED:
                findings.append(
                    Finding(
                        "RPR202",
                        f"{prefix}flow {routed.spec.flow_id} does not fit "
                        f"link {label}: reserved rates would reach "
                        f"{region.rho_total + routed.spec.token_rate:.0f} "
                        f"of {region.link_rate:.0f} bytes/s (eq. 5/7)",
                        path,
                        1,
                        severity=severity,
                    )
                )
            else:
                findings.append(
                    Finding(
                        "RPR201",
                        f"{prefix}flow {routed.spec.flow_id} does not fit "
                        f"the buffer at link {label}: burst sum "
                        f"{region.sigma_total + sigma:.0f} bytes needs more "
                        f"than the {region.buffer_size:.0f}-byte buffer "
                        "under its admission region (eq. 6/8-9)",
                        path,
                        1,
                        severity=severity,
                    )
                )

    if has_churn:
        findings.extend(
            _check_churn(scenario, scenario.churn, regions, booked_clean, path, prefix)
        )
    return findings


def _check_churn(
    scenario: NetworkScenario,
    churn: ChurnSpec,
    regions: dict[tuple[str, str], AdmissionControl],
    booked_clean: bool,
    path: str,
    prefix: str,
) -> list[Finding]:
    """RPR204: scheme family at churn hops and residual-region feasibility."""
    findings: list[Finding] = []
    churn_nodes = {name for route in churn.routes for name in route[:-1]}
    schemes_ok = True
    for node_name in sorted(churn_nodes):
        node = scenario.node(node_name)
        if node.scheme not in _CHURN_SCHEMES:
            schemes_ok = False
            findings.append(
                Finding(
                    "RPR204",
                    f"{prefix}churn requires a FIFO-family scheme at every "
                    f"hop; node {node_name} runs {node.scheme.name} whose "
                    "scheduler cannot accept dynamically arriving flows",
                    path,
                    1,
                )
            )
    if not booked_clean or not schemes_ok:
        # The fabric raises before churn starts; feasibility over a
        # partially booked or mis-schemed region would be noise.
        return findings

    admissible_pairs = 0
    for template in churn.templates:
        for route in churn.routes:
            hops = list(zip(route, route[1:]))
            sigmas = per_hop_sigma(
                template.bucket,
                template.token_rate,
                [regions[hop].buffer_size / regions[hop].link_rate for hop in hops],
            )
            if all(
                regions[hop].check(sigma, template.token_rate)
                for hop, sigma in zip(hops, sigmas)
            ):
                admissible_pairs += 1
    if admissible_pairs == 0:
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


def check_scenario_dict(raw, path: str = "<scenario>", name: str = "") -> list[Finding]:
    """Audit raw scenario data: construction errors become RPR203."""
    prefix = f"spec {name!r}: " if name else ""
    try:
        scenario = NetworkScenario.from_dict(raw)
    except ConfigurationError as exc:
        return [Finding("RPR203", f"{prefix}{exc}", path, 1)]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [
            Finding("RPR203", f"{prefix}malformed scenario: {exc!r}", path, 1)
        ]
    return check_scenario(scenario, path, name)


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


def check_spec_file(path: str | pathlib.Path) -> list[Finding]:
    """Audit a JSON spec file (one spec object or a list of them)."""
    file_path = str(path)
    try:
        raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        return [Finding("RPR203", f"cannot read spec file: {exc}", file_path, 1)]
    except ValueError as exc:  # not JSON, or not UTF-8
        return [Finding("RPR203", f"not valid JSON: {exc}", file_path, 1)]
    return check_spec_data(raw, file_path)
