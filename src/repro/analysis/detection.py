"""Attack detection experiment driver (paper Section IV-A2 / Table II).

For each malware sample, the experiment runs the infected host
application twice:

1. under the host's **per-application kernel view** (FACE-CHANGE), and
2. under the **union view** of all profiled applications -- the
   stand-in for traditional system-wide kernel minimization.

Detection evidence = anomalous (non-interrupt, non-whitelisted) kernel
code recoveries attributed to the host's view.  The paper's headline
security claim is that per-app views catch attacks whose kernel
footprint hides inside the union view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.kernel_view import KernelViewConfig, union_view
from repro.fleet.jobs import attack_evidence, benign_baseline, run_under_view
from repro.guest.machine import boot_machine
from repro.kernel.runtime import Platform


@dataclass
class DetectionResult:
    """Outcome of one malware sample's evaluation."""

    name: str
    infection_method: str
    payload: str
    host_app: str
    detected_per_app: bool
    detected_union: bool
    #: anomalous kernel functions recovered under the per-app view
    evidence: List[str] = field(default_factory=list)
    #: anomalous kernel functions recovered under the union view
    union_evidence: List[str] = field(default_factory=list)
    #: True when any backtrace contained UNKNOWN (hidden-module) frames
    unknown_frames: bool = False

    def row(self) -> str:
        verdicts = (
            f"per-app: {'DETECTED' if self.detected_per_app else 'missed'}; "
            f"union: {'DETECTED' if self.detected_union else 'missed'}"
        )
        return f"{self.name:<14} {self.infection_method:<44} {verdicts}"


def evaluate_attack(
    attack,
    configs: Dict[str, KernelViewConfig],
    scale: int = 4,
    max_cycles: int = 60_000_000_000,
) -> DetectionResult:
    """Run one Table II sample under per-app and union views.

    Under each view, a clean run of the host records the benign
    recoveries that incomplete profiling causes ("recorded as a
    reference for the administrator", paper III-B3) and the infected
    run's evidence is what remains once they are subtracted -- the same
    enforced run and detection rule a fleet job uses.
    """
    host = attack.host_app
    union_config = union_view(configs.values())
    verdicts = []
    for config in (
        configs[host],
        KernelViewConfig(app=host, profile=union_config.profile),
    ):
        baseline = benign_baseline(config, host, scale, max_cycles)
        machine = boot_machine(platform=Platform.KVM)
        try:
            fc, _handle = run_under_view(
                machine, config, host, scale, attack=attack,
                budget=max_cycles, benign=baseline,
            )
            verdicts.append(attack_evidence(fc.log, baseline))
        finally:
            machine.close()
    (evidence, unknown), (union_evidence, union_unknown) = verdicts
    return DetectionResult(
        name=attack.name,
        infection_method=attack.infection_method,
        payload=attack.payload,
        host_app=host,
        detected_per_app=bool(evidence) or unknown,
        detected_union=bool(union_evidence) or union_unknown,
        evidence=evidence,
        union_evidence=union_evidence,
        unknown_frames=unknown,
    )
