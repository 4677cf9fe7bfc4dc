"""Declarative fleet specification.

A fleet spec names a set of *jobs* -- each an (application, workload
scale, optional malware injection) triple -- plus fleet-wide execution
parameters: worker count, per-guest cycle budgets and wall-clock
timeouts, and the base RNG seed.  Specs are plain dicts (JSON-friendly)
so they can live in files and ship with benchmark configs::

    {
      "name": "nightly",
      "workers": 4,
      "seed": 20140623,
      "jobs": [
        {"app": "top", "scale": 2},
        {"app": "apache", "scale": 2, "attack": "kbeast"}
      ]
    }

Every job gets a **deterministic derived seed**: SHA-256 over the fleet
base seed and the job's identity.  Python's builtin ``hash()`` is
process-randomized and must never be used here -- derived seeds have to
match across the worker processes and any single-machine re-run used to
check bit-identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.guest.config import GuestConfig, GuestConfigError, resolve_guest

#: Fleet-wide default base seed (the paper's publication date).
DEFAULT_SEED = 20140623
#: Default per-guest virtual-cycle budget.
DEFAULT_MAX_CYCLES = 60_000_000_000
#: Default per-job wall-clock timeout (seconds), from when its clone is ready.
DEFAULT_TIMEOUT = 120.0


class FleetSpecError(Exception):
    """Malformed or unsatisfiable fleet specification."""


def derive_seed(base: int, identity: str) -> int:
    """Deterministic 63-bit seed for one job, stable across processes."""
    digest = hashlib.sha256(f"{base}:{identity}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class FleetJob:
    """One unit of fleet work: an app workload, optionally infected."""

    app: str
    scale: int = 2
    #: malware sample name (repro.malware.ALL_ATTACKS) to inject, or None
    attack: Optional[str] = None
    #: explicit seed override; None derives from the fleet base seed
    seed: Optional[int] = None
    max_cycles: int = DEFAULT_MAX_CYCLES
    timeout: float = DEFAULT_TIMEOUT
    #: guest build to run on; None means the default build
    guest: Optional[GuestConfig] = None
    #: unique within the spec; auto-assigned as ``app[+attack]#i``
    name: str = ""

    def __post_init__(self) -> None:
        if self.guest is not None and not isinstance(self.guest, GuestConfig):
            self.guest = resolve_guest(self.guest)

    def identity(self) -> str:
        suffix = f"+{self.attack}" if self.attack else ""
        variant = f"@{self.guest.label()}" if self.guest is not None else ""
        return f"{self.app}{suffix}{variant}"

    def guest_config(self) -> GuestConfig:
        """The job's guest build (the default build when unpinned)."""
        from repro.guest.config import DEFAULT_GUEST_CONFIG

        return self.guest if self.guest is not None else DEFAULT_GUEST_CONFIG

    def effective_seed(self, base: int) -> int:
        if self.seed is not None:
            return self.seed
        return derive_seed(base, self.name or self.identity())

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "app": self.app,
            "scale": self.scale,
            "max_cycles": self.max_cycles,
            "timeout": self.timeout,
        }
        if self.attack:
            data["attack"] = self.attack
        if self.seed is not None:
            data["seed"] = self.seed
        if self.guest is not None:
            data["guest"] = self.guest.to_dict()
        return data


_JOB_KEYS = {
    "name", "app", "scale", "attack", "seed", "max_cycles", "timeout", "guest",
}
_SPEC_KEYS = {
    "name", "workers", "seed", "jobs", "scale", "max_cycles", "timeout",
    "guest", "matrix",
}
_MATRIX_KEYS = {"apps", "attacks", "guests"}


def _resolve_guest_field(ref: object, where: str) -> GuestConfig:
    """Resolve a guest reference, re-prefixing errors with spec context."""
    try:
        return resolve_guest(ref)  # type: ignore[arg-type]
    except GuestConfigError as exc:
        field = f".{exc.field}" if exc.field else ""
        raise FleetSpecError(f"{where}{field}: {exc.message}") from exc


def expand_matrix(
    matrix: Dict[str, object], attacks: Dict[str, object]
) -> List[Dict[str, object]]:
    """Expand an app x attack x guest-variant cross-product into raw jobs.

    Every guest variant gets, per app, one clean job plus one job per
    listed attack hosted by that app.  Attacks whose host app is not in
    the matrix are an error (they would silently never run).
    """
    if not isinstance(matrix, dict):
        raise FleetSpecError(
            f"matrix: must be an object, got {type(matrix).__name__}"
        )
    unknown = set(matrix) - _MATRIX_KEYS
    if unknown:
        raise FleetSpecError(
            f"matrix: unknown keys: {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(_MATRIX_KEYS))})"
        )
    apps = matrix.get("apps")
    if not isinstance(apps, list) or not apps:
        raise FleetSpecError("matrix.apps: must be a non-empty list")
    raw_attacks = matrix.get("attacks", [])
    if not isinstance(raw_attacks, list):
        raise FleetSpecError("matrix.attacks: must be a list")
    for j, attack_name in enumerate(raw_attacks):
        attack = attacks.get(attack_name)
        if attack is None:
            raise FleetSpecError(
                f"matrix.attacks[{j}]: unknown malware sample {attack_name!r} "
                f"(available: {', '.join(sorted(attacks))})"
            )
        if attack.host_app not in apps:
            raise FleetSpecError(
                f"matrix.attacks[{j}]: {attack_name!r} infects "
                f"{attack.host_app!r}, which is not in matrix.apps"
            )
    raw_guests = matrix.get("guests", [None])
    if not isinstance(raw_guests, list) or not raw_guests:
        raise FleetSpecError("matrix.guests: must be a non-empty list")
    guests = [
        _resolve_guest_field(ref, f"matrix.guests[{g}]") if ref is not None else None
        for g, ref in enumerate(raw_guests)
    ]
    jobs: List[Dict[str, object]] = []
    for guest in guests:
        for app in apps:
            base: Dict[str, object] = {"app": app}
            if guest is not None:
                base["guest"] = guest
            jobs.append(dict(base))
            for attack_name in raw_attacks:
                if attacks[attack_name].host_app == app:
                    jobs.append(dict(base, attack=attack_name))
    return jobs


@dataclass
class FleetSpec:
    """A complete fleet: jobs plus fleet-wide execution parameters."""

    jobs: List[FleetJob]
    name: str = "fleet"
    workers: int = 2
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.jobs:
            raise FleetSpecError("fleet spec has no jobs")
        if self.workers < 1:
            raise FleetSpecError(f"workers must be >= 1, got {self.workers}")
        counts: Dict[str, int] = {}
        for job in self.jobs:
            if not job.name:
                index = counts.get(job.identity(), 0)
                counts[job.identity()] = index + 1
                job.name = f"{job.identity()}#{index}"
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise FleetSpecError(f"duplicate job names: {', '.join(dupes)}")

    def apps(self) -> List[str]:
        """Distinct applications the fleet needs profiles for, sorted."""
        return sorted({job.app for job in self.jobs})

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetSpec":
        from repro.apps.catalog import APP_CATALOG
        from repro.malware import ALL_ATTACKS

        if not isinstance(data, dict):
            raise FleetSpecError(f"fleet spec must be an object, got {type(data).__name__}")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise FleetSpecError(f"unknown spec keys: {', '.join(sorted(unknown))}")
        attacks = {attack.name: attack for attack in ALL_ATTACKS}
        raw_jobs = list(data.get("jobs") or [])
        if "matrix" in data:
            raw_jobs.extend(expand_matrix(data["matrix"], attacks))
        if not raw_jobs:
            raise FleetSpecError("fleet spec needs a non-empty 'jobs' list")
        spec_guest: Optional[GuestConfig] = None
        if data.get("guest") is not None:
            spec_guest = _resolve_guest_field(data["guest"], "guest")
        default_scale = int(data.get("scale", 2))
        default_cycles = int(data.get("max_cycles", DEFAULT_MAX_CYCLES))
        default_timeout = float(data.get("timeout", DEFAULT_TIMEOUT))
        jobs: List[FleetJob] = []
        for i, raw in enumerate(raw_jobs):
            if not isinstance(raw, dict):
                raise FleetSpecError(f"jobs[{i}]: must be an object")
            unknown = set(raw) - _JOB_KEYS
            if unknown:
                raise FleetSpecError(
                    f"jobs[{i}]: unknown keys: {', '.join(sorted(unknown))}"
                )
            app = raw.get("app")
            if app not in APP_CATALOG:
                raise FleetSpecError(
                    f"jobs[{i}].app: unknown application {app!r} "
                    f"(available: {', '.join(sorted(APP_CATALOG))})"
                )
            attack_name = raw.get("attack")
            if attack_name is not None:
                attack = attacks.get(attack_name)
                if attack is None:
                    raise FleetSpecError(
                        f"jobs[{i}].attack: unknown malware sample {attack_name!r} "
                        f"(available: {', '.join(sorted(attacks))})"
                    )
                if attack.host_app != app:
                    raise FleetSpecError(
                        f"jobs[{i}].attack: {attack_name!r} infects "
                        f"{attack.host_app!r}, not {app!r}"
                    )
            guest = spec_guest
            if raw.get("guest") is not None:
                guest = _resolve_guest_field(raw["guest"], f"jobs[{i}].guest")
            jobs.append(
                FleetJob(
                    app=app,
                    scale=int(raw.get("scale", default_scale)),
                    attack=attack_name,
                    seed=raw.get("seed"),
                    max_cycles=int(raw.get("max_cycles", default_cycles)),
                    timeout=float(raw.get("timeout", default_timeout)),
                    guest=guest,
                    name=str(raw.get("name", "")),
                )
            )
        return cls(
            jobs=jobs,
            name=str(data.get("name", "fleet")),
            workers=int(data.get("workers", 2)),
            seed=int(data.get("seed", DEFAULT_SEED)),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FleetSpec":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise FleetSpecError(f"unreadable fleet spec {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "workers": self.workers,
            "seed": self.seed,
            "jobs": [job.to_dict() for job in self.jobs],
        }


def uniform_spec(
    apps: List[str],
    scale: int = 2,
    workers: int = 2,
    repeat: int = 1,
    seed: int = DEFAULT_SEED,
    name: str = "fleet",
    guest: Union[None, str, Dict[str, object], GuestConfig] = None,
) -> FleetSpec:
    """Convenience: ``repeat`` identical jobs per app, no injections."""
    guest_config = resolve_guest(guest) if guest is not None else None
    jobs = [
        FleetJob(app=app, scale=scale, guest=guest_config)
        for _ in range(repeat)
        for app in apps
    ]
    return FleetSpec(jobs=jobs, name=name, workers=workers, seed=seed)
