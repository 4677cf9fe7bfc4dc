"""Declarative guest build configuration (the variant-matrix surface).

FACE-CHANGE's per-app kernel views are only meaningful relative to a
concrete kernel build.  :class:`GuestConfig` makes that build an
explicit, validated, JSON-round-trippable value instead of hard-coded
module-level constants: the module subset loaded from the kernel
catalog, the scheduler/timer variant, the SMP vCPU count and the
platform (``qemu-tsc`` profiling clocksource vs ``kvm-pvclock``
runtime clocksource, paper §III-B3).

Two content digests identify a config:

* :meth:`GuestConfig.digest` -- SHA-256 over the full canonical config,
  platform included.  This is the *machine* identity: snapshots carry
  it and refuse to fork jobs pinned to a different variant, and the
  sampling profiler labels folded stacks with it so fleet merges never
  fold samples from different kernel variants together.
* :meth:`GuestConfig.build_digest` -- the same digest with the platform
  field excluded.  This is the *kernel build* identity: the paper's
  workflow deliberately profiles under QEMU and enforces under KVM on
  the same build, so profile-library records pin to the build digest
  (same vmlinux, different clocksource).

The default config reproduces the historical hard-coded build
bit-identically (the ``matrix`` scenario of ``benchmarks/gates.py``
gates the image bytes and virtual-cycle scores against pre-refactor
values).

Validation is catalog-aware: module names must exist in
:data:`repro.kernel.catalog.MODULES`, and the subset must be closed
under inter-module link dependencies, which are *derived* from the
catalog itself by walking each module function's call/jump targets
(ext4 calls into jbd2, so ``modules=["ext4"]`` alone is rejected).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.isa.assembler import Call, Cond, Jump, Stmt, While
from repro.kernel.catalog import BASE_FUNCTIONS, MODULES
from repro.kernel.runtime import TIMER_PERIOD_CYCLES, TIMESLICE_TICKS, Platform

#: Canonical platform names (the clocksource split the paper studies).
KVM_PVCLOCK = "kvm-pvclock"
QEMU_TSC = "qemu-tsc"

#: Accepted spellings -> canonical platform name.
PLATFORM_ALIASES: Dict[str, str] = {
    KVM_PVCLOCK: KVM_PVCLOCK,
    QEMU_TSC: QEMU_TSC,
    Platform.KVM: KVM_PVCLOCK,
    Platform.QEMU: QEMU_TSC,
}

#: Canonical platform name -> the runtime's Platform constant.
_RUNTIME_PLATFORM: Dict[str, str] = {
    KVM_PVCLOCK: Platform.KVM,
    QEMU_TSC: Platform.QEMU,
}

#: Catalog load order (jbd2 before ext4: link-order constraint).
CATALOG_LOAD_ORDER: Tuple[str, ...] = tuple(MODULES)

#: Upper bound on vCPUs (the interleaved-slice scheduler is O(cpus)).
MAX_VCPUS = 16

_CONFIG_KEYS = {
    "name",
    "modules",
    "platform",
    "vcpus",
    "timer_period",
    "timeslice_ticks",
}
#: Fields that define the kernel build (everything but the platform).
_BUILD_FIELDS = ("modules", "vcpus", "timer_period", "timeslice_ticks")


class GuestConfigError(ValueError):
    """Invalid guest configuration.

    ``field`` names the offending config field and ``message`` carries
    the bare explanation, so callers embedding a config (the fleet
    spec) can re-prefix errors with their own path context
    (``jobs[3].guest.modules: unknown module 'jbd3'``).
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
        self.message = message


def _call_targets(stmts: Iterable[Stmt]) -> Iterator[str]:
    """Every direct call/jump target in a statement tree."""
    for stmt in stmts:
        if isinstance(stmt, (Call, Jump)):
            yield stmt.target
        elif isinstance(stmt, (Cond, While)):
            yield from _call_targets(stmt.body)


_MODULE_DEPENDENCIES: Optional[Dict[str, FrozenSet[str]]] = None


def module_dependencies() -> Dict[str, FrozenSet[str]]:
    """Inter-module link dependencies, derived from the catalog.

    A module depends on another when any of its functions calls (or
    jumps to) a symbol that the other module defines.  Calls into the
    base kernel are always satisfied and impose no dependency.
    """
    global _MODULE_DEPENDENCIES
    if _MODULE_DEPENDENCIES is None:
        owner: Dict[str, str] = {}
        for name, functions in MODULES.items():
            for body in functions:
                owner[body.name] = name
        deps: Dict[str, FrozenSet[str]] = {}
        for name, functions in MODULES.items():
            needed = set()
            for body in functions:
                for target in _call_targets(body.stmts):
                    target_module = owner.get(target)
                    if target_module is not None and target_module != name:
                        needed.add(target_module)
            deps[name] = frozenset(needed)
        _MODULE_DEPENDENCIES = deps
    return _MODULE_DEPENDENCIES


@dataclass(frozen=True)
class GuestConfig:
    """One guest build: module subset, sched/timer variant, SMP, platform.

    Instances are immutable and validated on construction.  ``name`` is
    a human label (set for the named :data:`VARIANTS`); it is excluded
    from both digests, so renaming a variant never re-keys profiles or
    snapshots.
    """

    modules: Tuple[str, ...] = CATALOG_LOAD_ORDER
    platform: str = KVM_PVCLOCK
    vcpus: int = 1
    #: periodic tick interval in simulated cycles (scheduler timer)
    timer_period: int = TIMER_PERIOD_CYCLES
    #: ticks before the round-robin scheduler preempts a task
    timeslice_ticks: int = TIMESLICE_TICKS
    name: str = ""

    def __post_init__(self) -> None:
        canonical_platform = PLATFORM_ALIASES.get(self.platform)
        if canonical_platform is None:
            raise GuestConfigError(
                "platform",
                f"unknown platform {self.platform!r} "
                f"(choose from: {KVM_PVCLOCK}, {QEMU_TSC})",
            )
        object.__setattr__(self, "platform", canonical_platform)
        if not isinstance(self.vcpus, int) or self.vcpus < 1:
            raise GuestConfigError(
                "vcpus", f"vcpus must be a positive integer, got {self.vcpus!r}"
            )
        if self.vcpus > MAX_VCPUS:
            raise GuestConfigError(
                "vcpus", f"vcpus must be <= {MAX_VCPUS}, got {self.vcpus}"
            )
        if not isinstance(self.timer_period, int) or self.timer_period <= 0:
            raise GuestConfigError(
                "timer_period",
                f"timer_period must be a positive integer, "
                f"got {self.timer_period!r}",
            )
        if not isinstance(self.timeslice_ticks, int) or self.timeslice_ticks <= 0:
            raise GuestConfigError(
                "timeslice_ticks",
                f"timeslice_ticks must be a positive integer, "
                f"got {self.timeslice_ticks!r}",
            )
        object.__setattr__(
            self, "modules", self._validated_modules(self.modules)
        )

    @staticmethod
    def _validated_modules(modules: Iterable[str]) -> Tuple[str, ...]:
        requested = list(modules)
        for module in requested:
            if module not in MODULES:
                raise GuestConfigError(
                    "modules",
                    f"unknown module {module!r} "
                    f"(catalog: {', '.join(CATALOG_LOAD_ORDER)})",
                )
        if len(set(requested)) != len(requested):
            dupes = sorted(
                {m for m in requested if requested.count(m) > 1}
            )
            raise GuestConfigError(
                "modules", f"duplicate module(s): {', '.join(dupes)}"
            )
        selected = set(requested)
        deps = module_dependencies()
        for module in sorted(selected):
            missing = deps[module] - selected
            if missing:
                raise GuestConfigError(
                    "modules",
                    f"module {module!r} requires {', '.join(sorted(missing))} "
                    "(link dependency closure against the kernel catalog)",
                )
        # normalize to catalog load order: link order is a build
        # property, not a config degree of freedom
        return tuple(m for m in CATALOG_LOAD_ORDER if m in selected)

    # -- derived views --------------------------------------------------------

    def runtime_platform(self) -> str:
        """The :class:`repro.kernel.runtime.Platform` constant to boot with."""
        return _RUNTIME_PLATFORM[self.platform]

    def base_functions(self):
        """The base kernel text (always the full catalog base)."""
        return BASE_FUNCTIONS

    def module_functions(self):
        """``(name, functions)`` pairs for the selected modules, load order."""
        return [(name, MODULES[name]) for name in self.modules]

    def with_platform(self, platform: str) -> "GuestConfig":
        """Same build, different clocksource (profiling vs runtime)."""
        return replace(self, platform=platform)

    def label(self) -> str:
        """Human handle: the variant name, or the short digest."""
        return self.name or self.digest()[:12]

    # -- canonical form / digests ---------------------------------------------

    def canonical_dict(self) -> Dict[str, object]:
        """The digestible identity (excludes the human ``name`` label)."""
        return {
            "modules": list(self.modules),
            "platform": self.platform,
            "vcpus": self.vcpus,
            "timer_period": self.timer_period,
            "timeslice_ticks": self.timeslice_ticks,
        }

    def digest(self) -> str:
        """SHA-256 over the full canonical config (machine identity)."""
        blob = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def build_digest(self) -> str:
        """SHA-256 over the kernel build only (platform excluded).

        Profiles pin to this: the paper profiles under ``qemu-tsc`` and
        enforces under ``kvm-pvclock`` on the *same* kernel build.
        """
        payload = {
            key: value
            for key, value in self.canonical_dict().items()
            if key != "platform"
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    # -- JSON round trip ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data = dict(self.canonical_dict())
        if self.name:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GuestConfig":
        if not isinstance(data, dict):
            raise GuestConfigError(
                "", f"guest config must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise GuestConfigError(
                sorted(unknown)[0],
                f"unknown guest config key(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(_CONFIG_KEYS))})",
            )
        kwargs: Dict[str, object] = {}
        if "modules" in data:
            raw = data["modules"]
            if not isinstance(raw, (list, tuple)) or not all(
                isinstance(m, str) for m in raw
            ):
                raise GuestConfigError(
                    "modules", f"modules must be a list of names, got {raw!r}"
                )
            kwargs["modules"] = tuple(raw)
        for key in ("platform", "name"):
            if key in data:
                kwargs[key] = data[key]
        for key in ("vcpus", "timer_period", "timeslice_ticks"):
            if key in data:
                value = data[key]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise GuestConfigError(
                        key, f"{key} must be an integer, got {value!r}"
                    )
                kwargs[key] = value
        return cls(**kwargs)  # type: ignore[arg-type]

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "GuestConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise GuestConfigError(
                "", f"unreadable guest config {path}: {exc}"
            ) from exc
        return cls.from_dict(data)

    # -- presentation ---------------------------------------------------------

    def describe(self) -> str:
        lines = [
            f"name:            {self.name or '(unnamed)'}",
            f"digest:          {self.digest()}",
            f"build digest:    {self.build_digest()}",
            f"platform:        {self.platform}",
            f"vcpus:           {self.vcpus}",
            f"timer period:    {self.timer_period} cycles",
            f"timeslice:       {self.timeslice_ticks} ticks",
            f"modules:         {', '.join(self.modules) or '(none)'}",
        ]
        return "\n".join(lines)

    def diff(self, other: "GuestConfig") -> List[str]:
        """Field-by-field differences, ``field: self -> other`` rows."""
        rows: List[str] = []
        mine, theirs = self.canonical_dict(), other.canonical_dict()
        for key in sorted(mine):
            if mine[key] != theirs[key]:
                rows.append(f"{key}: {mine[key]!r} -> {theirs[key]!r}")
        return rows


#: The historical hard-coded build: every module, uniprocessor, KVM.
DEFAULT_GUEST_CONFIG = GuestConfig(name="default")

#: Named variants exposed by ``repro guest list`` and fleet matrix specs.
VARIANTS: Dict[str, GuestConfig] = {
    "default": DEFAULT_GUEST_CONFIG,
    "qemu-tsc": GuestConfig(platform=QEMU_TSC, name="qemu-tsc"),
    "smp2-pvclock": GuestConfig(vcpus=2, name="smp2-pvclock"),
    "no-net": GuestConfig(modules=("jbd2", "ext4"), name="no-net"),
    "smp2-nonet": GuestConfig(
        vcpus=2, modules=("jbd2", "ext4"), name="smp2-nonet"
    ),
    "fast-timer": GuestConfig(
        timer_period=50_000, timeslice_ticks=8, name="fast-timer"
    ),
}


def resolve_guest(
    ref: Union[None, str, Dict[str, object], GuestConfig],
) -> GuestConfig:
    """Coerce any guest reference into a validated :class:`GuestConfig`.

    ``None`` -> the default build; a string -> a named variant from
    :data:`VARIANTS` or a path to a JSON config file; a dict -> inline
    config; a config -> itself.
    """
    if ref is None:
        return DEFAULT_GUEST_CONFIG
    if isinstance(ref, GuestConfig):
        return ref
    if isinstance(ref, dict):
        return GuestConfig.from_dict(ref)
    if isinstance(ref, str):
        if ref in VARIANTS:
            return VARIANTS[ref]
        path = Path(ref)
        if path.exists():
            return GuestConfig.load(path)
        raise GuestConfigError(
            "",
            f"unknown guest variant {ref!r} "
            f"(named variants: {', '.join(sorted(VARIANTS))}; "
            "or pass a JSON config file path)",
        )
    raise GuestConfigError(
        "", f"cannot interpret guest reference {ref!r}"
    )


__all__ = [
    "CATALOG_LOAD_ORDER",
    "DEFAULT_GUEST_CONFIG",
    "GuestConfig",
    "GuestConfigError",
    "KVM_PVCLOCK",
    "MAX_VCPUS",
    "PLATFORM_ALIASES",
    "QEMU_TSC",
    "VARIANTS",
    "module_dependencies",
    "resolve_guest",
]
