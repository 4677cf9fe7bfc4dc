"""Persistent, content-addressed library of per-application profiles.

The paper's offline phase produces, per application: the kernel-view
profile (K[app]) and the benign-recovery reference ("recorded as a
reference for the administrator", §III-B3).  Both are properties of the
*application*, not of any one VM -- so the library persists them on disk
and every later run (or every clone in a fleet) loads them instead of
re-profiling.

Layout under the library root::

    objects/<sha256>.json   -- one immutable profile record each
    index.json              -- app name -> current digest (+ history)

Records are canonical JSON (sorted keys, no whitespace) addressed by
the SHA-256 of their bytes; ``get``/``load_digest`` re-hash the file
and refuse records whose content does not match their address, and
recompute the per-page frame deltas to cross-check the range payload.
The record format is versioned (``format``) so future fields can be
added without invalidating existing libraries.
"""

from __future__ import annotations

import hashlib
import json
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import KernelProfile
from repro.memory.layout import PAGE_SIZE

#: Record format version.  Bump when the payload schema changes.
#: v2 adds ``guest_digest``: the kernel-build digest
#: (:meth:`repro.guest.config.GuestConfig.build_digest`) of the guest the
#: profile was taken on.  v1 records load as "unpinned" with a warning.
FORMAT_VERSION = 2
_RECORD_KIND = "kernel-view-profile"


class ProfileLibraryError(Exception):
    """Corrupt record, failed checksum, or unknown application."""


def _frame_deltas(profile: KernelProfile) -> Dict[str, List[List[int]]]:
    """Per-page byte spans of each segment: ``[page, begin, end]`` rows.

    These are the raw profiled ranges cut at page boundaries; storing
    them alongside the ranges documents the profile's frame-level
    footprint and gives loads a redundant integrity check.  They are not
    the pages a :class:`~repro.core.view_manager.KernelView` fills: a
    view widens the ranges to whole functions first
    (:class:`~repro.core.view_manager.ViewPlan`), which can cover a page
    whole or reach a page no row names.
    """
    deltas: Dict[str, List[List[int]]] = {}
    for name, ranges in sorted(profile.segments.items()):
        rows: List[List[int]] = []
        for begin, end in ranges:
            addr = begin
            while addr < end:
                page = addr // PAGE_SIZE
                upper = min(end, (page + 1) * PAGE_SIZE)
                row = [page, addr % PAGE_SIZE, upper - page * PAGE_SIZE]
                if rows and rows[-1][0] == page and rows[-1][2] >= row[1]:
                    rows[-1][2] = max(rows[-1][2], row[2])
                else:
                    rows.append(row)
                addr = upper
        deltas[name] = rows
    return deltas


@dataclass
class ProfileRecord:
    """One library entry: a profile plus its offline-phase by-products."""

    config: KernelViewConfig
    #: benign-recovery reference: function names recovered by the clean
    #: workload under its own view (subtracted during detection)
    baseline: List[str] = field(default_factory=list)
    #: free-form provenance (profiling scale, workload, creator...)
    meta: Dict[str, object] = field(default_factory=dict)
    #: kernel-build digest the profile was taken on ("" = unpinned legacy)
    guest_digest: str = ""
    digest: str = ""

    @property
    def app(self) -> str:
        return self.config.app

    def payload(self) -> Dict[str, object]:
        return {
            "format": FORMAT_VERSION,
            "kind": _RECORD_KIND,
            "app": self.config.app,
            "notes": self.config.notes,
            "segments": self.config.profile.to_dict(),
            "frame_deltas": _frame_deltas(self.config.profile),
            "baseline": sorted(self.baseline),
            "meta": self.meta,
            "guest_digest": self.guest_digest,
        }

    @classmethod
    def from_payload(cls, data: Dict[str, object], digest: str = "") -> "ProfileRecord":
        if data.get("kind") != _RECORD_KIND:
            raise ProfileLibraryError(
                f"not a profile record (kind={data.get('kind')!r})"
            )
        version = data.get("format")
        if not isinstance(version, int) or version > FORMAT_VERSION:
            raise ProfileLibraryError(
                f"unsupported record format {version!r} "
                f"(this build reads <= {FORMAT_VERSION})"
            )
        config = KernelViewConfig(
            app=data["app"],
            profile=KernelProfile.from_dict(data.get("segments", {})),
            notes=data.get("notes", ""),
        )
        guest_digest = str(data.get("guest_digest", "") or "")
        if not guest_digest:
            warnings.warn(
                f"profile record for {data['app']!r} is unpinned "
                "(no guest_digest); it will be served for any guest variant",
                stacklevel=2,
            )
        record = cls(
            config=config,
            baseline=list(data.get("baseline", [])),
            meta=dict(data.get("meta", {})),
            guest_digest=guest_digest,
            digest=digest,
        )
        stored = data.get("frame_deltas")
        if stored is not None and stored != _frame_deltas(config.profile):
            raise ProfileLibraryError(
                f"frame deltas do not match ranges for {config.app!r} "
                "(corrupt or hand-edited record)"
            )
        return record


def _canonical(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class ProfileLibrary:
    """Content-addressed on-disk store of :class:`ProfileRecord` entries."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.index_path = self.root / "index.json"
        #: serializes index updates from this process's threads
        self._index_lock = threading.Lock()

    # -- index ---------------------------------------------------------------

    def _read_index(self) -> Dict[str, object]:
        if not self.index_path.exists():
            return {"format": FORMAT_VERSION, "profiles": {}}
        try:
            index = json.loads(self.index_path.read_text())
        except (OSError, ValueError) as exc:
            raise ProfileLibraryError(
                f"unreadable library index {self.index_path}: {exc}"
            ) from exc
        if not isinstance(index.get("profiles"), dict):
            raise ProfileLibraryError(
                f"malformed library index {self.index_path}"
            )
        return index

    def _write_index(self, index: Dict[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # replace, not rewrite: a reader on another thread (the daemon
        # profiles one app while it looks up others) never sees half of it
        staging = self.index_path.with_suffix(".json.tmp")
        staging.write_text(json.dumps(index, indent=2, sort_keys=True))
        staging.replace(self.index_path)

    def apps(self) -> List[str]:
        """Applications with a current profile, sorted."""
        return sorted(self._read_index()["profiles"])

    def has(self, app: str) -> bool:
        return app in self._read_index()["profiles"]

    def digest_of(self, app: str, guest_digest: Optional[str] = None) -> Optional[str]:
        """Record digest for ``app`` (optionally for one guest variant).

        Without ``guest_digest``, the app's current record; with it, the
        record pinned to that kernel build (``None`` if no such pin).
        """
        entry = self._read_index()["profiles"].get(app)
        if entry is None:
            return None
        if guest_digest:
            variants = entry.get("variants", {})
            return variants.get(guest_digest)
        return entry["digest"]

    def variants_of(self, app: str) -> Dict[str, str]:
        """``guest build digest -> record digest`` for ``app``'s pins."""
        entry = self._read_index()["profiles"].get(app)
        return dict(entry.get("variants", {})) if entry else {}

    # -- store / load --------------------------------------------------------

    def put(
        self,
        config: KernelViewConfig,
        baseline: Optional[List[str]] = None,
        meta: Optional[Dict[str, object]] = None,
        guest_digest: str = "",
    ) -> ProfileRecord:
        """Store a profile; returns the record with its content digest.

        ``guest_digest`` pins the record to the kernel build it was
        profiled on (the config's *build* digest -- platform excluded,
        since the paper profiles under qemu-tsc and enforces under
        kvm-pvclock on the same build).  Re-putting identical content is
        idempotent; putting changed content for the same app supersedes
        the current digest and appends the old one to the app's history.
        """
        record = ProfileRecord(
            config=config,
            baseline=list(baseline or []),
            meta=dict(meta or {}),
            guest_digest=guest_digest,
        )
        blob = _canonical(record.payload())
        digest = hashlib.sha256(blob).hexdigest()
        record.digest = digest
        self.objects.mkdir(parents=True, exist_ok=True)
        path = self.objects / f"{digest}.json"
        if not path.exists():
            path.write_text(blob.decode())
        with self._index_lock:
            index = self._read_index()
            entry = index["profiles"].setdefault(
                config.app, {"digest": digest, "history": []}
            )
            if entry["digest"] != digest:
                history = entry.setdefault("history", [])
                if entry["digest"] not in history:
                    history.append(entry["digest"])
                entry["digest"] = digest
            if guest_digest:
                entry.setdefault("variants", {})[guest_digest] = digest
            self._write_index(index)
        return record

    def load_digest(self, digest: str) -> ProfileRecord:
        """Load one record by digest, validating its checksum."""
        path = self.objects / f"{digest}.json"
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise ProfileLibraryError(
                f"missing profile object {digest[:12]}...: {exc}"
            ) from exc
        actual = hashlib.sha256(blob).hexdigest()
        if actual != digest:
            raise ProfileLibraryError(
                f"checksum mismatch for {path.name}: content hashes to "
                f"{actual[:12]}... (corrupt or tampered record)"
            )
        try:
            payload = json.loads(blob)
        except ValueError as exc:
            raise ProfileLibraryError(
                f"undecodable profile object {path.name}: {exc}"
            ) from exc
        return ProfileRecord.from_payload(payload, digest=digest)

    def get(self, app: str, guest_digest: Optional[str] = None) -> ProfileRecord:
        """Load ``app``'s current record (checksum-validated).

        With ``guest_digest`` (a kernel *build* digest), the lookup
        matches on ``(app, guest_digest)``: a record pinned to a
        different build is refused rather than silently applied to the
        wrong kernel; a legacy unpinned record is served with a warning
        (emitted at load time).
        """
        digest = self.digest_of(app, guest_digest)
        if digest is None:
            digest = self.digest_of(app)
        if digest is None:
            raise ProfileLibraryError(
                f"no profile for {app!r} in library {self.root} "
                f"(available: {', '.join(self.apps()) or 'none'})"
            )
        record = self.load_digest(digest)
        if record.app != app:
            raise ProfileLibraryError(
                f"index for {app!r} points at a record for {record.app!r}"
            )
        if (
            guest_digest
            and record.guest_digest
            and record.guest_digest != guest_digest
        ):
            raise ProfileLibraryError(
                f"profile for {app!r} is pinned to guest build "
                f"{record.guest_digest[:12]} but the booted machine is "
                f"{guest_digest[:12]}; re-run the offline phase on this "
                "variant (profiles do not transfer across kernel builds)"
            )
        return record
