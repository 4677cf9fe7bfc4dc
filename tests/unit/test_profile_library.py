"""Profile library: round-trips, checksums, corruption refusal."""

import json

import pytest

from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import KernelProfile
from repro.fleet.library import (
    ProfileLibrary,
    ProfileLibraryError,
    ProfileRecord,
)

#: A kernel-build digest: pinned records load without the unpinned warning.
BUILD = "feedface" * 8


def _config(app="top", extra=0):
    profile = KernelProfile()
    profile.add("base", 0xC0001000, 0xC0001400 + extra)
    profile.add("base", 0xC0002FF0, 0xC0003010)  # page-straddling range
    profile.add("ext4", 0xC8000000, 0xC8000200)
    return KernelViewConfig(app=app, profile=profile, notes="test profile")


def test_put_get_round_trip(tmp_path):
    library = ProfileLibrary(tmp_path)
    stored = library.put(
        _config(), baseline=["b", "a"], meta={"scale": 2}, guest_digest=BUILD
    )
    loaded = library.get("top")
    assert loaded.digest == stored.digest
    assert loaded.config.app == "top"
    assert loaded.config.notes == "test profile"
    assert loaded.config.profile.to_dict() == _config().profile.to_dict()
    assert loaded.baseline == ["a", "b"]  # canonicalized sorted
    assert loaded.meta == {"scale": 2}


def test_put_is_idempotent_and_content_addressed(tmp_path):
    library = ProfileLibrary(tmp_path)
    first = library.put(_config())
    second = library.put(_config())
    assert first.digest == second.digest
    assert len(list((tmp_path / "objects").iterdir())) == 1


def test_new_content_supersedes_and_keeps_history(tmp_path):
    library = ProfileLibrary(tmp_path)
    old = library.put(_config(), guest_digest=BUILD)
    new = library.put(_config(extra=0x100), guest_digest=BUILD)
    assert new.digest != old.digest
    assert library.digest_of("top") == new.digest
    index = json.loads((tmp_path / "index.json").read_text())
    assert old.digest in index["profiles"]["top"]["history"]
    # superseded object remains loadable by digest
    assert library.load_digest(old.digest).config.app == "top"


def test_tampered_object_fails_checksum(tmp_path):
    library = ProfileLibrary(tmp_path)
    record = library.put(_config())
    path = tmp_path / "objects" / f"{record.digest}.json"
    blob = json.loads(path.read_text())
    blob["notes"] = "tampered"
    path.write_text(json.dumps(blob, sort_keys=True, separators=(",", ":")))
    with pytest.raises(ProfileLibraryError, match="checksum"):
        library.get("top")


def test_inconsistent_frame_deltas_rejected():
    record = ProfileRecord(config=_config(), guest_digest=BUILD)
    payload = record.payload()
    payload["frame_deltas"]["base"][0][1] += 8  # shift a span start
    with pytest.raises(ProfileLibraryError, match="frame deltas"):
        ProfileRecord.from_payload(payload)


def test_unknown_app_is_an_error(tmp_path):
    library = ProfileLibrary(tmp_path)
    library.put(_config())
    with pytest.raises(ProfileLibraryError, match="no profile for 'gzip'"):
        library.get("gzip")


def test_future_format_version_rejected(tmp_path):
    record = ProfileRecord(config=_config())
    payload = record.payload()
    payload["format"] = 999
    with pytest.raises(ProfileLibraryError, match="format"):
        ProfileRecord.from_payload(payload)


def test_missing_object_reported(tmp_path):
    library = ProfileLibrary(tmp_path)
    record = library.put(_config())
    (tmp_path / "objects" / f"{record.digest}.json").unlink()
    with pytest.raises(ProfileLibraryError, match="missing profile object"):
        library.get("top")


def test_empty_library_lists_nothing(tmp_path):
    library = ProfileLibrary(tmp_path / "nonexistent")
    assert library.apps() == []
    assert not library.has("top")
