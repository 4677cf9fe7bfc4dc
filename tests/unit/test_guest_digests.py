"""Digest discipline: profiles, snapshots, and samples stay per-variant.

The guest-variant refactor threads two digests through the stack --
``GuestConfig.digest()`` (machine identity) and ``build_digest()``
(kernel build, platform excluded).  These tests pin the refusal
behaviour: a profile pinned to one build is never served to another, a
snapshot never forks a job pinned to a different variant, unpinned
records are refused, and sampled stacks from different variants never
fold together.
"""

import hashlib
import json

import pytest

from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import KernelProfile
from repro.fleet.library import ProfileLibrary, ProfileLibraryError, ProfileRecord
from repro.fleet.snapshot import SnapshotError
from repro.guest import boot_machine
from repro.guest.config import DEFAULT_GUEST_CONFIG, QEMU_TSC, VARIANTS
from repro.obs.profiling.sampler import (
    GUEST_PREFIX_LEN,
    SampleProfile,
    split_function_key,
    split_stack_label,
)

DEFAULT_BUILD = DEFAULT_GUEST_CONFIG.build_digest()
OTHER_BUILD = VARIANTS["no-net"].build_digest()


def _config(app="top"):
    profile = KernelProfile()
    profile.add("base", 0xC0001000, 0xC0001400)
    return KernelViewConfig(app=app, profile=profile, notes="test")


# ---------------------------------------------------------------------------
# profile library pinning
# ---------------------------------------------------------------------------


def test_pinned_record_served_for_its_build(tmp_path):
    library = ProfileLibrary(tmp_path)
    stored = library.put(_config(), guest_digest=DEFAULT_BUILD)
    loaded = library.get("top", guest_digest=DEFAULT_BUILD)
    assert loaded.digest == stored.digest
    assert loaded.guest_digest == DEFAULT_BUILD
    assert library.digest_of("top", DEFAULT_BUILD) == stored.digest
    assert library.variants_of("top") == {DEFAULT_BUILD: stored.digest}


def test_pinned_record_refused_for_other_build(tmp_path):
    library = ProfileLibrary(tmp_path)
    library.put(_config(), guest_digest=DEFAULT_BUILD)
    with pytest.raises(
        ProfileLibraryError, match="pinned to guest build"
    ) as excinfo:
        library.get("top", guest_digest=OTHER_BUILD)
    # the error names both builds so the fix (re-profile) is actionable
    assert DEFAULT_BUILD[:12] in str(excinfo.value)
    assert OTHER_BUILD[:12] in str(excinfo.value)


def test_one_app_pins_one_record_per_build(tmp_path):
    library = ProfileLibrary(tmp_path)
    library.put(_config(), guest_digest=DEFAULT_BUILD)
    other = library.put(_config("top"), meta={"variant": "no-net"},
                        guest_digest=OTHER_BUILD)
    assert library.get("top", guest_digest=OTHER_BUILD).digest == other.digest
    # the first build's pin survives the second put
    assert library.digest_of("top", DEFAULT_BUILD) is not None


def test_unpinned_record_is_refused(tmp_path):
    """A record without a build pin (the format-1 layout) names its app
    in the refusal, is never served for another build, and cannot be
    stored."""
    library = ProfileLibrary(tmp_path)
    with pytest.raises(ProfileLibraryError, match="'top' must be pinned"):
        library.put(_config(), guest_digest="")
    # lay the record down the way a format-1 library did
    blob = json.dumps(
        ProfileRecord(config=_config()).payload(),
        sort_keys=True, separators=(",", ":"),
    ).encode()
    digest = hashlib.sha256(blob).hexdigest()
    (tmp_path / "objects").mkdir()
    (tmp_path / "objects" / f"{digest}.json").write_bytes(blob)
    (tmp_path / "index.json").write_text(json.dumps(
        {"format": 1, "profiles": {"top": {"digest": digest, "history": []}}}
    ))
    with pytest.raises(ProfileLibraryError, match="'top' is not pinned"):
        library.get("top")
    with pytest.raises(ProfileLibraryError, match="no profile for 'top'"):
        library.get("top", guest_digest=OTHER_BUILD)


# ---------------------------------------------------------------------------
# snapshot fork pinning
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_snapshot():
    return boot_machine().snapshot()


def test_snapshot_carries_config_and_digests(default_snapshot):
    assert default_snapshot.config.digest() == DEFAULT_GUEST_CONFIG.digest()
    assert default_snapshot.guest_digest == DEFAULT_GUEST_CONFIG.digest()
    assert default_snapshot.build_digest == DEFAULT_BUILD


def test_fork_accepts_matching_digest(default_snapshot):
    clone = default_snapshot.fork(expect_digest=DEFAULT_GUEST_CONFIG.digest())
    assert clone.guest_digest == DEFAULT_GUEST_CONFIG.digest()


def test_fork_refuses_mismatched_digest(default_snapshot):
    wrong = VARIANTS["no-net"].digest()
    with pytest.raises(SnapshotError, match="guest variant mismatch"):
        default_snapshot.fork(expect_digest=wrong)
    # platform is part of machine identity: a qemu-tsc job must not run
    # on a kvm-pvclock snapshot even though the build is the same
    with pytest.raises(SnapshotError, match="guest variant mismatch"):
        default_snapshot.fork(
            expect_digest=DEFAULT_GUEST_CONFIG.with_platform(QEMU_TSC).digest()
        )


def test_machine_exposes_both_digests():
    machine = boot_machine(config="no-net")
    assert machine.guest_digest == VARIANTS["no-net"].digest()
    assert machine.build_digest == OTHER_BUILD


# ---------------------------------------------------------------------------
# execute_job build check
# ---------------------------------------------------------------------------


def test_execute_job_refuses_record_from_other_build(default_snapshot):
    from repro.fleet.jobs import execute_job
    from repro.fleet.library import ProfileRecord
    from repro.fleet.spec import FleetJob

    machine = default_snapshot.fork()
    record = ProfileRecord(config=_config(), guest_digest=OTHER_BUILD)
    with pytest.raises(ProfileLibraryError, match="do not transfer"):
        execute_job(machine, FleetJob(app="top", name="top#0"), record)


# ---------------------------------------------------------------------------
# sampler label separation
# ---------------------------------------------------------------------------


def test_sample_labels_carry_guest_and_parse_back():
    profile = SampleProfile()
    g1, g2 = "a" * GUEST_PREFIX_LEN, "b" * GUEST_PREFIX_LEN
    profile.add_sample("top", 0, 0, ["sys_open", "do_sys_open"], guest=g1)
    profile.add_sample("top", 0, 0, ["sys_open", "do_sys_open"], guest=g2)
    assert profile.guests() == [g1, g2]
    # same comm/view/stack, different guest: two rows, never folded
    assert len(profile.stacks) == 2
    assert profile.folded(guest=g1) == {"sys_open;do_sys_open": 1}
    assert profile.folded() == {"sys_open;do_sys_open": 2}


def test_merge_keeps_variants_separate():
    left, right = SampleProfile(), SampleProfile()
    g1, g2 = "a" * GUEST_PREFIX_LEN, "b" * GUEST_PREFIX_LEN
    left.add_sample("top", 0, 0, ["f"], guest=g1)
    right.add_sample("top", 0, 0, ["f"], guest=g2)
    merged = SampleProfile.merged([left, right])
    assert merged.samples == 2
    assert merged.folded(guest=g1) == {"f": 1}
    assert merged.folded(guest=g2) == {"f": 1}


def test_legacy_labels_parse_with_empty_guest():
    guest, comm, view, cpu, folded = split_stack_label("top\t0\t1\ta;b")
    assert (guest, comm, view, cpu, folded) == ("", "top", "0", "1", "a;b")
    key = "top\tbase\t16\t32\tsys_open"
    assert split_function_key(key) == ("", "top", "base", "16", "32", "sys_open")


def test_heat_analysis_refuses_mixed_guest_snapshots():
    from repro.obs.profiling.heat import analyze_heat

    profile = SampleProfile()
    g1, g2 = "a" * GUEST_PREFIX_LEN, "b" * GUEST_PREFIX_LEN
    key1 = f"{g1}\ttop\tbase\t16\t32\tsys_open"
    profile.add_sample("top", 0, 0, ["sys_open"], function_key=key1, guest=g1)
    profile.add_sample("top", 0, 0, ["sys_open"], guest=g2)
    with pytest.raises(ValueError, match="several guest variants"):
        analyze_heat({}, {}, profile=profile)
    report = analyze_heat({}, {}, profile=profile, guest=g1)
    assert report.apps == {}


def test_sampling_profiler_labels_with_machine_digest():
    from repro.obs.profiling.sampler import SamplingProfiler

    machine = boot_machine()
    profiler = SamplingProfiler(machine)
    assert profiler.guest == machine.guest_digest[:GUEST_PREFIX_LEN]
