"""Multi-variant fleets: one snapshot per guest build, pinned profiles.

The matrix workflow end to end: the offline phase profiles the app once
per kernel build (pinned to the build digest), the runner groups jobs by
config digest and boots/snapshots each variant exactly once, and every
clone runs under the profile of *its* build -- with detection intact on
every variant.
"""

import pytest

from repro.fleet import ProfileLibrary, run_fleet
from repro.fleet.jobs import prepare_offline_phase
from repro.fleet.spec import FleetSpec
from repro.guest.config import DEFAULT_GUEST_CONFIG, VARIANTS

SCALE = 1


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    libdir = tmp_path_factory.mktemp("variant-lib")
    lib = ProfileLibrary(libdir)
    prepare_offline_phase(lib, ["top"], scale=SCALE)
    prepare_offline_phase(lib, ["top"], scale=SCALE, guest="no-net")
    return lib


def test_offline_phase_pins_one_record_per_build(library):
    variants = library.variants_of("top")
    assert set(variants) == {
        DEFAULT_GUEST_CONFIG.build_digest(),
        VARIANTS["no-net"].build_digest(),
    }


def test_offline_phase_reuses_existing_pins(library, monkeypatch):
    import repro.fleet.jobs as jobs_mod

    def no_profiling(*args, **kwargs):
        raise AssertionError("offline phase must reuse pinned records")

    monkeypatch.setattr(jobs_mod, "profile_app_offline", no_profiling)
    prepare_offline_phase(library, ["top"], scale=SCALE)
    prepare_offline_phase(library, ["top"], scale=SCALE, guest="no-net")


def test_matrix_fleet_runs_every_variant_once(library):
    spec = FleetSpec.from_dict({
        "name": "variants",
        "workers": 2,
        "scale": SCALE,
        "matrix": {
            "apps": ["top"],
            "attacks": ["Adore-ng"],
            "guests": ["default", "no-net"],
        },
    })
    report = run_fleet(spec, library)
    assert report.failed == 0
    by_name = {r["name"]: r for r in report.results}
    assert by_name["top+Adore-ng@default#0"]["detected"] is True
    assert by_name["top+Adore-ng@no-net#0"]["detected"] is True
    # one snapshot (and two forks) per guest variant
    assert len(report.variants) == 2
    labels = {row["label"] for row in report.variants.values()}
    assert labels == {"default", "no-net"}
    assert all(row["jobs"] == 2 for row in report.variants.values())
    # different builds legitimately produce different virtual clocks
    assert (
        by_name["top@default#0"]["cycles"]
        != by_name["top@no-net#0"]["cycles"]
    )
