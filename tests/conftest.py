"""Shared fixtures: booted machines, profiled view configurations and a
profile library for serve-daemon tests.

Profiling all twelve applications takes a few seconds, so the configs
are produced once per session and shared by every test that needs them.
"""

from __future__ import annotations

import pytest

from repro.analysis.similarity import profile_applications
from repro.fleet import ProfileLibrary, prepare_offline_phase
from repro.guest.machine import boot_machine
from repro.kernel.runtime import Platform


@pytest.fixture()
def machine():
    """A freshly booted KVM-platform machine."""
    return boot_machine(platform=Platform.KVM)


@pytest.fixture()
def qemu_machine():
    """A freshly booted QEMU-platform (profiling) machine."""
    return boot_machine(platform=Platform.QEMU)


@pytest.fixture(scope="session")
def app_configs():
    """Kernel view configs for all twelve Table I applications."""
    return profile_applications(scale=4)


@pytest.fixture(scope="session")
def top_config(app_configs):
    return app_configs["top"]


@pytest.fixture(scope="session")
def serve_library(tmp_path_factory):
    """A profile library holding top and gzip (scale 1), for daemons
    whose worker processes run fake jobs: each job still needs its
    app's profile record."""
    library = ProfileLibrary(tmp_path_factory.mktemp("serve-lib"))
    prepare_offline_phase(library, ["top", "gzip"], scale=1)
    return library
