"""Application workload tests: each Table I app runs and has the right
kernel footprint shape."""

import pytest

from repro.apps.base import launch
from repro.apps.catalog import APP_CATALOG
from repro.core.profiler import Profiler
from repro.core.rangelist import BASE_KERNEL, similarity_index
from repro.guest.machine import boot_machine
from repro.kernel.runtime import Platform


def profile_one(name, scale=3):
    machine = boot_machine(platform=Platform.QEMU)
    profiler = Profiler(machine)
    profiler.track(name)
    profiler.install()
    handle = launch(machine, name, APP_CATALOG[name], scale=scale)
    machine.run_to_exit([handle], 40_000_000_000)
    assert handle.finished, name
    return machine, profiler.export(name)


@pytest.mark.parametrize("name", sorted(APP_CATALOG))
def test_every_app_completes_and_profiles(name):
    machine, config = profile_one(name, scale=2)
    assert config.size > 50_000, f"{name} footprint suspiciously small"


def _touches(machine, config, fn):
    symbol = machine.image.symbols[fn]
    if symbol.module is None:
        return config.profile.contains(BASE_KERNEL, symbol.address)
    base = machine.image.modules[symbol.module].base
    return config.profile.contains(symbol.module, symbol.address - base)


class TestFootprintShape:
    def test_top_is_procfs_and_tty(self):
        machine, config = profile_one("top")
        assert _touches(machine, config, "proc_reg_read")
        assert _touches(machine, config, "tty_write")
        assert not _touches(machine, config, "inet_create")
        assert not _touches(machine, config, "tcp_sendmsg")

    def test_apache_is_tcp_and_sendfile(self):
        machine, config = profile_one("apache")
        assert _touches(machine, config, "inet_csk_accept")
        assert _touches(machine, config, "tcp_recvmsg")
        assert _touches(machine, config, "do_sendfile")
        assert not _touches(machine, config, "proc_reg_read")

    def test_gzip_is_narrow_ext4(self):
        machine, config = profile_one("gzip")
        assert _touches(machine, config, "ext4_file_write")
        assert not _touches(machine, config, "inet_create")
        assert not _touches(machine, config, "tty_write")
        assert not _touches(machine, config, "sys_fork")

    def test_bash_forks_and_pipes(self):
        machine, config = profile_one("bash")
        assert _touches(machine, config, "do_fork")
        assert _touches(machine, config, "sys_pipe")
        assert _touches(machine, config, "sys_dup2")
        assert _touches(machine, config, "tty_read")

    def test_tcpdump_uses_packet_sockets(self):
        machine, config = profile_one("tcpdump")
        assert _touches(machine, config, "packet_create")
        assert _touches(machine, config, "packet_recvmsg")

    def test_firefox_does_dns_over_udp(self):
        machine, config = profile_one("firefox")
        assert _touches(machine, config, "udp_sendmsg")
        assert _touches(machine, config, "udp_recvmsg")
        assert _touches(machine, config, "tcp_sendmsg")

    def test_mysqld_journals(self):
        machine, config = profile_one("mysqld")
        assert _touches(machine, config, "ext4_sync_file")
        assert _touches(machine, config, "jbd2_journal_commit_transaction")
        assert _touches(machine, config, "inet_csk_accept")

    def test_sshd_reads_urandom_and_ptys(self):
        machine, config = profile_one("sshd")
        assert _touches(machine, config, "chrdev_read")
        assert _touches(machine, config, "pty_write")


class TestCategorySimilarity:
    def test_same_category_beats_cross_category(self, app_configs):
        servers = similarity_index(
            app_configs["apache"].profile, app_configs["vsftpd"].profile
        )
        cross = similarity_index(
            app_configs["top"].profile, app_configs["firefox"].profile
        )
        assert servers > cross + 0.2

    def test_gui_pair_is_most_similar(self, app_configs):
        gui = similarity_index(
            app_configs["eog"].profile, app_configs["totem"].profile
        )
        assert gui > 0.85
