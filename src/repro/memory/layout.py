"""Guest address-space layout constants (32-bit, 3G/4G split).

Mirrors the i386 Ubuntu 10.04 guest the paper evaluates on: user space
occupies 0..3G, the kernel is mapped at ``0xC0000000`` with its text at
``0xC0100000``, and loadable module code lives in the kernel heap region
around ``0xF8000000`` (which is why the paper's Figure 5 shows rootkit
addresses like ``0xf8078bbe``).
"""

from __future__ import annotations

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = ~(PAGE_SIZE - 1) & 0xFFFFFFFF

KERNEL_BASE = 0xC0000000
KERNEL_TEXT_BASE = 0xC0100000
#: Per-task kernel stacks are carved out of this region.
KERNEL_STACK_BASE = 0xC8000000
#: Kernel heap region where module code is loaded at run time.
MODULE_SPACE_BASE = 0xF8000000

USER_TEXT_BASE = 0x08048000
USER_STACK_TOP = 0xBFFF0000

ADDRESS_MASK = 0xFFFFFFFF


def page_number(addr: int) -> int:
    """Virtual/physical page frame number containing ``addr``."""
    return (addr & ADDRESS_MASK) >> PAGE_SHIFT


def page_base(addr: int) -> int:
    """Base address of the page containing ``addr``."""
    return addr & PAGE_MASK


def is_kernel_address(addr: int) -> bool:
    """True when ``addr`` is in the kernel half of the split."""
    return (addr & ADDRESS_MASK) >= KERNEL_BASE
