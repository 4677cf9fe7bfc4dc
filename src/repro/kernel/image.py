"""Kernel image builder: lays out function bytes in guest memory.

The base kernel's functions are assembled and placed from
``KERNEL_TEXT_BASE`` with 16-byte alignment (the paper relies on
``-falign-functions``: function starts are power-of-two aligned, which is
what makes whole-function loading safe against split-UD2 hazards).  The
inter-function alignment gaps are padded with ``nop`` -- the "free
alignment areas between functions" that the Infelf case study hides
trojan blocks in.

Loadable modules are assembled the same way but placed in the kernel heap
region (``MODULE_SPACE_BASE``); a descriptor is appended to the guest's
in-memory module list so the hypervisor can find module bases via VMI,
exactly like the paper records module code relative to its base address.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.assembler import AssembledFunction, Assembler, FunctionBody
from repro.memory.layout import (
    KERNEL_BASE,
    KERNEL_TEXT_BASE,
    MODULE_SPACE_BASE,
    PAGE_SIZE,
)
from repro.memory.physmem import PhysicalMemory
from repro.hypervisor.vmi import MODULE_LIST_HEAD_ADDR

_ALIGN = 16
_NOP = 0x90
#: Guest address where module descriptors are allocated.
_MODULE_DESC_BASE = 0xC1001000


class SymbolError(KeyError):
    """Unknown symbol during relocation or lookup."""


@dataclass(frozen=True)
class Symbol:
    name: str
    address: int
    size: int
    module: Optional[str]  # None = base kernel

    def __deepcopy__(self, memo: dict) -> "Symbol":
        # immutable: snapshot forks share one instance
        return self


@dataclass
class LoadedModule:
    name: str
    base: int
    size: int
    #: guest address of this module's list descriptor
    descriptor_addr: int
    hidden: bool = False


class KernelImage:
    """The guest kernel's code layout plus its symbol table."""

    def __init__(self, physmem: PhysicalMemory, assembler: Assembler) -> None:
        self.physmem = physmem
        self.assembler = assembler
        self.symbols: Dict[str, Symbol] = {}
        self._sorted_symbols: List[Symbol] = []
        self.text_start = KERNEL_TEXT_BASE
        self.text_end = KERNEL_TEXT_BASE
        self.modules: Dict[str, LoadedModule] = {}
        self._module_cursor = MODULE_SPACE_BASE
        self._desc_cursor = _MODULE_DESC_BASE
        self._pending: List[Tuple[AssembledFunction, int, Optional[str]]] = []

    # -- guest memory helpers ------------------------------------------------

    @staticmethod
    def gva_to_gpa(gva: int) -> int:
        """Kernel linear mapping: virtual = physical + KERNEL_BASE."""
        return gva - KERNEL_BASE

    def write_guest(self, gva: int, data: bytes) -> None:
        self.physmem.write(self.gva_to_gpa(gva), data)

    def read_guest(self, gva: int, length: int) -> bytes:
        return self.physmem.read(self.gva_to_gpa(gva), length)

    # -- base kernel -----------------------------------------------------------

    def build_base(self, functions: Iterable[FunctionBody]) -> None:
        """Assemble and lay out the base kernel text."""
        cursor = KERNEL_TEXT_BASE
        pending: List[Tuple[AssembledFunction, int]] = []
        for body in functions:
            assembled = self.assembler.assemble(body)
            cursor = self._align(cursor)
            if body.name in self.symbols:
                raise SymbolError(f"duplicate symbol {body.name}")
            self.symbols[body.name] = Symbol(
                body.name, cursor, assembled.size, module=None
            )
            pending.append((assembled, cursor))
            cursor += assembled.size
        self.text_end = cursor
        # pad the whole text region with nops first (alignment gaps)
        self.write_guest(
            KERNEL_TEXT_BASE,
            bytes([_NOP]) * (self.text_end - KERNEL_TEXT_BASE),
        )
        for assembled, address in pending:
            self._resolve_and_write(assembled, address)
        self._rebuild_sorted()

    # -- modules -----------------------------------------------------------------

    def load_module(self, name: str, functions: Iterable[FunctionBody]) -> LoadedModule:
        """Assemble ``functions`` into the module space and register it."""
        if name in self.modules:
            raise SymbolError(f"module {name} already loaded")
        base = self._module_cursor
        cursor = base
        pending: List[Tuple[AssembledFunction, int]] = []
        new_symbols: List[Symbol] = []
        for body in functions:
            assembled = self.assembler.assemble(body)
            cursor = self._align(cursor)
            if body.name in self.symbols:
                raise SymbolError(f"duplicate symbol {body.name}")
            symbol = Symbol(body.name, cursor, assembled.size, module=name)
            self.symbols[body.name] = symbol
            new_symbols.append(symbol)
            pending.append((assembled, cursor))
            cursor += assembled.size
        size = cursor - base
        self.write_guest(base, bytes([_NOP]) * size)
        for assembled, address in pending:
            self._resolve_and_write(assembled, address)
        # advance the heap cursor to the next page boundary
        self._module_cursor = (cursor + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        descriptor = self._append_module_descriptor(name, base, size)
        module = LoadedModule(name, base, size, descriptor)
        self.modules[name] = module
        self._rewrite_module_list()
        self._rebuild_sorted()
        return module

    def hide_module(self, name: str) -> None:
        """Unlink a module's descriptor from the guest list (rootkit style).

        The module's code stays resident; only the list entry vanishes, so
        VMI-based range identification can no longer attribute it -- this
        is what produces the ``UNKNOWN`` frames in the paper's Figure 5.
        """
        target = self.modules[name]
        target.hidden = True
        self._rewrite_module_list()

    def _append_module_descriptor(self, name: str, base: int, size: int) -> int:
        addr = self._desc_cursor
        self._desc_cursor += 64
        payload = name.encode("ascii")[:23].ljust(24, b"\x00")
        payload += struct.pack("<III", base, size, 0)
        self.write_guest(addr, payload)
        return addr

    def _rewrite_module_list(self) -> None:
        """Re-link the guest-visible descriptor chain, skipping hidden ones."""
        visible = [m for m in self.modules.values() if not m.hidden]
        head = visible[0].descriptor_addr if visible else 0
        self.write_guest(MODULE_LIST_HEAD_ADDR, struct.pack("<I", head))
        for idx, module in enumerate(visible):
            nxt = visible[idx + 1].descriptor_addr if idx + 1 < len(visible) else 0
            self.write_guest(module.descriptor_addr + 32, struct.pack("<I", nxt))

    # -- symbol lookup --------------------------------------------------------------

    def address_of(self, name: str) -> int:
        symbol = self.symbols.get(name)
        if symbol is None:
            raise SymbolError(name)
        return symbol.address

    def symbol_at(self, address: int) -> Optional[Symbol]:
        """The symbol whose [start, start+size) contains ``address``."""
        lo, hi = 0, len(self._sorted_symbols) - 1
        result: Optional[Symbol] = None
        while lo <= hi:
            mid = (lo + hi) // 2
            symbol = self._sorted_symbols[mid]
            if symbol.address <= address:
                result = symbol
                lo = mid + 1
            else:
                hi = mid - 1
        if result is not None and result.address <= address < result.address + result.size:
            return result
        return None

    def format_address(self, address: int) -> str:
        """Pretty-print like the paper's logs: ``<name+0xoff>`` or UNKNOWN.

        Addresses inside *hidden* modules print as UNKNOWN: the
        hypervisor's symbol knowledge comes from the base kernel map plus
        the guest's (VMI-parsed) module list, so a rootkit that unlinks
        itself from that list becomes unattributable -- producing the
        UNKNOWN frames of the paper's Figure 5.
        """
        symbol = self.symbol_at(address)
        if symbol is None:
            return f"{address:#010x} <UNKNOWN>"
        if symbol.module is not None:
            module = self.modules.get(symbol.module)
            if module is not None and module.hidden:
                return f"{address:#010x} <UNKNOWN>"
        off = address - symbol.address
        return f"{address:#010x} <{symbol.name}+{off:#x}>"

    def function_range(self, name: str) -> Tuple[int, int]:
        symbol = self.symbols.get(name)
        if symbol is None:
            raise SymbolError(name)
        return symbol.address, symbol.address + symbol.size

    # -- internals ---------------------------------------------------------------------

    @staticmethod
    def _align(addr: int) -> int:
        return (addr + _ALIGN - 1) & ~(_ALIGN - 1)

    def _resolve_and_write(self, assembled: AssembledFunction, address: int) -> None:
        data = bytearray(assembled.data)
        for reloc in assembled.relocations:
            target = self.symbols.get(reloc.target)
            if target is None:
                raise SymbolError(
                    f"{assembled.name}: unresolved reference to {reloc.target!r}"
                )
            rel = (target.address - (address + reloc.insn_end)) & 0xFFFFFFFF
            struct.pack_into("<I", data, reloc.offset, rel)
        self.write_guest(address, bytes(data))

    def _rebuild_sorted(self) -> None:
        self._sorted_symbols = sorted(self.symbols.values(), key=lambda s: s.address)
