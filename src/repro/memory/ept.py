"""Extended Page Tables: hypervisor-owned GPA -> HPA translation.

FACE-CHANGE's kernel view switching is implemented entirely here: each
view owns a set of host frames holding its (partially UD2-filled) copy of
the kernel code, and switching a view means re-pointing the EPT entries
covering the kernel-code guest-physical range at that view's frames
(Figure 2, steps 3A/3B in the paper).

The table is two-level like the paper's ("we modify the pointers to the
page directory (level 2 in the EPT)"): switching the contiguous base
kernel swaps whole level-2 table objects, while scattered module code
pages are switched entry-by-entry so that interleaved kernel *data* pages
keep their original mappings.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.memory.layout import PAGE_SHIFT

_TABLE_BITS = 10
_TABLE_SIZE = 1 << _TABLE_BITS
_TABLE_MASK = _TABLE_SIZE - 1

#: An epoch cell: a one-element list whose identity is stable for the
#: lifetime of the EPT, so cached translations can validate with a single
#: ``cell[0] == epoch`` comparison instead of a dict lookup.
EpochCell = List[int]


class EptViolation(Exception):
    """Guest-physical address with no EPT mapping."""

    def __init__(self, gpa: int):
        super().__init__(f"EPT violation at gpa {gpa:#010x}")
        self.gpa = gpa


class _EptLevel2:
    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: Dict[int, int] = {}


class ExtendedPageTable:
    """Two-level EPT with identity default mapping for guest RAM.

    By default every guest frame number maps to the identical host frame
    number (the usual "guest RAM is backed 1:1" simplification).  Explicit
    entries override the identity mapping; this is what view switching
    installs.
    """

    def __init__(self, identity_limit_gpfn: int = 1 << 18) -> None:
        self._directory: Dict[int, _EptLevel2] = {}
        #: gpfns below this translate identity unless overridden
        self.identity_limit_gpfn = identity_limit_gpfn
        #: global mutation counter (kept for inspection/tests); cached
        #: translations validate against the per-level-2-table epochs
        #: below, so remapping the kernel-code range does not invalidate
        #: cached user or stack translations.
        self.generation = 0
        self._epoch_cells: Dict[int, EpochCell] = {}

    # -- epochs --------------------------------------------------------------

    def epoch_cell(self, gpfn: int) -> EpochCell:
        """The epoch cell of the level-2 table covering ``gpfn``.

        Callers snapshot ``cell[0]`` alongside a translation and later
        compare it against the live cell: any remap of a gpfn sharing
        this level-2 table invalidates the snapshot, while remaps of
        other ranges leave it intact (selective TLB invalidation).
        """
        dir_index = gpfn >> _TABLE_BITS
        cell = self._epoch_cells.get(dir_index)
        if cell is None:
            cell = self._epoch_cells[dir_index] = [0]
        return cell

    def _bump_epoch(self, dir_index: int) -> None:
        cell = self._epoch_cells.get(dir_index)
        if cell is None:
            self._epoch_cells[dir_index] = [1]
        else:
            cell[0] += 1

    # -- entry management ----------------------------------------------------

    def map_frame(self, gpfn: int, hpfn: int) -> None:
        """Point ``gpfn`` at ``hpfn`` (single-entry update)."""
        table = self._directory.get(gpfn >> _TABLE_BITS)
        if table is None:
            table = _EptLevel2()
            self._directory[gpfn >> _TABLE_BITS] = table
        index = gpfn & _TABLE_MASK
        if table.entries.get(index) == hpfn:
            return  # no-op remap: keep every cached translation valid
        table.entries[index] = hpfn
        self.generation += 1
        self._bump_epoch(gpfn >> _TABLE_BITS)

    def map_frames(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Batch variant of :meth:`map_frame`: one generation bump, and
        one epoch bump per level-2 table the batch changed."""
        touched = set()
        for gpfn, hpfn in pairs:
            dir_index = gpfn >> _TABLE_BITS
            table = self._directory.get(dir_index)
            if table is None:
                table = _EptLevel2()
                self._directory[dir_index] = table
            index = gpfn & _TABLE_MASK
            if table.entries.get(index) == hpfn:
                continue
            table.entries[index] = hpfn
            touched.add(dir_index)
        self._end_batch(touched)

    def unmap_frame(self, gpfn: int) -> None:
        """Remove an override, reverting ``gpfn`` to identity mapping."""
        table = self._directory.get(gpfn >> _TABLE_BITS)
        if table is not None and (gpfn & _TABLE_MASK) in table.entries:
            del table.entries[gpfn & _TABLE_MASK]
            self.generation += 1
            self._bump_epoch(gpfn >> _TABLE_BITS)

    def unmap_frames(self, gpfns: Iterable[int]) -> None:
        """Batch variant of :meth:`unmap_frame` (bumps as ``map_frames``)."""
        touched = set()
        for gpfn in gpfns:
            dir_index = gpfn >> _TABLE_BITS
            table = self._directory.get(dir_index)
            if table is not None and (gpfn & _TABLE_MASK) in table.entries:
                del table.entries[gpfn & _TABLE_MASK]
                touched.add(dir_index)
        self._end_batch(touched)

    def _end_batch(self, touched: Set[int]) -> None:
        # cached translations compare epochs for equality, so one bump
        # per changed table invalidates exactly what one per frame did
        if touched:
            self.generation += 1
            for dir_index in touched:
                self._bump_epoch(dir_index)

    def overridden_gpfns(self) -> List[int]:
        """All gpfns with non-identity mappings (for inspection/tests)."""
        out: List[int] = []
        for dir_index, table in self._directory.items():
            for entry_index in table.entries:
                out.append((dir_index << _TABLE_BITS) | entry_index)
        return sorted(out)

    # -- translation ---------------------------------------------------------

    def translate(self, gpa: int) -> int:
        """Translate ``gpa`` to a host-physical address."""
        gpfn = gpa >> PAGE_SHIFT
        return (self.translate_frame(gpfn) << PAGE_SHIFT) | (
            gpa & ((1 << PAGE_SHIFT) - 1)
        )

    def translate_frame(self, gpfn: int) -> int:
        """Translate a guest frame number to a host frame number."""
        table = self._directory.get(gpfn >> _TABLE_BITS)
        if table is not None:
            hpfn = table.entries.get(gpfn & _TABLE_MASK)
            if hpfn is not None:
                return hpfn
        if gpfn < self.identity_limit_gpfn:
            return gpfn
        raise EptViolation(gpfn << PAGE_SHIFT)
