"""Byte-addressable simulated memory shared by the IR interpreter and
the assembly machine.

Layout (single flat address space, one backing ``bytearray``):

::

    0x0000_0000 .. 0x0000_0FFF   unmapped null guard  -> SimTrap("segfault")
    GLOBAL_BASE ..               module globals (sized to fit)
    heap_base   ..               bump-allocated heap
    stack_limit .. stack_base    downward-growing stack

Both simulation layers use the *same* layout so a program's pointer
values, out-of-bounds behaviour and hence its output bytes are identical
at IR and assembly level — the cross-layer consistency requirement of
the paper's fault model (§2.2).

Accesses outside the mapped ranges raise :class:`~repro.errors.SimTrap`
with kind ``"segfault"``; this is how injected faults become DUEs.

``mem_budget`` caps the total size of the backing ``bytearray``
(``SimTrap("mem-budget")``): a corrupted layout or an absurd
heap/stack request cannot allocate an unbounded host image (part of
the fault containment contract, DESIGN §11).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Union

from .errors import SimTrap
from .utils.bits import to_signed, to_unsigned

__all__ = ["Memory", "GLOBAL_BASE", "PAGE_SIZE", "PagedImage", "PageStore",
           "load_image"]

GLOBAL_BASE = 0x1000
_PACK_F64 = struct.Struct("<d")

#: granularity of page-versioned memory images (checkpoint ledgers)
PAGE_SIZE = 4096
_ZERO_PAGE = bytes(PAGE_SIZE)


class Memory:
    """Flat simulated memory with a null guard page.

    ``global_size`` must cover every global of the module being run;
    the loader computes it.  The heap serves ``sbrk``-style bump
    allocation (used by benchmark setup code through the loaders, not
    exposed to MiniC programs).
    """

    __slots__ = (
        "data",
        "global_base",
        "global_end",
        "heap_base",
        "heap_break",
        "heap_end",
        "stack_limit",
        "stack_base",
        "size",
        "mem_budget",
    )

    def __init__(
        self,
        global_size: int,
        heap_size: int = 1 << 20,
        stack_size: int = 1 << 19,
        mem_budget: Optional[int] = None,
    ):
        self.global_base = GLOBAL_BASE
        self.global_end = GLOBAL_BASE + _align(global_size, 16)
        self.heap_base = self.global_end
        self.heap_break = self.heap_base
        self.heap_end = self.heap_base + heap_size
        self.stack_limit = self.heap_end
        self.stack_base = self.stack_limit + stack_size  # grows downward
        self.size = self.stack_base
        self.mem_budget = mem_budget
        if mem_budget is not None and self.size > mem_budget:
            raise SimTrap(
                "mem-budget",
                f"memory image of {self.size} bytes exceeds budget of "
                f"{mem_budget}",
            )
        self.data = bytearray(self.size)

    # -- mapping checks ---------------------------------------------------

    def check(self, addr: int, size: int) -> None:
        """Trap unless ``[addr, addr+size)`` is inside the mapped region."""
        if addr < self.global_base or addr + size > self.size:
            raise SimTrap("segfault", f"access of {size} bytes at {addr:#x}")

    def in_stack(self, addr: int) -> bool:
        return self.stack_limit <= addr < self.stack_base

    # -- allocation ---------------------------------------------------------

    def sbrk(self, size: int) -> int:
        """Bump-allocate ``size`` bytes on the heap; returns the address."""
        size = _align(size, 16)
        addr = self.heap_break
        if addr + size > self.heap_end:
            raise SimTrap("oom", f"heap exhausted allocating {size} bytes")
        self.heap_break += size
        return addr

    # -- scalar access --------------------------------------------------------

    def read_int(self, addr: int, size: int, signed: bool = True) -> int:
        self.check(addr, size)
        raw = int.from_bytes(self.data[addr : addr + size], "little")
        return to_signed(raw, size * 8) if signed else raw

    def write_int(self, addr: int, value: int, size: int) -> None:
        self.check(addr, size)
        self.data[addr : addr + size] = to_unsigned(value, size * 8).to_bytes(
            size, "little"
        )

    def read_f64(self, addr: int) -> float:
        self.check(addr, 8)
        return _PACK_F64.unpack_from(self.data, addr)[0]

    def write_f64(self, addr: int, value: float) -> None:
        self.check(addr, 8)
        try:
            _PACK_F64.pack_into(self.data, addr, value)
        except (OverflowError, ValueError):
            # A faulty integer pattern reinterpreted as float can overflow
            # struct packing only via NaN payload issues; store a NaN.
            _PACK_F64.pack_into(self.data, addr, float("nan"))

    # -- bulk access (loader) ---------------------------------------------------

    def write_bytes(self, addr: int, payload: Union[bytes, bytearray]) -> None:
        self.check(addr, len(payload))
        self.data[addr : addr + len(payload)] = payload

    def read_bytes(self, addr: int, size: int) -> bytes:
        self.check(addr, size)
        return bytes(self.data[addr : addr + size])


def _align(n: int, a: int) -> int:
    return (n + a - 1) & ~(a - 1)


# -- page-versioned images ---------------------------------------------------


class PagedImage:
    """Immutable memory image held as a tuple of ``PAGE_SIZE`` pages.

    Images captured by one :class:`PageStore` share every page that did
    not change between captures, so a run of snapshots costs one full
    image plus the pages each step dirtied.  ``len()`` is the image size
    in bytes, matching the raw ``bytes`` images it stands in for.
    """

    __slots__ = ("pages", "size")

    def __init__(self, pages: tuple, size: int):
        self.pages = pages
        self.size = size

    def __len__(self) -> int:
        return self.size

    def tobytes(self) -> bytes:
        return b"".join(self.pages)

    def first_difference(self, data: bytearray, hint: int = 0) -> int:
        """Index of a page where ``data`` differs from this image, or -1
        when every byte is equal.  Page ``hint`` is tried first (the
        page that differed last time usually still does)."""
        pages = self.pages
        same = data.startswith      # memcmp at an offset, no slice copy
        if 0 < hint < len(pages) and not same(pages[hint],
                                              hint * PAGE_SIZE):
            return hint
        a = 0
        for i, page in enumerate(pages):
            if not same(page, a):
                return i
            a += PAGE_SIZE
        return -1


class PageStore:
    """Captures :class:`PagedImage` s of one memory, sharing pages.

    Each capture compares the live bytes page by page with the previous
    capture and copies only pages that differ; all-zero pages share one
    object.  ``fresh`` is the byte count of pages the last capture
    allocated.
    """

    __slots__ = ("prev", "fresh")

    def __init__(self) -> None:
        self.prev: Optional[tuple] = None
        self.fresh = 0

    def capture(self, data: bytearray) -> PagedImage:
        size = len(data)
        prev = self.prev
        if prev is not None and len(prev) * PAGE_SIZE < size:
            prev = None
        same = data.startswith      # memcmp at an offset, no slice copy
        pages = []
        fresh = 0
        for i, a in enumerate(range(0, size, PAGE_SIZE)):
            if prev is not None and same(prev[i], a):
                pages.append(prev[i])
                continue
            page = bytes(data[a:a + PAGE_SIZE])
            if page == _ZERO_PAGE:
                page = _ZERO_PAGE
            else:
                fresh += len(page)
            pages.append(page)
        self.prev = tuple(pages)
        self.fresh = fresh
        return PagedImage(self.prev, size)


def load_image(data: bytearray, image) -> None:
    """Overwrite ``data`` with a snapshot image (raw bytes or paged).
    A paged image rewrites only the pages that differ: a replay
    simulator is reused across nearby snapshots, so most already do."""
    if isinstance(image, PagedImage):
        same = data.startswith
        a = 0
        for page in image.pages:
            if not same(page, a):
                data[a:a + len(page)] = page
            a += len(page)
    else:
        data[:] = image
