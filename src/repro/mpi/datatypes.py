"""MPI datatypes: basic types + derived layouts with pack/unpack (§4).

The paper's MPI "relies on the higher-level MPICH routines for collective
communication and non-contiguous sends": the device layer moves
contiguous bytes, and derived datatypes are packed/unpacked by the upper
layer before/after transport — exactly what this module provides.

Supported, mirroring what MPICH's upper layers use:

* basic types (``BYTE``, ``INT``, ``DOUBLE``, ``FLOAT``, ``COMPLEX``),
* ``Contiguous(count, base)``,
* ``Vector(count, blocklength, stride, base)`` — strided columns/planes,
* ``Indexed(blocklengths, displacements, base)`` — irregular layouts,
* ``Struct`` via ``Indexed`` over bytes.

Packing costs are charged by the caller at the host copy rate (the pack
is a real gather, so the NAS-style column exchange pays for it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


class Datatype:
    """Base: a datatype maps (memory bytes) <-> (packed wire bytes)."""

    #: bytes this type occupies on the wire when packed
    packed_size: int
    #: bytes of the memory footprint it spans (extent)
    extent: int

    def pack(self, raw: bytes) -> bytes:
        """Gather the type's bytes out of a memory image of `extent` bytes."""
        raise NotImplementedError

    def unpack(self, packed: bytes, into: bytearray) -> None:
        """Scatter packed bytes into a memory image (len >= extent)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Basic(Datatype):
    """A basic MPI type of fixed size (contiguous by definition)."""

    name: str
    size: int

    @property
    def packed_size(self) -> int:  # type: ignore[override]
        return self.size

    @property
    def extent(self) -> int:  # type: ignore[override]
        return self.size

    def pack(self, raw: bytes) -> bytes:
        if len(raw) < self.size:
            raise ValueError(f"{self.name}: need {self.size} bytes")
        return bytes(raw[: self.size])

    def unpack(self, packed: bytes, into: bytearray) -> None:
        into[: self.size] = packed[: self.size]


BYTE = Basic("MPI_BYTE", 1)
CHAR = Basic("MPI_CHAR", 1)
INT = Basic("MPI_INT", 4)
LONG = Basic("MPI_LONG", 8)
FLOAT = Basic("MPI_FLOAT", 4)
DOUBLE = Basic("MPI_DOUBLE", 8)
COMPLEX = Basic("MPI_COMPLEX", 8)
DOUBLE_COMPLEX = Basic("MPI_DOUBLE_COMPLEX", 16)


class Contiguous(Datatype):
    """``count`` repetitions of ``base``, back to back."""

    def __init__(self, count: int, base: Datatype):
        if count < 0:
            raise ValueError("negative count")
        self.count = count
        self.base = base
        self.packed_size = count * base.packed_size
        self.extent = count * base.extent

    def pack(self, raw: bytes) -> bytes:
        out = bytearray()
        for i in range(self.count):
            out += self.base.pack(raw[i * self.base.extent:
                                      (i + 1) * self.base.extent])
        return bytes(out)

    def unpack(self, packed: bytes, into: bytearray) -> None:
        ps = self.base.packed_size
        for i in range(self.count):
            chunk = bytearray(self.base.extent)
            chunk[:] = into[i * self.base.extent: (i + 1) * self.base.extent]
            self.base.unpack(packed[i * ps: (i + 1) * ps], chunk)
            into[i * self.base.extent: (i + 1) * self.base.extent] = chunk


class Vector(Datatype):
    """``count`` blocks of ``blocklength`` elements, ``stride`` apart
    (stride in elements, as MPI_Type_vector)."""

    def __init__(self, count: int, blocklength: int, stride: int,
                 base: Datatype):
        if count < 0 or blocklength < 0:
            raise ValueError("negative vector geometry")
        if stride < blocklength:
            raise ValueError("overlapping vector blocks (stride < blocklength)")
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.base = base
        self.packed_size = count * blocklength * base.packed_size
        self.extent = (((count - 1) * stride + blocklength) * base.extent
                       if count else 0)

    def pack(self, raw: bytes) -> bytes:
        es = self.base.extent
        out = bytearray()
        for b in range(self.count):
            start = b * self.stride * es
            out += raw[start: start + self.blocklength * es]
        return bytes(out)

    def unpack(self, packed: bytes, into: bytearray) -> None:
        es = self.base.extent
        blk = self.blocklength * es
        for b in range(self.count):
            start = b * self.stride * es
            into[start: start + blk] = packed[b * blk: (b + 1) * blk]


class Indexed(Datatype):
    """Irregular blocks: (blocklengths[i] elements at displacements[i])."""

    def __init__(self, blocklengths: Sequence[int],
                 displacements: Sequence[int], base: Datatype):
        if len(blocklengths) != len(displacements):
            raise ValueError("blocklengths and displacements must pair up")
        if any(b < 0 for b in blocklengths) or any(
                d < 0 for d in displacements):
            raise ValueError("negative indexed geometry")
        # reject overlap: sort by displacement and check adjacency
        spans = sorted((d, d + b) for b, d in zip(blocklengths, displacements)
                       if b)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            if e1 > s2:
                raise ValueError("overlapping indexed blocks")
        self.blocklengths = list(blocklengths)
        self.displacements = list(displacements)
        self.base = base
        self.packed_size = sum(blocklengths) * base.packed_size
        self.extent = (max((d + b) for b, d in
                           zip(blocklengths, displacements)) * base.extent
                       if any(blocklengths) else 0)

    def pack(self, raw: bytes) -> bytes:
        es = self.base.extent
        out = bytearray()
        for b, d in zip(self.blocklengths, self.displacements):
            out += raw[d * es: (d + b) * es]
        return bytes(out)

    def unpack(self, packed: bytes, into: bytearray) -> None:
        es = self.base.extent
        pos = 0
        for b, d in zip(self.blocklengths, self.displacements):
            nbytes = b * es
            into[d * es: d * es + nbytes] = packed[pos: pos + nbytes]
            pos += nbytes


def pack_cost_us(dtype: Datatype, host) -> float:
    """Host time to pack/unpack one instance (a real gather/scatter copy;
    strided access costs a bit over the streaming rate)."""
    contiguous = isinstance(dtype, (Basic, Contiguous))
    rate = host.copy_rate if contiguous else host.copy_rate * 0.6
    return host.copy_fixed + dtype.packed_size / rate


def column_type(rows: int, cols: int, base: Datatype = DOUBLE) -> Vector:
    """One column of a row-major rows x cols matrix (the classic
    MPI_Type_vector example, used by the datatype example/tests)."""
    return Vector(count=rows, blocklength=1, stride=cols, base=base)
