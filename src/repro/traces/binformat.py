"""The native trace file format (v2): versioned, binary, packed.

Saving a generated (or functionally executed) trace makes an experiment
bit-reproducible and lets expensive workloads be shared between runs and
machines.  The file is a struct-packed binary container:

::

    +--------------------------------------------------------------+
    | header (32 B): magic "RTRC", version=2, instruction count,   |
    |                records per block                             |
    +--------------------------------------------------------------+
    | block frame 0: comp_len, record_count, crc32, zlib payload   |
    | block frame 1: ...                                           |
    +--------------------------------------------------------------+
    | index footer: (offset, record_count, comp_len) per block     |
    +--------------------------------------------------------------+
    | trailer (16 B): index offset, index entries, magic "CRTR"    |
    +--------------------------------------------------------------+

The index footer names every block's file offset and record count, which
is what makes :func:`read_trace` a true stream (one block resident at a
time) and gives :func:`trace_info` its per-file statistics without
decoding any payload.  Blocks are a framing and integrity unit (each
frame carries its own crc32), not random-access points: the record codec
keeps delta state across block boundaries, so decoding is sequential.

Inside a block, records are stored *columnar*: each field is packed into
its own contiguous stream and the streams are concatenated (a table of
stream lengths leads the block) before the whole block is
zlib-compressed.  Grouping like with like is worth ~25% over row-packed
records — the op column is long runs of identical bytes, the pc-delta
column repeats each loop body's signature, and the few genuinely random
address bits stay quarantined in one stream.

Per-record fields (*varints* are LEB128, signed values zigzag-encoded)::

    u16 flags   bit 0 signed        bit 5 has_dst
                bit 1 fp_convert    bit 6 has_addr
                bit 2 taken         bit 7 has_target
                bit 3 is_call       bit 8 has_store_seq
                bit 4 is_return     bit 9 has_dist
                                    bit 10 uniform src_stores
    u8  op, u8 lat, u8 size, u8 nsrcs, u8 nsrc_stores
    svarint pc delta (from the previous record's pc)
    [u8 dst] [svarint addr delta (from the previous memory address)]
    [svarint target - pc] [uvarint dist_insns]
    nsrcs x u8 srcs
    src_stores as *store distances*: ``0`` encodes MEMORY_SOURCE and
    ``d >= 1`` encodes "the d-th most recent store"; one distance when
    every byte has the same source (bit 10), else one per byte

Store sequence numbers are dense in program order, so ``store_seq`` needs
no bytes at all (bit 8 plus a running counter reconstructs it), and the
store-distance encoding keeps in-window communication — the common case —
in one-byte varints.  ``seq`` is implicit (dense from 0, in file order)
and the derived annotations ``containing_store``/``unique_stores``/
``path_hist`` are recomputed on load, so a reloaded trace is
bit-identical to the annotated original.

The reader decodes a block a column at a time: the one-byte streams are
used as they are, each varint stream is decoded in one pass (a plain
copy when no byte has its continuation bit set) and rows are assembled
with local cursors.  The path-history walk runs in the same loop, its
state carried across blocks with the other codec state, so
:func:`read_trace` yields simulation-ready instructions.

A reader checks every frame's crc32, that each block's column streams
are consumed exactly (a record count that disagrees with the payload is
an error, not extra or missing instructions) and that the blocks add up
to the header's instruction count.  It also rejects, naming the
instruction, a record the timing model could not run: a register at or
above ``NUM_ARCH_REGS``, a load or store without an address, a
``store_seq`` on a non-store or none on a store, and a source-store
distance reaching before the first store.
"""

from __future__ import annotations

import os
import struct
import zlib
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator

from repro.frontend.path_history import MAX_HISTORY_BITS
from repro.gcpause import gc_paused
from repro.isa.instructions import NUM_ARCH_REGS
from repro.isa.opcodes import OpClass
from repro.isa.trace import MEMORY_SOURCE, DynInst

#: Leading magic of a v2 binary trace file.
MAGIC = b"RTRC"
#: Trailing magic closing the trailer.
TRAILER_MAGIC = b"CRTR"
#: Format version written into the header.
BINARY_VERSION = 2
#: Records per compressed block (the streaming granularity).
DEFAULT_BLOCK_RECORDS = 4096

_HEADER = struct.Struct("<4sHHQI12x")          # magic, ver, flags, count, blk
_FRAME = struct.Struct("<III")                 # comp_len, records, crc32
_INDEX_ENTRY = struct.Struct("<QII")           # offset, records, comp_len
_TRAILER = struct.Struct("<QI4s")              # index offset, entries, magic

#: Column streams of a block, in on-disk order.  PCs are stored as a
#: (page reference, in-page offset) pair over a dictionary of 256-byte
#: pages built as the trace is walked: real instruction streams revisit a
#: small static code footprint, so page references collapse to one byte
#: and repeat in template-length runs the block compressor folds away.
_COLUMNS = (
    "flags", "op", "lat", "size", "nsrcs", "nstores",
    "pcpage", "pcoff", "pcnew", "dst", "addr", "target", "dist",
    "srcs", "sources",
)

_F_SIGNED = 1 << 0
_F_FP_CONVERT = 1 << 1
_F_TAKEN = 1 << 2
_F_IS_CALL = 1 << 3
_F_IS_RETURN = 1 << 4
_F_HAS_DST = 1 << 5
_F_HAS_ADDR = 1 << 6
_F_HAS_TARGET = 1 << 7
_F_HAS_STORE_SEQ = 1 << 8
_F_HAS_DIST = 1 << 9
_F_UNIFORM_SOURCES = 1 << 10


class TraceFormatError(ValueError):
    """A trace file (native or imported) is malformed or unsupported."""


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_svarint(out: bytearray, value: int) -> None:
    _write_uvarint(out, (value << 1) ^ (value >> 63) if value >= 0
                   else ((-value) << 1) - 1)


def _read_uvarint(payload: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


class _Codec:
    """Delta state shared by consecutive records (carried across blocks)."""

    __slots__ = ("addr", "stores", "page_ids", "pages", "hist")

    def __init__(self) -> None:
        self.addr = 0
        self.stores = 0        # stores encoded/decoded so far
        self.page_ids: dict[int, int] = {}   # encode: pc page -> id
        self.pages: list[int] = []           # decode: id -> pc page base
        self.hist = 0          # decode: path history after the last record


class _Columns:
    """One bytearray per column stream, reset per block."""

    __slots__ = _COLUMNS

    def __init__(self) -> None:
        for name in _COLUMNS:
            setattr(self, name, bytearray())

    def assemble(self) -> bytes:
        """Length table (uvarints, one per column) + concatenated streams."""
        payload = bytearray()
        streams = [getattr(self, name) for name in _COLUMNS]
        for stream in streams:
            _write_uvarint(payload, len(stream))
        for stream in streams:
            payload += stream
        return bytes(payload)

    def clear(self) -> None:
        for name in _COLUMNS:
            getattr(self, name).clear()


def _encode_record(inst: DynInst, cols: _Columns, state: _Codec) -> None:
    flags = 0
    if inst.signed:
        flags |= _F_SIGNED
    if inst.fp_convert:
        flags |= _F_FP_CONVERT
    if inst.taken:
        flags |= _F_TAKEN
    if inst.is_call:
        flags |= _F_IS_CALL
    if inst.is_return:
        flags |= _F_IS_RETURN
    if inst.dst is not None:
        flags |= _F_HAS_DST
    if inst.addr is not None:
        flags |= _F_HAS_ADDR
    if inst.target is not None:
        flags |= _F_HAS_TARGET
    if inst.store_seq >= 0:
        flags |= _F_HAS_STORE_SEQ
    if inst.dist_insns >= 0:
        flags |= _F_HAS_DIST
    sources = inst.src_stores
    uniform = len(sources) > 1 and len(set(sources)) == 1
    if uniform:
        flags |= _F_UNIFORM_SOURCES
    _write_uvarint(cols.flags, flags)
    cols.op.append(int(inst.op))
    cols.lat.append(inst.lat)
    cols.size.append(inst.size)
    cols.nsrcs.append(len(inst.srcs))
    cols.nstores.append(len(sources))
    page, off = inst.pc >> 8, inst.pc & 0xFF
    page_id = state.page_ids.get(page)
    if page_id is None:
        # First visit: reference 0 plus the page number in the side
        # stream; both sides assign the next dense id.
        state.page_ids[page] = len(state.page_ids)
        cols.pcpage.append(0)
        _write_uvarint(cols.pcnew, page)
    else:
        _write_uvarint(cols.pcpage, page_id + 1)
    cols.pcoff.append(off)
    if inst.dst is not None:
        cols.dst.append(inst.dst)
    if inst.addr is not None:
        _write_svarint(cols.addr, inst.addr - state.addr)
        state.addr = inst.addr
    if inst.target is not None:
        _write_svarint(cols.target, inst.target - inst.pc)
    if inst.dist_insns >= 0:
        _write_uvarint(cols.dist, inst.dist_insns)
    cols.srcs += bytes(inst.srcs)
    if sources:
        # Store distances: 0 is MEMORY_SOURCE, d >= 1 the d-th most
        # recent store.  In-window communication fits one byte.
        for value in sources[:1] if uniform else sources:
            if value == MEMORY_SOURCE:
                _write_uvarint(cols.sources, 0)
                continue
            distance = state.stores - value
            if distance < 1:
                raise TraceFormatError(
                    f"src_stores references store {value} at instruction "
                    f"{inst.seq}, but only {state.stores} stores precede "
                    "it; trace is not in program order or not annotated"
                )
            _write_uvarint(cols.sources, distance)
    if inst.store_seq >= 0:
        if inst.store_seq != state.stores:
            raise TraceFormatError(
                f"store_seq {inst.store_seq} out of order at instruction "
                f"{inst.seq} (expected {state.stores}); v2 requires dense "
                "program-order store numbering"
            )
        state.stores += 1


def _uvarints(stream: bytes) -> list[int]:
    """Decode a whole column of LEB128 uvarints in one pass."""
    if stream.isascii():
        return list(stream)            # every value fits in one byte
    values: list[int] = []
    append = values.append
    value = shift = 0
    for byte in stream:
        if byte & 0x80:
            value |= (byte & 0x7F) << shift
            shift += 7
        else:
            append(value | (byte << shift))
            value = shift = 0
    if shift:
        raise ValueError("unterminated varint")
    return values


def _svarints(stream: bytes) -> list[int]:
    """Decode a whole column of zigzag-encoded signed varints."""
    return [(raw >> 1) ^ -(raw & 1) for raw in _uvarints(stream)]


#: (signed, fp_convert, taken, is_call, is_return) for each value of the
#: five low flag bits.
_FLAG_BOOLS = tuple(
    tuple(bool(bits >> bit & 1) for bit in range(5)) for bits in range(32)
)
_OPS = tuple(OpClass)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_HIST_MASK = (1 << MAX_HISTORY_BITS) - 1


def _decode_block(
    payload: bytes, count: int, base_seq: int, state: _Codec, path: Path
) -> list[DynInst]:
    """Decode one block, a column at a time, into simulation-ready
    instructions: derived annotations and ``path_hist`` included."""

    def bad(seq: int, problem: str) -> TraceFormatError:
        return TraceFormatError(f"{path}: instruction {seq}: {problem}")

    def short(name: str) -> TraceFormatError:
        return TraceFormatError(
            f"{path}: block at instruction {base_seq} declares {count} "
            f"records, but its {name} column does not end with them"
        )

    insts: list[DynInst] = []
    append = insts.append
    seq = base_seq
    try:
        # Split the column streams: a length table, then the streams
        # back to back.
        lengths = []
        offset = 0
        for _ in _COLUMNS:
            length, offset = _read_uvarint(payload, offset)
            lengths.append(length)
        cols = {}
        for name, length in zip(_COLUMNS, lengths):
            cols[name] = payload[offset:offset + length]
            offset += length
        if offset != len(payload):
            raise TraceFormatError(
                f"{path}: block column table covers {offset} of "
                f"{len(payload)} bytes"
            )
        # The frame's record count is outside the crc: every per-record
        # column must hold exactly that many values, and every optional
        # column must be used up by the records that declare it.
        flags = _uvarints(cols["flags"])
        refs = _uvarints(cols["pcpage"])
        ops, lats, sizes = cols["op"], cols["lat"], cols["size"]
        nsrcs_col, nstores_col, offs = (
            cols["nsrcs"], cols["nstores"], cols["pcoff"]
        )
        for name, column in (
            ("flags", flags), ("op", ops), ("lat", lats), ("size", sizes),
            ("nsrcs", nsrcs_col), ("nstores", nstores_col),
            ("pcpage", refs), ("pcoff", offs),
        ):
            if len(column) != count:
                raise short(name)
        # PCs: reference 0 brings in the next new page, in stream order.
        pages = state.pages
        new_pages = _uvarints(cols["pcnew"])
        fresh = 0
        if 0 in refs:
            pcs = []
            for ref, off in zip(refs, offs):
                if ref:
                    base = pages[ref - 1]
                else:
                    base = new_pages[fresh] << 8
                    fresh += 1
                    pages.append(base)
                pcs.append(base | off)
        else:
            pcs = [pages[ref - 1] | off for ref, off in zip(refs, offs)]
        if fresh != len(new_pages):
            raise short("pcnew")
        dsts = cols["dst"]
        addrs = list(accumulate(_svarints(cols["addr"]), initial=state.addr))
        targets = _svarints(cols["target"])
        dists = _uvarints(cols["dist"])
        srcs = cols["srcs"]
        sources = _uvarints(cols["sources"])
        stores = state.stores
        hist = state.hist
        di = ti = xi = si = qi = 0
        ai = 1
        for seq, bits, code, lat, size, nsrcs, nstores, pc in zip(
            range(base_seq, base_seq + count), flags, ops, lats, sizes,
            nsrcs_col, nstores_col, pcs,
        ):
            signed, fp_convert, taken, is_call, is_return = (
                _FLAG_BOOLS[bits & 0x1F]
            )
            # Path history before this instruction decodes (the walk
            # fill_path_history makes, carried across blocks).
            path_hist = hist
            if code == _BRANCH:
                if is_call:
                    hist = ((hist << 2) | ((pc >> 2) & 0x3)) & _HIST_MASK
                elif not is_return:
                    hist = ((hist << 1) | taken) & _HIST_MASK
            if bits & _F_HAS_DST:
                dst = dsts[di]
                di += 1
            else:
                dst = None
            if bits & _F_HAS_ADDR:
                addr = addrs[ai]
                ai += 1
            elif code == _LOAD or code == _STORE:
                raise bad(seq, "load or store without an address")
            else:
                addr = None
            if bits & _F_HAS_TARGET:
                target = pc + targets[ti]
                ti += 1
            else:
                target = None
            if bits & _F_HAS_DIST:
                dist_insns = dists[xi]
                xi += 1
            else:
                dist_insns = -1
            if nsrcs:
                src = tuple(srcs[si:si + nsrcs])
                si += nsrcs
            else:
                src = ()
            if nstores:
                # Derived annotations, exactly as annotate_trace makes
                # them (unique_stores in set(src_stores) order).
                if bits & _F_UNIFORM_SOURCES or nstores == 1:
                    raws = sources[qi:qi + 1]
                    qi += 1
                else:
                    raws = sources[qi:qi + nstores]
                    qi += nstores
                if qi > len(sources):
                    raise short("sources")
                if max(raws) > stores:
                    raise bad(seq, f"source store distance {max(raws)} "
                              f"but only {stores} stores precede it")
                if len(raws) == 1:
                    containing = stores - raws[0] if raws[0] else MEMORY_SOURCE
                    src_stores = (containing,) * nstores
                    unique_stores = (
                        () if containing == MEMORY_SOURCE else (containing,)
                    )
                else:
                    src_stores = tuple([
                        stores - raw if raw else MEMORY_SOURCE for raw in raws
                    ])
                    unique = set(src_stores)
                    if len(unique) == 1 and MEMORY_SOURCE not in unique:
                        containing = src_stores[0]
                    else:
                        containing = MEMORY_SOURCE
                    unique_stores = tuple(
                        s for s in unique if s != MEMORY_SOURCE
                    )
            else:
                src_stores = unique_stores = ()
                containing = MEMORY_SOURCE
            if bits & _F_HAS_STORE_SEQ:
                if code != _STORE:
                    raise bad(seq, "store_seq on a non-store")
                store_seq = stores
                stores += 1
            elif code == _STORE:
                raise bad(seq, "store without a store_seq")
            else:
                store_seq = -1
            append(DynInst(
                seq, pc, _OPS[code], src, dst, lat, addr, size, signed,
                fp_convert, taken, target, is_call, is_return, store_seq,
                src_stores, containing, dist_insns, unique_stores, path_hist,
            ))
    except TraceFormatError:
        raise
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(
            f"{path}: corrupt record in block at instruction {seq}: {exc}"
        ) from exc
    for name, used, column in (
        ("dst", di, dsts), ("addr", ai, addrs), ("target", ti, targets),
        ("dist", xi, dists), ("srcs", si, srcs), ("sources", qi, sources),
    ):
        if used != len(column):
            raise short(name)
    if (dsts and max(dsts) >= NUM_ARCH_REGS) or (
        srcs and max(srcs) >= NUM_ARCH_REGS
    ):
        for inst in insts:
            registers = inst.srcs if inst.dst is None else (
                inst.dst, *inst.srcs
            )
            if max(registers, default=0) >= NUM_ARCH_REGS:
                raise bad(inst.seq, f"register {max(registers)} is outside "
                          f"the {NUM_ARCH_REGS} architectural registers")
    state.addr = addrs[-1]
    state.stores = stores
    state.hist = hist
    return insts


class BinaryTraceWriter:
    """Streaming v2 writer: feed instructions, blocks flush as they fill.

    Usable as a context manager::

        with BinaryTraceWriter(path) as writer:
            for inst in trace:
                writer.write(inst)
    """

    def __init__(
        self, path: str | Path,
        block_records: int = DEFAULT_BLOCK_RECORDS,
    ) -> None:
        if block_records < 1:
            raise ValueError(f"block_records must be >= 1: {block_records}")
        self.path = Path(path)
        self.block_records = block_records
        self._stream = open(self.path, "wb")
        self._stream.write(
            _HEADER.pack(MAGIC, BINARY_VERSION, 0, 0, block_records)
        )
        self._state = _Codec()
        self._columns = _Columns()
        self._buffered = 0
        self._count = 0
        self._index: list[tuple[int, int, int]] = []
        self._closed = False

    def write(self, inst: DynInst) -> None:
        _encode_record(inst, self._columns, self._state)
        self._buffered += 1
        self._count += 1
        if self._buffered >= self.block_records:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._buffered:
            return
        payload = zlib.compress(self._columns.assemble(), 9)
        offset = self._stream.tell()
        self._index.append((offset, self._buffered, len(payload)))
        self._stream.write(
            _FRAME.pack(len(payload), self._buffered, zlib.crc32(payload))
        )
        self._stream.write(payload)
        self._columns.clear()
        self._buffered = 0

    def abort(self) -> None:
        """Discard the output: close without finalizing and unlink the
        partial file, so a failed write never leaves a loadable-looking
        truncated trace behind."""
        if self._closed:
            return
        self._closed = True
        self._stream.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._flush_block()
            index_offset = self._stream.tell()
            for entry in self._index:
                self._stream.write(_INDEX_ENTRY.pack(*entry))
            self._stream.write(
                _TRAILER.pack(index_offset, len(self._index), TRAILER_MAGIC)
            )
            self._stream.seek(0)
            self._stream.write(_HEADER.pack(
                MAGIC, BINARY_VERSION, 0, self._count, self.block_records
            ))
        finally:
            self._stream.close()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def write_trace(trace: Iterable[DynInst], path: str | Path,
                block_records: int = DEFAULT_BLOCK_RECORDS) -> None:
    """Write *trace* to *path* in the v2 binary format."""
    with BinaryTraceWriter(path, block_records=block_records) as writer:
        for inst in trace:
            writer.write(inst)


def is_binary_trace(path: str | Path) -> bool:
    """True if *path* starts with the v2 magic."""
    try:
        with open(path, "rb") as stream:
            return stream.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _read_header(stream, path: Path) -> tuple[int, int]:
    raw = stream.read(_HEADER.size)
    if not raw.startswith(MAGIC):
        raise TraceFormatError(
            f"{path}: not a repro trace file (no {MAGIC.decode()} magic)"
        )
    if len(raw) != _HEADER.size:
        raise TraceFormatError(f"{path}: truncated header")
    magic, version, _flags, count, block_records = _HEADER.unpack(raw)
    if version != BINARY_VERSION:
        raise TraceFormatError(f"{path}: unsupported version {version}")
    return count, block_records


def read_trace(path: str | Path) -> Iterator[DynInst]:
    """Stream simulation-ready instructions from a v2 file, one block
    resident at a time (derived annotations and ``path_hist`` included).
    """
    path = Path(path)
    with open(path, "rb") as stream:
        expected, _block_records = _read_header(stream, path)
        state = _Codec()
        seq = 0
        while seq < expected:
            raw = stream.read(_FRAME.size)
            if len(raw) != _FRAME.size:
                raise TraceFormatError(
                    f"{path}: truncated at instruction {seq} "
                    f"(header says {expected})"
                )
            comp_len, count, crc = _FRAME.unpack(raw)
            payload = stream.read(comp_len)
            if len(payload) != comp_len:
                raise TraceFormatError(
                    f"{path}: truncated block at instruction {seq}"
                )
            if zlib.crc32(payload) != crc:
                raise TraceFormatError(
                    f"{path}: block checksum mismatch at instruction {seq}"
                )
            try:
                decompressed = zlib.decompress(payload)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"{path}: corrupt block at instruction {seq}: {exc}"
                ) from exc
            yield from _decode_block(decompressed, count, seq, state, path)
            seq += count
        if seq != expected:
            raise TraceFormatError(
                f"{path}: blocks hold {seq} instructions, header says "
                f"{expected}"
            )


def load_trace(path: str | Path) -> list[DynInst]:
    """Read a v2 file into a simulation-ready annotated trace."""
    # Decoding allocates several objects per instruction and makes no
    # reference cycles, so collector passes over the growing list are
    # pure overhead.
    with gc_paused():
        return list(read_trace(path))


def trace_info(path: str | Path) -> dict:
    """Header and index statistics without decoding any instruction."""
    path = Path(path)
    file_size = path.stat().st_size
    with open(path, "rb") as stream:
        count, block_records = _read_header(stream, path)
        if file_size < _HEADER.size + _TRAILER.size:
            raise TraceFormatError(f"{path}: missing index trailer")
        stream.seek(-_TRAILER.size, 2)
        raw = stream.read(_TRAILER.size)
        index_offset, entries, magic = _TRAILER.unpack(raw)
        if magic != TRAILER_MAGIC:
            raise TraceFormatError(f"{path}: missing index trailer")
        stream.seek(index_offset)
        index = []
        for _ in range(entries):
            entry = stream.read(_INDEX_ENTRY.size)
            if len(entry) != _INDEX_ENTRY.size:
                raise TraceFormatError(f"{path}: truncated index footer")
            index.append(_INDEX_ENTRY.unpack(entry))
    compressed = sum(comp_len for _, _, comp_len in index)
    indexed = sum(records for _, records, _ in index)
    if indexed != count:
        raise TraceFormatError(
            f"{path}: header says {count} instructions, index covers "
            f"{indexed}"
        )
    return {
        "format": "repro-trace-binary",
        "version": BINARY_VERSION,
        "instructions": count,
        "blocks": len(index),
        "block_records": block_records,
        "file_bytes": file_size,
        "payload_bytes": compressed,
        "bytes_per_instruction": file_size / count if count else 0.0,
    }
