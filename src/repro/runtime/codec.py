"""Wire-format codecs: compress what the collectives put on the network.

The paper's Eq. 7 bitmask compression shrinks compute-side storage, but
a SUMMA panel broadcast still moves the *raw* packed words.  This module
closes that gap with lossless wire codecs for the two payload families
the distributed Jaccard pipeline actually sends:

* bit-packed word tiles (:class:`~repro.sparse.bitmatrix.BitMatrix`
  blocks — the SUMMA panel broadcasts),
* integer/float ndarrays (Gram partials, ``a-hat`` contributions, COO
  coordinate stacks — the allreduce / all-to-all / gather payloads).

Three codecs are provided (plus the pass-through):

``varint``
    Delta + LEB128 varint encoding of sorted index payloads (the sparse-
    set compression of Pratap et al.): a hypersparse word tile becomes
    the gap sequence of its set-bit positions; an integer array becomes
    zigzag varints (optionally delta'd along the flattened order).
``rle``
    Zero-word run-length encoding: the word stream is split into
    alternating (zero-run, literal-run) pairs; runs are varint token
    pairs, literal words are stored raw.  This is the natural fit for
    bit-packed tiles in the BIGSI-like regime where almost every word
    is zero, and for hypersparse integer Gram partials.
``adaptive``
    Picks per payload by *modelled* encoded size (computed from run and
    gap statistics without materializing every candidate encoding), then
    encodes with the winner.  Ties resolve toward ``raw``.

Every encoding is **bit-exact**: ``decode(encode(x))`` reconstructs the
payload exactly, whatever the policy.  Encoded payloads travel as
:class:`Frame` objects whose byte string starts with a self-describing
24-byte header, so decode needs no side channel — the frame alone says
which codec, payload kind, dtype, and shape to reconstruct.  See
``docs/wire_format.md`` for the byte-level layout and worked examples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Wire-codec policy names accepted by the driver config.  ``"raw"``
#: bypasses the codec layer entirely (the legacy wire format: payloads
#: charged at ``payload_nbytes``, no frames, no wire counters).
WIRE_CODECS = ("raw", "varint", "rle", "adaptive")

#: Frame header: magic, codec id, payload kind, dtype code, flags,
#: rows (u64), cols (u64) — all little-endian.
_HEADER = struct.Struct("<4sBBBBQQ")
HEADER_NBYTES = _HEADER.size
MAGIC = b"RWF1"

_CODEC_IDS = {"raw": 0, "varint": 1, "rle": 2}
_CODEC_NAMES = {v: k for k, v in _CODEC_IDS.items()}

#: Payload kinds of the frame header (kind 0 is unassigned).
KIND_NDARRAY, KIND_BITMATRIX = 1, 2

_DTYPES = (
    np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32),
    np.dtype(np.uint64), np.dtype(np.int8), np.dtype(np.int16),
    np.dtype(np.int32), np.dtype(np.int64), np.dtype(np.float32),
    np.dtype(np.float64), np.dtype(np.bool_),
)
_DTYPE_CODES = {dt: i for i, dt in enumerate(_DTYPES)}
_INT_DTYPES = frozenset(_DTYPES[:8])

#: Flag bit: varint values were delta-encoded along the flattened order.
FLAG_DELTA = 1
#: Flag bit: the ndarray payload is 2-D (disambiguates ``cols == 0``).
FLAG_2D = 2

#: Unsigned views used to reinterpret any supported dtype as words for
#: the zero-run codec (bit-lossless both ways).
_UNSIGNED_VIEW = {1: np.dtype(np.uint8), 2: np.dtype(np.uint16),
                  4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}


class CodecError(ValueError):
    """A malformed frame or an unsupported payload."""


# ---- varint primitives (unsigned LEB128) --------------------------------


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each ``uint64`` value (1–10)."""
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.ones(values.shape, dtype=np.int64)
    for k in range(1, 10):
        lengths += (values >= np.uint64(1) << np.uint64(7 * k)).astype(
            np.int64
        )
    return lengths


def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode a ``uint64`` array into a contiguous byte string."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    lengths = varint_lengths(values)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    out = np.zeros(int(lengths.sum()), dtype=np.uint8)
    for k in range(int(lengths.max())):
        sel = lengths > k
        byte = ((values[sel] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(
            np.uint8
        )
        cont = (lengths[sel] > k + 1).astype(np.uint8) << 7
        out[starts[sel] + k] = byte | cont
    return out.tobytes()


def decode_varints(
    buf: np.ndarray | bytes, count: int | None = None
) -> tuple[np.ndarray, int]:
    """Decode ``count`` LEB128 varints (all, if ``None``).

    Returns ``(values, consumed_bytes)``.  Bytes past the requested
    count are ignored, which lets a varint region prefix a raw-literal
    region in the same body.
    """
    buf = np.frombuffer(buf, dtype=np.uint8) if isinstance(
        buf, (bytes, bytearray, memoryview)
    ) else np.asarray(buf, dtype=np.uint8)
    if count == 0:
        return np.zeros(0, dtype=np.uint64), 0
    cont = (buf & 0x80) != 0
    ends = np.flatnonzero(~cont)
    if count is None:
        if buf.size and (ends.size == 0 or ends[-1] != buf.size - 1):
            raise CodecError("varint stream ends mid-value")
        count = ends.size
    if count == 0:
        return np.zeros(0, dtype=np.uint64), 0
    if ends.size < count:
        raise CodecError(
            f"varint stream holds {ends.size} value(s), need {count}"
        )
    ends = ends[:count]
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    if lengths.size and lengths.max() > 10:
        raise CodecError("varint longer than 10 bytes")
    values = np.zeros(count, dtype=np.uint64)
    for k in range(int(lengths.max()) if lengths.size else 0):
        sel = lengths > k
        values[sel] |= (buf[starts[sel] + k] & np.uint64(0x7F)).astype(
            np.uint64
        ) << np.uint64(7 * k)
    consumed = int(ends[-1]) + 1 if count else 0
    return values, consumed


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map ``int64`` to ``uint64`` so small magnitudes stay small."""
    v = np.ascontiguousarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    z = np.ascontiguousarray(values, dtype=np.uint64)
    return (
        (z >> np.uint64(1)) ^ (np.uint64(0) - (z & np.uint64(1)))
    ).view(np.int64)


# ---- zero-word run-length primitives ------------------------------------


def _rle_runs(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternating ``(zero_len, literal_len)`` pairs covering ``words``."""
    if words.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    nz = words != 0
    change = np.flatnonzero(nz[1:] != nz[:-1]) + 1
    bounds = np.concatenate(([0], change, [words.size]))
    run_lens = np.diff(bounds)
    if nz[0]:
        zero_lens = np.concatenate(([0], run_lens[1::2]))
        lit_lens = run_lens[0::2]
    else:
        zero_lens = run_lens[0::2]
        lit_lens = run_lens[1::2]
    if zero_lens.size > lit_lens.size:
        lit_lens = np.concatenate((lit_lens, [0]))
    return zero_lens.astype(np.int64), lit_lens.astype(np.int64)


def rle_encode_words(words: np.ndarray) -> bytes:
    """Zero-run encode a flat unsigned word array.

    Body layout: ``varint(n_pairs)``, then ``2·n_pairs`` varint run
    lengths (zero run, literal run, alternating), then the literal
    (nonzero) words raw, in order.
    """
    words = np.ascontiguousarray(words)
    zero_lens, lit_lens = _rle_runs(words)
    tokens = np.empty(1 + 2 * zero_lens.size, dtype=np.uint64)
    tokens[0] = zero_lens.size
    tokens[1::2] = zero_lens
    tokens[2::2] = lit_lens
    return encode_varints(tokens) + words[words != 0].tobytes()


def rle_decode_words(
    body: bytes | np.ndarray, dtype: np.dtype, n_words: int
) -> np.ndarray:
    """Invert :func:`rle_encode_words` into ``n_words`` words."""
    buf = np.frombuffer(body, dtype=np.uint8)
    n_pairs_arr, used = decode_varints(buf, 1)
    n_pairs = int(n_pairs_arr[0])
    tokens, used2 = decode_varints(buf[used:], 2 * n_pairs)
    zero_lens = tokens[0::2].astype(np.int64)
    lit_lens = tokens[1::2].astype(np.int64)
    literals = np.frombuffer(buf[used + used2:].tobytes(), dtype=dtype)
    if literals.size != int(lit_lens.sum()):
        raise CodecError(
            f"rle literal count mismatch: {literals.size} words for "
            f"{int(lit_lens.sum())} literal slots"
        )
    if int(zero_lens.sum() + lit_lens.sum()) != n_words:
        raise CodecError(
            f"rle runs cover {int(zero_lens.sum() + lit_lens.sum())} "
            f"words, frame declares {n_words}"
        )
    out = np.zeros(n_words, dtype=dtype)
    if literals.size:
        pair_starts = np.concatenate(
            ([0], np.cumsum(zero_lens + lit_lens)[:-1])
        )
        lit_starts = pair_starts + zero_lens
        offs = np.concatenate(([0], np.cumsum(lit_lens)[:-1]))
        idx = np.repeat(lit_starts, lit_lens) + (
            np.arange(literals.size) - np.repeat(offs, lit_lens)
        )
        out[idx] = literals
    return out


def rle_token_nbytes(words: np.ndarray) -> int:
    """Exact token-region size of :func:`rle_encode_words` (no encode)."""
    zero_lens, lit_lens = _rle_runs(words)
    tokens = np.empty(1 + 2 * zero_lens.size, dtype=np.uint64)
    tokens[0] = zero_lens.size
    tokens[1::2] = zero_lens
    tokens[2::2] = lit_lens
    return int(varint_lengths(tokens).sum())


# ---- frames --------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """One encoded wire payload: self-describing header + body.

    ``data`` is the exact byte string a real transport would send;
    ``codec`` names the codec that actually ran (under ``adaptive``
    this is the per-payload winner, and a codec that cannot apply to a
    payload — e.g. ``varint`` on floats — falls back to ``raw``);
    ``raw_nbytes`` is what the same payload would have cost unencoded
    (the ledger's raw-side wire counter).
    """

    data: bytes
    codec: str
    raw_nbytes: int

    @property
    def nbytes(self) -> int:
        return len(self.data)


def _pack_frame(
    codec: str, kind: int, dtype_code: int, flags: int,
    rows: int, cols: int, body: bytes, raw_nbytes: int,
) -> Frame:
    header = _HEADER.pack(
        MAGIC, _CODEC_IDS[codec], kind, dtype_code, flags, rows, cols
    )
    return Frame(data=header + body, codec=codec, raw_nbytes=raw_nbytes)


def _is_bitmatrix(obj: Any) -> bool:
    from repro.sparse.bitmatrix import BitMatrix

    return isinstance(obj, BitMatrix)


def _unsigned_flat(arr: np.ndarray) -> np.ndarray:
    """Reinterpret a contiguous array as flat unsigned words."""
    return np.ascontiguousarray(arr).view(
        _UNSIGNED_VIEW[arr.dtype.itemsize]
    ).ravel()


def _ndarray_int64(arr: np.ndarray) -> np.ndarray:
    """Flatten to int64, bit-losslessly (uint64 reinterprets)."""
    flat = np.ascontiguousarray(arr).ravel()
    if flat.dtype == np.uint64:
        return flat.view(np.int64)
    return flat.astype(np.int64)


def _varint_body_ndarray(arr: np.ndarray) -> tuple[bytes, int] | None:
    """Zigzag(+delta) varint body for an integer array, or ``None``.

    Returns ``(body, flags)``; picks delta iff it encodes smaller.
    """
    if arr.dtype not in _INT_DTYPES:
        return None
    v = _ndarray_int64(arr)
    plain = zigzag_encode(v)
    delta = zigzag_encode(np.diff(v, prepend=np.int64(0)))
    if int(varint_lengths(delta).sum()) < int(varint_lengths(plain).sum()):
        return encode_varints(delta), FLAG_DELTA
    return encode_varints(plain), 0


def _varint_nbytes_ndarray(arr: np.ndarray) -> int | None:
    """Exact varint body size without materializing the encoding."""
    if arr.dtype not in _INT_DTYPES:
        return None
    v = _ndarray_int64(arr)
    plain = int(varint_lengths(zigzag_encode(v)).sum())
    delta = int(
        varint_lengths(zigzag_encode(np.diff(v, prepend=np.int64(0)))).sum()
    )
    return min(plain, delta)


def _bitmatrix_gaps(mat) -> np.ndarray:
    """Sorted linear set-bit indices of a tile, as first-absolute gaps."""
    rows, cols = mat.nonzero_bits()
    if rows.size == 0:
        return np.zeros(0, dtype=np.uint64)
    linear = (rows * mat.n_cols + cols).astype(np.uint64)
    return np.diff(linear, prepend=np.uint64(0))


# ---- per-kind encoders ---------------------------------------------------


def _encode_bitmatrix(mat, codec: str) -> Frame:
    words = np.ascontiguousarray(mat.words)
    raw_nbytes = int(words.nbytes)
    dtype_code = _DTYPE_CODES[words.dtype]
    if codec == "varint":
        gaps = _bitmatrix_gaps(mat)
        body = encode_varints(
            np.concatenate(([np.uint64(gaps.size)], gaps))
        )
        return _pack_frame("varint", KIND_BITMATRIX, dtype_code, 0,
                           mat.n_rows, mat.n_cols, body, raw_nbytes)
    if codec == "rle":
        body = rle_encode_words(words.ravel())
        return _pack_frame("rle", KIND_BITMATRIX, dtype_code, 0,
                           mat.n_rows, mat.n_cols, body, raw_nbytes)
    return _pack_frame("raw", KIND_BITMATRIX, dtype_code, 0,
                       mat.n_rows, mat.n_cols, words.tobytes(), raw_nbytes)


def _decode_bitmatrix(
    codec_id: int, dtype: np.dtype, rows: int, cols: int, body: bytes
):
    from repro.sparse.bitmatrix import BitMatrix
    from repro.util.bits import words_needed

    bit_width = dtype.itemsize * 8
    n_word_rows = words_needed(rows, bit_width)
    if _CODEC_NAMES[codec_id] == "varint":
        buf = np.frombuffer(body, dtype=np.uint8)
        count_arr, used = decode_varints(buf, 1)
        gaps, _ = decode_varints(buf[used:], int(count_arr[0]))
        linear = np.cumsum(gaps.view(np.int64))
        if cols > 0 and linear.size:
            bit_rows, bit_cols = linear // cols, linear % cols
        else:
            bit_rows = np.zeros(0, dtype=np.int64)
            bit_cols = np.zeros(0, dtype=np.int64)
        return BitMatrix.from_coo(bit_rows, bit_cols, rows, cols, bit_width)
    if _CODEC_NAMES[codec_id] == "rle":
        words = rle_decode_words(body, dtype, n_word_rows * cols)
    else:
        words = np.frombuffer(body, dtype=dtype)
        if words.size != n_word_rows * cols:
            raise CodecError(
                f"raw tile body holds {words.size} words, frame declares "
                f"{n_word_rows}x{cols}"
            )
    return BitMatrix(
        words.reshape(n_word_rows, cols).copy(), rows, bit_width
    )


def _encode_ndarray(arr: np.ndarray, codec: str) -> Frame:
    arr = np.ascontiguousarray(arr)
    raw_nbytes = int(arr.nbytes)
    dtype_code = _DTYPE_CODES[arr.dtype]
    rows = arr.shape[0] if arr.ndim >= 1 else 0
    cols = arr.shape[1] if arr.ndim == 2 else 0
    base_flags = FLAG_2D if arr.ndim == 2 else 0
    if codec == "varint":
        encoded = _varint_body_ndarray(arr)
        if encoded is not None:
            body, flags = encoded
            return _pack_frame("varint", KIND_NDARRAY, dtype_code,
                               base_flags | flags, rows, cols, body,
                               raw_nbytes)
        codec = "raw"
    if codec == "rle":
        body = rle_encode_words(_unsigned_flat(arr))
        return _pack_frame("rle", KIND_NDARRAY, dtype_code, base_flags,
                           rows, cols, body, raw_nbytes)
    return _pack_frame("raw", KIND_NDARRAY, dtype_code, base_flags,
                       rows, cols, arr.tobytes(), raw_nbytes)


def _decode_ndarray(
    codec_id: int, dtype: np.dtype, flags: int, rows: int, cols: int,
    body: bytes,
) -> np.ndarray:
    shape = (rows, cols) if flags & FLAG_2D else (rows,)
    count = rows * cols if flags & FLAG_2D else rows
    name = _CODEC_NAMES[codec_id]
    if name == "varint":
        values, _ = decode_varints(np.frombuffer(body, dtype=np.uint8),
                                   count)
        v = zigzag_decode(values)
        if flags & FLAG_DELTA:
            v = np.cumsum(v)
        if dtype == np.uint64:
            return v.view(np.uint64).reshape(shape).copy()
        return v.astype(dtype).reshape(shape)
    if name == "rle":
        words = rle_decode_words(body, _UNSIGNED_VIEW[dtype.itemsize],
                                 count)
        return words.view(dtype).reshape(shape).copy()
    arr = np.frombuffer(body, dtype=dtype)
    if arr.size != count:
        raise CodecError(
            f"raw array body holds {arr.size} elements, frame declares "
            f"{shape}"
        )
    return arr.reshape(shape).copy()


# ---- adaptive policy -----------------------------------------------------


def _choose_bitmatrix(mat) -> str:
    """The adaptive decision rule for a word tile (documented in
    ``docs/wire_format.md``): exact raw and rle sizes from run
    statistics, a set-bit-count lower bound to skip the varint gap
    extraction on dense tiles, ties toward raw."""
    words = np.ascontiguousarray(mat.words).ravel()
    raw = int(words.nbytes)
    rle = rle_token_nbytes(words) + int(
        np.count_nonzero(words)
    ) * words.dtype.itemsize
    best, best_size = "raw", raw
    nnz = mat.nnz  # >= 1 byte per gap: the varint lower bound
    if nnz < min(raw, rle):
        gaps = _bitmatrix_gaps(mat)
        varint = int(
            varint_lengths(
                np.concatenate(([np.uint64(gaps.size)], gaps))
            ).sum()
        )
        if varint < best_size:
            best, best_size = "varint", varint
    if rle < best_size:
        best, best_size = "rle", rle
    return best


def _choose_ndarray(arr: np.ndarray) -> str:
    flat = _unsigned_flat(arr)
    raw = int(arr.nbytes)
    rle = rle_token_nbytes(flat) + int(
        np.count_nonzero(flat)
    ) * arr.dtype.itemsize
    best, best_size = "raw", raw
    varint = _varint_nbytes_ndarray(arr)
    if varint is not None and varint < best_size:
        best, best_size = "varint", varint
    if rle < best_size:
        best, best_size = "rle", rle
    return best


# ---- public API ----------------------------------------------------------


def encode_frame(obj: Any, policy: str) -> Frame:
    """Encode one payload under the given policy (bit-exact round trip)."""
    if policy not in WIRE_CODECS:
        raise CodecError(f"unknown wire codec policy {policy!r}")
    if _is_bitmatrix(obj):
        codec = _choose_bitmatrix(obj) if policy == "adaptive" else policy
        return _encode_bitmatrix(obj, codec)
    if isinstance(obj, np.ndarray):
        if not 1 <= obj.ndim <= 2 or obj.dtype not in _DTYPE_CODES:
            raise CodecError(
                f"unsupported ndarray payload: ndim={obj.ndim}, "
                f"dtype={obj.dtype}"
            )
        codec = _choose_ndarray(obj) if policy == "adaptive" else policy
        return _encode_ndarray(obj, codec)
    raise CodecError(f"unsupported wire payload type {type(obj).__name__}")


def decode_frame(frame: Frame | bytes | bytearray | memoryview) -> Any:
    """Reconstruct the payload from a frame (or its raw byte string)."""
    data = frame.data if isinstance(frame, Frame) else bytes(frame)
    if len(data) < HEADER_NBYTES:
        raise CodecError(f"frame shorter than its header ({len(data)} B)")
    magic, codec_id, kind, dtype_code, flags, rows, cols = _HEADER.unpack(
        data[:HEADER_NBYTES]
    )
    if magic != MAGIC:
        raise CodecError(f"bad frame magic {magic!r}")
    if codec_id not in _CODEC_NAMES:
        raise CodecError(f"unknown codec id {codec_id}")
    if dtype_code >= len(_DTYPES):
        raise CodecError(f"unknown dtype code {dtype_code}")
    dtype = _DTYPES[dtype_code]
    body = data[HEADER_NBYTES:]
    if kind == KIND_BITMATRIX:
        return _decode_bitmatrix(codec_id, dtype, rows, cols, body)
    if kind == KIND_NDARRAY:
        return _decode_ndarray(codec_id, dtype, flags, rows, cols, body)
    raise CodecError(f"unknown payload kind {kind}")


@dataclass(frozen=True)
class WireCodec:
    """One wire-codec policy, as threaded through the communicator.

    ``policy`` is one of :data:`WIRE_CODECS` except ``"raw"`` (a raw
    policy is represented as *no* codec — :func:`resolve_wire_codec`
    returns ``None`` for it, keeping the legacy wire path untouched).
    The codec flop model charges each endpoint once:
    ``(raw + encoded) / 8`` word operations to encode at the sender and
    the same to decode at a receiver; multi-round collectives are
    assumed to forward the encoded representation between hops.
    """

    policy: str

    def supports(self, obj: Any) -> bool:
        """Whether this payload should travel as a frame.

        Empty payloads are excluded: a zero-byte message has nothing to
        compress, and framing it would put a header on a wire the raw
        path crosses for free.
        """
        if obj is None:
            return False
        if _is_bitmatrix(obj):
            return obj.words.size > 0
        if isinstance(obj, np.ndarray):
            # 0-d arrays are excluded too: the frame header cannot
            # represent a () shape, and the pipeline never sends one.
            return (
                1 <= obj.ndim <= 2 and obj.dtype in _DTYPE_CODES
                and obj.nbytes > 0
            )
        return False

    def encode(self, obj: Any) -> Frame:
        return encode_frame(obj, self.policy)

    def decode(self, frame: Frame | bytes) -> Any:
        return decode_frame(frame)

    def encode_flops(self, frame: Frame) -> float:
        return (frame.raw_nbytes + frame.nbytes) / 8.0

    def decode_flops(self, frame: Frame) -> float:
        return (frame.raw_nbytes + frame.nbytes) / 8.0


def resolve_wire_codec(
    policy: str | WireCodec | None,
) -> WireCodec | None:
    """Map a config policy name to a :class:`WireCodec` (``raw`` → ``None``)."""
    if policy is None or isinstance(policy, WireCodec):
        return policy
    if policy not in WIRE_CODECS:
        raise ValueError(
            f"wire_codec must be one of {WIRE_CODECS}, got {policy!r}"
        )
    if policy == "raw":
        return None
    return WireCodec(policy)
