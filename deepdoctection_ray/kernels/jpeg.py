"""Pure-Python/numpy JPEG codec (ITU-T T.81 / JFIF): baseline SOF0 and
progressive SOF2.

The image-codec gap of the decode stage (the reference decodes via cv2,
``mapper/misc.py:41-107``): sequential and progressive DCT with Huffman
entropy coding, 8-bit precision, greyscale or YCbCr with 4:4:4 / 4:2:2 /
4:2:0 sampling, restart markers, spectral selection + successive
approximation with EOB runs. Arithmetic coding, lossless and 12-bit
precision raise :class:`ImageCodecError` honestly.

Independence of the tests from mirrored bugs (the LZW lesson): the IDCT is
pinned against the direct T.81 double-sum formula, canonical Huffman code
assignment against hand-computed codes, and the bit reader against
hand-stuffed byte sequences — only then do lossy encoder↔decoder round
trips run (the encoder uses the spec's own Annex-K tables).
"""

from __future__ import annotations

import struct

import numpy as np


class ImageCodecError(ValueError):
    pass


# --------------------------------------------------------------- constants

ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.int64,
)

# Annex K.1 quantization tables (luminance / chrominance)
STD_LUMA_QUANT = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int64,
).reshape(8, 8)
STD_CHROMA_QUANT = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int64,
).reshape(8, 8)

# Annex K.3 typical Huffman tables: (bits[1..16], huffval)
STD_DC_LUMA = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
STD_DC_CHROMA = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
STD_AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
        0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
        0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
        0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
        0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
        0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
        0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
        0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)
STD_AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
        0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
        0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
        0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
        0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
        0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
        0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
        0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)


def _dct_basis() -> np.ndarray:
    """Orthonormal 8×8 DCT-II matrix C: spatial→frequency is C @ b @ C.T."""
    x = np.arange(8)
    u = x[:, None]
    c = np.cos((2 * x[None, :] + 1) * u * np.pi / 16.0) * np.sqrt(2.0 / 8.0)
    c[0] /= np.sqrt(2.0)
    return c


_C = _dct_basis()


def idct2(coef: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of one 8×8 coefficient block (float)."""
    return _C.T @ coef @ _C


def dct2(block: np.ndarray) -> np.ndarray:
    return _C @ block @ _C.T


def build_huffman_codes(bits: list[int], vals: list[int]) -> dict[int, tuple[int, int]]:
    """Canonical JPEG code assignment: value → (code, length)."""
    out: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


def _build_decode_table(bits: list[int], vals: list[int]) -> dict[tuple[int, int], int]:
    """(length, code) → value, for bit-serial decoding."""
    return {
        (length, code): v for v, (code, length) in build_huffman_codes(bits, vals).items()
    }


class _BitReader:
    """MSB-first entropy-segment reader with 0xFF00 unstuffing; stops at any
    real marker and reports restart markers to the caller."""

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos
        self.buf = 0
        self.nbits = 0
        self.marker: int | None = None

    def _fill(self) -> bool:
        if self.marker is not None:
            return False
        if self.pos >= len(self.data):
            return False
        byte = self.data[self.pos]
        if byte == 0xFF:
            nxt = self.data[self.pos + 1] if self.pos + 1 < len(self.data) else 0xD9
            if nxt == 0x00:
                self.pos += 2
            else:
                self.marker = nxt
                return False
        else:
            self.pos += 1
        self.buf = (self.buf << 8) | byte
        self.nbits += 8
        return True

    def read_bit(self) -> int:
        if self.nbits == 0 and not self._fill():
            raise ImageCodecError("JPEG entropy data truncated")
        self.nbits -= 1
        return (self.buf >> self.nbits) & 1

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def align_and_consume_restart(self) -> None:
        """Drop partial bits, consume an RSTn marker at the boundary — both
        when `_fill` already latched it and when it is still ahead (the
        previous MCU ended exactly on a byte boundary)."""
        self.nbits = 0
        self.buf = 0
        if self.marker is not None and not (0xD0 <= self.marker <= 0xD7):
            return  # a real marker (EOI etc.): leave it for the caller
        self.marker = None
        if (
            self.pos + 1 < len(self.data)
            and self.data[self.pos] == 0xFF
            and 0xD0 <= self.data[self.pos + 1] <= 0xD7
        ):
            self.pos += 2  # past FF Dn

    def decode_symbol(self, table: dict[tuple[int, int], int]) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | self.read_bit()
            v = table.get((length, code))
            if v is not None:
                return v
        raise ImageCodecError("invalid JPEG Huffman code")


def _extend(v: int, s: int) -> int:
    """T.81 EXTEND: map the s-bit magnitude v to its signed value."""
    if s == 0:
        return 0
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def decode_jpeg(data: bytes) -> np.ndarray:
    """Baseline JPEG → uint8 [H, W] (greyscale) or [H, W, 3] (RGB)."""
    if data[:2] != b"\xff\xd8":
        raise ImageCodecError("not a JPEG (missing SOI)")
    pos = 2
    quant: dict[int, np.ndarray] = {}
    huff_dc: dict[int, dict] = {}
    huff_ac: dict[int, dict] = {}
    frame = None
    restart_interval = 0
    scan = None
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise ImageCodecError("JPEG marker desync")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        (seg_len,) = struct.unpack_from(">H", data, pos)
        body = data[pos + 2 : pos + seg_len]
        pos += seg_len
        if marker == 0xDB:  # DQT
            bpos = 0
            while bpos < len(body):
                pq, tq = body[bpos] >> 4, body[bpos] & 0x0F
                bpos += 1
                if pq == 0:
                    tbl = np.frombuffer(body, np.uint8, 64, bpos).astype(np.int64)
                    bpos += 64
                else:
                    tbl = np.frombuffer(body, ">u2", 64, bpos).astype(np.int64)
                    bpos += 128
                q = np.zeros(64, np.int64)
                q[ZIGZAG] = tbl
                quant[tq] = q.reshape(8, 8)
        elif marker == 0xC4:  # DHT
            bpos = 0
            while bpos < len(body):
                tc, th = body[bpos] >> 4, body[bpos] & 0x0F
                bits = list(body[bpos + 1 : bpos + 17])
                n = sum(bits)
                vals = list(body[bpos + 17 : bpos + 17 + n])
                bpos += 17 + n
                (huff_dc if tc == 0 else huff_ac)[th] = _build_decode_table(bits, vals)
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 (baseline / ext. seq.)
            precision = body[0]
            if precision != 8:
                raise ImageCodecError(f"only 8-bit JPEG supported (got {precision})")
            h, w = struct.unpack_from(">HH", body, 1)
            n_comp = body[5]
            comps = []
            for i in range(n_comp):
                cid = body[6 + 3 * i]
                hv = body[7 + 3 * i]
                comps.append(
                    {"id": cid, "h": hv >> 4, "v": hv & 0x0F, "tq": body[8 + 3 * i]}
                )
            frame = {"w": w, "h": h, "comps": comps}
        elif marker == 0xC2:  # SOF2: progressive DCT — dedicated multi-scan path
            return _decode_progressive(data)
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ImageCodecError(
                f"unsupported JPEG coding process (SOF{marker - 0xC0}); "
                "baseline sequential and progressive are implemented"
            )
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", body, 0)
        elif marker == 0xDA:  # SOS
            ns = body[0]
            sel = {}
            for i in range(ns):
                cid = body[1 + 2 * i]
                tt = body[2 + 2 * i]
                sel[cid] = (tt >> 4, tt & 0x0F)
            scan = (sel, pos)
            break
        # APPn/COM and others: skipped via seg_len
    if frame is None or scan is None:
        raise ImageCodecError("JPEG missing SOF/SOS")
    sel, entropy_pos = scan
    comps = frame["comps"]
    w, h = frame["w"], frame["h"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    planes = {
        c["id"]: np.zeros((mcuy * 8 * c["v"], mcux * 8 * c["h"]), np.float64)
        for c in comps
    }
    reader = _BitReader(data, entropy_pos)
    pred = {c["id"]: 0 for c in comps}
    mcu_count = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count and mcu_count % restart_interval == 0:
                reader.align_and_consume_restart()
                pred = {c["id"]: 0 for c in comps}
            for c in comps:
                td, ta = sel[c["id"]]
                dtab, atab = huff_dc[td], huff_ac[ta]
                q = quant[c["tq"]]
                for by in range(c["v"]):
                    for bx in range(c["h"]):
                        coef = np.zeros(64, np.int64)
                        s = reader.decode_symbol(dtab)
                        diff = _extend(reader.read_bits(s), s)
                        pred[c["id"]] += diff
                        coef[0] = pred[c["id"]]
                        k = 1
                        while k < 64:
                            rs = reader.decode_symbol(atab)
                            r, s = rs >> 4, rs & 0x0F
                            if s == 0:
                                if r == 15:
                                    k += 16
                                    continue
                                break  # EOB
                            k += r
                            if k > 63:
                                raise ImageCodecError("JPEG AC run overflows block")
                            coef[k] = _extend(reader.read_bits(s), s)
                            k += 1
                        block = np.zeros(64, np.float64)
                        block[ZIGZAG] = coef
                        spatial = idct2(block.reshape(8, 8) * q) + 128.0
                        y0 = (my * c["v"] + by) * 8
                        x0 = (mx * c["h"] + bx) * 8
                        planes[c["id"]][y0 : y0 + 8, x0 : x0 + 8] = spatial
            mcu_count += 1
    # upsample each component to full resolution by pixel replication, crop
    full = []
    for c in comps:
        p = planes[c["id"]]
        fy, fx = vmax // c["v"], hmax // c["h"]
        if fy > 1 or fx > 1:
            p = np.repeat(np.repeat(p, fy, axis=0), fx, axis=1)
        full.append(p[:h, :w])
    if len(full) == 1:
        return np.clip(np.round(full[0]), 0, 255).astype(np.uint8)
    if len(full) != 3:
        raise ImageCodecError(f"unsupported JPEG component count {len(full)}")
    y, cb, cr = full
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    return np.clip(np.round(np.stack([r, g, b], axis=2)), 0, 255).astype(np.uint8)


# ------------------------------------------------------------------ encoder


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.buf = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.buf = (self.buf << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            byte = (self.buf >> (self.nbits - 8)) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)  # stuffing
            self.nbits -= 8
        self.buf &= (1 << self.nbits) - 1

    def flush(self) -> None:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # 1-fill per spec


def _scaled_quant(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, quality))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


def _size_cat(v: int) -> int:
    return int(v).bit_length() if v > 0 else int(-v).bit_length()


def _encode_block(
    writer: _BitWriter,
    block: np.ndarray,
    q: np.ndarray,
    pred: int,
    dc_codes: dict,
    ac_codes: dict,
) -> int:
    coef = np.round(dct2(block - 128.0) / q).astype(np.int64)
    zz = coef.reshape(-1)[ZIGZAG]
    zz = np.clip(zz, -1023, 1023)  # baseline magnitude bound
    dc = int(zz[0])
    diff = dc - pred
    s = _size_cat(diff)
    code, length = dc_codes[s]
    writer.write(code, length)
    if s:
        writer.write(diff if diff >= 0 else diff + (1 << s) - 1, s)
    run = 0
    last_nz = int(np.nonzero(zz[1:])[0].max() + 1) if np.any(zz[1:]) else 0
    for k in range(1, last_nz + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, length = ac_codes[0xF0]
            writer.write(code, length)
            run -= 16
        s = _size_cat(v)
        code, length = ac_codes[(run << 4) | s]
        writer.write(code, length)
        writer.write(v if v >= 0 else v + (1 << s) - 1, s)
        run = 0
    if last_nz < 63:
        code, length = ac_codes[0x00]
        writer.write(code, length)
    return dc


def encode_jpeg(img: np.ndarray, quality: int = 90, subsample: bool = False) -> bytes:
    """uint8 [H, W] (greyscale) or [H, W, 3] (RGB) → baseline JFIF bytes.

    ``subsample=True`` writes 4:2:0 chroma (box-averaged); otherwise 4:4:4.
    """
    img = np.ascontiguousarray(img, dtype=np.uint8)
    grey = img.ndim == 2
    if not grey and (img.ndim != 3 or img.shape[2] != 3):
        raise ImageCodecError(f"unsupported array shape {img.shape}")
    h, w = img.shape[:2]
    luma_q = _scaled_quant(STD_LUMA_QUANT, quality)
    chroma_q = _scaled_quant(STD_CHROMA_QUANT, quality)

    if grey:
        planes = [img.astype(np.float64)]
    else:
        rgb = img.astype(np.float64)
        r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
        cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
        planes = [y, cb, cr]

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"

    def dqt(tid: int, tbl: np.ndarray) -> bytes:
        return (
            b"\xff\xdb"
            + struct.pack(">H", 67)
            + bytes([tid])
            + bytes(int(v) for v in tbl.reshape(-1)[ZIGZAG])
        )

    out += dqt(0, luma_q)
    if not grey:
        out += dqt(1, chroma_q)

    sub = 2 if (subsample and not grey) else 1
    n_comp = 1 if grey else 3
    sof = struct.pack(">BHHB", 8, h, w, n_comp)
    sof += bytes([1, (sub << 4) | sub, 0])
    if not grey:
        sof += bytes([2, 0x11, 1, 3, 0x11, 1])
    out += b"\xff\xc0" + struct.pack(">H", 2 + len(sof)) + sof

    def dht(tc: int, th: int, spec: tuple) -> bytes:
        bits, vals = spec
        body = bytes([(tc << 4) | th]) + bytes(bits) + bytes(vals)
        return b"\xff\xc4" + struct.pack(">H", 2 + len(body)) + body

    out += dht(0, 0, STD_DC_LUMA) + dht(1, 0, STD_AC_LUMA)
    if not grey:
        out += dht(0, 1, STD_DC_CHROMA) + dht(1, 1, STD_AC_CHROMA)

    sos = bytes([n_comp, 1, 0x00])
    if not grey:
        sos += bytes([2, 0x11, 3, 0x11])
    sos += bytes([0, 63, 0])
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos

    dc_l = build_huffman_codes(*STD_DC_LUMA)
    ac_l = build_huffman_codes(*STD_AC_LUMA)
    dc_c = build_huffman_codes(*STD_DC_CHROMA)
    ac_c = build_huffman_codes(*STD_AC_CHROMA)

    def pad_to(p: np.ndarray, mh: int, mw: int) -> np.ndarray:
        return np.pad(p, ((0, mh - p.shape[0]), (0, mw - p.shape[1])), mode="edge")

    writer = _BitWriter()
    if grey or sub == 1:
        mh, mw = -(-h // 8) * 8, -(-w // 8) * 8
        padded = [pad_to(p, mh, mw) for p in planes]
        preds = [0] * n_comp
        tables = [(luma_q, dc_l, ac_l)] + [(chroma_q, dc_c, ac_c)] * (n_comp - 1)
        for y0 in range(0, mh, 8):
            for x0 in range(0, mw, 8):
                for ci in range(n_comp):
                    q, dcc, acc = tables[ci]
                    preds[ci] = _encode_block(
                        writer, padded[ci][y0 : y0 + 8, x0 : x0 + 8], q, preds[ci], dcc, acc
                    )
    else:  # 4:2:0
        mh, mw = -(-h // 16) * 16, -(-w // 16) * 16
        yp = pad_to(planes[0], mh, mw)
        subs = []
        for p in planes[1:]:
            p = pad_to(p, mh, mw)
            subs.append((p[0::2, 0::2] + p[0::2, 1::2] + p[1::2, 0::2] + p[1::2, 1::2]) / 4.0)
        preds = [0, 0, 0]
        for y0 in range(0, mh, 16):
            for x0 in range(0, mw, 16):
                for by in range(2):
                    for bx in range(2):
                        preds[0] = _encode_block(
                            writer,
                            yp[y0 + 8 * by : y0 + 8 * by + 8, x0 + 8 * bx : x0 + 8 * bx + 8],
                            luma_q, preds[0], dc_l, ac_l,
                        )
                for ci, p in enumerate(subs):
                    preds[1 + ci] = _encode_block(
                        writer,
                        p[y0 // 2 : y0 // 2 + 8, x0 // 2 : x0 // 2 + 8],
                        chroma_q, preds[1 + ci], dc_c, ac_c,
                    )
    writer.flush()
    out += writer.out
    out += b"\xff\xd9"
    return bytes(out)


# -------------------------------------------------------- progressive decoder


def _skip_to_marker(data: bytes, pos: int) -> int:
    """Advance past entropy bytes/stuffing/restarts to the next real marker."""
    while pos + 1 < len(data):
        if data[pos] != 0xFF:
            pos += 1
            continue
        nxt = data[pos + 1]
        if nxt == 0x00 or 0xD0 <= nxt <= 0xD7:
            pos += 2
            continue
        if nxt == 0xFF:  # fill byte
            pos += 1
            continue
        return pos
    return len(data)


def _decode_progressive(data: bytes) -> np.ndarray:
    """Progressive JPEG (SOF2, T.81 §G): spectral selection + successive
    approximation, Huffman entropy coding. Scans ACCUMULATE into one
    coefficient array per component (zigzag index order); dequantize + IDCT
    run once at EOI. DC scans may interleave components; AC scans are
    single-component per the spec. EOB runs, point transforms and the
    §G.1.2.3 AC-refinement correction-bit algorithm are all implemented."""
    pos = 2
    quant: dict[int, np.ndarray] = {}
    huff_dc: dict[int, dict] = {}
    huff_ac: dict[int, dict] = {}
    frame = None
    restart_interval = 0
    coefs: dict[int, np.ndarray] = {}
    geom: dict[int, dict] = {}
    while pos + 2 <= len(data):
        if data[pos] != 0xFF:
            raise ImageCodecError("JPEG marker desync")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:
            break
        (seg_len,) = struct.unpack_from(">H", data, pos)
        body = data[pos + 2 : pos + seg_len]
        pos += seg_len
        if marker == 0xDB:
            bpos = 0
            while bpos < len(body):
                pq, tq = body[bpos] >> 4, body[bpos] & 0x0F
                bpos += 1
                if pq == 0:
                    tbl = np.frombuffer(body, np.uint8, 64, bpos).astype(np.int64)
                    bpos += 64
                else:
                    tbl = np.frombuffer(body, ">u2", 64, bpos).astype(np.int64)
                    bpos += 128
                q = np.zeros(64, np.int64)
                q[ZIGZAG] = tbl
                quant[tq] = q.reshape(8, 8)
        elif marker == 0xC4:
            bpos = 0
            while bpos < len(body):
                tc, th = body[bpos] >> 4, body[bpos] & 0x0F
                bits = list(body[bpos + 1 : bpos + 17])
                n = sum(bits)
                vals = list(body[bpos + 17 : bpos + 17 + n])
                bpos += 17 + n
                (huff_dc if tc == 0 else huff_ac)[th] = _build_decode_table(bits, vals)
        elif marker == 0xC2:
            if body[0] != 8:
                raise ImageCodecError(f"only 8-bit JPEG supported (got {body[0]})")
            h, w = struct.unpack_from(">HH", body, 1)
            comps = []
            for i in range(body[5]):
                cid = body[6 + 3 * i]
                hv = body[7 + 3 * i]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0x0F, "tq": body[8 + 3 * i]})
            hmax = max(c["h"] for c in comps)
            vmax = max(c["v"] for c in comps)
            mcux = -(-w // (8 * hmax))
            mcuy = -(-h // (8 * vmax))
            frame = {"w": w, "h": h, "comps": comps, "hmax": hmax, "vmax": vmax,
                     "mcux": mcux, "mcuy": mcuy}
            for c in comps:
                # full padded MCU grid; non-interleaved scans touch the
                # unpadded prefix (ceil(comp_size/8)) only
                gw, gh = mcux * c["h"], mcuy * c["v"]
                nw = -(-(-(-w * c["h"] // hmax)) // 8)
                nh = -(-(-(-h * c["v"] // vmax)) // 8)
                coefs[c["id"]] = np.zeros((gh, gw, 64), np.int32)
                geom[c["id"]] = {"c": c, "nw": nw, "nh": nh}
        elif marker == 0xDD:
            (restart_interval,) = struct.unpack_from(">H", body, 0)
        elif marker == 0xDA:
            if frame is None:
                raise ImageCodecError("JPEG SOS before SOF")
            ns = body[0]
            scan_comps = []
            for i in range(ns):
                cid = body[1 + 2 * i]
                tt = body[2 + 2 * i]
                scan_comps.append((cid, tt >> 4, tt & 0x0F))
            ss, se = body[1 + 2 * ns], body[2 + 2 * ns]
            ah, al = body[3 + 2 * ns] >> 4, body[3 + 2 * ns] & 0x0F
            reader = _BitReader(data, pos)
            _prog_scan(reader, frame, scan_comps, ss, se, ah, al, coefs, geom,
                       huff_dc, huff_ac, restart_interval)
            pos = _skip_to_marker(data, reader.pos)
        # APPn/COM skipped via seg_len
    if frame is None:
        raise ImageCodecError("JPEG missing SOF")
    # dequantize + IDCT every block, then upsample/crop/convert as baseline
    comps = frame["comps"]
    w, h, hmax, vmax = frame["w"], frame["h"], frame["hmax"], frame["vmax"]
    full = []
    for c in comps:
        arr = coefs[c["id"]]
        gh, gw = arr.shape[:2]
        q = quant[c["tq"]]
        plane = np.empty((gh * 8, gw * 8), np.float64)
        dq = np.zeros(64, np.float64)
        for by in range(gh):
            for bx in range(gw):
                dq[ZIGZAG] = arr[by, bx]
                plane[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = (
                    idct2(dq.reshape(8, 8) * q) + 128.0
                )
        fy, fx = vmax // c["v"], hmax // c["h"]
        if fy > 1 or fx > 1:
            plane = np.repeat(np.repeat(plane, fy, axis=0), fx, axis=1)
        full.append(plane[:h, :w])
    if len(full) == 1:
        return np.clip(np.round(full[0]), 0, 255).astype(np.uint8)
    if len(full) != 3:
        raise ImageCodecError(f"unsupported JPEG component count {len(full)}")
    y, cb, cr = full
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    return np.clip(np.round(np.stack([r, g, b], axis=2)), 0, 255).astype(np.uint8)


def _prog_scan(reader, frame, scan_comps, ss, se, ah, al, coefs, geom,
               huff_dc, huff_ac, restart_interval) -> None:
    """Decode one progressive scan into the coefficient accumulators."""
    state = {"eobrun": 0}
    pred = {cid: 0 for cid, _, _ in scan_comps}

    if ss == 0:
        if se != 0:
            raise ImageCodecError("progressive DC scan with Se != 0")

        def dc_block(cid, td, block):
            if ah == 0:
                s = reader.decode_symbol(huff_dc[td])
                pred[cid] += _extend(reader.read_bits(s), s)
                block[0] = pred[cid] << al
            else:
                if reader.read_bit():
                    block[0] |= 1 << al

        if len(scan_comps) > 1:  # interleaved DC over MCUs
            mcux, mcuy = frame["mcux"], frame["mcuy"]
            by_id = {c["id"]: c for c in frame["comps"]}
            mcu = 0
            for my in range(mcuy):
                for mx in range(mcux):
                    if restart_interval and mcu and mcu % restart_interval == 0:
                        reader.align_and_consume_restart()
                        for k in pred:
                            pred[k] = 0
                    for cid, td, _ta in scan_comps:
                        c = by_id[cid]
                        for by in range(c["v"]):
                            for bx in range(c["h"]):
                                dc_block(cid, td, coefs[cid][my * c["v"] + by, mx * c["h"] + bx])
                    mcu += 1
            return
        cid, td, _ta = scan_comps[0]
        g = geom[cid]
        mcu = 0
        for by in range(g["nh"]):
            for bx in range(g["nw"]):
                if restart_interval and mcu and mcu % restart_interval == 0:
                    reader.align_and_consume_restart()
                    pred[cid] = 0
                dc_block(cid, td, coefs[cid][by, bx])
                mcu += 1
        return

    if len(scan_comps) != 1:
        raise ImageCodecError("progressive AC scan must be single-component")
    cid, _td, ta = scan_comps[0]
    atab = huff_ac[ta]
    g = geom[cid]
    p1, m1 = 1 << al, -(1 << al)

    def ac_first(block) -> None:
        if state["eobrun"] > 0:
            state["eobrun"] -= 1
            return
        k = ss
        while k <= se:
            rs = reader.decode_symbol(atab)
            r, s = rs >> 4, rs & 0x0F
            if s == 0:
                if r == 15:
                    k += 16
                    continue
                state["eobrun"] = (1 << r) - 1 + (reader.read_bits(r) if r else 0)
                return
            k += r
            if k > se:
                raise ImageCodecError("JPEG AC run overflows the spectral band")
            block[k] = _extend(reader.read_bits(s), s) << al
            k += 1

    def ac_refine(block) -> None:
        # T.81 §G.1.2.3 (the libjpeg correction-bit walk): advance over r
        # zero-HISTORY positions, emitting one correction bit per nonzero
        # history coefficient passed; EOB runs correct the rest of the band
        k = ss
        if state["eobrun"] == 0:
            while k <= se:
                rs = reader.decode_symbol(atab)
                r, s = rs >> 4, rs & 0x0F
                newval = 0
                if s == 0:
                    if r != 15:
                        state["eobrun"] = (1 << r) - 1 + (reader.read_bits(r) if r else 0)
                        break
                else:
                    if s != 1:
                        raise ImageCodecError("invalid AC refinement magnitude")
                    newval = p1 if reader.read_bit() else m1
                while k <= se:
                    if block[k] != 0:
                        if reader.read_bit() and (block[k] & p1) == 0:
                            block[k] += p1 if block[k] >= 0 else m1
                    else:
                        if r == 0:
                            break
                        r -= 1
                    k += 1
                if newval and k <= se:
                    block[k] = newval
                k += 1
            else:
                return
        if state["eobrun"] > 0 or k <= se:
            while k <= se:
                if block[k] != 0:
                    if reader.read_bit() and (block[k] & p1) == 0:
                        block[k] += p1 if block[k] >= 0 else m1
                k += 1
            state["eobrun"] = max(state["eobrun"] - 1, 0)

    step = ac_first if ah == 0 else ac_refine
    mcu = 0
    for by in range(g["nh"]):
        for bx in range(g["nw"]):
            if restart_interval and mcu and mcu % restart_interval == 0:
                reader.align_and_consume_restart()
                state["eobrun"] = 0
            step(coefs[cid][by, bx])
            mcu += 1


# -------------------------------------------------------- progressive encoder

# the Annex-K AC tables carry no EOBn (r>0) symbols, so the progressive
# writer uses one flat custom table: every symbol it can emit at 9 bits —
# canonical, decodable by any reader, and it lets fixtures exercise real
# multi-block EOB runs
_PROG_AC_SYMBOLS = sorted(
    {(r << 4) | s for r in range(16) for s in range(1, 11)}
    | {r << 4 for r in range(15)}  # EOB0..EOB14
    | {0xF0}
)
_PROG_AC_SPEC = ([0, 0, 0, 0, 0, 0, 0, 0, len(_PROG_AC_SYMBOLS), 0, 0, 0, 0, 0, 0, 0],
                 list(_PROG_AC_SYMBOLS))


def encode_jpeg_progressive(img: np.ndarray, quality: int = 90) -> bytes:
    """uint8 [H, W] or [H, W, 3] → progressive JFIF (SOF2), 4:4:4.

    Fixture-writer scan script exercising every decoder path: interleaved DC
    first scan with successive approximation (Al=1), DC refinement scan,
    then per-component spectral-selection AC scans over two bands with real
    cross-block EOB runs. AC successive approximation is decoder-side only
    (pinned by a hand-built stream in the tests)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    grey = img.ndim == 2
    if not grey and (img.ndim != 3 or img.shape[2] != 3):
        raise ImageCodecError(f"unsupported array shape {img.shape}")
    h, w = img.shape[:2]
    luma_q = _scaled_quant(STD_LUMA_QUANT, quality)
    chroma_q = _scaled_quant(STD_CHROMA_QUANT, quality)
    if grey:
        planes = [img.astype(np.float64)]
        quants = [luma_q]
    else:
        rgb = img.astype(np.float64)
        r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
        planes = [
            0.299 * r + 0.587 * g + 0.114 * b,
            -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
            0.5 * r - 0.418688 * g - 0.081312 * b + 128.0,
        ]
        quants = [luma_q, chroma_q, chroma_q]
    n_comp = len(planes)
    mh, mw = -(-h // 8) * 8, -(-w // 8) * 8
    nh, nw = mh // 8, mw // 8

    # quantized zigzag coefficient blocks per component
    coefs = []
    for p, q in zip(planes, quants):
        p = np.pad(p, ((0, mh - p.shape[0]), (0, mw - p.shape[1])), mode="edge")
        arr = np.empty((nh, nw, 64), np.int64)
        for by in range(nh):
            for bx in range(nw):
                c = np.round(dct2(p[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] - 128.0) / q)
                arr[by, bx] = c.reshape(-1)[ZIGZAG]
        coefs.append(np.clip(arr, -1023, 1023))

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"

    def dqt(tid: int, tbl: np.ndarray) -> bytes:
        return (b"\xff\xdb" + struct.pack(">H", 67) + bytes([tid])
                + bytes(int(v) for v in tbl.reshape(-1)[ZIGZAG]))

    out += dqt(0, luma_q)
    if not grey:
        out += dqt(1, chroma_q)
    sof = struct.pack(">BHHB", 8, h, w, n_comp)
    for ci in range(n_comp):
        sof += bytes([ci + 1, 0x11, 0 if ci == 0 else 1])
    out += b"\xff\xc2" + struct.pack(">H", 2 + len(sof)) + sof

    def dht(tc: int, th: int, spec: tuple) -> bytes:
        bits, vals = spec
        body = bytes([(tc << 4) | th]) + bytes(bits) + bytes(vals)
        return b"\xff\xc4" + struct.pack(">H", 2 + len(body)) + body

    out += dht(0, 0, STD_DC_LUMA) + dht(1, 0, _PROG_AC_SPEC)
    if not grey:
        out += dht(0, 1, STD_DC_CHROMA)
    dc_codes = [build_huffman_codes(*STD_DC_LUMA)] + [
        build_huffman_codes(*STD_DC_CHROMA)
    ] * (n_comp - 1)
    ac_codes = build_huffman_codes(*_PROG_AC_SPEC)

    def sos(comp_specs: list[tuple[int, int, int]], ss: int, se: int, ah: int, al: int) -> bytes:
        body = bytes([len(comp_specs)])
        for cid, td, ta in comp_specs:
            body += bytes([cid, (td << 4) | ta])
        body += bytes([ss, se, (ah << 4) | al])
        return b"\xff\xda" + struct.pack(">H", 2 + len(body)) + body

    # --- scan 1: interleaved DC first, Al=1 ---------------------------------
    out += sos([(ci + 1, 0 if ci == 0 else 1, 0) for ci in range(n_comp)], 0, 0, 0, 1)
    wtr = _BitWriter()
    preds = [0] * n_comp
    for by in range(nh):
        for bx in range(nw):
            for ci in range(n_comp):
                dc = int(coefs[ci][by, bx, 0]) >> 1  # DC point transform
                diff = dc - preds[ci]
                preds[ci] = dc
                s = _size_cat(diff)
                code, length = dc_codes[ci][s]
                wtr.write(code, length)
                if s:
                    wtr.write(diff if diff >= 0 else diff + (1 << s) - 1, s)
    wtr.flush()
    out += wtr.out

    # --- scan 2: interleaved DC refinement, Ah=1 Al=0 ------------------------
    out += sos([(ci + 1, 0 if ci == 0 else 1, 0) for ci in range(n_comp)], 0, 0, 1, 0)
    wtr = _BitWriter()
    for by in range(nh):
        for bx in range(nw):
            for ci in range(n_comp):
                wtr.write(int(coefs[ci][by, bx, 0]) & 1, 1)
    wtr.flush()
    out += wtr.out

    # --- per component: AC spectral bands with cross-block EOB runs ----------
    for ci in range(n_comp):
        for ss_k, se_k in ((1, 5), (6, 63)):
            out += sos([(ci + 1, 0, 0)], ss_k, se_k, 0, 0)
            wtr = _BitWriter()
            eobrun = 0

            def flush_eob() -> None:
                nonlocal eobrun
                while eobrun > 0:
                    # EOBr codes runs in [2^r, 2^(r+1)); r ≤ 14 caps one
                    # symbol at 32767 blocks, longer runs take several
                    r = min(eobrun.bit_length() - 1, 14)
                    run = min(eobrun, (2 << r) - 1)
                    code, length = ac_codes[r << 4]
                    wtr.write(code, length)
                    if r:
                        wtr.write(run - (1 << r), r)
                    eobrun -= run

            for by in range(nh):
                for bx in range(nw):
                    band = coefs[ci][by, bx, ss_k : se_k + 1]
                    nz = np.nonzero(band)[0]
                    if nz.size == 0:
                        eobrun += 1
                        continue
                    flush_eob()
                    run = 0
                    prev = -1
                    for idx in nz:
                        run = int(idx) - prev - 1
                        prev = int(idx)
                        while run > 15:
                            code, length = ac_codes[0xF0]
                            wtr.write(code, length)
                            run -= 16
                        v = int(band[idx])
                        s = _size_cat(v)
                        code, length = ac_codes[(run << 4) | s]
                        wtr.write(code, length)
                        wtr.write(v if v >= 0 else v + (1 << s) - 1, s)
                    if int(nz[-1]) < se_k - ss_k:
                        eobrun += 1  # trailing zeros: this block ends at EOB
            flush_eob()
            wtr.flush()
            out += wtr.out
    out += b"\xff\xd9"
    return bytes(out)
