"""Pure-numpy image codecs (kernels/imaging.py) + the real decode path of the
multimodal stage."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from deepdoctection_ray.kernels.imaging import (
    ImageCodecError,
    decode_bmp,
    decode_image,
    decode_ppm,
    encode_bmp,
    encode_ppm,
    resize_nearest,
    sniff_mime,
    to_grayscale,
)


def _img(seed=0, h=13, w=17):
    return np.random.RandomState(seed).randint(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_bmp_roundtrip_exact():
    img = _img()
    assert (decode_bmp(encode_bmp(img)) == img).all()


def test_bmp_row_padding_widths():
    for w in (1, 2, 3, 4, 5):  # every padding remainder
        img = _img(w, h=3, w=w)
        assert (decode_bmp(encode_bmp(img)) == img).all()


def test_ppm_and_pgm_roundtrip():
    img = _img(2)
    assert (decode_ppm(encode_ppm(img)) == img).all()
    gray = to_grayscale(img)
    assert (decode_ppm(encode_ppm(gray)) == gray).all()


def test_sniff_and_dispatch():
    img = _img(3)
    assert sniff_mime(encode_bmp(img)) == "image/bmp"
    assert sniff_mime(encode_ppm(img)) == "image/x-portable-pixmap"
    assert sniff_mime(b"\x89PNG...") is None
    assert (decode_image(encode_bmp(img)) == img).all()
    with pytest.raises(ImageCodecError, match="unsupported image container"):
        decode_image(b"\x89PNG\r\n")


def test_resize_nearest_shapes_and_identity():
    img = _img(4, h=8, w=8)
    assert resize_nearest(img, 8, 8).shape == img.shape
    assert (resize_nearest(img, 8, 8) == img).all()
    small = resize_nearest(img, 4, 2)
    assert small.shape == (2, 4, 3)
    assert (small[0, 0] == img[0, 0]).all()


def test_image_decoder_stage_real_bmp(ray_session):
    import ray.data

    from deepdoctection_ray.stages.multimodal import MEDIA_META_TYPE, ImageDecoder

    imgs = [_img(i, h=10 + i, w=12) for i in range(5)]
    table = pa.table(
        {
            "media_id": pa.array(range(5), pa.int64()),
            "payload": pa.array([encode_bmp(im) for im in imgs], pa.binary()),
            "media_meta": pa.array(
                [
                    {"mime": "image/bmp", "width": 12, "height": 10 + i, "duration_ms": 0}
                    for i in range(5)
                ],
                MEDIA_META_TYPE,
            ),
        }
    )
    out = (
        ray.data.from_arrow(table)
        .map_batches(ImageDecoder, batch_format="pyarrow", concurrency=(1, 2), batch_size=2)
        .to_pandas()
    )
    assert "payload" not in out.columns  # binary dropped at the stage exit
    for i, feat in enumerate(out.sort_values("media_id")["features"]):
        expect = to_grayscale(imgs[i])
        assert feat["n_pixels"] == expect.size
        assert feat["mean"] == pytest.approx(float(expect.mean()), abs=1e-6)


def test_image_decoder_unsupported_format_raises(ray_session):
    import ray.data

    from deepdoctection_ray.stages.multimodal import MEDIA_META_TYPE, ImageDecoder

    table = pa.table(
        {
            "media_id": pa.array([0], pa.int64()),
            "payload": pa.array([b"\x89PNG\r\n\x1a\n...."], pa.binary()),
            "media_meta": pa.array(
                [{"mime": "image/png", "width": 1, "height": 1, "duration_ms": 0}],
                MEDIA_META_TYPE,
            ),
        }
    )
    ds = ray.data.from_arrow(table).map_batches(
        ImageDecoder, batch_format="pyarrow", concurrency=(1, 2)
    )
    with pytest.raises(Exception, match="image/png"):
        ds.to_pandas()


def test_resize_bilinear_identity_and_dtype():
    import numpy as np
    from deepdoctection_ray.kernels.imaging import resize_bilinear, resize_image

    img = (np.arange(6 * 8 * 3) % 251).reshape(6, 8, 3).astype(np.uint8)
    same = resize_bilinear(img, 8, 6)
    assert same.dtype == np.uint8 and np.array_equal(same, img)  # identity at same size
    up = resize_image(img, 16, 12, interp="INTER_LINEAR")
    assert up.shape == (12, 16, 3)
    gray = resize_image(img[:, :, 0], 4, 3, interp="NEAREST")
    assert gray.shape == (3, 4)


def test_inference_resize_dims_reference_math():
    from deepdoctection_ray.kernels.imaging import inference_resize_dims

    # short edge → 480, long edge scales proportionally
    assert inference_resize_dims(600, 800, 480, 1333) == (480, 640)
    # long-edge cap kicks in and rescales both
    h, w = inference_resize_dims(600, 4000, 480, 1333)
    assert w == 1333 and h == 200


def test_pad_normalize_rotate_image():
    import numpy as np
    from deepdoctection_ray.kernels.imaging import normalize_image, pad_image, rotate_image
    from deepdoctection_ray.kernels.transforms import rotate_boxes

    img = np.zeros((4, 5, 3), np.uint8)
    padded = pad_image(img, 1, 2, 3, 4)
    assert padded.shape == (8, 11, 3)
    assert padded[0, 0, 0] == 255 and padded[1, 4, 0] == 0  # white border, content kept

    norm = normalize_image(
        np.full((2, 2, 3), 100.0), np.array([50.0, 50.0, 50.0]), np.array([25.0, 25.0, 25.0])
    )
    assert (norm == 2.0).all()

    # image rotation stays aligned with the box kernel's convention
    marked = np.zeros((6, 8), np.uint8)
    marked[2, 5] = 255
    rot = rotate_image(marked, 90)
    box = rotate_boxes(np.array([[5.0, 2.0, 6.0, 3.0]]), 90, 8, 6)[0]
    ys, xs = np.nonzero(rot)
    assert rot.shape == (8, 6)
    assert box[0] <= xs[0] < box[2] and box[1] <= ys[0] < box[3]


def test_box_point4_roundtrip():
    import numpy as np
    from deepdoctection_ray.kernels.boxes import box_to_point4, point4_to_box

    boxes = np.array([[1.0, 2.0, 5.0, 7.0], [0.0, 0.0, 3.0, 3.0]])
    pts = box_to_point4(boxes)
    assert pts.shape == (8, 2)
    assert np.array_equal(point4_to_box(pts), boxes)


# ------------------------------------------------------------------- PNG


def test_png_roundtrip_all_filters_and_types():
    """encode(filter f) → decode must be identity for every scanline filter
    (None/Sub/Up/Average/Paeth) and color type (grey, grey+alpha, RGB, RGBA)."""
    import numpy as np

    from deepdoctection_ray.kernels.png import decode_png, encode_png

    rng = np.random.RandomState(11)
    for shape in [(1, 1), (7, 5), (20, 33)]:
        for ch in (None, 2, 3, 4):
            img = rng.randint(0, 256, shape + ((ch,) if ch else ()), dtype=np.uint8)
            for ft in range(5):
                rt = decode_png(encode_png(img, filter_type=ft))
                assert rt.shape == img.shape and (rt == img).all(), (shape, ch, ft)


def test_png_palette_and_errors():
    import struct
    import zlib

    import numpy as np
    import pytest

    from deepdoctection_ray.kernels.png import (
        ImageCodecError, _SIG, _chunk, decode_png,
    )

    pal = bytes(range(12))
    idx = np.array([[0, 1], [2, 3]], np.uint8)
    raw = b"".join(b"\x00" + idx[y].tobytes() for y in range(2))
    png = (
        _SIG
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0))
        + _chunk(b"PLTE", pal)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )
    out = decode_png(png)
    assert out.shape == (2, 2, 3) and (out[1, 1] == [9, 10, 11]).all()
    with pytest.raises(ImageCodecError, match="signature"):
        decode_png(b"nope")
    png16 = _SIG + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 16, 0, 0, 0, 0))
    with pytest.raises(ImageCodecError, match="8-bit"):
        decode_png(png16)


def test_decode_image_dispatches_png():
    import numpy as np

    from deepdoctection_ray.kernels.imaging import decode_image, sniff_mime
    from deepdoctection_ray.kernels.png import encode_png

    img = np.arange(60, dtype=np.uint8).reshape(4, 5, 3)
    data = encode_png(img, filter_type=4)
    assert sniff_mime(data) == "image/png"
    assert (decode_image(data) == img).all()


# ------------------------------------------------------------------ TIFF


def test_tiff_roundtrip_both_endians():
    import numpy as np

    from deepdoctection_ray.kernels.tiff import decode_tiff, encode_tiff

    rng = np.random.RandomState(7)
    for shape in [(1, 1), (6, 9), (20, 13)]:
        for ch in (None, 3):
            img = rng.randint(0, 256, shape + ((ch,) if ch else ()), dtype=np.uint8)
            for be in (False, True):
                rt = decode_tiff(encode_tiff(img, big_endian=be))
                assert rt.shape == img.shape and (rt == img).all(), (shape, ch, be)


def test_tiff_errors_and_dispatch():
    import numpy as np
    import pytest

    from deepdoctection_ray.kernels.imaging import decode_image, sniff_mime
    from deepdoctection_ray.kernels.tiff import (
        ImageCodecError, decode_tiff, encode_tiff,
    )

    img = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    data = encode_tiff(img)
    assert sniff_mime(data) == "image/tiff"
    assert (decode_image(data) == img).all()
    with pytest.raises(ImageCodecError, match="byte-order"):
        decode_tiff(b"nope")
    # flip the Compression tag value to 7 (JPEG-in-TIFF) -> honest rejection
    bad = bytearray(data)
    import struct

    ifd_off = struct.unpack_from("<I", bad, 4)[0]
    n = struct.unpack_from("<H", bad, ifd_off)[0]
    for i in range(n):
        pos = ifd_off + 2 + 12 * i
        if struct.unpack_from("<H", bad, pos)[0] == 259:
            struct.pack_into("<H", bad, pos + 8, 4)  # CCITT T.6: unsupported
    with pytest.raises(ImageCodecError, match="unsupported TIFF Compression"):
        decode_tiff(bytes(bad))


# ------------------------------------------------------------------- GIF


def test_gif_roundtrip_and_width_growth():
    import numpy as np

    from deepdoctection_ray.kernels.gif import decode_gif, encode_gif

    rng = np.random.RandomState(5)
    for shape, ncol in [((1, 1), 2), ((8, 11), 16), ((64, 80), 200), ((120, 150), 256)]:
        pal = rng.randint(0, 256, (ncol, 3), dtype=np.uint8)
        img = pal[rng.randint(0, ncol, shape)]
        rt = decode_gif(encode_gif(img))
        assert rt.shape == img.shape and (rt == img).all(), (shape, ncol)
    g = rng.randint(0, 200, (10, 10), dtype=np.uint8)
    assert (decode_gif(encode_gif(g)) == np.stack([g] * 3, axis=2)).all()


def test_gif_spec_bytes_and_width_schedule():
    """Hand-built GIF independent of the encoder: min_code=2, the 3→4-bit
    switch happens once the decoder's table reaches 8 slots (after the third
    data code) — the giflib/spec convention."""
    import struct

    import numpy as np

    from deepdoctection_ray.kernels.gif import decode_gif

    codes = [(4, 3), (0, 3), (1, 3), (1, 3), (0, 4), (5, 4)]  # clear 0 1 1 0 eoi
    bitbuf = bits = 0
    data = bytearray()
    for c, w in codes:
        bitbuf |= c << bits
        bits += w
        while bits >= 8:
            data.append(bitbuf & 0xFF)
            bitbuf >>= 8
            bits -= 8
    if bits:
        data.append(bitbuf & 0xFF)
    gif = b"GIF89a" + struct.pack("<HHBBB", 2, 2, 0x81, 0, 0)
    gif += bytes([0, 0, 0, 255, 255, 255, 0, 0, 0, 0, 0, 0])
    gif += b"\x2c" + struct.pack("<HHHHB", 0, 0, 2, 2, 0) + bytes([2])
    gif += bytes([len(data)]) + bytes(data) + b"\x00\x3b"
    out = decode_gif(gif)
    want = np.array([[[0, 0, 0], [255, 255, 255]], [[255, 255, 255], [0, 0, 0]]])
    assert (out == want).all()


def test_gif_interlace_and_extensions():
    """Interlaced storage order de-interlaces, and extension blocks (e.g. a
    graphic-control extension) are skipped."""
    import struct

    import numpy as np

    from deepdoctection_ray.kernels.gif import decode_gif, encode_gif

    pal = np.array([[0, 0, 0], [255, 0, 0], [0, 255, 0], [0, 0, 255]], np.uint8)
    rng = np.random.RandomState(2)
    img = pal[rng.randint(0, 4, (8, 5))]
    # encode the ROW-PERMUTED image, then flip the interlace flag: the decoder
    # must undo the permutation (h=8 passes: 0, 4, 2,6, 1,3,5,7)
    storage_order = [0, 4, 2, 6, 1, 3, 5, 7]
    enc = bytearray(encode_gif(img[storage_order]))
    n_pal = (len(enc) - enc[::-1].index(0x3B)) and (2 << (enc[10] & 0x07))
    desc_off = 13 + 3 * n_pal
    assert enc[desc_off] == 0x2C
    enc[desc_off + 9] |= 0x40  # set interlace flag
    # splice a graphic-control extension ahead of the descriptor
    gce = b"\x21\xf9\x04\x00\x00\x00\x00\x00"
    enc = bytes(enc[:desc_off]) + gce + bytes(enc[desc_off:])
    assert (decode_gif(enc) == img).all()


def test_decode_image_dispatches_gif():
    import numpy as np

    from deepdoctection_ray.kernels.gif import encode_gif
    from deepdoctection_ray.kernels.imaging import decode_image, sniff_mime

    img = np.zeros((3, 3, 3), np.uint8)
    img[1, 1] = [200, 100, 50]
    data = encode_gif(img)
    assert sniff_mime(data) == "image/gif"
    assert (decode_image(data) == img).all()


# ------------------------------------------------------------------- JPEG


def test_jpeg_idct_matches_direct_formula():
    """IDCT kernel vs the direct T.81 double-sum (independent of the DCT
    implementation) + DCT/IDCT inversion."""
    import numpy as np

    from deepdoctection_ray.kernels.jpeg import dct2, idct2

    rng = np.random.RandomState(1)
    coef = rng.randint(-300, 300, (8, 8)).astype(float)
    direct = np.zeros((8, 8))
    for x in range(8):
        for y in range(8):
            s = 0.0
            for u in range(8):
                for v in range(8):
                    cu = 1 / np.sqrt(2) if u == 0 else 1.0
                    cv = 1 / np.sqrt(2) if v == 0 else 1.0
                    s += (
                        cu * cv * coef[u, v]
                        * np.cos((2 * x + 1) * u * np.pi / 16)
                        * np.cos((2 * y + 1) * v * np.pi / 16)
                    )
            direct[x, y] = s / 4
    assert np.abs(idct2(coef) - direct).max() < 1e-9
    blk = rng.randint(0, 256, (8, 8)).astype(float)
    assert np.abs(idct2(dct2(blk)) - blk).max() < 1e-9


def test_jpeg_huffman_and_extend_pinned():
    from deepdoctection_ray.kernels.jpeg import _extend, build_huffman_codes

    codes = build_huffman_codes([0, 1, 2] + [0] * 13, [7, 3, 9])
    assert codes == {7: (0b00, 2), 3: (0b010, 3), 9: (0b011, 3)}
    assert _extend(0b011, 3) == -4 and _extend(0b100, 3) == 4
    assert _extend(0, 1) == -1 and _extend(1, 1) == 1


def _handbuilt_jpeg(width, n_mcus, dri):
    """Minimal spec-bytes stream: identity quant, 1-bit Huffman tables,
    DC-only blocks of coefficient 80 (uniform pixel value 138)."""
    import struct

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([0]) + bytes([1] * 64)
    sof = struct.pack(">BHHB", 8, 8, width, 1) + bytes([1, 0x11, 0])
    out += b"\xff\xc0" + struct.pack(">H", 2 + len(sof)) + sof
    out += b"\xff\xc4" + struct.pack(">H", 20) + bytes([0x00, 1] + [0] * 15 + [7])
    out += b"\xff\xc4" + struct.pack(">H", 20) + bytes([0x10, 1] + [0] * 15 + [0x00])
    if dri:
        out += b"\xff\xdd" + struct.pack(">HH", 4, dri)
    sos = bytes([1, 1, 0x00, 0, 63, 0])
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos

    def mcu_bits():
        return "0" + format(80, "07b") + "0"  # DC code+magnitude, AC EOB

    if dri:
        for i in range(n_mcus):
            bits = mcu_bits()
            bits += "1" * (-len(bits) % 8)
            out += int(bits, 2).to_bytes(len(bits) // 8, "big")
            if i < n_mcus - 1:
                out += bytes([0xFF, 0xD0 + (i % 8)])
    else:
        bits = "".join(mcu_bits() for _ in range(n_mcus))
        bits += "1" * (-len(bits) % 8)
        out += int(bits, 2).to_bytes(len(bits) // 8, "big")
    out += b"\xff\xd9"
    return bytes(out)


def test_jpeg_spec_bytes_decode_and_restart_reset():
    from deepdoctection_ray.kernels.jpeg import decode_jpeg

    img = decode_jpeg(_handbuilt_jpeg(8, 1, 0))
    assert img.shape == (8, 8) and (img == 138).all()
    # without restarts the second DC is a DIFF: 128 + 160/8 = 148
    img = decode_jpeg(_handbuilt_jpeg(16, 2, 0))
    assert (img[:, :8] == 138).all() and (img[:, 8:] == 148).all()
    # DRI=1: the predictor must reset at the RST marker -> both 138
    img = decode_jpeg(_handbuilt_jpeg(16, 2, 1))
    assert (img == 138).all()


def test_jpeg_roundtrips_and_dispatch():
    import numpy as np

    from deepdoctection_ray.kernels.imaging import decode_image, sniff_mime
    from deepdoctection_ray.kernels.jpeg import decode_jpeg, encode_jpeg

    # flat grey: near-lossless at q90
    img = np.full((16, 24), 130, np.uint8)
    rt = decode_jpeg(encode_jpeg(img, 90))
    assert rt.shape == img.shape and np.abs(rt.astype(int) - 130).max() <= 1
    # smooth gradient grey: exact at q95 (all energy in low frequencies)
    yy, xx = np.mgrid[0:33, 0:41]
    img = ((yy * 3 + xx * 2) % 256).astype(np.uint8)
    rt = decode_jpeg(encode_jpeg(img, 95))
    err = np.abs(rt.astype(int) - img.astype(int))
    assert np.sqrt((err**2).mean()) < 6
    # smoothed RGB, 4:4:4 and 4:2:0, odd sizes
    rng = np.random.RandomState(3)
    sm = rng.randint(0, 256, (24, 24, 3)).astype(float)
    for _ in range(3):
        sm = (
            np.roll(sm, 1, 0) + np.roll(sm, -1, 0) + np.roll(sm, 1, 1) + np.roll(sm, -1, 1) + sm
        ) / 5
    sm = sm.astype(np.uint8)
    rt = decode_jpeg(encode_jpeg(sm, 95))
    assert np.sqrt(((rt.astype(int) - sm.astype(int)) ** 2).mean()) < 8
    rt = decode_jpeg(encode_jpeg(sm, 95, subsample=True))
    assert np.sqrt(((rt.astype(int) - sm.astype(int)) ** 2).mean()) < 14
    odd = sm[:17, :19]
    assert decode_jpeg(encode_jpeg(odd, 90, subsample=True)).shape == odd.shape
    # dispatch
    data = encode_jpeg(sm, 90)
    assert sniff_mime(data) == "image/jpeg"
    assert decode_image(data).shape == sm.shape


def test_jpeg_arithmetic_and_lossless_rejected():
    """Progressive (SOF2) decodes natively now; the still-unsupported coding
    processes (lossless SOF3, arithmetic SOF9) raise honestly."""
    import struct

    import pytest

    from deepdoctection_ray.kernels.jpeg import ImageCodecError, decode_jpeg

    for marker in (b"\xff\xc3", b"\xff\xc9"):
        data = bytearray(b"\xff\xd8")
        sof = struct.pack(">BHHB", 8, 8, 8, 1) + bytes([1, 0x11, 0])
        data += marker + struct.pack(">H", 2 + len(sof)) + sof
        with pytest.raises(ImageCodecError, match="coding process"):
            decode_jpeg(bytes(data))


def test_tiff_compressed_variants_roundtrip():
    """LZW (the PDF MSB-first EarlyChange dialect), Deflate and PackBits
    strips, with and without the horizontal predictor, both endians."""
    import numpy as np

    from deepdoctection_ray.kernels.tiff import decode_tiff, encode_tiff

    rng = np.random.RandomState(7)
    for shape in [(1, 1), (6, 9), (40, 33)]:
        for ch in (None, 3):
            img = rng.randint(0, 256, shape + ((ch,) if ch else ()), dtype=np.uint8)
            for comp in ("none", "lzw", "deflate", "packbits"):
                for pred in (False, True):
                    rt = decode_tiff(
                        encode_tiff(img, compression=comp, predictor=pred)
                    )
                    assert rt.shape == img.shape and (rt == img).all(), (comp, pred)


def test_tiff_packbits_spec_bytes():
    """PackBits decode pinned against the spec's own worked example."""
    from deepdoctection_ray.kernels.tiff import _packbits_decode

    # Apple PackBits reference example (TN1023)
    enc = bytes.fromhex("FEAA0280002AFDAA0380002A22F7AA")
    want = bytes.fromhex("AAAAAA80002AAAAAAAAA80002A22") + b"\xaa" * 10
    assert _packbits_decode(enc) == want


def test_wav_g711_and_adpcm_codecs():
    """G.711 µ/A-law and IMA ADPCM decode paths: idempotent companding over
    all 256 codes, container round-trips within codec tolerance, and the
    WAV dispatcher picking the right format tag."""
    import numpy as np

    from deepdoctection_ray.kernels.wav import (
        alaw_decode,
        alaw_encode,
        decode_wav,
        encode_wav_g711,
        encode_wav_ima_adpcm,
        ulaw_decode,
        ulaw_encode,
    )

    codes = np.arange(256, dtype=np.uint8)
    for dec, enc in [(ulaw_decode, ulaw_encode), (alaw_decode, alaw_encode)]:
        pcm = dec(codes)
        assert (dec(enc(pcm)) == pcm).all()  # companding idempotence
    # ITU anchors: quietest codes decode to ±0/±8, loudest to full scale
    assert ulaw_decode(np.array([0xFF], np.uint8))[0] == 0
    assert ulaw_decode(np.array([0x00], np.uint8))[0] == -32124
    assert alaw_decode(np.array([0x55], np.uint8))[0] == -8
    assert alaw_decode(np.array([0xD5], np.uint8))[0] == 8

    rate = 8000
    t = np.arange(4000) / rate
    stereo = np.stack(
        [0.6 * np.sin(2 * np.pi * 440 * t), 0.4 * np.cos(2 * np.pi * 220 * t)], axis=1
    )
    for law in ("mu", "a"):
        x, r = decode_wav(encode_wav_g711(stereo, rate, law=law))
        assert r == rate and x.shape == (4000, 2)
        assert np.abs(x - stereo).max() < 0.02  # one companding step
    x, r = decode_wav(encode_wav_ima_adpcm(stereo, rate, block_align=512))
    assert r == rate and x.shape[1] == 2 and x.shape[0] >= 4000  # block padding
    assert np.abs(x[:4000] - stereo).max() < 0.05  # adaptive-step tolerance


def test_jpeg_in_tiff_decode_and_jpegtables_splice():
    """New-style JPEG-in-TIFF (Compression=7): self-contained strips decode
    through the repo's baseline JPEG codec, and an abbreviated stream with
    the DQT/DHT factored into the JPEGTables tag (347) splices back
    correctly."""
    import struct

    import numpy as np

    from deepdoctection_ray.kernels.jpeg import encode_jpeg
    from deepdoctection_ray.kernels.tiff import decode_tiff, encode_tiff

    x = np.linspace(0, 2 * np.pi, 64)
    img = ((np.sin(x)[:, None] * np.cos(x)[None, :]) * 100 + 128).astype(np.uint8)

    # self-contained strip (the encoder's own output)
    out = decode_tiff(encode_tiff(img, compression="jpeg"))
    assert out.shape == img.shape and np.abs(out.astype(int) - img.astype(int)).max() <= 8

    # factor DQT/DHT into JPEGTables and hand-roll a TIFF carrying tag 347
    blob = encode_jpeg(img, quality=95)
    pos, tables, body = 2, b"", b""
    while pos < len(blob):
        assert blob[pos] == 0xFF
        marker = blob[pos + 1]
        if marker == 0xD9:  # EOI
            body += blob[pos : pos + 2]
            break
        (seg_len,) = struct.unpack_from(">H", blob, pos + 2)
        seg = blob[pos : pos + 2 + seg_len]
        if marker in (0xDB, 0xC4):  # DQT / DHT → tables stream
            tables += seg
        else:
            body += seg
        pos += 2 + seg_len
        if marker == 0xDA:  # SOS: rest is entropy data until EOI
            end = blob.rfind(b"\xff\xd9")
            body += blob[pos : end + 2]
            break
    tables_stream = b"\xff\xd8" + tables + b"\xff\xd9"
    strip = b"\xff\xd8" + body
    h, w = img.shape
    e = "<"
    entries = [
        (256, 4, 1, w), (257, 4, 1, h), (258, 3, 1, 8), (259, 3, 1, 7),
        (262, 3, 1, 1), (273, 4, 1, 8), (277, 3, 1, 1), (278, 4, 1, h),
        (279, 4, 1, len(strip)),
        (347, 7, len(tables_stream), 8 + len(strip)),
    ]
    ifd_off = 8 + len(strip) + len(tables_stream)
    t = bytearray(b"II*\x00" + struct.pack(e + "I", ifd_off))
    t += strip + tables_stream
    t += struct.pack(e + "H", len(entries))
    for tag, typ, count, value in sorted(entries):
        if typ == 3 and count == 1:
            vb = struct.pack(e + "HH", value, 0)
        else:
            vb = struct.pack(e + "I", value)
        t += struct.pack(e + "HHI", tag, typ, count) + vb
    t += struct.pack(e + "I", 0)
    out2 = decode_tiff(bytes(t))
    assert out2.shape == img.shape
    assert np.abs(out2.astype(int) - img.astype(int)).max() <= 8


def test_progressive_jpeg_matches_baseline_reconstruction():
    """SOF2 scans must accumulate to the SAME quantized coefficients the
    baseline stream carries — decoded images are bit-identical."""
    import numpy as np

    from deepdoctection_ray.kernels.jpeg import (
        decode_jpeg,
        encode_jpeg,
        encode_jpeg_progressive,
    )

    x = np.linspace(0, 2 * np.pi, 40)
    img = ((np.sin(x)[:, None] * np.cos(np.linspace(0, 3, 56))[None, :]) * 90 + 128).astype(
        np.uint8
    )
    rgb = np.stack([img, img[::-1], 255 - img], axis=2)
    rng = np.random.RandomState(1)
    noisy = rng.randint(0, 256, (33, 41, 3)).astype(np.uint8)
    # flat 1456²: 33,124 all-zero AC blocks in one band — an EOB run longer
    # than the 32,767 one EOBn symbol carries, so it spans several symbols
    big_flat = np.full((1456, 1456), 130, np.uint8)
    for arr, q in [
        (img, 90), (rgb, 90), (noisy, 35), (np.full((64, 64), 130, np.uint8), 90), (big_flat, 90)
    ]:
        base = decode_jpeg(encode_jpeg(arr, quality=q)).astype(int)
        prog = decode_jpeg(encode_jpeg_progressive(arr, quality=q)).astype(int)
        assert np.abs(prog - base).max() == 0


def test_progressive_ac_refinement_hand_built_stream():
    """§G.1.2.3 successive-approximation AC refinement, pinned by a
    hand-assembled two-scan stream (first scan at Al=1, refinement at Al=0)
    whose exact coefficient outcome is computed independently."""
    import struct

    import numpy as np

    from deepdoctection_ray.kernels.jpeg import (
        ZIGZAG,
        _BitWriter,
        _PROG_AC_SPEC,
        STD_DC_LUMA,
        build_huffman_codes,
        decode_jpeg,
        idct2,
    )

    # true zigzag coefficients for one 8x8 block: DC=10, AC k=1..5
    true_ac = {1: 7, 3: -5, 4: 1, 5: 2}  # k=2 stays zero; k=4 newly ±1 at Al=0
    out = bytearray(b"\xff\xd8")
    out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([0]) + bytes([1] * 64)
    sof = struct.pack(">BHHB", 8, 8, 8, 1) + bytes([1, 0x11, 0])
    out += b"\xff\xc2" + struct.pack(">H", 2 + len(sof)) + sof
    for tc, spec in ((0, STD_DC_LUMA), (1, _PROG_AC_SPEC)):
        bits, vals = spec
        body = bytes([tc << 4]) + bytes(bits) + bytes(vals)
        out += b"\xff\xc4" + struct.pack(">H", 2 + len(body)) + body
    dc_codes = build_huffman_codes(*STD_DC_LUMA)
    ac_codes = build_huffman_codes(*_PROG_AC_SPEC)

    def sos(ss, se, ah, al):
        body = bytes([1, 1, 0x00, ss, se, (ah << 4) | al])
        return b"\xff\xda" + struct.pack(">H", 2 + len(body)) + body

    # scan 1: DC, no successive approximation
    out += sos(0, 0, 0, 0)
    w = _BitWriter()
    code, length = dc_codes[4]
    w.write(code, length)
    w.write(10, 4)  # diff = +10
    w.flush()
    out += w.out
    # scan 2: AC first, band 1..5 at Al=1 → sends c // 2 (truncate toward 0)
    out += sos(1, 5, 0, 1)
    w = _BitWriter()
    for run, v in ((0, 3), (1, -2), (1, 1)):  # k=1:3, k=3:-2, k=5:1
        s = max(abs(v).bit_length(), 1)
        code, length = ac_codes[(run << 4) | s]
        w.write(code, length)
        w.write(v if v >= 0 else v + (1 << s) - 1, s)
    w.flush()
    out += w.out
    # scan 3: AC refinement band 1..5, Ah=1 Al=0 (libjpeg emission order:
    # symbol, sign, then correction bits of nonzero-history coefs passed)
    out += sos(1, 5, 1, 0)
    w = _BitWriter()
    code, length = ac_codes[(1 << 4) | 1]  # new ±1 at k=4 after r=1 zero-history (k=2)
    w.write(code, length)
    w.write(1, 1)  # sign: positive
    w.write(1, 1)  # correction for k=1: |7| & 1
    w.write(1, 1)  # correction for k=3: |-5| & 1
    code, length = ac_codes[0x00]  # EOB, then remaining corrections
    w.write(code, length)
    w.write(0, 1)  # correction for k=5: |2| & 1
    w.flush()
    out += w.out
    out += b"\xff\xd9"

    got = decode_jpeg(bytes(out))
    zz = np.zeros(64)
    zz[0] = 10
    for k, v in true_ac.items():
        zz[k] = v
    dq = np.zeros(64)
    dq[ZIGZAG] = zz
    want = np.clip(np.round(idct2(dq.reshape(8, 8)) + 128.0), 0, 255).astype(np.uint8)
    assert got.shape == (8, 8)
    assert (got == want).all()


def test_dhash_robust_to_reencode_and_discriminative():
    import numpy as np

    from deepdoctection_ray.kernels.imaging import (
        decode_image, dhash, encode_bmp, hamming64,
    )
    from deepdoctection_ray.kernels.jpeg import encode_jpeg
    from deepdoctection_ray.kernels.png import encode_png

    x = np.linspace(0, 2 * np.pi, 48)
    img = ((np.sin(x)[:, None] * np.cos(x)[None, :]) * 100 + 128).astype(np.uint8)
    img3 = np.stack([img] * 3, axis=2)
    h_bmp = dhash(decode_image(encode_bmp(img3)))
    assert dhash(decode_image(encode_png(img3))) == h_bmp  # lossless invariant
    assert hamming64(h_bmp, dhash(decode_image(encode_jpeg(img3, quality=85)))) <= 7
    other = np.random.RandomState(1).randint(0, 256, (48, 48, 3)).astype(np.uint8)
    assert hamming64(h_bmp, dhash(other)) > 15


def test_dedup_images_matches_bruteforce(ray_session):
    import itertools

    import numpy as np
    import ray.data

    from deepdoctection_ray.kernels.imaging import decode_image, dhash, hamming64
    from deepdoctection_ray.stages.multimodal import dedup_images
    from deepdoctection_ray.synth import make_image_dedup_corpus

    media, golden = make_image_dedup_corpus(10, seed=3)
    out = (
        dedup_images(ray.data.from_arrow(media), threshold=7)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    want = golden.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert out.equals(want), (len(out), len(want))
    assert len(want) > 0  # the fixture actually plants near-dups
