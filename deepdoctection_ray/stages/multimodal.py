"""Multimodal column plumbing: opaque binary payloads + typed metadata.

The reference carries pixel arrays / pdf bytes inside each record and attaches
and drops them around heavy stages (``maybe_load_image`` /
``maybe_remove_image``, ``mapper/misc.py:110-141``). The Ray translation:

- media travel as a ``binary`` column plus a ``media_meta`` struct
  (mime/width/height/duration);
- decode / feature-extract / resize / frame-sample are ACTOR-POOL
  ``map_batches`` stages with small ``batch_size`` (payloads are wide);
- the binary column is projected away the moment the consuming stage is done.

Codec status: BMP, PNG, GIF, JPEG (baseline AND progressive), TIFF
(uncompressed / LZW / Deflate / PackBits / JPEG-in-TIFF), PPM/PGM images
and WAV audio (integer PCM, float32, G.711 µ-law/A-law, IMA ADPCM) all
decode NATIVELY (pure numpy codecs under ``kernels/``); arithmetic-coded
JPEG, perceptual audio (MP3/AAC/OGG) and video are not decodable without
external libs and raise ``NotImplementedError`` unless ``fake=True``
(deterministic synthetic decode for plumbing tests). The Ray-side plumbing
— schema, actor signature, batch sizing, output layout — is real and
tested either way.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MEDIA_META_TYPE = pa.struct(
    [
        ("mime", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)


def make_media_table(n: int, seed: int = 5, kind: str = "image") -> pa.Table:
    """Deterministic synthetic media rows for tests (binary payload + meta)."""
    rng = np.random.RandomState(seed)
    payloads, metas, ids = [], [], []
    for i in range(n):
        w, h = int(rng.randint(8, 64)), int(rng.randint(8, 64))
        payloads.append(rng.randint(0, 256, size=w * h, dtype=np.uint8).tobytes())
        metas.append({"mime": f"{kind}/x-raw", "width": w, "height": h, "duration_ms": 0})
        ids.append(i)
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "media_meta": pa.array(metas, MEDIA_META_TYPE),
        }
    )


class ImageDecoder:
    """Actor-pool decode stage.

    REAL decode path for BMP / PNG / GIF / JPEG (baseline + progressive) /
    TIFF (incl. JPEG-in-TIFF) / binary PPM / PGM payloads (pure-numpy codecs
    under ``kernels/`` — no external libraries). Codec-less formats
    (arithmetic-coded JPEG, video) raise
    ``NotImplementedError`` naming the format; ``fake=True`` keeps the
    deterministic synthetic decode (payload bytes reshaped via the meta
    struct) for plumbing tests.

    ``resize_to=(w, h)`` applies nearest-neighbor resize after decode —
    the ``ResizeTransform`` half of the reference's image pre-processing.
    """

    def __init__(self, fake: bool = False, resize_to: tuple[int, int] | None = None) -> None:
        self._fake = fake
        self._resize = resize_to

    def _decode(self, payload: bytes, meta: dict) -> np.ndarray:
        from ..kernels.imaging import (
            ImageCodecError,
            decode_image,
            resize_nearest,
            sniff_mime,
            to_grayscale,
        )

        if self._fake:
            w, h = meta["width"], meta["height"]
            arr = np.frombuffer(payload, dtype=np.uint8)
            img = arr[: w * h].reshape(h, w)
        elif sniff_mime(payload) is not None:
            img = to_grayscale(decode_image(payload))
        else:
            raise NotImplementedError(
                f"no codec for {meta.get('mime', 'unknown')!r} in this environment "
                "(BMP / PNG / GIF / JPEG incl. progressive / TIFF / PPM / PGM "
                "decode natively — plug an external lib in here for the rest)"
            )
        if self._resize:
            img = resize_nearest(img, *self._resize)
        return img

    def __call__(self, batch: pa.Table) -> pa.Table:
        metas = (
            batch["media_meta"].to_pylist()
            if "media_meta" in batch.column_names
            else [{} for _ in range(len(batch))]
        )
        feats = []
        for payload, meta in zip(batch["payload"].to_pylist(), metas):
            img = self._decode(payload, meta)
            feats.append(
                {
                    "mean": round(float(img.mean()), 6),
                    "std": round(float(img.std()), 6),
                    "n_pixels": int(img.size),
                }
            )
        out = batch.drop_columns(["payload"])  # binary never crosses this stage
        return out.append_column(
            "features",
            pa.array(
                feats,
                pa.struct([("mean", pa.float64()), ("std", pa.float64()), ("n_pixels", pa.int64())]),
            ),
        )


class AudioFeatures:
    """Actor-pool audio feature stage: REAL decode for WAV payloads
    (``kernels/wav.py`` — integer PCM 8/16/24/32-bit, float32, G.711
    µ-law/A-law and IMA ADPCM, any channel count), optional linear resample,
    then a deterministic per-clip feature row (duration / RMS / peak /
    zero-crossing rate). Perceptual codecs (MP3/AAC/OGG) raise honestly;
    ``fake=True`` synthesizes samples from the payload bytes for plumbing
    tests. The binary column never crosses this stage."""

    def __init__(self, fake: bool = False, resample_to: int | None = None) -> None:
        self._fake = fake
        self._resample = resample_to

    def _decode(self, payload: bytes, meta: dict) -> tuple[np.ndarray, int]:
        from ..kernels.wav import AudioCodecError, decode_wav

        if self._fake:
            x = (np.frombuffer(payload, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
            return x[:, None], 8000
        try:
            return decode_wav(payload)
        except AudioCodecError as exc:
            raise NotImplementedError(
                f"no audio codec for this payload in this environment ({exc}); "
                "WAV/PCM decodes natively — plug a codec lib in here for "
                "MP3/AAC/OGG"
            ) from exc

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernels.wav import audio_features, resample_linear

        feats = []
        metas = batch["media_meta"].to_pylist() if "media_meta" in batch.column_names else [
            {} for _ in range(len(batch))
        ]
        for payload, meta in zip(batch["payload"].to_pylist(), metas):
            samples, rate = self._decode(payload, meta)
            if self._resample and rate != self._resample:
                samples = resample_linear(samples, rate, self._resample)
                rate = self._resample
            f = audio_features(samples, rate)
            f["rate"] = rate
            f["channels"] = int(samples.shape[1]) if samples.ndim == 2 else 1
            feats.append(f)
        out = batch.drop_columns(["payload"])
        return out.append_column(
            "audio_features",
            pa.array(
                feats,
                pa.struct(
                    [
                        ("duration_sec", pa.float64()),
                        ("rms", pa.float64()),
                        ("peak", pa.float64()),
                        ("zcr", pa.float64()),
                        ("rate", pa.int64()),
                        ("channels", pa.int64()),
                    ]
                ),
            ),
        )


class FrameSampler:
    """Actor-pool frame-sampling stage for video-like payloads.

    Deterministic stride sampling over the byte stream (codec STUBbed the same
    way); emits one row per sampled frame — the ``flat_map`` explode shape.
    """

    def __init__(self, num_frames: int = 4, fake: bool = False) -> None:
        self._n = num_frames
        self._fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self._fake:
            raise NotImplementedError("STUB: video codec not available; use fake=True")
        ids, frame_nos, checksums = [], [], []
        for mid, payload in zip(batch["media_id"].to_pylist(), batch["payload"].to_pylist()):
            n = max(len(payload) // self._n, 1)
            for f in range(self._n):
                chunk = payload[f * n : (f + 1) * n]
                if not chunk:
                    break
                ids.append(mid)
                frame_nos.append(f)
                checksums.append(int(np.frombuffer(chunk, dtype=np.uint8).sum()))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame_no": pa.array(frame_nos, pa.int32()),
                "checksum": pa.array(checksums, pa.int64()),
            }
        )


class ImageDHasher:
    """Actor-pool stage: decode payload (any native codec) → 64-bit dHash.
    The perceptual-fingerprint analog of the text content hash — binary
    payloads never leave this stage, only ``(id, dhash)`` rows do."""

    def __init__(self, payload_column: str = "payload", id_column: str = "media_id") -> None:
        self._payload = payload_column
        self._id = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernels.imaging import decode_image, dhash

        hashes = [
            # int64 view of the uint64 hash (Arrow-friendly; XOR is sign-safe)
            np.uint64(dhash(decode_image(p))).astype(np.int64)
            for p in batch[self._payload].to_pylist()
        ]
        return pa.table(
            {
                self._id: batch[self._id],
                "dhash": pa.array(np.asarray(hashes, np.int64), pa.int64()),
            }
        )


def hamming_band_pairs(
    hashes: ray.data.Dataset,
    id_column: str = "media_id",
    hash_column: str = "dhash",
    threshold: int = 7,
    max_bucket: int = 256,
) -> ray.data.Dataset:
    """Exact Hamming-≤``threshold`` pairs over a 64-bit hash column via
    multi-index banding (Norouzi et al. 2012): the hash splits into 8
    disjoint 8-bit bands; two hashes within distance ≤ 7 cannot differ in
    all 8 bands, so at least one band collides — banding is LOSSLESS pruning
    at threshold ≤ 7, and the per-bucket vectorized popcount verify removes
    every false positive. Shared by the image and audio near-dup operators.
    Returns ``(id_a, id_b, hamming)``, id_a < id_b."""
    from ..functions.bucketed import bucketed_map_groups
    from .dedup import _capped_collisions, _dedup_pair_rows, _pair_frame, _pairs_within, _popcount64

    def band_rows(batch: pa.Table) -> pa.Table:
        h = batch[hash_column].to_numpy(zero_copy_only=False).astype(np.int64)
        n = h.shape[0]
        bands = np.repeat(np.arange(8, dtype=np.int32)[None, :], n, axis=0).reshape(-1)
        keys = ((h[:, None].view(np.uint64) >> (np.arange(8, dtype=np.uint64) * np.uint64(8)))
                & np.uint64(0xFF)).astype(np.int64).reshape(-1)
        idx = np.repeat(np.arange(n, dtype=np.int64), 8)
        return pa.table(
            {
                "band": pa.array(bands, pa.int32()),
                "band_key": pa.array(keys, pa.int64()),
                id_column: pc.take(batch[id_column], pa.array(idx, pa.int64())),
                hash_column: pa.array(h[idx], pa.int64()),
            }
        )

    banded = hashes.map_batches(band_rows, batch_format="pyarrow")

    def emit_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        capped, bounds = _capped_collisions(
            g, ["band", "band_key"], id_column, max_bucket, "hamming_bands"
        )
        ids = capped[id_column].to_numpy()
        hs = capped[hash_column].to_numpy()
        i, j = _pairs_within(bounds, ids)
        ham = _popcount64(hs[i] ^ hs[j])
        keep = ham <= threshold
        return _pair_frame(ids[i[keep]], ids[j[keep]], hamming=ham[keep])

    pairs = bucketed_map_groups(banded, ["band", "band_key"], emit_bucket, batch_format="pandas")
    return _dedup_pair_rows(pairs)


def dedup_images(
    ds: ray.data.Dataset,
    payload_column: str = "payload",
    id_column: str = "media_id",
    threshold: int = 7,
    max_bucket: int = 256,
) -> ray.data.Dataset:
    """Near-duplicate IMAGE pairs: real pixel decode → dHash →
    :func:`hamming_band_pairs` (EXACT at threshold ≤ 7 by the multi-index
    pigeonhole). Returns ``(id_a, id_b, hamming)``, id_a < id_b."""
    hashes = ds.map_batches(
        ImageDHasher, batch_format="pyarrow", concurrency=(1, 4),
        fn_constructor_kwargs=dict(payload_column=payload_column, id_column=id_column),
    )
    return hamming_band_pairs(hashes, id_column, "dhash", threshold, max_bucket)


class AudioFingerprinter:
    """Actor-pool stage: WAV decode (any native codec) → 64-bit energy-delta
    fingerprint (``kernels/wav.audio_fingerprint``)."""

    def __init__(self, payload_column: str = "payload", id_column: str = "media_id") -> None:
        self._payload = payload_column
        self._id = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernels.wav import audio_fingerprint, decode_wav

        hashes = [
            np.uint64(audio_fingerprint(*decode_wav(p))).astype(np.int64)
            for p in batch[self._payload].to_pylist()
        ]
        return pa.table(
            {
                self._id: batch[self._id],
                "afp": pa.array(np.asarray(hashes, np.int64), pa.int64()),
            }
        )


def dedup_audio(
    ds: ray.data.Dataset,
    payload_column: str = "payload",
    id_column: str = "media_id",
    threshold: int = 7,
    max_bucket: int = 256,
) -> ray.data.Dataset:
    """Near-duplicate AUDIO pairs: real WAV decode → energy-delta
    fingerprint → :func:`hamming_band_pairs` (EXACT at threshold ≤ 7 by the
    multi-index pigeonhole — same matcher as :func:`dedup_images`)."""
    hashes = ds.map_batches(
        AudioFingerprinter, batch_format="pyarrow", concurrency=(1, 4),
        fn_constructor_kwargs=dict(payload_column=payload_column, id_column=id_column),
    )
    return hamming_band_pairs(hashes, id_column, "afp", threshold, max_bucket)
