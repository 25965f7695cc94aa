"""Multimodal (image/audio/video) column plumbing.

Media payloads are opaque ``binary`` columns with typed metadata; decode,
feature-extraction, resize and frame/window sampling run as actor-pool
``map_batches`` stages.  Five image codecs are REAL and
container-library-free: uncompressed BMP (numpy), netpbm P2/P3/P5/P6
(numpy), 8-bit PNG (stdlib ``zlib`` + numpy scanline unfiltering),
baseline JPEG (:mod:`.jpeg` — numpy DCT + Annex-K Huffman, arbitrary
sampling factors on decode), and GIF87a/89a (real LZW both ways,
interlacing on decode) — so the default stage kernels decode
genuinely; only formats whose codecs require external libraries (WebP,
AVIF, …) are out of scope and raise ``ValueError`` from the sniffer
(inject a kernel fn to support them).
The Ray-side plumbing — schema, batch sizing, actor signature, output
layout — is real, tested, and (for the md5-based feature fake used by
the oracle pipeline) independently recomputable by the DuckDB oracle
(``__ray_entry__.oracle_sql()['media_features']``).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

import numpy as np
import pyarrow as pa
from ..sources.io import read_parquet_clean

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("payload", pa.binary()),
        ("media_type", pa.string()),
    ]
)

N_FAKE_FEATURES = 8


def fake_image_features(payload: bytes) -> np.ndarray:
    """Deterministic 8-dim stand-in for a real image-feature extractor:
    the first 8 md5 bytes scaled to [0, 1] (float64, so a SQL oracle can
    reproduce the values exactly)."""
    digest = hashlib.md5(payload).digest()
    return np.frombuffer(digest[:N_FAKE_FEATURES], dtype=np.uint8).astype(np.float64) / 255.0


def fake_resize(payload: bytes, width: int, height: int) -> tuple[bytes, int, int]:
    """Deterministic resize stand-in: a real kernel would decode, resample
    and re-encode; the fake derives an output payload of width*height
    bytes by tiling the input (shape bookkeeping is what the plumbing
    test checks)."""
    size = max(1, width * height)
    src = payload or b"\x00"
    reps = -(-size // len(src))
    return (src * reps)[:size], width, height


# --- real numpy-only BMP codec ----------------------------------------------
# Uncompressed BMP needs no codec library, so this is a REAL decode path
# (not a stub): 24/32-bit BI_RGB, BITMAPINFOHEADER, bottom-up or top-down.


def decode_bmp(payload: bytes) -> np.ndarray:
    """(h, w, 3) uint8 RGB array from an uncompressed 24/32-bit BI_RGB BMP."""
    if len(payload) < 54 or payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    pix_off = int.from_bytes(payload[10:14], "little")
    hdr_size = int.from_bytes(payload[14:18], "little")
    if hdr_size < 40:
        raise ValueError("unsupported BMP header (pre-BITMAPINFOHEADER)")
    width = int.from_bytes(payload[18:22], "little", signed=True)
    height = int.from_bytes(payload[22:26], "little", signed=True)
    bpp = int.from_bytes(payload[28:30], "little")
    compression = int.from_bytes(payload[30:34], "little")
    if compression != 0 or bpp not in (24, 32):
        raise ValueError(f"unsupported BMP: bpp={bpp} compression={compression}")
    top_down = height < 0
    height = abs(height)
    if width <= 0 or height <= 0:
        raise ValueError("degenerate BMP geometry")
    channels = bpp // 8
    row_bytes = (width * channels + 3) & ~3  # rows pad to 4-byte multiples
    need = pix_off + row_bytes * height
    if len(payload) < need:
        raise ValueError("truncated BMP pixel data")
    rows = np.frombuffer(
        payload, dtype=np.uint8, count=row_bytes * height, offset=pix_off
    ).reshape(height, row_bytes)
    px = rows[:, : width * channels].reshape(height, width, channels)
    rgb = px[:, :, 2::-1]  # BGR(A) storage order → RGB
    if not top_down:
        rgb = rgb[::-1]
    return np.ascontiguousarray(rgb)


def encode_bmp(img: np.ndarray) -> bytes:
    """Uncompressed 24-bit bottom-up BMP bytes from an (h, w, 3) uint8 RGB
    array — the inverse of :func:`decode_bmp` (exact roundtrip)."""
    img = np.asarray(img, dtype=np.uint8)
    h, w, _ = img.shape
    row_bytes = (w * 3 + 3) & ~3
    rows = np.zeros((h, row_bytes), dtype=np.uint8)
    rows[:, : w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
    pix = rows.tobytes()
    header = (
        b"BM"
        + (54 + len(pix)).to_bytes(4, "little")
        + b"\x00\x00\x00\x00"
        + (54).to_bytes(4, "little")
        + (40).to_bytes(4, "little")
        + w.to_bytes(4, "little", signed=True)
        + h.to_bytes(4, "little", signed=True)
        + (1).to_bytes(2, "little")
        + (24).to_bytes(2, "little")
        + (0).to_bytes(4, "little")
        + len(pix).to_bytes(4, "little")
        + (2835).to_bytes(4, "little") * 2  # 72 DPI
        + (0).to_bytes(4, "little") * 2
    )
    return header + pix


def _image_features(img: np.ndarray) -> np.ndarray:
    """The shared 8-dim feature kernel: [w/4096, h/4096, mean R, mean G,
    mean B, gray std, gray min, gray max] (channel values in [0, 1])."""
    h, w = img.shape[:2]
    flat = img.reshape(-1, 3).astype(np.float64)
    gray = flat.mean(axis=1)
    return np.array(
        [
            w / 4096.0,
            h / 4096.0,
            flat[:, 0].mean() / 255.0,
            flat[:, 1].mean() / 255.0,
            flat[:, 2].mean() / 255.0,
            gray.std() / 255.0,
            gray.min() / 255.0,
            gray.max() / 255.0,
        ]
    )


def bmp_image_features(payload: bytes) -> np.ndarray:
    """Real 8-dim image features from a BMP payload — a genuine
    decode→extract kernel for :class:`ImageDecodeStage`, no codec
    library needed."""
    return _image_features(decode_bmp(payload))


def bmp_resize(payload: bytes, width: int, height: int) -> tuple[bytes, int, int]:
    """Real resize kernel for :class:`ImageResizeStage`: BMP decode →
    nearest-neighbor resample (pure numpy index maps) → BMP re-encode."""
    img = decode_bmp(payload)
    src_h, src_w = img.shape[:2]
    yi = np.minimum((np.arange(height) * src_h) // height, src_h - 1)
    xi = np.minimum((np.arange(width) * src_w) // width, src_w - 1)
    out = img[yi][:, xi]
    return encode_bmp(out), width, height


# --- real numpy-only netpbm (PPM/PGM) codec ----------------------------------
# The other codec-library-free family: P6/P5 binary and P3/P2 ASCII,
# maxval <= 255.


def _pnm_header(payload: bytes):
    """Parse magic, width, height, maxval; return (magic, w, h, maxval,
    pixel_data_offset).  Netpbm headers are whitespace-separated tokens
    with '#' comments running to end-of-line."""
    if len(payload) < 2 or payload[0:1] != b"P" or payload[1:2] not in b"2356":
        raise ValueError("not a PPM/PGM payload")
    magic = payload[:2].decode()
    tokens = []
    i = 2
    n = len(payload)
    while len(tokens) < 3 and i < n:
        c = payload[i : i + 1]
        if c == b"#":
            while i < n and payload[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < n and not payload[j : j + 1].isspace():
                j += 1
            tokens.append(int(payload[i:j]))
            i = j
    if len(tokens) < 3:
        raise ValueError("truncated PNM header")
    w, h, maxval = tokens
    if w <= 0 or h <= 0 or not 0 < maxval <= 255:
        raise ValueError(f"unsupported PNM geometry/maxval: {w}x{h}/{maxval}")
    if magic in ("P5", "P6"):
        i += 1  # exactly ONE whitespace byte separates header and raster
    return magic, w, h, maxval, i


def decode_pnm(payload: bytes) -> np.ndarray:
    """(h, w, 3) uint8 RGB array from a P6/P5 binary or P3/P2 ASCII
    netpbm image (grayscale is broadcast to 3 channels)."""
    magic, w, h, maxval, off = _pnm_header(payload)
    channels = 3 if magic in ("P3", "P6") else 1
    count = w * h * channels
    if magic in ("P5", "P6"):
        if len(payload) < off + count:
            raise ValueError("truncated PNM raster")
        px = np.frombuffer(payload, dtype=np.uint8, count=count, offset=off)
    else:
        vals = payload[off:].split()
        if len(vals) < count:
            raise ValueError("truncated ASCII PNM raster")
        px = np.array([int(v) for v in vals[:count]], dtype=np.int64)
        if (px > maxval).any() or (px < 0).any():
            raise ValueError("PNM sample out of range")
        px = px.astype(np.uint8)
    if maxval != 255:  # rescale to full range (round-half-up like netpbm)
        px = ((px.astype(np.uint32) * 255 + maxval // 2) // maxval).astype(
            np.uint8
        )
    img = px.reshape(h, w, channels)
    if channels == 1:
        img = np.repeat(img, 3, axis=2)
    return np.ascontiguousarray(img)


def encode_ppm(img: np.ndarray) -> bytes:
    """Binary P6 bytes from an (h, w, 3) uint8 RGB array — exact
    roundtrip inverse of :func:`decode_pnm` at maxval 255."""
    img = np.asarray(img, dtype=np.uint8)
    h, w, _ = img.shape
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


# --- real stdlib-zlib + numpy PNG codec ---------------------------------------
# PNG needs no external codec library either: chunks are length-prefixed,
# IDAT is zlib, and the five scanline filters unfilter with numpy (Sub is
# a per-lane cumsum mod 256; Average/Paeth keep their sequential-in-x
# recurrence).  8-bit depth, non-interlaced; gray / gray+alpha / RGB /
# RGBA / palette color types.

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def decode_png(payload: bytes) -> np.ndarray:
    """(h, w, 3) uint8 RGB array from an 8-bit-depth non-interlaced PNG
    (color types 0/2/3/4/6; alpha dropped, gray broadcast, palette
    resolved) — pure stdlib ``zlib`` + numpy scanline unfiltering."""
    import zlib

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    ihdr = None
    plte = None
    idat = []
    pos = 8
    n = len(payload)
    while pos + 8 <= n:
        ln = int.from_bytes(payload[pos : pos + 4], "big")
        typ = payload[pos + 4 : pos + 8]
        data = payload[pos + 8 : pos + 8 + ln]
        if len(data) < ln:
            raise ValueError("truncated PNG chunk")
        if typ == b"IHDR":
            ihdr = data
        elif typ == b"PLTE":
            plte = data
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            break
        pos += 12 + ln  # length + type + data + CRC
    if ihdr is None or len(ihdr) < 13 or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    w = int.from_bytes(ihdr[0:4], "big")
    h = int.from_bytes(ihdr[4:8], "big")
    depth, ctype, comp, filt, interlace = ihdr[8:13]
    if depth != 8 or comp != 0 or filt != 0 or interlace != 0:
        raise ValueError(
            f"unsupported PNG: depth={depth} compression={comp} "
            f"interlace={interlace} (8-bit non-interlaced only)"
        )
    channels = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}.get(ctype)
    if channels is None:
        raise ValueError(f"unsupported PNG color type {ctype}")
    if w <= 0 or h <= 0:
        raise ValueError("degenerate PNG geometry")
    raw = zlib.decompress(b"".join(idat))
    stride = w * channels
    if len(raw) != h * (stride + 1):
        raise ValueError("PNG raster size mismatch")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    ftypes = rows[:, 0]
    data = rows[:, 1:].astype(np.int64)  # int workspace: exact mod-256 math
    out = np.zeros((h, stride), dtype=np.int64)
    bpp = channels
    zero_px = np.zeros(bpp, dtype=np.int64)
    for y in range(h):
        f = int(ftypes[y])
        cur = data[y]
        prev = out[y - 1] if y else np.zeros(stride, dtype=np.int64)
        if f == 0:
            rec = cur
        elif f == 1:  # Sub: per-lane cumsum mod 256 (mod distributes)
            rec = (np.cumsum(cur.reshape(w, bpp), axis=0) % 256).reshape(stride)
        elif f == 2:  # Up
            rec = (cur + prev) % 256
        elif f == 3:  # Average: left is a sequential recurrence in x
            rec = np.zeros(stride, dtype=np.int64)
            for x in range(w):
                left = rec[(x - 1) * bpp : x * bpp] if x else zero_px
                up = prev[x * bpp : (x + 1) * bpp]
                rec[x * bpp : (x + 1) * bpp] = (
                    cur[x * bpp : (x + 1) * bpp] + (left + up) // 2
                ) % 256
        elif f == 4:  # Paeth
            rec = np.zeros(stride, dtype=np.int64)
            for x in range(w):
                a = rec[(x - 1) * bpp : x * bpp] if x else zero_px
                b = prev[x * bpp : (x + 1) * bpp]
                c = prev[(x - 1) * bpp : x * bpp] if x else zero_px
                p = a + b - c
                pa_, pb_, pc_ = np.abs(p - a), np.abs(p - b), np.abs(p - c)
                pred = np.where(
                    (pa_ <= pb_) & (pa_ <= pc_), a, np.where(pb_ <= pc_, b, c)
                )
                rec[x * bpp : (x + 1) * bpp] = (
                    cur[x * bpp : (x + 1) * bpp] + pred
                ) % 256
        else:
            raise ValueError(f"unknown PNG filter type {f}")
        out[y] = rec
    px = out.astype(np.uint8).reshape(h, w, channels)
    if ctype == 0:
        img = np.repeat(px, 3, axis=2)
    elif ctype == 2:
        img = px
    elif ctype == 3:
        if plte is None or len(plte) % 3:
            raise ValueError("palette PNG missing/malformed PLTE")
        pal = np.frombuffer(plte, dtype=np.uint8).reshape(-1, 3)
        idx = px[:, :, 0]
        if int(idx.max(initial=0)) >= len(pal):
            raise ValueError("PNG palette index out of range")
        img = pal[idx]
    elif ctype == 4:
        img = np.repeat(px[:, :, :1], 3, axis=2)  # gray+alpha: drop alpha
    else:
        img = px[:, :, :3]  # RGBA: drop alpha
    return np.ascontiguousarray(img)


def encode_png(img: np.ndarray, *, row_filters: list[int] | None = None) -> bytes:
    """8-bit non-interlaced PNG bytes from an (h, w, c) uint8 array
    (c = 1 → grayscale, 3 → RGB, 4 → RGBA) — exact :func:`decode_png`
    roundtrip.  ``row_filters`` cycles filter types across scanlines
    (default all 0); passing ``[0, 1, 2, 3, 4]`` forces a decoder
    through every unfilter path."""
    import zlib

    img = np.asarray(img, dtype=np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    ctype = {1: 0, 3: 2, 4: 6}.get(c)
    if ctype is None:
        raise ValueError(f"encode_png: unsupported channel count {c}")
    stride = w * c
    flat = img.reshape(h, stride).astype(np.int64)
    zero_px = np.zeros(c, dtype=np.int64)

    def shift_left(row: np.ndarray) -> np.ndarray:
        return np.concatenate([zero_px, row[:-c]]) if stride else row

    lines = []
    for y in range(h):
        f = row_filters[y % len(row_filters)] if row_filters else 0
        cur = flat[y]
        prev = flat[y - 1] if y else np.zeros(stride, dtype=np.int64)
        left = shift_left(cur)
        if f == 0:
            filt = cur
        elif f == 1:
            filt = (cur - left) % 256
        elif f == 2:
            filt = (cur - prev) % 256
        elif f == 3:
            filt = (cur - (left + prev) // 2) % 256
        elif f == 4:
            ul = shift_left(prev)
            p = left + prev - ul
            pa_, pb_, pc_ = np.abs(p - left), np.abs(p - prev), np.abs(p - ul)
            pred = np.where(
                (pa_ <= pb_) & (pa_ <= pc_), left, np.where(pb_ <= pc_, prev, ul)
            )
            filt = (cur - pred) % 256
        else:
            raise ValueError(f"unknown PNG filter type {f}")
        lines.append(bytes([f]) + filt.astype(np.uint8).tobytes())

    def chunk(typ: bytes, data: bytes) -> bytes:
        return (
            len(data).to_bytes(4, "big")
            + typ
            + data
            + (zlib.crc32(typ + data) & 0xFFFFFFFF).to_bytes(4, "big")
        )

    ihdr = (
        w.to_bytes(4, "big")
        + h.to_bytes(4, "big")
        + bytes([8, ctype, 0, 0, 0])
    )
    return (
        _PNG_SIG
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(b"".join(lines), 6))
        + chunk(b"IEND", b"")
    )


def decode_image(payload: bytes) -> np.ndarray:
    """Sniffing decoder over the codec-library-free formats: BMP, PNG,
    baseline JPEG, or netpbm.  Formats that genuinely need an external
    codec (WebP, AVIF, …) raise ``ValueError`` — there is no stubbed
    path."""
    if payload[:2] == b"BM":
        return decode_bmp(payload)
    if payload[:8] == _PNG_SIG:
        return decode_png(payload)
    if payload[:2] == b"\xff\xd8":
        from .jpeg import decode_jpeg

        return decode_jpeg(payload)
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        return decode_gif(payload)
    return decode_pnm(payload)


def image_features(payload: bytes) -> np.ndarray:
    """Real default feature kernel: sniffing decode → 8-dim features."""
    return _image_features(decode_image(payload))


def image_resize(payload: bytes, width: int, height: int) -> tuple[bytes, int, int]:
    """Real default resize kernel: sniffing decode → nearest-neighbor
    resample → PNG re-encode (PNG as the canonical output container)."""
    img = decode_image(payload)
    src_h, src_w = img.shape[:2]
    yi = np.minimum((np.arange(height) * src_h) // height, src_h - 1)
    xi = np.minimum((np.arange(width) * src_w) // width, src_w - 1)
    return encode_png(img[yi][:, xi]), width, height


def pnm_image_features(payload: bytes) -> np.ndarray:
    """The shared :func:`_image_features` kernel over PPM/PGM input."""
    return _image_features(decode_pnm(payload))


class ImageDecodeStage:
    """Actor-pool stage: decode media payloads → feature vectors.

    The default ``feature_fn`` is the REAL :func:`image_features`
    kernel (sniffing BMP/PNG/netpbm decode → 8-dim features); inject
    ``fake_image_features`` for the md5-based oracle path, or a
    codec-library kernel for formats this container can't decode
    (WebP/AVIF raise ``ValueError`` from the sniffer).  Batch sizes
    should stay small for large binary payloads (one decoded image can
    be 100× its encoded size) — callers pass ``batch_size<=32``.
    """

    def __init__(self, feature_fn: Optional[Callable[[bytes], np.ndarray]] = None):
        self.feature_fn = feature_fn or image_features

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        feats = [self.feature_fn(p or b"").tolist() for p in payloads]
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "media_type": batch.column("media_type"),
                "features": pa.array(feats, pa.list_(pa.float64())),
            }
        )


class ImageResizeStage:
    """Actor-pool stage: resize image payloads to a target geometry.

    The default ``resize_fn`` is the REAL :func:`image_resize` kernel
    (sniffing decode → nearest-neighbor resample → PNG re-encode);
    inject ``fake_resize`` for the shape-bookkeeping test path or a
    codec-library kernel for container-unsupported formats.  Output
    keeps the payload column binary with explicit width/height metadata
    columns — the layout a downstream training pipeline consumes."""

    def __init__(
        self,
        width: int = 64,
        height: int = 64,
        resize_fn: Optional[Callable[[bytes, int, int], tuple]] = None,
    ):
        self.width = width
        self.height = height
        self.resize_fn = resize_fn or image_resize

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        out_p, out_w, out_h = [], [], []
        for p in payloads:
            rp, w, h = self.resize_fn(p or b"", self.width, self.height)
            out_p.append(rp)
            out_w.append(w)
            out_h.append(h)
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "payload": pa.array(out_p, pa.binary()),
                "width": pa.array(out_w, pa.int64()),
                "height": pa.array(out_h, pa.int64()),
            }
        )


class AudioWindowStage:
    """Actor-pool stage: audio payload → per-window RMS energy rows.

    The default decoder is REAL for canonical audio: RIFF/WAVE payloads
    go through :func:`decode_wav` (PCM 8/16-bit, channel 0); anything
    else is interpreted as raw little-endian int16 PCM.  Inject
    ``decode_fn`` for compressed formats (MP3/AAC are out of scope).
    Output is the exploded (media_id, window_index, rms) layout a VAD /
    segmentation pipeline consumes — one shuffle key candidate per
    window row."""

    def __init__(
        self,
        window: int = 256,
        decode_fn: Optional[Callable[[bytes], np.ndarray]] = None,
    ):
        self.window = window
        self.decode_fn = decode_fn or _audio_samples

    @staticmethod
    def _pcm16(payload: bytes) -> np.ndarray:
        usable = len(payload) - (len(payload) % 2)
        return np.frombuffer(payload[:usable], dtype="<i2").astype(np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        media_ids = batch.column("media_id").to_pylist()
        payloads = batch.column("payload").to_pylist()
        out_ids, out_win, out_rms = [], [], []
        for mid, payload in zip(media_ids, payloads):
            samples = self.decode_fn(payload or b"")
            n = len(samples)
            for w0 in range(0, n, self.window):
                chunk = samples[w0 : w0 + self.window]
                if len(chunk) == 0:
                    continue
                out_ids.append(mid)
                out_win.append(w0 // self.window)
                out_rms.append(float(np.sqrt((chunk * chunk).mean())))
        return pa.table(
            {
                "media_id": pa.array(out_ids, pa.int64()),
                "window_index": pa.array(out_win, pa.int64()),
                "rms": pa.array(out_rms, pa.float64()),
            }
        )


def media_features(sf_dir: str):
    """documents → (media_id, f0..f7): the media feature pipeline over a
    deterministic synthetic media table (payload = utf-8 text bytes, the
    only binary source in the sandbox), features via the md5 fake so the
    DuckDB oracle recomputes them exactly.  Feature columns are emitted
    flat (f0..f7) for engine-agnostic value comparison."""
    import ray.data

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "media_id": batch.column("doc_id"),
                "payload": pa.array(
                    [(t or "").encode("utf-8") for t in texts], pa.binary()
                ),
                "media_type": pa.array(["image"] * batch.num_rows, pa.string()),
            }
        )

    feats = ds.map_batches(to_media, batch_format="pyarrow").map_batches(
        ImageDecodeStage,
        fn_constructor_kwargs={"feature_fn": fake_image_features},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=(1, 8),
        num_cpus=1,
        max_restarts=0,  # deterministic stage: fail fast, no restart warning
    )

    def flatten(batch: pa.Table) -> pa.Table:
        vals = batch.column("features").to_pylist()
        cols = {"media_id": batch.column("media_id")}
        for i in range(N_FAKE_FEATURES):
            cols[f"f{i}"] = pa.array([round(v[i], 6) for v in vals], pa.float64())
        return pa.table(cols)

    return feats.map_batches(flatten, batch_format="pyarrow")


# --- perceptual-hash image dedup over the real BMP codec ---------------------


def dhash64(img: np.ndarray, *, hash_w: int = 8, hash_h: int = 7) -> int:
    """Difference hash (dHash): integer ITU-R 601 grayscale
    ``(299R + 587G + 114B) // 1000``, nearest-neighbor downsample to
    ``(hash_h, hash_w + 1)`` via the same index maps as
    :func:`bmp_resize`, then bit ``y*hash_w + x`` set iff
    ``gray[y, x+1] > gray[y, x]``.  ``hash_w * hash_h <= 63`` keeps the
    value int64-positive (default 8×7 = 56 bits)."""
    if hash_w * hash_h > 63:
        raise ValueError("hash_w * hash_h must be <= 63 for int64 hashes")
    src_h, src_w = img.shape[:2]
    th, tw = hash_h, hash_w + 1
    yi = np.minimum((np.arange(th) * src_h) // th, src_h - 1)
    xi = np.minimum((np.arange(tw) * src_w) // tw, src_w - 1)
    small = img[yi][:, xi].astype(np.int64)
    gray = (
        299 * small[..., 0] + 587 * small[..., 1] + 114 * small[..., 2]
    ) // 1000
    bits = (gray[:, 1:] > gray[:, :-1]).astype(np.int64)
    idx = np.arange(hash_w * hash_h, dtype=np.int64).reshape(hash_h, hash_w)
    return int((bits << idx).sum())


def synth_family_bmp(family: int, *, width: int = 9, height: int = 7) -> bytes:
    """Planted-truth image for the dedup oracle: RGB pixel (x, y) =
    affine-mod-256 formulas of (family, x, y), pushed through the REAL
    :func:`encode_bmp` so downstream decode exercises genuine BMP bytes
    — width 9 makes 27-byte pixel rows that pad to 28, so a decoder
    that mishandles row padding or BGR order produces a different hash
    and fails the oracle."""
    x = np.arange(width)[None, :]
    y = np.arange(height)[:, None]
    r = (family * 37 + x * 11 + y * 23) % 256
    g = (family * 59 + x * 17 + y * 5) % 256
    b = (family * 83 + x * 3 + y * 29) % 256
    img = np.stack(np.broadcast_arrays(r, g, b), axis=-1).astype(np.uint8)
    return encode_bmp(img)


class ImageDHashStage:
    """Actor-pool stage: image ``payload`` → ``dhash`` int64 per row, via
    the real sniffing :func:`decode_image` (BMP/PNG/netpbm) →
    :func:`dhash64` path."""

    def __init__(self, hash_w: int = 8, hash_h: int = 7):
        self.hash_w, self.hash_h = hash_w, hash_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes = [
            dhash64(decode_image(p.as_py()), hash_w=self.hash_w, hash_h=self.hash_h)
            for p in batch.column("payload")
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "dhash": pa.array(hashes, pa.int64()),
            }
        )


def synth_family_png(family: int, *, width: int = 9, height: int = 7) -> bytes:
    """Planted-truth PNG for the PNG-codec dedup oracle: RGB pixel
    (x, y) = affine-mod-256 formulas of (family, x, y) — DIFFERENT
    constants from :func:`synth_family_bmp`, so the two oracles are
    independent — pushed through the REAL :func:`encode_png` with
    row_filters cycling 0..4, so decoding exercises every scanline
    unfilter path (a decoder that mishandles Sub/Up/Average/Paeth
    produces a different hash and fails the oracle)."""
    x = np.arange(width)[None, :]
    y = np.arange(height)[:, None]
    r = (family * 41 + x * 13 + y * 19) % 256
    g = (family * 67 + x * 7 + y * 31) % 256
    b = (family * 89 + x * 5 + y * 3) % 256
    img = np.stack(np.broadcast_arrays(r, g, b), axis=-1).astype(np.uint8)
    return encode_png(img, row_filters=[0, 1, 2, 3, 4])


def synth_family_jpeg(
    family: int, *, width: int = 9, height: int = 7, progressive: bool = False
) -> bytes:
    """Planted-truth JPEG for the JPEG-codec dedup oracle.  dHash bits
    must survive the LOSSY round trip, so the pixel design guarantees it
    by margin: even columns are a fixed 128 reference, odd columns are
    104 or 152 by the family's bit at index ``(x//2 + 4y) % 6`` — every
    adjacent-column luma gap is ≥ 24 while baseline JPEG at quality 95
    perturbs these flats by ≤ ~3, so ``dhash64(decode(encode(img))) ==
    dhash64(img)`` exactly, the SQL oracle replays the ORIGINAL pixel
    formula, and all 37 family hashes are distinct (verified in
    pytest).  r = g = b = gray ⇒ the dHash luma (299r+587g+114b)//1000
    equals gray exactly on both sides."""
    x = np.arange(width)[None, :]
    y = np.arange(height)[:, None]
    j = ((x // 2) + 4 * y) % 6
    bit = (family >> j) & 1
    gray = np.where(x % 2 == 0, 128, 104 + 48 * bit).astype(np.uint8)
    img = np.repeat(gray[:, :, None], 3, axis=2)
    from .jpeg import encode_jpeg

    return encode_jpeg(img, quality=95, progressive=progressive)


def image_dhash_dedup(sf_dir: str, *, n_families: int = 41, image_format: str = "bmp"):
    """documents → (dhash, rep_doc, n_docs): perceptual-hash exact image
    dedup over REAL decoded images.  Each document gets a synthetic image
    from :func:`synth_family_bmp` (or :func:`synth_family_png` with
    ``image_format="png"`` — zlib-compressed, all five scanline filters)
    keyed by ``doc_id % n_families`` (the planted truth the DuckDB
    oracle replays pixel-for-pixel), the actor-pool
    :class:`ImageDHashStage` decodes and hashes it, and a single
    Min/Count groupby on the uniform 64-bit hash yields one row per
    distinct image — the :func:`~.dedup.exact_dedup` shape with a
    perceptual key.  At 100 TB: hashes are 8 bytes/row, the only shuffle
    is over the hash key, and near-dup extension is a Hamming-ball bucket
    join over the same column."""
    from ray.data.aggregate import Count, Min

    if image_format == "jpeg":
        # odd docs get a PROGRESSIVE (SOF2) stream of the same pixels:
        # the decoder's Annex-G path runs inside the oracle-checked
        # query, and the pixel-replaying SQL oracle is format-blind
        def synth(i: int) -> bytes:
            return synth_family_jpeg(i % n_families, progressive=bool(i & 1))
    else:
        base_synth = {
            "bmp": synth_family_bmp,
            "png": synth_family_png,
            "gif": synth_family_gif,
        }[image_format]

        def synth(i: int) -> bytes:
            return base_synth(i % n_families)

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": pa.array([synth(i) for i in ids], pa.binary()),
            }
        )

    hashed = ds.map_batches(to_media, batch_format="pyarrow").map_batches(
        ImageDHashStage,
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 8),
        num_cpus=1,
        max_restarts=0,
    )
    agg = hashed.groupby("dhash").aggregate(Count(), Min("doc_id"))
    return agg.map_batches(
        lambda b: pa.table(
            {
                "dhash": b.column("dhash"),
                "rep_doc": b.column("min(doc_id)"),
                "n_docs": b.column("count()").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# --- real WAV (RIFF) codec ---------------------------------------------------
# Canonical PCM WAVE needs no codec library: RIFF container, fmt chunk
# (PCM uint8 / int16), data chunk.  This makes the audio plumbing a REAL
# decode path like the four image codecs; compressed audio (MP3, AAC,
# ...) stays out of scope and raises ValueError.


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """WAVE bytes → (samples as (n, channels) int32, sample_rate).

    Supports PCM (format 1) at 8-bit unsigned (rescaled to signed 16-bit
    range: (v - 128) * 256, exact integers) and 16-bit signed.  Walks
    chunks properly (skips LIST/fact/etc., honors odd-size padding)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("wav: not a RIFF/WAVE payload")
    pos = 12
    fmt = None
    data = None
    n = len(payload)
    while pos + 8 <= n:
        cid = payload[pos : pos + 4]
        size = int.from_bytes(payload[pos + 4 : pos + 8], "little")
        body = payload[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("wav: missing fmt or data chunk")
    audio_format = int.from_bytes(fmt[0:2], "little")
    channels = int.from_bytes(fmt[2:4], "little")
    rate = int.from_bytes(fmt[4:8], "little")
    bits = int.from_bytes(fmt[14:16], "little")
    if audio_format != 1:
        raise ValueError(f"wav: only PCM supported, got format {audio_format}")
    if channels < 1:
        raise ValueError("wav: zero channels")
    if bits == 16:
        usable = len(data) - (len(data) % (2 * channels))
        samples = np.frombuffer(data[:usable], dtype="<i2").astype(np.int32)
    elif bits == 8:
        usable = len(data) - (len(data) % channels)
        raw = np.frombuffer(data[:usable], dtype=np.uint8).astype(np.int32)
        samples = (raw - 128) * 256
    else:
        raise ValueError(f"wav: only 8/16-bit PCM supported, got {bits}")
    return samples.reshape(-1, channels), rate


def encode_wav(samples: np.ndarray, rate: int = 8000) -> bytes:
    """(n,) or (n, channels) int16 samples → canonical PCM WAVE bytes
    (deterministic; the audio fixtures' synthesizer)."""
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.dtype != np.int16:
        raise ValueError("encode_wav expects int16 samples")
    n, channels = samples.shape
    data = samples.astype("<i2").tobytes()
    block = channels * 2
    fmt = (
        (1).to_bytes(2, "little")
        + channels.to_bytes(2, "little")
        + rate.to_bytes(4, "little")
        + (rate * block).to_bytes(4, "little")
        + block.to_bytes(2, "little")
        + (16).to_bytes(2, "little")
    )
    body = (
        b"WAVE"
        + b"fmt " + len(fmt).to_bytes(4, "little") + fmt
        + b"data" + len(data).to_bytes(4, "little") + data
    )
    return b"RIFF" + len(body).to_bytes(4, "little") + body


def _audio_samples(payload: bytes) -> np.ndarray:
    """Sniffing audio decode: RIFF/WAVE through the real codec (channel
    0 of multi-channel audio), else raw little-endian int16 PCM.  A
    payload that merely STARTS with b'RIFF' but is not a parseable WAVE
    (raw PCM whose first samples spell RIFF) falls back to the raw
    interpretation instead of killing the task."""
    if payload[:4] == b"RIFF":
        try:
            samples, _rate = decode_wav(payload)
            return samples[:, 0].astype(np.float64)
        except ValueError:
            pass
    return AudioWindowStage._pcm16(payload)


def synth_wav(doc_id: int, *, n_samples: int = 600, rate: int = 8000) -> bytes:
    """Deterministic fixture WAVE per document: sample i is
    ``((doc_id * 7 + i * 13) % 65536) - 32768`` — mirrored literally in
    the SQL oracle."""
    i = np.arange(n_samples, dtype=np.int64)
    s = ((doc_id * 7 + i * 13) % 65536) - 32768
    return encode_wav(s.astype(np.int16), rate=rate)


def audio_window_energy(sf_dir: str, *, window: int = 256, n_samples: int = 600):
    """documents → (media_id, window_index, n_window_samples, energy):
    per-window integer sum-of-squares energy over REAL WAV decode — the
    exact-arithmetic cousin of the RMS layout a VAD / segmentation
    pipeline consumes (energy is int64, so the SQL oracle matches
    bit-for-bit; rms = sqrt(energy / n) when a float view is wanted).

    Shape: synthesize → decode → window explode, all inside one
    stateless batch map (rows ≈ n_samples/window per doc); no shuffle.
    """
    import ray.data

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out_ids, out_win, out_n, out_e = [], [], [], []
        for d in ids:
            samples = _audio_samples(synth_wav(int(d), n_samples=n_samples))
            s = samples.astype(np.int64)
            for w0 in range(0, len(s), window):
                chunk = s[w0 : w0 + window]
                out_ids.append(d)
                out_win.append(w0 // window)
                out_n.append(len(chunk))
                out_e.append(int((chunk * chunk).sum()))
        return pa.table(
            {
                "media_id": pa.array(out_ids, pa.int64()),
                "window_index": pa.array(out_win, pa.int64()),
                "n_window_samples": pa.array(out_n, pa.int64()),
                "energy": pa.array(out_e, pa.int64()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


# --- real MJPEG-in-AVI video container ---------------------------------------
# Motion-JPEG AVI is the one video format expressible with the codecs
# already in the repo: a RIFF 'AVI ' container whose 'movi' LIST holds
# one baseline-JPEG payload per frame ('00dc' chunks).  The writer emits
# a minimal-but-valid structure (avih + strl headers, movi frames); the
# reader walks RIFF recursively and yields the frame payloads — so
# frame sampling and per-frame feature extraction decode GENUINELY.
# Inter-frame-coded formats (H.264, VP9, ...) stay out of scope.


def encode_mjpeg_avi(frames: list[bytes], *, width: int, height: int, fps: int = 10) -> bytes:
    """JPEG frame payloads → minimal MJPG AVI bytes (deterministic)."""
    if not frames:
        raise ValueError("avi: no frames")

    def chunk(cid: bytes, body: bytes) -> bytes:
        pad = b"\x00" if len(body) % 2 else b""
        return cid + len(body).to_bytes(4, "little") + body + pad

    def lst(kind: bytes, body: bytes) -> bytes:
        return chunk(b"LIST", kind + body)

    avih = (
        (1_000_000 // fps).to_bytes(4, "little")  # usec / frame
        + (0).to_bytes(4, "little")
        + (0).to_bytes(4, "little")
        + (0x10).to_bytes(4, "little")  # AVIF_HASINDEX off; plain flags
        + len(frames).to_bytes(4, "little")
        + (0).to_bytes(4, "little")
        + (1).to_bytes(4, "little")  # streams
        + (0).to_bytes(4, "little")
        + width.to_bytes(4, "little")
        + height.to_bytes(4, "little")
        + bytes(16)
    )
    strh = (
        b"vids" + b"MJPG" + bytes(12)
        + (1).to_bytes(4, "little")  # scale
        + fps.to_bytes(4, "little")  # rate
        + (0).to_bytes(4, "little")
        + len(frames).to_bytes(4, "little")
        + bytes(16)
    )
    strf = (
        (40).to_bytes(4, "little")
        + width.to_bytes(4, "little")
        + height.to_bytes(4, "little")
        + (1).to_bytes(2, "little")
        + (24).to_bytes(2, "little")
        + b"MJPG"
        + (width * height * 3).to_bytes(4, "little")
        + bytes(16)
    )
    hdrl = lst(
        b"hdrl",
        chunk(b"avih", avih)
        + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)),
    )
    movi = lst(b"movi", b"".join(chunk(b"00dc", f) for f in frames))
    body = b"AVI " + hdrl + movi
    return b"RIFF" + len(body).to_bytes(4, "little") + body


def avi_frame_payloads(payload: bytes) -> list[bytes]:
    """MJPG AVI bytes → list of per-frame JPEG payloads (the '00dc'/
    '00db' chunks of the movi LIST).  Raises ``ValueError`` on
    non-AVI / non-MJPEG input."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"AVI ":
        raise ValueError("avi: not a RIFF/AVI payload")
    frames: list[bytes] = []

    def walk(buf: bytes) -> None:
        pos = 0
        while pos + 8 <= len(buf):
            cid = buf[pos : pos + 4]
            size = int.from_bytes(buf[pos + 4 : pos + 8], "little")
            body = buf[pos + 8 : pos + 8 + size]
            if cid == b"LIST":
                walk(body[4:])
            elif cid in (b"00dc", b"00db"):
                frames.append(body)
            pos += 8 + size + (size & 1)

    walk(payload[12:])
    return frames


def synth_family_avi(family: int, *, n_frames: int = 5) -> bytes:
    """Deterministic fixture video: every Nth-frame sample of family f
    is the :func:`synth_family_jpeg` image of ``(f + frame) % 37`` —
    so decoded frame features are SQL-replayable via the same
    margin-safe dHash contract as the still-image oracle."""
    frames = [
        synth_family_jpeg((family + k) % 37) for k in range(n_frames)
    ]
    return encode_mjpeg_avi(frames, width=9, height=7)


def video_frame_dhash(sf_dir: str, *, n_families: int = 37, every_nth: int = 2):
    """documents → (media_id, frame_index, dhash): REAL video frame
    sampling — each document's synthetic MJPG AVI is container-parsed,
    every ``every_nth`` frame's JPEG payload is decoded through
    :mod:`.jpeg`, and the frame's dHash emitted.  This is the
    keyframe-fingerprint layout video dedup consumes (group the dhash
    column exactly like :func:`image_dhash_dedup`).

    Shape: one stateless batch map (decode cost ∝ sampled frames), no
    shuffle; at scale the JPEG decode runs where every per-payload
    kernel runs — inside the actor pool, batch sizes kept small.
    """
    import ray.data

    from .jpeg import decode_jpeg

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out_ids, out_fr, out_h = [], [], []
        for d in ids:
            payload = synth_family_avi(int(d) % n_families)
            frames = avi_frame_payloads(payload)
            for fi in range(0, len(frames), every_nth):
                out_ids.append(d)
                out_fr.append(fi)
                out_h.append(dhash64(decode_jpeg(frames[fi])))
        return pa.table(
            {
                "media_id": pa.array(out_ids, pa.int64()),
                "frame_index": pa.array(out_fr, pa.int64()),
                "dhash": pa.array(out_h, pa.int64()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


# --- real GIF codec ----------------------------------------------------------
# GIF87a/89a needs no codec library either: palette + LZW-compressed
# index stream.  Decoder handles interlacing, local/global palettes,
# transparency (emitted as the palette color — flattening is the
# caller's concern) and multi-frame files (first frame returned;
# :func:`gif_frame_indices` exposes the animation).  Encoder writes a
# non-interlaced GIF87a of an (h, w) palette-index array — enough to
# synthesize real fixtures; full-color images go through PNG/JPEG.


def _lzw_decode(data: bytes, min_code_size: int, n_pixels: int) -> np.ndarray:
    """GIF-variant LZW → uint8 index array (little-endian bit packing,
    clear/EOI codes, 12-bit code cap)."""
    clear = 1 << min_code_size
    eoi = clear + 1
    out = np.empty(n_pixels, dtype=np.uint8)
    n_out = 0
    # dictionary as flat arrays: prefix link + last byte + first byte
    max_entries = 4096
    prefix = np.full(max_entries, -1, dtype=np.int32)
    last = np.zeros(max_entries, dtype=np.uint8)
    first = np.zeros(max_entries, dtype=np.uint8)
    for i in range(clear):
        last[i] = first[i] = i

    def reset():
        return clear + 2, min_code_size + 1

    next_code, code_size = reset()
    acc = 0
    nbits = 0
    pos = 0
    prev = -1
    buf = bytearray()  # decode buffer for one code chain
    while pos < len(data) or nbits >= code_size:
        while nbits < code_size and pos < len(data):
            acc |= data[pos] << nbits
            nbits += 8
            pos += 1
        if nbits < code_size:
            break
        code = acc & ((1 << code_size) - 1)
        acc >>= code_size
        nbits -= code_size
        if code == clear:
            next_code, code_size = reset()
            prev = -1
            continue
        if code == eoi:
            break
        if prev < 0:
            out[n_out] = last[code]
            n_out += 1
            prev = code
            continue
        if code < next_code:
            entry = code
        elif code == next_code:
            entry = -2  # KwKwK case: prev + first(prev)
        else:
            raise ValueError("gif: corrupt LZW stream")
        # materialize the chain for `entry`
        buf.clear()
        c = prev if entry == -2 else entry
        while c >= 0:
            buf.append(last[c])
            c = prefix[c]
        chain = bytes(reversed(buf))
        if entry == -2:
            chain += chain[:1]
        n = len(chain)
        if n_out + n > n_pixels:
            chain = chain[: n_pixels - n_out]
            n = len(chain)
        out[n_out : n_out + n] = np.frombuffer(chain, dtype=np.uint8)
        n_out += n
        if next_code < max_entries:
            # new entry = prev's chain + first byte of the current chain
            prefix[next_code] = prev
            first[next_code] = first[prev]
            last[next_code] = chain[0]
            next_code += 1
            if next_code == (1 << code_size) and code_size < 12:
                code_size += 1
        prev = code
        if n_out >= n_pixels:
            break
    if n_out < n_pixels:
        raise ValueError("gif: truncated LZW stream")
    return out


def _gif_subblocks(payload: bytes, pos: int) -> tuple[bytes, int]:
    parts = []
    while True:
        n = payload[pos]
        pos += 1
        if n == 0:
            break
        parts.append(payload[pos : pos + n])
        pos += n
    return b"".join(parts), pos


_GIF_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def gif_frame_indices(payload: bytes):
    """GIF bytes → yields (index array (h, w) uint8, palette (n, 3)
    uint8) per frame.  Frames are raw (no disposal compositing)."""
    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("gif: bad signature")
    sw = int.from_bytes(payload[6:8], "little")
    sh = int.from_bytes(payload[8:10], "little")
    flags = payload[10]
    pos = 13
    gpal = None
    if flags & 0x80:
        n = 2 << (flags & 0x07)
        gpal = np.frombuffer(payload[pos : pos + 3 * n], dtype=np.uint8).reshape(-1, 3)
        pos += 3 * n
    while pos < len(payload):
        b0 = payload[pos]
        if b0 == 0x3B:  # trailer
            return
        if b0 == 0x21:  # extension: label + subblocks
            pos += 2
            _, pos = _gif_subblocks(payload, pos)
            continue
        if b0 != 0x2C:
            raise ValueError(f"gif: unexpected block 0x{b0:02x}")
        w = int.from_bytes(payload[pos + 5 : pos + 7], "little")
        h = int.from_bytes(payload[pos + 7 : pos + 9], "little")
        iflags = payload[pos + 9]
        pos += 10
        pal = gpal
        if iflags & 0x80:
            n = 2 << (iflags & 0x07)
            pal = np.frombuffer(
                payload[pos : pos + 3 * n], dtype=np.uint8
            ).reshape(-1, 3)
            pos += 3 * n
        if pal is None:
            raise ValueError("gif: no palette")
        min_code = payload[pos]
        pos += 1
        data, pos = _gif_subblocks(payload, pos)
        idx = _lzw_decode(data, min_code, w * h).reshape(h, w)
        if iflags & 0x40:  # interlaced
            out = np.empty_like(idx)
            src = 0
            for start, step in _GIF_INTERLACE_PASSES:
                rows = range(start, h, step)
                for r in rows:
                    out[r] = idx[src]
                    src += 1
            idx = out
        yield idx, pal
    _ = (sw, sh)


def decode_gif(payload: bytes) -> np.ndarray:
    """GIF bytes → first frame as (h, w, 3) uint8 RGB."""
    for idx, pal in gif_frame_indices(payload):
        return pal[np.minimum(idx, len(pal) - 1)]
    raise ValueError("gif: no image data")


def encode_gif(indices: np.ndarray, palette: np.ndarray) -> bytes:
    """(h, w) uint8 index array + (n, 3) uint8 palette → GIF87a bytes
    (real LZW compression, non-interlaced, single frame,
    deterministic)."""
    h, w = indices.shape
    n_pal = len(palette)
    bits = max(2, int(n_pal - 1).bit_length())
    pal_n = 1 << bits
    pal = np.zeros((pal_n, 3), dtype=np.uint8)
    pal[:n_pal] = palette
    out = bytearray(b"GIF87a")
    out += w.to_bytes(2, "little") + h.to_bytes(2, "little")
    out.append(0x80 | ((bits - 1) << 4) | (bits - 1))
    out += b"\x00\x00"
    out += pal.tobytes()
    out += b"\x2c" + bytes(4) + w.to_bytes(2, "little") + h.to_bytes(2, "little") + b"\x00"
    min_code = bits
    out.append(min_code)
    clear = 1 << min_code
    eoi = clear + 1
    # LZW encode with dict of tuples
    table: dict[bytes, int] = {bytes([i]): i for i in range(clear)}
    next_code = clear + 2
    code_size = min_code + 1
    acc = 0
    nbits = 0
    body = bytearray()

    def emit(code: int):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += code_size
        while nbits >= 8:
            body.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    emit(clear)
    seq = indices.reshape(-1).astype(np.uint8).tobytes()
    cur = b""
    for i in range(len(seq)):
        nxt = cur + seq[i : i + 1]
        if nxt in table:
            cur = nxt
            continue
        emit(table[cur])
        if next_code < 4096:
            table[nxt] = next_code
            if next_code == (1 << code_size) and code_size < 12:
                code_size += 1
            next_code += 1
        else:
            emit(clear)
            table = {bytes([j]): j for j in range(clear)}
            next_code = clear + 2
            code_size = min_code + 1
        cur = seq[i : i + 1]
    if cur:
        emit(table[cur])
    emit(eoi)
    if nbits:
        body.append(acc & 0xFF)
    for k in range(0, len(body), 255):
        blk = body[k : k + 255]
        out.append(len(blk))
        out += blk
    out += b"\x00\x3b"
    return bytes(out)


def synth_family_gif(family: int, *, width: int = 9, height: int = 7) -> bytes:
    """Planted-truth GIF for the GIF-codec dedup oracle: palette color i
    is (31i, 57i, 11i) mod 256 and pixel (x, y) holds index
    ``(family*5 + x*3 + y*7) %% 16`` — lossless, so the SQL oracle
    replays the exact pixels (DIFFERENT constants from the BMP/PNG/JPEG
    families, keeping the four oracles independent)."""
    x = np.arange(width)[None, :]
    y = np.arange(height)[:, None]
    idx = ((family * 5 + x * 3 + y * 7) % 16).astype(np.uint8)
    i = np.arange(16)
    pal = np.stack(
        [(i * 31) % 256, (i * 57) % 256, (i * 11) % 256], axis=1
    ).astype(np.uint8)
    return encode_gif(idx, pal)


def sniff_image_format(payload: bytes) -> str:
    """Header sniff shared with :func:`decode_image`: 'bmp', 'png',
    'jpeg', 'gif', 'pnm', or 'unknown'."""
    if payload[:2] == b"BM":
        return "bmp"
    if payload[:8] == _PNG_SIG:
        return "png"
    if payload[:2] == b"\xff\xd8":
        return "jpeg"
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        return "gif"
    if payload[:2] in (b"P2", b"P3", b"P5", b"P6"):
        return "pnm"
    return "unknown"


def media_sniff_stats(sf_dir: str):
    """documents → (format, n_media, n_pixels): one pipeline through ALL
    five real codecs — each document gets a payload in the container
    chosen by ``doc_id %% 5``, the stage sniffs the format, decodes it
    genuinely, and aggregates per-format counts and decoded pixel
    totals.  The media-inventory table a curation run prints before
    deciding per-format budgets.

    Shape: per-batch partial counts (≤ 5 rows per block) → one tiny Sum
    groupby.  Decoded dimensions come from the REAL decode, so a codec
    that mis-parses dimensions fails the oracle, not just a unit test.
    """
    import ray.data
    from ray.data.aggregate import Sum

    def synth_ppm(family: int) -> bytes:
        x = np.arange(9)[None, :]
        y = np.arange(7)[:, None]
        r = (family * 3 + x * 11 + y * 2) % 256
        img = np.stack(np.broadcast_arrays(r, (r * 2) % 256, (r * 5) % 256), axis=-1)
        return encode_ppm(img.astype(np.uint8))

    encoders = [
        synth_family_bmp,
        synth_family_png,
        synth_family_jpeg,
        synth_family_gif,
        synth_ppm,
    ]

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        acc: dict[str, list[int]] = {}
        for d in ids:
            payload = encoders[int(d) % 5](int(d) % 37)
            fmt = sniff_image_format(payload)
            img = decode_image(payload)
            a = acc.setdefault(fmt, [0, 0])
            a[0] += 1
            a[1] += int(img.shape[0]) * int(img.shape[1])
        keys = sorted(acc)
        return pa.table(
            {
                "format": pa.array(keys, pa.string()),
                "n": pa.array([acc[k][0] for k in keys], pa.int64()),
                "px": pa.array([acc[k][1] for k in keys], pa.int64()),
            }
        )

    from .combine import combine_sum_by

    # a handful of media formats: one merge task beats the sort exchange
    return combine_sum_by(
        ds.map_batches(partial, batch_format="pyarrow"), ["format"], ["n", "px"]
    ).map_batches(
        lambda b: pa.table(
            {
                "format": b.column("format"),
                "n_media": b.column("n").cast(pa.int64()),
                "n_pixels": b.column("px").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
