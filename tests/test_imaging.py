"""Netpbm IO golden tests and the distortion bank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempqt import imaging
from tempqt.errors import ArgumentError, ParseError
from tempqt.imaging import (
    DISTORTION_KINDS,
    SEVERITIES,
    DistortionSpec,
    GrayImage,
    apply_distortion,
    load_image,
    pseudo_mos,
    quantize_to_8bit,
    save_image,
)


def write(tmp_path, name, data: bytes):
    p = tmp_path / name
    p.write_bytes(data)
    return p


# ---------------------------------------------------------------------------
# decoding


def test_p5_golden(tmp_path):
    p = write(tmp_path, "a.pgm", b"P5\n2 2\n255\n" + bytes([0, 128, 64, 255]))
    img = load_image(p)
    assert (img.height, img.width) == (2, 2)
    assert np.allclose(img.pixels, np.array([[0, 128], [64, 255]]) / 255.0, atol=1e-7)


def test_p2_ascii_with_comments(tmp_path):
    text = b"P2 # ascii gray\n# a comment line\n3 1\n255\n0 127 255\n"
    img = load_image(write(tmp_path, "a.pgm", text))
    assert img.pixels.shape == (1, 3)
    assert np.allclose(img.pixels, [[0.0, 127 / 255.0, 1.0]], atol=1e-7)


def test_p6_luma_reduction(tmp_path):
    # one red, one green, one blue pixel; Rec.601 weights
    raster = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])
    img = load_image(write(tmp_path, "a.ppm", b"P6\n3 1\n255\n" + raster))
    assert np.allclose(img.pixels, [[0.299, 0.587, 0.114]], atol=1e-7)


def test_p3_ascii_color(tmp_path):
    img = load_image(write(tmp_path, "a.ppm", b"P3\n1 1\n255\n255 255 255\n"))
    assert img.pixels[0, 0] == pytest.approx(1.0)


def test_maxval_65535_big_endian(tmp_path):
    raster = (65535).to_bytes(2, "big") + (0).to_bytes(2, "big")
    img = load_image(write(tmp_path, "a.pgm", b"P5\n2 1\n65535\n" + raster))
    assert np.allclose(img.pixels, [[1.0, 0.0]])


# file bytes -> (ParseError message, byte offset); the message as the
# parser words it, before load_image puts the path in front
MALFORMED = {
    b"P7\n1 1\n255\n\x00": ("unsupported magic b'P7'", 0),
    b"P5\n0 1\n255\n": ("width must be positive", 3),
    b"P5\n1 1\n254\n\x00": ("unsupported maxval 254 (expected 255 or 65535)", 7),
    b"P5\n2 2\n255\n\x00\x00": ("truncated raster: need 4 bytes, file has 2", 13),
    b"P2\n1 1\n255\n999\n": ("sample 999 exceeds maxval 255", 11),
    b"P2\n1 1\n255\n": ("truncated raster: 1 samples need at least 1 bytes, file has 0", 11),
    b"P5\nx 1\n255\n\x00": ("expected an integer for width, got b'x'", 3),
    b"P5\n1 1\n255#c\n\x00": ("expected a whitespace byte after maxval", 10),
    b"P5\n1 1 # no end": ("unexpected end of file while reading maxval", 15),
    b"P2\n1 1\n255\n+1\n": ("expected an integer for sample value, got b'+1'", 11),
    b"P2\n2 1\n255\n7 x\n": ("expected an integer for sample value, got b'x'", 13),
    b"P3\n1 1\n255\n1 2\n": ("truncated raster: 3 samples need at least 5 bytes, file has 4", 15),
    # enough bytes for two samples, but only one token
    b"P2\n2 1\n255\n7  \n": ("unexpected end of file while reading sample value", 15),
    # filler before the magic number
    b" #c\n P5\n1 1\n255\n\x00": ("the magic number must start the file", 0),
    # a plain file holds one image: nothing but filler after its last sample
    b"P2\n1 1\n255\n1 2 x junk": ("extra data after the last sample", 13),
}


@pytest.mark.parametrize("data", list(MALFORMED))
def test_malformed_files_raise(tmp_path, data):
    path = write(tmp_path, "bad.pgm", data)
    with pytest.raises(ParseError) as info:
        load_image(path)
    message, offset = MALFORMED[data]
    assert (info.value.message, info.value.offset) == (f"{path}: {message}", offset)


def test_parse_error_names_the_file_and_keeps_the_offset(tmp_path):
    path = write(tmp_path, "short.pgm", b"P5\n2 2\n255\n\x00\x00")
    with pytest.raises(ParseError) as info:
        load_image(path)
    err = info.value
    assert err.offset == 13  # the end of the file
    assert err.message == f"{path}: truncated raster: need 4 bytes, file has 2"
    assert str(err) == f"{err.message} (byte offset 13)"


def test_ascii_header_larger_than_file_raises_before_allocating(tmp_path):
    # 10^18 samples would take exbibytes; a 33-byte file cannot hold them
    data = b"P2\n1000000000 1000000000\n255\n0 1\n"
    with pytest.raises(ParseError, match="truncated raster"):
        load_image(write(tmp_path, "huge.pgm", data))


def test_ascii_raster_of_exactly_one_byte_per_sample_and_separator(tmp_path):
    img = load_image(write(tmp_path, "a.pgm", b"P2\n3 1\n255\n1 2 3"))
    assert np.allclose(img.pixels, [[1 / 255.0, 2 / 255.0, 3 / 255.0]], atol=1e-7)


@pytest.mark.parametrize(
    "data",
    [
        b"P2\n2 1\n255\n1#x\n2",  # a comment ends a raster token
        b"P2\r2\x0b1\x0c255\r1\x0b2",  # CR, VT and FF separate tokens
    ],
)
def test_comments_and_every_whitespace_byte_separate_tokens(tmp_path, data):
    img = load_image(write(tmp_path, "a.pgm", data))
    assert np.array_equal(img.pixels, np.array([[1, 2]], dtype=np.float32) / np.float32(255))


WHITESPACE_BYTES = [bytes([b]) for b in b" \t\n\r\x0b\x0c"]


@st.composite
def filler(draw):
    """A non-empty run of whitespace bytes and ``#`` comments; a comment runs to its newline."""
    comment = st.binary(max_size=4).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n")
    pieces = st.one_of(st.sampled_from(WHITESPACE_BYTES), comment)
    return b"".join(draw(st.lists(pieces, min_size=1, max_size=3)))


@st.composite
def netpbm_files(draw):
    """A valid P2/P3/P5/P6 file of at most 8x8, its magic, maxval and samples."""
    magic = draw(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]))
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    maxval = draw(st.sampled_from([255, 65535]))
    count = width * height * (3 if magic in (b"P3", b"P6") else 1)
    samples = draw(st.lists(st.integers(0, maxval), min_size=count, max_size=count))
    data = magic
    for value in (width, height, maxval):
        data += draw(filler()) + str(value).encode()
    if magic in (b"P5", b"P6"):
        dtype = ">u2" if maxval == 65535 else np.uint8
        data += draw(st.sampled_from(WHITESPACE_BYTES)) + np.array(samples, dtype=dtype).tobytes()
    else:
        for value in samples:
            data += draw(filler()) + str(value).encode()
        data += draw(st.one_of(st.just(b""), filler()))
    return data, magic, width, height, maxval, samples


@settings(max_examples=60, deadline=None)
@given(netpbm_files())
def test_valid_files_with_any_filler_read_exactly(tmp_path_factory, case):
    data, magic, width, height, maxval, samples = case
    path = tmp_path_factory.mktemp("pnm") / "a.pnm"
    path.write_bytes(data)
    scaled = np.array(samples, dtype=np.float64) / float(maxval)
    if magic in (b"P3", b"P6"):
        rgb = scaled.reshape(height, width, 3)
        scaled = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    expected = np.clip(scaled.reshape(height, width), 0.0, 1.0).astype(np.float32)
    assert np.array_equal(load_image(path).pixels, expected)


def test_save_golden_and_round_trip(tmp_path):
    img = GrayImage(1, 2, np.array([[0.0, 1.0]], dtype=np.float32))
    path = tmp_path / "out.pgm"
    save_image(img, path)
    assert path.read_bytes() == b"P5\n2 1\n255\n\x00\xff"
    back = load_image(path)
    assert np.array_equal(back.pixels, img.pixels)


def test_quantize_matches_save_load(tmp_path):
    rng = np.random.default_rng(0)
    img = GrayImage.from_array(rng.random((9, 7), dtype=np.float64).astype(np.float32))
    path = tmp_path / "q.pgm"
    save_image(img, path)
    assert np.array_equal(load_image(path).pixels, quantize_to_8bit(img).pixels)


def test_gray_image_validation():
    with pytest.raises(ArgumentError):
        GrayImage(2, 2, np.zeros((2, 3)))
    with pytest.raises(ArgumentError):
        GrayImage(1, 2, np.array([[0.0, 1.5]]))
    with pytest.raises(ArgumentError):
        GrayImage(1, 1, np.array([[np.nan]]))


# ---------------------------------------------------------------------------
# distortions


def ramp_image(n=32):
    g = np.linspace(0.0, 1.0, n * n, dtype=np.float32).reshape(n, n)
    return GrayImage(n, n, g)


def test_spec_validation():
    with pytest.raises(ArgumentError):
        DistortionSpec("salt_pepper", 1)
    with pytest.raises(ArgumentError):
        DistortionSpec("white_noise", 6)
    with pytest.raises(ArgumentError):
        DistortionSpec("white_noise", 2.5)


def test_pseudo_mos_ladder():
    vals = [pseudo_mos(DistortionSpec("gaussian_blur", s)) for s in SEVERITIES]
    assert vals == pytest.approx([0.82, 0.64, 0.46, 0.28, 0.10])


@pytest.mark.parametrize("kind", DISTORTION_KINDS)
def test_spec_rejects_severity_zero(kind):
    # a base's undistorted image is its pristine sample, so there is no severity 0
    with pytest.raises(ArgumentError, match=r"severity must be an integer in 1\.\.5, got 0"):
        DistortionSpec(kind, 0, seed=3)


def test_distortion_kinds_are_the_family_table():
    assert DISTORTION_KINDS == tuple(imaging._FAMILIES) == ("gaussian_blur", "white_noise", "block_quantize")
    assert SEVERITIES == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("kind", DISTORTION_KINDS)
def test_distortions_deterministic(kind):
    img = ramp_image()
    spec = DistortionSpec(kind, 3, seed=11)
    a = apply_distortion(img, spec)
    b = apply_distortion(img, spec)
    assert np.array_equal(a.pixels, b.pixels)


def test_noise_seed_changes_output():
    img = ramp_image()
    a = apply_distortion(img, DistortionSpec("white_noise", 3, seed=1))
    b = apply_distortion(img, DistortionSpec("white_noise", 3, seed=2))
    assert not np.array_equal(a.pixels, b.pixels)


def test_blur_reduces_variance_monotonically():
    rng = np.random.default_rng(5)
    img = GrayImage.from_array(rng.random((32, 32)).astype(np.float32))
    variances = [float(img.pixels.var())] + [
        float(apply_distortion(img, DistortionSpec("gaussian_blur", s)).pixels.var())
        for s in SEVERITIES
    ]
    assert all(variances[i + 1] < variances[i] for i in range(5))


def test_noise_error_grows_with_severity():
    img = ramp_image()
    # the clean image's error, 0, is the baseline
    errs = [0.0] + [
        float(
            np.abs(
                apply_distortion(img, DistortionSpec("white_noise", s, seed=4)).pixels
                - img.pixels
            ).mean()
        )
        for s in SEVERITIES
    ]
    assert all(errs[i + 1] > errs[i] for i in range(5))


def test_quantize_reduces_level_count():
    img = ramp_image()
    levels = [
        np.unique(apply_distortion(img, DistortionSpec("block_quantize", s)).pixels).size
        for s in (1, 3, 5)
    ]
    assert levels[0] > levels[1] > levels[2]


def reference_block_quantize(img: GrayImage, severity: int, seed: int) -> np.ndarray:
    # the per-block loop that block_quantize once ran; its bytes are the reference
    levels = 2 ** (7 - severity)
    step = 1.0 / levels
    p = img.pixels.astype(np.float64)
    out = np.empty_like(p)
    # Quantize deviations from each 8x8 block's mean so a fully flattened
    # block settles exactly at its original average.
    for top in range(0, img.height, 8):
        for left in range(0, img.width, 8):
            block = p[top : top + 8, left : left + 8]
            m = block.mean()
            out[top : top + 8, left : left + 8] = m + np.rint((block - m) / step) * step
    return np.clip(out, 0.0, 1.0).astype(np.float32)


@pytest.mark.parametrize("content", ["random", "texture"])
@pytest.mark.parametrize("size", [(1, 1), (5, 3), (8, 8), (13, 21), (64, 64), (96, 100)])
def test_block_quantize_matches_the_per_block_loop(size, content):
    # exact bytes, so every synthesized dataset keeps its digest
    h, w = size
    if content == "random":
        img = GrayImage.from_array(np.random.default_rng(h * 1000 + w).random((h, w)))
    else:
        img = imaging.make_texture(h, w, seed=h * 1000 + w)
    img = quantize_to_8bit(img)
    for s in SEVERITIES:
        got = apply_distortion(img, DistortionSpec("block_quantize", s)).pixels
        assert np.array_equal(got, reference_block_quantize(img, s, 0)), f"severity {s}"


def test_block_quantize_flattens_low_contrast_blocks_to_their_mean():
    # deviations under half of severity 5's 0.25 step round to zero, so
    # each block, the ragged edge blocks included, is float32(its mean)
    rng = np.random.default_rng(2)
    h, w = 19, 21
    img = quantize_to_8bit(GrayImage.from_array(0.45 + 0.1 * rng.random((h, w))))
    out = apply_distortion(img, DistortionSpec("block_quantize", 5)).pixels
    p = img.pixels.astype(np.float64)
    for top in range(0, h, 8):
        for left in range(0, w, 8):
            block = p[top : top + 8, left : left + 8]
            assert np.abs(block - block.mean()).max() < 0.125
            assert np.all(out[top : top + 8, left : left + 8] == np.float32(block.mean()))


def test_outputs_stay_in_range():
    img = ramp_image()
    for kind in DISTORTION_KINDS:
        for sev in (1, 5):
            out = apply_distortion(img, DistortionSpec(kind, sev, seed=9)).pixels
            assert out.min() >= 0.0 and out.max() <= 1.0
