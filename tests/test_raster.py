import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspect import (BinaryImage, GrayImage, GrayscaleCoefficients, ParameterError,
                      PnmDecodeError, RgbImage, ShapeError, decode_image, encode_pgm,
                      to_grayscale)
from finspect import raster


class TestDecode:
    def test_p2_with_comments(self):
        raw = b"P2\n# made by hand\n3 2 # dims\n255\n0 128 255\n64 32 16\n"
        img = decode_image(raw)
        assert isinstance(img, GrayImage)
        assert img.pixels.shape == (2, 3)
        assert img.pixels[0, 2] == 1.0
        assert img.pixels[0, 1] == pytest.approx(128 / 255)

    def test_p5_binary(self):
        raw = b"P5 3 2 255\n" + bytes([0, 128, 255, 64, 32, 16])
        img = decode_image(raw)
        assert img.pixels.shape == (2, 3)
        assert img.pixels[1, 0] == pytest.approx(64 / 255)

    def test_p3_and_p6_agree(self):
        samples = [10, 20, 30, 40, 50, 60]
        ascii_raw = b"P3 2 1 255 " + b" ".join(str(s).encode() for s in samples)
        bin_raw = b"P6 2 1 255\n" + bytes(samples)
        a, b = decode_image(ascii_raw), decode_image(bin_raw)
        assert isinstance(a, RgbImage) and isinstance(b, RgbImage)
        assert np.array_equal(a.pixels, b.pixels)

    @pytest.mark.parametrize("data", ["P2 1 1 255 0", None, [80, 50]], ids=["str", "none", "list"])
    def test_input_must_be_bytes(self, data):
        with pytest.raises(PnmDecodeError, match="input must be bytes") as e:
            decode_image(data)
        assert e.value.offset == 0

    def test_bad_magic_offset(self):
        with pytest.raises(PnmDecodeError) as e:
            decode_image(b"P7 1 1 255 0")
        assert e.value.offset == 0
        assert "byte 0" in str(e.value)

    def test_maxval_must_be_255(self):
        raw = b"P2 2 1 65535 0 1"
        with pytest.raises(PnmDecodeError) as e:
            decode_image(raw)
        assert e.value.offset == raw.index(b"65535")

    def test_truncated_body_names_end(self):
        raw = b"P2 2 2 255 0 1 2"
        with pytest.raises(PnmDecodeError) as e:
            decode_image(raw)
        assert e.value.offset == len(raw)

    def test_truncated_binary_payload(self):
        raw = b"P5 4 4 255\n" + bytes(7)
        with pytest.raises(PnmDecodeError):
            decode_image(raw)

    def test_sample_out_of_range_names_token(self):
        raw = b"P2 2 1 255 0 300"
        with pytest.raises(PnmDecodeError) as e:
            decode_image(raw)
        assert e.value.offset == raw.index(b"300")

    def test_nonnumeric_header(self):
        with pytest.raises(PnmDecodeError):
            decode_image(b"P2 x 1 255 0")

    @pytest.mark.parametrize("raw, token", [
        (b"P2 2 1 255 +3 1", b"+3"),
        (b"P2 2 1 255 3 1_0", b"1_0"),
        (b"P2 2 1 255 -0 1", b"-0"),
        (b"P2 1_0 1 255 0 1 2 3 4 5 6 7 8 9", b"1_0"),
        (b"P2 2 +1 255 0 1", b"+1"),
        (b"P2 2 1 +255 0 1", b"+255"),
    ], ids=["sample-plus", "sample-underscore", "sample-minus-zero", "width-underscore",
            "height-plus", "maxval-plus"])
    def test_integers_are_ascii_digits(self, raw, token):
        # int() alone would read these as 3, 10, 0, 10, 1 and 255
        with pytest.raises(PnmDecodeError) as e:
            decode_image(raw)
        assert e.value.offset == raw.index(token)

    @pytest.mark.parametrize("raw, offset, message", [
        (b"P5 0 2 255\n", 3, "width must be positive"),
        (b"P2 2 0 255 ", 5, "height must be positive"),
        (b"P5 1 1 255", 10, "missing whitespace before binary payload"),
    ], ids=["width-zero", "height-zero", "p5-no-whitespace-before-payload"])
    def test_header_error_names_its_offset(self, raw, offset, message):
        with pytest.raises(PnmDecodeError, match=message) as e:
            decode_image(raw)
        assert e.value.offset == offset

    def test_comment_requires_header_position(self):
        # comments are a header feature; the P2 body is bare samples
        with pytest.raises(PnmDecodeError):
            decode_image(b"P2 1 2 255 0 # nope\n1")


def decode_token_by_token(raw: bytes, count: int):
    """Samples or (PnmDecodeError message, offset) from the per-token reference reader."""
    pos = raw.index(b"255") + 3
    try:
        return raster._ascii_samples_by_token(raw, pos, count).tolist()
    except PnmDecodeError as exc:
        return str(exc), exc.offset


class TestAsciiPayload:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_pgm_roundtrip_bit_identical(self, height, width, data):
        levels = data.draw(st.lists(st.integers(0, 255), min_size=height * width,
                                    max_size=height * width))
        img = GrayImage(np.array(levels, dtype=np.uint8).reshape(height, width))
        back = decode_image(encode_pgm(img))
        assert np.array_equal(back.pixels, img.pixels)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.lists(st.sampled_from(
        [b"0", b"7", b"42", b"255", b"256", b"007", b"0007", b"1000", b"99999999999999999999",
         b"+1", b"#", b"a", b"\x85", b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
        max_size=12))
    def test_matches_token_by_token_reader(self, count, pieces):
        # same samples, or the same error at the same offset, on any payload
        raw = f"P2 {count} 1 255".encode() + b" " + b"".join(pieces)
        expected = decode_token_by_token(raw, count)
        try:
            got = (decode_image(raw).pixels.ravel() * 255.0).round().astype(int).tolist()
        except PnmDecodeError as exc:
            got = str(exc), exc.offset
        assert got == expected

    def test_long_payloads_match_token_by_token_reader(self, rng, monkeypatch):
        # tokens of 1-3 digits, leading zeros included, between runs of mixed
        # whitespace; a quarter of the payloads each carry 256, 1000 or 0007,
        # and payloads end early or run on past the header's count
        walked = []
        walker = raster._ascii_samples_by_token
        monkeypatch.setattr(raster, "_ascii_samples_by_token",
                            lambda *args: walked.append(1) or walker(*args))
        spaces = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
        fast = 0
        for trial in range(200):
            count = int(rng.integers(1, 200))
            tokens = [str(v).zfill(int(rng.integers(1, 4))).encode()
                      for v in rng.integers(0, 256, count + int(rng.integers(-2, 4)))]
            if trial % 4 and tokens:
                tokens[int(rng.integers(len(tokens)))] = [b"256", b"1000", b"0007"][trial % 4 - 1]
            gaps = [b"".join(rng.choice(spaces, int(rng.integers(1, 4)))) for _ in tokens]
            raw = f"P2 {count} 1 255".encode() + b"".join(g + t for g, t in zip(gaps, tokens))
            expected = decode_token_by_token(raw, count)
            walked.clear()
            try:
                got = (decode_image(raw).pixels.ravel() * 255.0).round().astype(int).tolist()
            except PnmDecodeError as exc:
                got = str(exc), exc.offset
            assert got == expected
            fast += not walked
        assert fast >= 20  # the one-pass parse decided a share of the payloads itself

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_truncated_pgm_names_end(self, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.integers(0, 256, (rng.integers(1, 8), rng.integers(1, 8)), np.uint8))
        raw = encode_pgm(img).rstrip()
        cut = raw[:max(raw.rindex(b" "), raw.rindex(b"\n"))]  # drop the last sample
        with pytest.raises(PnmDecodeError, match="truncated") as e:
            decode_image(cut)
        assert e.value.offset == len(cut)


class TestEncode:
    def test_p2_format_and_rounding(self):
        img = GrayImage.from_pixels(np.array([[0.0, 1.0, 0.5]]))
        raw = encode_pgm(img)
        assert raw.startswith(b"P2")
        tokens = raw.split()
        assert tokens[1:4] == [b"3", b"1", b"255"]
        assert tokens[4:] == [b"0", b"255", b"128"]  # floor(f*255 + 0.5)

    def test_roundtrip_error_bound(self, rng):
        img = GrayImage.from_pixels(rng.random((13, 9)))
        back = decode_image(encode_pgm(img))
        assert np.abs(back.pixels - img.pixels).max() <= 1 / 510 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage.from_pixels(rng.random((rng.integers(1, 8), rng.integers(1, 8))))
        once = decode_image(encode_pgm(img))
        twice = decode_image(encode_pgm(once))
        assert np.array_equal(once.pixels, twice.pixels)


def encode_pgm_per_sample(img: GrayImage) -> bytes:
    """The encoder before its lookup table: one ``str(int(s))`` per sample."""
    samples = raster.gray_levels(img.pixels).ravel()
    lines = [b"P2", f"{img.width} {img.height}".encode(), b"255"]
    for i in range(0, samples.size, 17):
        lines.append(" ".join(str(int(s)) for s in samples[i : i + 17]).encode())
    return b"\n".join(lines) + b"\n"


class TestEncodeMatchesPerSampleOracle:
    def test_all_256_levels(self):
        levels = np.arange(256, dtype=np.float64) / 255.0
        for shape in ((16, 16), (1, 256), (256, 1)):
            img = GrayImage.from_pixels(levels.reshape(shape))
            raw = encode_pgm(img)
            assert raw == encode_pgm_per_sample(img)
            assert np.array_equal(decode_image(raw).pixels, img.pixels)

    def test_one_pixel(self):
        for value in (0.0, 0.5, 1.0):
            img = GrayImage.from_pixels(np.array([[value]]))
            assert encode_pgm(img) == encode_pgm_per_sample(img)

    @pytest.mark.parametrize("h, w", [(1, 16), (1, 18), (2, 9), (3, 7), (5, 13), (96, 95)])
    def test_sizes_off_the_line_length(self, rng, h, w):
        assert (h * w) % 17 != 0
        img = GrayImage.from_pixels(rng.random((h, w)))
        raw = encode_pgm(img)
        assert raw == encode_pgm_per_sample(img)
        back = decode_image(raw)
        assert np.array_equal(back.pixels, raster.gray_levels(img.pixels) / 255.0)


class TestGrayscale:
    def test_defaults_luma(self):
        px = np.zeros((1, 1, 3), dtype=np.uint8)
        px[0, 0] = (255, 0, 0)
        g = to_grayscale(RgbImage(px))
        assert g.levels[0, 0] == round(0.299 * 255) == 76
        assert g.pixels[0, 0] == 76 / 255

    def test_coefficients_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            to_grayscale(RgbImage(np.zeros((1, 1, 3), np.uint8)),
                         GrayscaleCoefficients(0.5, 0.5, 0.5))

    def test_output_clipped(self):
        px = np.full((1, 1, 3), 255, dtype=np.uint8)
        g = to_grayscale(RgbImage(px))
        assert g.pixels.max() <= 1.0


class TestLevels:
    @pytest.mark.parametrize("magic", [b"P5", b"P2"])
    def test_decoded_pgm_keeps_its_samples(self, magic):
        samples = np.random.default_rng(4).integers(0, 256, (6, 9), dtype=np.uint8)
        samples[0, :2] = (0, 255)
        payload = (samples.tobytes() if magic == b"P5"
                   else " ".join(map(str, samples.ravel().tolist())).encode())
        img = decode_image(magic + b"\n9 6\n255\n" + payload)
        assert img.levels.dtype == np.uint8 and np.array_equal(img.levels, samples)
        assert "pixels" not in vars(img)  # decoding builds no float canvas
        assert np.array_equal(img.pixels, img.levels / 255)  # exactly, not approximately
        with pytest.raises(ValueError):
            img.levels[0, 0] = 1

    def test_levels_are_the_only_field(self):
        assert [f.name for f in dataclasses.fields(GrayImage)] == ["levels"]

    def test_built_from_pixels_rounds_them_once(self):
        px = np.random.default_rng(5).random((6, 9))
        img = GrayImage.from_pixels(px)
        assert img.levels.dtype == np.uint8
        assert np.array_equal(img.levels, raster.gray_levels(px))
        assert np.array_equal(img.pixels, img.levels / 255)
        assert img.pixels is img.pixels  # computed on the first read only
        with pytest.raises(ValueError):
            img.levels[0, 0] = 1

    def test_gray_levels_is_floor_of_scaled_plus_half(self, rng):
        # every level, the half-way points between levels and the ulps around both
        points = np.concatenate([np.arange(256), np.arange(255) + 0.5]) / 255.0
        g = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                            rng.random(1000)])
        assert np.array_equal(raster.gray_levels(g), np.floor(g * 255.0 + 0.5).astype(np.uint8))

    def test_pixels_are_each_levels_intensity(self):
        levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert np.array_equal(GrayImage(levels).pixels.ravel(), raster._LEVEL_VALUES)

    @pytest.mark.parametrize("levels", [np.zeros((2, 2)), np.zeros(4, np.uint8),
                                        np.zeros((0, 2), np.uint8), [[0, 1]]],
                             ids=["float", "1-d", "empty", "list"])
    def test_takes_a_2d_uint8_array(self, levels):
        with pytest.raises(ShapeError, match="non-empty 2-D uint8 array"):
            GrayImage(levels)


class TestContainers:
    def test_gray_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            GrayImage.from_pixels(np.array([[1.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_gray_rejects_non_finite_intensities(self, bad):
        with pytest.raises(ShapeError, match="GrayImage intensities must be finite"):
            GrayImage.from_pixels(np.array([[0.5, bad]]))

    def test_gray_rejects_empty(self):
        with pytest.raises(ShapeError):
            GrayImage.from_pixels(np.empty((0, 3)))

    def test_pixels_frozen(self):
        img = GrayImage.from_pixels(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 4), (0, 2, 3)],
                             ids=["2-d", "4-channel", "empty"])
    def test_rgb_needs_a_non_empty_three_channel_grid(self, shape):
        with pytest.raises(ShapeError, match="RgbImage requires a non-empty \\(h, w, 3\\) array"):
            RgbImage(np.zeros(shape, np.uint8))

    def test_rgb_rejects_channels_out_of_range(self):
        with pytest.raises(ShapeError, match="RgbImage channels must lie in"):
            RgbImage(np.full((1, 1, 3), 256))

    def test_rgb_rounds_channels_to_the_nearest_level(self):
        px = np.array([[[12.7, 12.5, 12.49], [0.4, 254.5, 255.0]]])
        assert RgbImage(px).pixels.tolist() == [[[13, 13, 12], [0, 255, 255]]]
        # decoded samples are integers and stay as they are
        decoded = decode_image(b"P6 256 1 255\n" + bytes(range(256)) * 3)
        assert decoded.pixels.ravel().tolist() == list(range(256)) * 3

    @pytest.mark.parametrize("nan_channels", [[0, 1, 2], [1]], ids=["all", "one"])
    def test_rgb_rejects_nan_channels(self, nan_channels):
        px = np.full((2, 2, 3), 7.0)
        px[1, 0, nan_channels] = np.nan
        # a NaN that reached the uint8 cast would warn, an error under this suite's settings
        with pytest.raises(ShapeError, match="RgbImage channels must lie in"):
            RgbImage(px)

    @pytest.mark.parametrize("shape", [(4,), (1, 2, 2), (0, 3)], ids=["1-d", "3-d", "empty"])
    def test_binary_needs_a_non_empty_2d_array(self, shape):
        with pytest.raises(ShapeError, match="BinaryImage requires a non-empty 2-D array"):
            BinaryImage(np.zeros(shape, np.uint8))

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_binary_rejects_values_other_than_0_and_1(self, bad):
        with pytest.raises(ShapeError):
            BinaryImage(np.array([[0.0, 1.0], [bad, 0.0]]))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
    def test_binary_accepts_0_and_1_of_any_dtype(self, dtype):
        bits = BinaryImage(np.array([[0, 1], [1, 0]], dtype=dtype)).bits
        assert bits.dtype == np.uint8 and bits.tolist() == [[0, 1], [1, 0]]
