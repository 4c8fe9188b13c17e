"""Mixed-scale views (downsample and quadrants), patch round-trips, mask sampling, and the PPM codec."""

import numpy as np
import pytest

from sydes.errors import ContractError, DataError, ShapeError
from sydes.imaging import (ImageConfig, MaskSpec, downsample, keep_count, patchify, quadrants,
                           sample_mask, select_unmasked, tile_quadrants, unpatchify)
from sydes.ppm import read_ppm, write_ppm
from sydes.tensor import RngState

DESK = ImageConfig()  # 64/32/8


def random_image(seed, size):
    return RngState(seed, "img").uniform((size, size, 3))


class TestImageConfig:
    def test_desk_patch_count(self):
        assert DESK.patches_per_image == 16
        assert DESK.patch_dim == 192

    def test_full_scale_patch_count(self):
        cfg = ImageConfig(high_res=448, low_res=224, patch_size=16)
        assert cfg.patches_per_image == 196

    def test_resolution_invariant_enforced(self):
        with pytest.raises(ContractError):
            ImageConfig(high_res=64, low_res=16, patch_size=8)

    def test_patch_divisibility_enforced(self):
        with pytest.raises(ContractError):
            ImageConfig(high_res=64, low_res=32, patch_size=5)


class TestMixedScaleSplit:
    def test_constant_image(self):
        img = np.full((64, 64, 3), 0.5)
        assert np.all(downsample(img, DESK) == 0.5)
        for sub in quadrants(img):
            assert sub.shape == (32, 32, 3)
            assert np.all(sub == 0.5)

    def test_paper_resolution_five_224_outputs(self):
        cfg = ImageConfig(high_res=448, low_res=224, patch_size=16)
        img = np.zeros((448, 448, 3))
        assert downsample(img, cfg).shape == (224, 224, 3)
        assert all(s.shape == (224, 224, 3) for s in quadrants(img))

    def test_quadrant_labeled_image(self):
        img = np.zeros((64, 64, 3))
        values = (0.1, 0.3, 0.6, 0.9)
        img[:32, :32] = values[0]
        img[:32, 32:] = values[1]
        img[32:, :32] = values[2]
        img[32:, 32:] = values[3]
        for sub, v in zip(quadrants(img), values):
            assert np.all(sub == v)

    def test_wrong_resolution_rejected(self):
        with pytest.raises(ShapeError):
            downsample(np.zeros((32, 32, 3)), DESK)

    def test_tiling_bit_exact_property(self):
        for seed in range(20):
            img = random_image(seed, 64)
            assert tile_quadrants(quadrants(img)).tobytes() == img.tobytes()

    def test_downsample_locality(self):
        """A 2x2-block-constant image downsamples to the block constants."""
        blocks = RngState(4, "blocks").uniform((32, 32, 3))
        img = np.repeat(np.repeat(blocks, 2, axis=0), 2, axis=1)
        assert np.array_equal(downsample(img, DESK), blocks)


class TestPatchify:
    def test_shape_32_8(self):
        out = patchify(np.zeros((32, 32, 3)), DESK)
        assert out.shape == (16, 192)

    def test_paper_default_p196(self):
        cfg = ImageConfig(high_res=448, low_res=224, patch_size=16)
        assert patchify(np.zeros((224, 224, 3)), cfg).shape == (196, 768)

    def test_single_patch_config(self):
        cfg = ImageConfig(high_res=64, low_res=32, patch_size=32)
        img = random_image(1, 32)
        out = patchify(img, cfg)
        assert out.shape == (1, 32 * 32 * 3)
        assert np.array_equal(out[0], img.reshape(-1))

    def test_round_trip_bit_exact(self):
        for seed in range(10):
            img = random_image(seed, 32)
            assert unpatchify(patchify(img, DESK), DESK).tobytes() == img.tobytes()

    def test_row_is_raster_order(self):
        img = np.arange(32 * 32 * 3, dtype=np.float64).reshape(32, 32, 3)
        out = patchify(img, DESK)
        assert np.array_equal(out[0], img[:8, :8, :].reshape(-1))
        # patch index 1 is the next patch to the right
        assert np.array_equal(out[1], img[:8, 8:16, :].reshape(-1))


class TestMasks:
    def test_keep_counts_table_grid(self):
        # keep = round-half-up((1-m) * P) over the studied mask-ratio grid
        for m, expected in ((0.0, 16), (0.25, 12), (0.5, 8), (0.75, 4), (0.9, 2)):
            assert keep_count(16, m) == expected

    def test_keep_count_full_scale(self):
        assert keep_count(196, 0.75) == 49

    def test_mask_cardinality_partition(self):
        for m in (0.0, 0.25, 0.5, 0.75, 0.9):
            spec = sample_mask(16, m, RngState(7, f"m{m}"))
            union = np.union1d(spec.kept, spec.masked)
            assert np.array_equal(union, np.arange(16))
            assert spec.kept.size + spec.masked.size == 16
            assert spec.kept.size == keep_count(16, m)

    def test_m_zero_keeps_all(self):
        spec = sample_mask(16, 0.0, RngState(1))
        assert np.array_equal(spec.kept, np.arange(16))
        assert spec.masked.size == 0

    def test_m_one_rejected(self):
        with pytest.raises(ContractError):
            sample_mask(16, 1.0, RngState(1))

    def test_all_masked_rejected(self):
        with pytest.raises(ContractError):
            sample_mask(16, 0.99, RngState(1))

    def test_deterministic_under_fixed_stream(self):
        a = sample_mask(196, 0.75, RngState(3, "fixed"))
        b = sample_mask(196, 0.75, RngState(3, "fixed"))
        assert np.array_equal(a.kept, b.kept)

    def test_index_frequency_matches_keep_ratio(self):
        """Each index is kept with frequency ~(1-m) over 10,000 draws."""
        m, p, draws = 0.75, 16, 10_000
        counts = np.zeros(p)
        root = RngState(11, "freq")
        for i in range(draws):
            counts[sample_mask(p, m, root.split(str(i))).kept] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - (1 - m)) < 0.02)


class TestSelectUnmasked:
    def test_identity_at_m0(self):
        mat = RngState(1).normal((16, 192))
        spec = sample_mask(16, 0.0, RngState(2))
        rows, kept = select_unmasked(mat, spec)
        assert np.array_equal(rows, mat)
        assert np.array_equal(kept, np.arange(16))

    def test_single_row(self):
        mat = RngState(1).normal((4, 5))
        spec = MaskSpec(kept=np.array([0]), masked=np.array([1, 2, 3]))
        rows, _ = select_unmasked(mat, spec)
        assert np.array_equal(rows, mat[:1])

    def test_out_of_range_rejected(self):
        mat = np.zeros((4, 5))
        spec = MaskSpec(kept=np.array([7]), masked=np.array([]))
        with pytest.raises(ContractError):
            select_unmasked(mat, spec)

    def test_scatter_back_round_trip(self):
        mat = RngState(5).normal((16, 12))
        spec = sample_mask(16, 0.5, RngState(6))
        rows, kept = select_unmasked(mat, spec)
        rebuilt = np.zeros_like(mat)
        rebuilt[kept] = rows
        rebuilt[spec.masked] = mat[spec.masked]
        assert np.array_equal(rebuilt, mat)


class TestPpm:
    def test_round_trip(self, tmp_path):
        img = np.rint(RngState(9).uniform((16, 16, 3)) * 255) / 255.0
        path = str(tmp_path / "x.ppm")
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_header_comments_ignored(self, tmp_path):
        path = tmp_path / "c.ppm"
        body = bytes([255, 0, 0] * 4)
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + body)
        img = read_ppm(str(path))
        assert img.shape == (2, 2, 3)
        assert np.all(img[:, :, 0] == 1.0)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n")
        with pytest.raises(DataError):
            read_ppm(str(path))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
        with pytest.raises(DataError):
            read_ppm(str(path))

    def test_unterminated_comment_rejected(self, tmp_path):
        path = tmp_path / "comment.ppm"
        path.write_bytes(b"P6\n# a comment with no end")
        with pytest.raises(DataError, match="comment") as info:
            read_ppm(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("header", [b"P6\n2.5 2\n255\n", b"P6\n2 -2\n255\n",
                                        b"P6\n2 2\nff\n"])
    def test_non_integer_header_field_rejected(self, tmp_path, header):
        path = tmp_path / "fields.ppm"
        path.write_bytes(header + bytes(12))
        with pytest.raises(DataError, match="integers") as info:
            read_ppm(str(path))
        assert str(path) in str(info.value)
