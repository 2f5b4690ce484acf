"""Transformer regressor: config, init, attention, forward, checkpoints."""

import weakref

import numpy as np
import pytest

from evtforce import autodiff as ad
from evtforce.autodiff import Tensor
from evtforce.events import FormatError
from evtforce.vit import (
    ViTConfig,
    ViTModel,
    count_params,
    encoder_block,
    expected_param_shapes,
    forward,
    init_params,
    load_checkpoint,
    multi_head_attention,
    patch_embed,
    patchify,
    save_checkpoint,
)

from conftest import assert_flat_views, numeric_grad, rel_err, traced_memory

TINY = ViTConfig(image_size=8, patch_size=4, in_channels=1, embed_dim=8,
                 depth=1, num_heads=2)


def closed_form_param_count(cfg):
    # Independent tally: projection, reg token, position table, blocks, head.
    d = cfg.embed_dim
    hidden = int(d * cfg.mlp_ratio)
    tokens = (cfg.image_size // cfg.patch_size) ** 2 + 1
    per_block = (
        2 * d                      # ln1
        + 4 * (d * d + d)          # q, k, v, out projections
        + 2 * d                    # ln2
        + (d * hidden + hidden)    # fc1
        + (hidden * d + d)         # fc2
    )
    return (
        (cfg.in_channels * cfg.patch_size**2 * d + d)
        + d                        # reg token
        + tokens * d               # pos embed
        + cfg.depth * per_block
        + 2 * d                    # final ln
        + (d + 1)                  # head: one force
    )


class TestConfig:
    def test_defaults_and_derived(self):
        cfg = ViTConfig()
        assert (cfg.image_size, cfg.patch_size, cfg.in_channels) == (64, 8, 2)
        assert (cfg.embed_dim, cfg.depth, cfg.num_heads) == (128, 4, 4)
        assert cfg.num_patches == 64
        assert cfg.num_tokens == 65
        assert cfg.head_dim == 32
        assert cfg.hidden_dim == 512

    def test_large_frame_token_count(self):
        cfg = ViTConfig(image_size=224, patch_size=8)
        assert cfg.num_patches == 784
        assert cfg.num_tokens == 785

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"image_size": 60},
            {"image_size": 0},
            {"patch_size": 0},
            {"num_heads": 3},
            {"num_heads": 0},
            {"in_channels": 0},
            {"depth": 0},
            {"mlp_ratio": 0.0},
            {"mlp_ratio": float("inf")},
            {"mlp_ratio": float("nan")},
            {"depth": 2.0},
            {"embed_dim": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ViTConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = ViTConfig(image_size=32, patch_size=4, embed_dim=64, num_heads=2)
        assert ViTConfig.from_dict(cfg.to_dict()) == cfg


class TestParameters:
    def test_shapes(self):
        shapes = expected_param_shapes(ViTConfig())
        assert shapes["patch_proj.w"] == (128, 128)
        assert shapes["patch_proj.b"] == (128,)
        assert shapes["reg_token"] == (1, 1, 128)
        assert shapes["pos_embed"] == (65, 128)
        assert shapes["block0.attn.q.w"] == (128, 128)
        assert shapes["block3.mlp.fc1.w"] == (128, 512)
        assert shapes["head.w"] == (128, 1)

    def test_count_matches_closed_form(self):
        for cfg in (ViTConfig(), TINY, ViTConfig(image_size=32, patch_size=4,
                                                 embed_dim=64, depth=2, num_heads=2)):
            assert count_params(cfg) == closed_form_param_count(cfg)
        assert count_params(ViTConfig()) == 818_433

    def test_init_is_seeded(self):
        a = init_params(TINY, seed=5)
        b = init_params(TINY, seed=5)
        c = init_params(TINY, seed=6)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        assert any(
            not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params
        )

    def test_init_distributions(self):
        model = init_params(ViTConfig(), seed=0)
        p = model.params
        assert np.all(p["block0.ln1.g"].data == 1.0)
        assert np.all(p["block0.attn.q.b"].data == 0.0)
        assert np.all(p["head.b"].data == 0.0)
        # Truncated-normal weights stay inside two sigma.
        for name in ("patch_proj.w", "reg_token", "block0.attn.q.w", "head.w"):
            assert np.abs(p[name].data).max() <= 0.04
        pos = p["pos_embed"].data
        assert pos.any()
        assert abs(pos.std() - 0.02) < 0.002

    def test_init_dtype(self):
        assert init_params(TINY, seed=0).weights.dtype == np.float32
        assert init_params(TINY, seed=0, dtype=np.float64).weights.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_truncated_normal_properties(self, dtype):
        p = init_params(ViTConfig(), seed=0, dtype=dtype).params
        names = [n for n in p if not n.endswith((".g", ".b")) and n != "pos_embed"]
        assert len(names) == 2 + 4 * 6 + 1  # patch_proj, reg_token, 6 per block, head
        for name in names:
            assert p[name].dtype == dtype
            assert np.abs(p[name].data).max() <= 0.04, name
        # N(0, 1) cut at +-2 has std sqrt(1 - 4 phi(2) / (2 Phi(2) - 1)).
        w = p["block0.mlp.fc1.w"].data.astype(np.float64)
        want_std = 0.02 * 0.8796
        assert abs(w.std() / want_std - 1.0) < 0.05
        assert abs(w.mean()) < 5 * want_std / np.sqrt(w.size)
        # Redrawn values fill the whole cut, not a narrower one.
        assert np.abs(w).max() > 0.0399

    def test_truncated_normal_matches_scipy_distribution(self):
        from scipy.stats import kstest, truncnorm

        w = init_params(ViTConfig(), seed=0, dtype=np.float64).params["block0.mlp.fc1.w"]
        result = kstest(w.data.ravel(), truncnorm(-2.0, 2.0, scale=0.02).cdf)
        assert result.pvalue > 1e-3

    def test_same_seed_gives_same_bytes_in_either_dtype(self):
        a = init_params(ViTConfig(), seed=3).params
        b = init_params(ViTConfig(), seed=3).params
        wide = init_params(ViTConfig(), seed=3, dtype=np.float64).params
        for name in a:
            assert a[name].data.tobytes() == b[name].data.tobytes(), name
            # One float64 draw, cast to the requested dtype.
            assert np.array_equal(a[name].data, wide[name].data.astype(np.float32)), name

    def test_model_checks_the_weight_count(self):
        # The layout comes from the config, so the count is all there is to check.
        n = count_params(TINY)
        for shape in [(n - 1,), (n + 1,), (1, n), ()]:
            with pytest.raises(ValueError, match=f"1-D array of {n} values"):
                ViTModel(TINY, np.zeros(shape, np.float32))


class TestFlatBuffer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_params_views_one_buffer(self, dtype):
        model = init_params(TINY, seed=0, dtype=dtype)
        assert model.weights.dtype == model.grads.dtype == dtype
        assert model.weights.size == count_params(TINY)
        assert_flat_views(model)

    def test_loaded_checkpoint_views_one_buffer(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, seed=8), path)
        model = load_checkpoint(path)
        assert model.weights.dtype == np.float32
        assert_flat_views(model)

    def test_constructor_copies_in_sorted_name_order(self):
        source = init_params(TINY, seed=0)
        model = ViTModel(TINY, source.weights)
        assert not np.shares_memory(model.weights, source.weights)
        want = np.concatenate([source.params[n].data.ravel() for n in sorted(source.params)])
        assert np.array_equal(model.weights, want)
        for name, p in model.params.items():
            assert np.array_equal(p.data, source.params[name].data), name
        assert not model.grads.any()
        assert_flat_views(model)

    def test_backward_fills_grads_and_zero_grad_clears_them(self, rng):
        model = init_params(TINY, seed=0)
        pred = forward(rng.random((2, 1, 8, 8), dtype=np.float32), model)
        ad.backward(ad.mean_over_axis(ad.reshape(pred, (2,)), 0))
        assert model.params["head.b"].grad[0] == 1.0
        assert np.count_nonzero(model.grads) > model.grads.size // 2
        ad.zero_grad(model.params)
        assert not model.grads.any()
        assert_flat_views(model)

    def test_rejects_non_float_parameters(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            ViTModel(TINY, np.zeros(count_params(TINY), dtype=np.int32))

    @pytest.mark.parametrize("name", ["block0.mlp.fc2.w", "head.b", "reg_token"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_weight(self, name, value):
        # Only a finite model exists, so save_checkpoint never writes a file
        # that load_checkpoint refuses.
        source = init_params(TINY, seed=0)
        source.params[name].data.flat[-1] = value
        with pytest.raises(ValueError, match=f"^parameter {name} holds a non-finite value$"):
            ViTModel(TINY, source.weights)


class TestPatchify:
    def test_single_channel_layout(self):
        img = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        patches = patchify(img, 2)
        assert patches.shape == (1, 4, 4)
        assert patches[0].tolist() == [
            [0, 1, 4, 5],
            [2, 3, 6, 7],
            [8, 9, 12, 13],
            [10, 11, 14, 15],
        ]

    def test_channels_slowest(self):
        img = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        patches = patchify(img, 2)
        assert patches.shape == (1, 1, 8)
        assert patches[0, 0].tolist() == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            patchify(np.zeros((1, 1, 5, 4), dtype=np.float32), 2)


class TestPatchEmbed:
    def test_shapes(self, rng):
        model = init_params(TINY, seed=0)
        batch = rng.random((3, 1, 8, 8), dtype=np.float32)
        assert patch_embed(batch, model).shape == (3, 4, 8)

    def test_geometry_mismatch(self, rng):
        model = init_params(TINY, seed=0)
        with pytest.raises(ValueError):
            patch_embed(rng.random((1, 2, 8, 8), dtype=np.float32), model)
        with pytest.raises(ValueError):
            patch_embed(rng.random((1, 1, 16, 16), dtype=np.float32), model)
        with pytest.raises(ValueError):
            patch_embed(rng.random((1, 8, 8), dtype=np.float32), model)
        with pytest.raises(ValueError):
            patch_embed(rng.random((8, 8), dtype=np.float32), model)


class TestAttention:
    def test_single_token_attends_to_itself_exactly(self, rng):
        # One token's softmax row is [1.0], so each head's context is its
        # own value vector and the output is the out-projection of v.
        model = init_params(TINY, seed=0)
        p = model.params
        x = Tensor(rng.normal(size=(1, 1, 8)).astype(np.float32))
        out = multi_head_attention(x, model, 0)
        assert out.shape == (1, 1, 8)
        v = x.data[0] @ p["block0.attn.v.w"].data + p["block0.attn.v.b"].data
        expect = v @ p["block0.attn.out.w"].data + p["block0.attn.out.b"].data
        assert np.array_equal(out.data[0], expect)


class TestEncoderBlock:
    def test_zeroed_output_projections_make_identity(self, rng):
        model = init_params(TINY, seed=0)
        for name in ("attn.out.w", "attn.out.b", "mlp.fc2.w", "mlp.fc2.b"):
            p = model.params[f"block0.{name}"]
            p.data[...] = 0
        x = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
        out = encoder_block(x, model, 0)
        assert np.array_equal(out.data, x.data)

    def test_residual_changes_activations(self, rng):
        model = init_params(TINY, seed=0)
        x = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
        out = encoder_block(x, model, 0)
        assert out.shape == x.shape
        assert not np.array_equal(out.data, x.data)


class TestForward:
    def test_output_shape_and_dtype(self, rng):
        model = init_params(TINY, seed=2)
        out = forward(rng.random((5, 1, 8, 8), dtype=np.float32), model)
        assert out.shape == (5, 1)
        assert out.dtype == np.float32

    def test_identical_frames_get_identical_predictions(self, rng):
        model = init_params(TINY, seed=2)
        frame = rng.random((1, 8, 8), dtype=np.float32)
        out = forward(np.stack([frame, frame, frame]), model)
        assert out.data[0, 0] == out.data[1, 0] == out.data[2, 0]

    @pytest.mark.parametrize("batch", [2, 3, 5, 16])
    def test_identical_frames_agree_for_every_seed(self, rng, batch):
        frame = rng.random((1, 8, 8), dtype=np.float32)
        frames = np.repeat(frame[None], batch, axis=0)
        for seed in range(20):
            out = forward(frames, init_params(TINY, seed=seed)).data
            assert np.all(out == out[0]), (seed, out.ravel())

    @staticmethod
    def permute_patch_grid(frames, patch, order):
        b, c, h, w = frames.shape
        gh, gw = h // patch, w // patch
        blocks = frames.reshape(b, c, gh, patch, gw, patch)
        blocks = blocks.transpose(0, 2, 4, 1, 3, 5).reshape(b, gh * gw, c, patch, patch)
        blocks = blocks[:, order]
        blocks = blocks.reshape(b, gh, gw, c, patch, patch).transpose(0, 3, 1, 4, 2, 5)
        return np.ascontiguousarray(blocks.reshape(b, c, h, w))

    @staticmethod
    def wild_model(cfg, rng):
        # Large random weights so any order sensitivity shows up at O(1).
        return ViTModel(cfg, rng.normal(0.0, 0.5, size=count_params(cfg)).astype(np.float32))

    def test_patch_permutation_invariant_without_position_embedding(self, rng):
        cfg = ViTConfig(image_size=16, patch_size=8, in_channels=1,
                        embed_dim=32, depth=2, num_heads=2)
        model = self.wild_model(cfg, rng)
        pe = model.params["pos_embed"]
        pe.data[...] = 0
        frames = rng.random((4, 1, 16, 16), dtype=np.float32)
        shuffled = self.permute_patch_grid(frames, 8, [2, 0, 3, 1])
        assert not np.array_equal(frames, shuffled)
        a = forward(frames, model).data
        b = forward(shuffled, model).data
        assert rel_err(a, b) <= 1e-4

    def test_position_embedding_breaks_the_symmetry(self, rng):
        cfg = ViTConfig(image_size=16, patch_size=8, in_channels=1,
                        embed_dim=32, depth=2, num_heads=2)
        model = self.wild_model(cfg, rng)
        frames = rng.random((4, 1, 16, 16), dtype=np.float32)
        shuffled = self.permute_patch_grid(frames, 8, [2, 0, 3, 1])
        a = forward(frames, model).data
        b = forward(shuffled, model).data
        assert rel_err(a, b) > 1e-2

    def test_end_to_end_gradients_match_finite_differences(self, rng):
        model = init_params(TINY, seed=4, dtype=np.float64)
        frames = rng.random((2, 1, 8, 8))
        targets = Tensor(rng.random((2, 1)))

        def loss_tensor():
            diff = ad.sub(forward(frames, model), targets)
            sq = ad.mul(diff, diff)
            return ad.mean_over_axis(ad.reshape(sq, (sq.data.size,)), 0)

        ad.zero_grad(model.params)
        ad.backward(loss_tensor())
        loss_value = lambda: float(loss_tensor().data)
        for name in ("head.w", "block0.ln1.g", "reg_token", "pos_embed",
                     "block0.attn.q.w", "block0.mlp.fc1.b"):
            p = model.params[name]
            err = rel_err(p.grad, numeric_grad(loss_value, p))
            assert err <= 1e-5, f"{name}: rel err {err:.3e}"

    def test_a_shard_graph_holds_only_what_backward_reads(self, rng):
        # Per block and frame the graph keeps 9T + A + 3H values (T = 65 x 128,
        # A = 4 x 65 x 65, H = 65 x 512), about 23 MiB for an 8-frame shard
        # of the default model; a graph keeping every op's output holds 42.6.
        model = init_params(ViTConfig(), seed=0)
        frames = rng.random((8, 2, 64, 64), dtype=np.float32)
        pred, live, _ = traced_memory(forward, frames, model)
        assert pred.requires_grad
        assert live <= 26 * 2**20, live / 2**20

    def test_a_dropped_model_is_freed_without_the_cyclic_gc(self, rng, no_cyclic_gc):
        frames = rng.random((3, 1, 8, 8), dtype=np.float32)
        for record in (False, True):
            model = init_params(TINY, seed=2)
            weights = weakref.ref(model.weights)
            if record:
                ad.backward(ad.mean_over_axis(ad.reshape(forward(frames, model), (3,)), 0))
            del model
            assert weights() is None, record


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = init_params(TINY, seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.config == model.config
        for name in model.params:
            assert np.array_equal(back.params[name].data, model.params[name].data)
            assert back.params[name].requires_grad

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = init_params(TINY, seed=8)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_blob_layout(self, tmp_path):
        import json
        import struct

        model = init_params(TINY, seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw)
        index = json.loads(raw[4 : 4 + hlen])["params"]
        blob = raw[4 + hlen :]
        assert len(blob) == 4 * count_params(TINY)
        offset = 0
        for name in sorted(model.params):
            p = model.params[name]
            assert index[name] == {"shape": list(p.data.shape), "offset": offset}
            chunk = blob[offset : offset + 4 * p.data.size]
            assert np.array_equal(np.frombuffer(chunk, "<f4").reshape(p.data.shape), p.data)
            offset += 4 * p.data.size

    def test_same_weights_give_the_same_bytes(self, tmp_path):
        model = init_params(TINY, seed=8)
        wide = ViTModel(TINY, model.weights.astype(np.float64))
        p1, p2, p3 = tmp_path / "a.ckpt", tmp_path / "b.ckpt", tmp_path / "c.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        save_checkpoint(wide, p3)
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    @staticmethod
    def with_header(path, edit):
        """Pass a checkpoint's JSON header dict through ``edit``, in place."""
        import json
        import struct

        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw)
        header = json.loads(raw[4 : 4 + hlen])
        edit(header)
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
        path.write_bytes(struct.pack("<I", len(encoded)) + encoded + raw[4 + hlen :])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda index: index["head.b"].update(offset=0),
            lambda index: index["head.b"].update(offset=index["head.b"]["offset"] + 4),
            lambda index: index["head.w"].update(shape=[1, 8]),
            lambda index: index.pop("head.b"),
            lambda index: index.update(rogue={"shape": [0], "offset": 0}),
            lambda index: index["head.b"].pop("offset"),
            lambda index: index.update({"head.b": [1]}),
        ],
        ids=["overlap", "gap", "shape", "missing", "extra", "no-offset", "not-object"],
    )
    def test_index_must_be_the_config_layout(self, tmp_path, edit):
        # The blob length still matches, so only the index is wrong.
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, seed=8), path)
        self.with_header(path, lambda header: edit(header["params"]))
        with pytest.raises(FormatError, match="parameter index does not match the model config"):
            load_checkpoint(path)

    def test_rejects_damage(self, tmp_path):
        model = init_params(TINY, seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()

        short = tmp_path / "short.ckpt"
        short.write_bytes(raw[:2])
        with pytest.raises(ValueError):
            load_checkpoint(short)

        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[:20])
        with pytest.raises(ValueError):
            load_checkpoint(cut)

        garbled = tmp_path / "garbled.ckpt"
        garbled.write_bytes(raw[:4] + b"{" * (len(raw) - 4))
        with pytest.raises(ValueError):
            load_checkpoint(garbled)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, seed=8), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="1 trailing byte"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            [1, 2],
            {"format": "evtforce-checkpoint-v1", "params": {}},
            {"format": "evtforce-checkpoint-v1", "config": {}},
            {"format": "evtforce-checkpoint-v1", "config": {"depth": "x"}, "params": {}},
            {"format": "evtforce-checkpoint-v1", "config": {"wings": 2}, "params": {}},
            {"format": "evtforce-checkpoint-v1", "config": {}, "params": {"w": {}}},
            {"format": "evtforce-checkpoint-v1", "config": {}, "params": {}},
            {"format": "evtforce-checkpoint-v1", "config": {"depth": 1.0}, "params": {}},
            {"format": "evtforce-checkpoint-v1", "config": {"patch_size": 8.0}, "params": {}},
            {"format": "evtforce-checkpoint-v1", "config": {"num_heads": True}, "params": {}},
            {"format": "evtforce-checkpoint-v1", "config": {"mlp_ratio": float("inf")},
             "params": {}},
            {"format": "evtforce-checkpoint-v1", "config": {"embed_dim": 10**400}, "params": {}},
        ],
    )
    def test_rejects_malformed_header(self, tmp_path, header):
        import json
        import struct

        encoded = json.dumps(header).encode()
        path = tmp_path / "odd.ckpt"
        path.write_bytes(struct.pack("<I", len(encoded)) + encoded)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @staticmethod
    def with_head_output(path, value):
        """Rewrite a checkpoint's header as earlier versions wrote it, with
        ``head_output`` in the model config."""
        import json
        import struct

        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw)
        header = json.loads(raw[4 : 4 + hlen])
        header["config"]["head_output"] = value
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
        path.write_bytes(struct.pack("<I", len(encoded)) + encoded + raw[4 + hlen :])

    def test_loads_a_header_with_head_output_one(self, tmp_path):
        model = init_params(TINY, seed=8)
        new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        save_checkpoint(model, new)
        save_checkpoint(model, old)
        self.with_head_output(old, 1)
        assert b'"head_output":1' in old.read_bytes()
        back = load_checkpoint(old)
        assert back.config == model.config
        for name in model.params:
            assert np.array_equal(back.params[name].data, model.params[name].data)
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(back, resaved)
        assert resaved.read_bytes() == new.read_bytes()

    @pytest.mark.parametrize("value", [2, 0, True, 1.0, "1", None])
    def test_rejects_any_other_head_output(self, tmp_path, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, seed=8), path)
        self.with_head_output(path, value)
        with pytest.raises(FormatError, match="head_output"):
            load_checkpoint(path)

    def test_rejects_unknown_format_tag(self, tmp_path):
        import json
        import struct

        header = json.dumps({"format": "something-else", "config": {}, "params": {}})
        path = tmp_path / "odd.ckpt"
        path.write_bytes(struct.pack("<I", len(header)) + header.encode())
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)
