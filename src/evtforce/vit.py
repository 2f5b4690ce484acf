"""A small vision transformer that regresses one scalar from an event frame.

The frame is cut into non-overlapping square patches, each patch is
linearly projected to the embed dimension, a learned regression token is
prepended, and learned position embeddings are added.  Encoder blocks are
pre-norm residual: ``x + MHSA(LN(x))`` then ``x + MLP(LN(x))`` with the
erf-form GELU x * Phi(x) inside the MLP: float64 models take erf from
the standard library's ``math.erf``, float32 models a rational erf whose
Phi is within 2.5e-7 of it (``autodiff.gelu``).  After a final layer
norm, a linear head reads the regression token out to the scalar
prediction.  The patch embed and the head are ``add_bias(matmul(x, w), b)``,
one GEMM whatever the rank of its input; each sublayer of a block is one
autodiff node, ``ad.attention`` or ``ad.mlp``.  The model takes batches only:
frames are (B, C, H, W), and a single frame is a batch of one.  Weights
start from a numpy truncated-normal sampler (``init_params``); numpy is
the only dependency.

Parameters live in a flat name -> Tensor dict, one namespace for the
checkpoint and the gradient checks, as views into one ``ViTModel.weights``
whose layout the config alone fixes (``_layout``).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .events import FormatError, _check_fields, _file_size

_CKPT_LEN = struct.Struct("<I")
_CKPT_FORMAT = "evtforce-checkpoint-v1"


@dataclass(frozen=True)
class ViTConfig:
    image_size: int = 64
    patch_size: int = 8
    in_channels: int = 2
    embed_dim: int = 128
    depth: int = 4
    num_heads: int = 4
    mlp_ratio: float = 4.0

    def __post_init__(self):
        _check_fields(self)
        for name in ("image_size", "patch_size", "in_channels", "embed_dim", "depth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        if self.num_heads <= 0 or self.embed_dim % self.num_heads != 0:
            raise ValueError("num_heads must divide embed_dim")
        if not self.mlp_ratio > 0:
            raise ValueError("mlp_ratio must be positive and finite")
        cap = np.iinfo(np.intp).max // 8  # float64 values; numpy's own error names no field
        for name, size in (("embed_dim", lambda: self.embed_dim),
                           ("mlp_ratio", lambda: self.embed_dim * self.mlp_ratio),  # hidden_dim
                           ("embed_dim", lambda: _size(expected_param_shapes(self, 1))),
                           ("depth", lambda: count_params(self))):
            if size() > cap:
                raise ValueError(f"{name} {getattr(self, name)} gives {size()} values, past {cap}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def hidden_dim(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ViTConfig":
        """Build from ``to_dict`` output.

        Older checkpoints also carry ``head_output``, always 1 (the head
        predicts one force); any other value is a ``ValueError``.
        """
        d = dict(d)
        head_output = d.pop("head_output", 1)
        if type(head_output) is not int or head_output != 1:
            raise ValueError(f"head_output must be 1, got {head_output!r}")
        return cls(**d)


def _block_shapes(config: ViTConfig) -> dict[str, tuple[int, ...]]:
    """One encoder block's parameters, by name within the block."""
    d, hidden = config.embed_dim, config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {"ln1.g": (d,), "ln1.b": (d,)}
    for name in ("q", "k", "v", "out"):
        shapes[f"attn.{name}.w"] = (d, d)
        shapes[f"attn.{name}.b"] = (d,)
    shapes["ln2.g"] = (d,)
    shapes["ln2.b"] = (d,)
    shapes["mlp.fc1.w"] = (d, hidden)
    shapes["mlp.fc1.b"] = (hidden,)
    shapes["mlp.fc2.w"] = (hidden, d)
    shapes["mlp.fc2.b"] = (d,)
    return shapes


def expected_param_shapes(config: ViTConfig, depth=None) -> dict[str, tuple[int, ...]]:
    """The namespace of ``depth`` blocks or the config's; the one source of shapes."""
    d = config.embed_dim
    shapes: dict[str, tuple[int, ...]] = {
        "patch_proj.w": (config.in_channels * config.patch_size**2, d),
        "patch_proj.b": (d,),
        "reg_token": (1, 1, d),
        "pos_embed": (config.num_tokens, d),
    }
    block = _block_shapes(config)
    for i in range(config.depth if depth is None else depth):
        shapes.update({f"block{i}.{name}": shape for name, shape in block.items()})
    shapes["final_ln.g"] = (d,)
    shapes["final_ln.b"] = (d,)
    shapes["head.w"] = (d, 1)
    shapes["head.b"] = (1,)
    return shapes


def _size(shapes: dict[str, tuple[int, ...]]) -> int:
    return sum(math.prod(shape) for shape in shapes.values())


def count_params(config: ViTConfig) -> int:
    """The number of weights, in time independent of ``depth``, so that a
    checkpoint header can be checked against its blob before anything is
    built per block."""
    return _size(expected_param_shapes(config, 0)) + config.depth * _size(_block_shapes(config))


def _layout(config: ViTConfig) -> dict[str, tuple[tuple[int, ...], int]]:
    """Each parameter's shape and start in the flat buffer, in sorted-name
    order: the one layout of ``ViTModel.weights`` and the checkpoint blob."""
    shapes = expected_param_shapes(config)
    layout, start = {}, 0
    for name in sorted(shapes):
        layout[name] = (shapes[name], start)
        start += math.prod(shapes[name])
    return layout


def _index(config: ViTConfig) -> dict[str, dict]:
    """The checkpoint header's parameter index: shape and byte offset per name."""
    return {
        name: {"shape": list(shape), "offset": 4 * start}
        for name, (shape, start) in _layout(config).items()
    }


class ViTModel:
    """A config plus its parameters, held in one flat buffer.

    ``weights`` is a copy of the 1-D float32 or float64 array of
    ``count_params(config)`` values, in sorted-name order (``_layout``),
    beside a same-shaped ``grads``; each ``params[name]`` is a Tensor whose
    ``data`` and ``grad`` are views into them, so write it in place.
    Construction refuses a NaN or infinite weight, naming its parameter.
    """

    def __init__(self, config: ViTConfig, weights: np.ndarray):
        self.config = config
        self.weights = np.array(weights)
        if self.weights.dtype not in (np.float32, np.float64):
            raise ValueError(f"parameters must be float32 or float64, got {self.weights.dtype}")
        n = count_params(config)
        if self.weights.shape != (n,):
            raise ValueError(
                f"weights must be a 1-D array of {n} values, got shape {self.weights.shape}"
            )
        self.grads = np.zeros_like(self.weights)
        self.params = _params(config, self.weights, self.grads)
        if not np.isfinite(self.weights).all():
            name = next(name for name, p in self.params.items() if not np.isfinite(p.data).all())
            raise ValueError(f"parameter {name} holds a non-finite value")


def _params(config: ViTConfig, weights: np.ndarray, grads: np.ndarray) -> dict[str, Tensor]:
    """The name -> Tensor namespace whose ``data`` and ``grad`` are views of
    the flat ``weights`` and ``grads``, in the layout ``config`` fixes."""
    params = {}
    for name, (shape, start) in _layout(config).items():
        end = start + math.prod(shape)
        p = Tensor(weights[start:end].reshape(shape), requires_grad=True)
        p.grad = grads[start:end].reshape(shape)
        params[name] = p
    return params


def _truncated_normal(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    """Normal(0, scale) cut at two sigma, by rejection.

    Standard normals outside [-2, 2] (4.6% of them) are redrawn in place
    until none remain, then the lot is scaled.  The distribution is
    scipy's ``truncnorm(-2, 2)``; the values drawn from a seed are not.
    """
    z = rng.standard_normal(shape)
    bad = np.flatnonzero(np.abs(z) > 2.0)
    while bad.size:
        z.flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(z.flat[bad]) > 2.0]
    return z * scale


def init_params(config: ViTConfig, seed: int, dtype=np.float32) -> ViTModel:
    """Seeded initialization.

    Projection weights and the regression token are truncated normal
    (scale 0.02, cut at two sigma, so |w| <= 0.04 and the std is
    0.02 * 0.8796; drawn by ``_truncated_normal``), position embeddings
    are plain normal (std 0.02), all biases start at zero, and layer-norm
    scales at one.  Parameters are drawn in float64, in
    ``expected_param_shapes`` order from one ``default_rng(seed)``, and
    cast into the model's buffer, so a seed fixes every byte.
    """
    model = ViTModel(config, np.zeros(count_params(config), dtype=dtype))
    rng = np.random.default_rng(seed)
    for name, shape in expected_param_shapes(config).items():
        data = model.params[name].data
        if name.endswith(".g"):
            data[...] = 1.0
        elif name == "pos_embed":
            data[...] = rng.normal(0.0, 0.02, size=shape)
        elif not name.endswith(".b"):
            data[...] = _truncated_normal(rng, shape, 0.02)
    return model


def patchify(frames: np.ndarray, patch_size: int) -> np.ndarray:
    """(B, C, H, W) -> (B, num_patches, C * patch * patch), row-major patches."""
    b, c, h, w = frames.shape
    if h % patch_size or w % patch_size:
        raise ValueError("frame sides must be divisible by patch_size")
    gh, gw = h // patch_size, w // patch_size
    x = frames.reshape(b, c, gh, patch_size, gw, patch_size)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(x.reshape(b, gh * gw, c * patch_size * patch_size))


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Token-wise affine map; ``matmul`` folds the leading axes into one GEMM."""
    return ad.add_bias(ad.matmul(x, w), b)


def multi_head_attention(x: Tensor, model: ViTModel, block: int) -> Tensor:
    """Self-attention over the tokens of a (B, T, D) tensor, op by op.

    The chain that ``ad.attention`` computes as one node, less its layer
    norm; the model calls ``ad.attention``, and this stays as its reference.
    """
    cfg = model.config
    p = model.params
    prefix = f"block{block}.attn."
    b, t, d = x.shape
    heads, hd = cfg.num_heads, cfg.head_dim

    def split_heads(v: Tensor) -> Tensor:
        return ad.transpose(ad.reshape(v, (b, t, heads, hd)), 1, 2)

    q = split_heads(_linear(x, p[prefix + "q.w"], p[prefix + "q.b"]))
    k = split_heads(_linear(x, p[prefix + "k.w"], p[prefix + "k.b"]))
    v = split_heads(_linear(x, p[prefix + "v.w"], p[prefix + "v.b"]))

    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(hd))
    attn = ad.softmax_rows(scores)
    context = ad.matmul(attn, v)
    merged = ad.reshape(ad.transpose(context, 1, 2), (b, t, d))
    return _linear(merged, p[prefix + "out.w"], p[prefix + "out.b"])


# Each sublayer's parameters within a block, in ``ad.attention``'s and
# ``ad.mlp``'s argument order.
_ATTENTION_PARAMS = ("ln1.g", "ln1.b", "attn.q.w", "attn.q.b", "attn.k.w", "attn.k.b",
                     "attn.v.w", "attn.v.b", "attn.out.w", "attn.out.b")
_MLP_PARAMS = ("ln2.g", "ln2.b", "mlp.fc1.w", "mlp.fc1.b", "mlp.fc2.w", "mlp.fc2.b")


def encoder_block(x: Tensor, model: ViTModel, block: int) -> Tensor:
    """Pre-norm residual block: x + MHSA(LN(x)), then + MLP(LN(.)), each
    sublayer one node (``ad.attention``, ``ad.mlp``)."""
    p = model.params
    prefix = f"block{block}."
    attended = ad.attention(
        x, *(p[prefix + name] for name in _ATTENTION_PARAMS), model.config.num_heads
    )
    x = ad.add(x, attended)
    return ad.add(x, ad.mlp(x, *(p[prefix + name] for name in _MLP_PARAMS)))


def check_frame_shape(config: ViTConfig, shape) -> None:
    """Raise the one ``ValueError`` line for (C, H, W) frames the model cannot take."""
    expect = (config.in_channels, config.image_size, config.image_size)
    if tuple(shape) != expect:
        raise ValueError(
            f"frames are {'x'.join(map(str, shape))}, model expects {'x'.join(map(str, expect))}"
        )


def patch_embed(frames: np.ndarray, model: ViTModel) -> Tensor:
    """Project (B, C, H, W) frames to (B, num_patches, embed_dim) tokens."""
    cfg = model.config
    frames = np.asarray(frames, dtype=model.weights.dtype)
    if frames.ndim != 4:
        raise ValueError("frames must have shape (B, C, H, W)")
    check_frame_shape(cfg, frames.shape[1:])
    patches = patchify(frames, cfg.patch_size)
    return _linear(
        Tensor(patches), model.params["patch_proj.w"], model.params["patch_proj.b"]
    )


def forward(frames: np.ndarray, model: ViTModel) -> Tensor:
    """Predict one scalar per frame of a (B, C, H, W) batch; returns (B, 1)."""
    p = model.params
    tokens = patch_embed(frames, model)
    reg = ad.repeat_batch(p["reg_token"], tokens.shape[0])
    x = ad.concat_tokens(reg, tokens)
    x = ad.add_bias(x, p["pos_embed"])
    for i in range(model.config.depth):
        x = encoder_block(x, model, i)
    x = ad.layer_norm(x, p["final_ln.g"], p["final_ln.b"])
    readout = ad.take_token(x, 0)
    return _linear(readout, p["head.w"], p["head.b"])


def save_checkpoint(model: ViTModel, path) -> None:
    """One file: u32 header length, JSON header {config, params index}, blob.

    The blob is ``model.weights`` as little-endian float32, every
    parameter in sorted name order; the index maps each name to its shape
    and byte offset, the layout the config fixes.
    """
    header = {
        "format": _CKPT_FORMAT,
        "config": model.config.to_dict(),
        "params": _index(model.config),
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(_CKPT_LEN.pack(len(encoded)))
        fh.write(encoded)
        fh.write(model.weights.astype("<f4").tobytes())


def load_checkpoint(path) -> ViTModel:
    """Read a ``save_checkpoint`` file as a float32 model.

    Any damage, an index other than the one the config fixes, and a config
    or weights (a NaN, say) that the model classes refuse is a ``FormatError``.
    """
    size = _file_size(path)
    if size < _CKPT_LEN.size:
        raise FormatError(f"{path}: not a checkpoint file")
    with open(path, "rb") as fh:
        (hlen,) = _CKPT_LEN.unpack(fh.read(_CKPT_LEN.size))
        if size < _CKPT_LEN.size + hlen:
            raise FormatError(f"{path}: truncated checkpoint header")
        raw = fh.read(hlen)
    try:
        header = json.loads(raw)
    except ValueError as exc:
        raise FormatError(f"{path}: corrupt checkpoint header") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: checkpoint header must be a JSON object")
    if header.get("format") != _CKPT_FORMAT:
        raise FormatError(f"{path}: unknown checkpoint format {header.get('format')!r}")
    for key in ("config", "params"):
        if not isinstance(header.get(key), dict):
            raise FormatError(f"{path}: checkpoint header has no {key!r} object")
    try:
        config = ViTConfig.from_dict(header["config"])
        nbytes = 4 * count_params(config)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: bad model config in checkpoint ({exc})") from exc
    blob = size - _CKPT_LEN.size - hlen
    if blob < nbytes:
        raise FormatError(f"{path}: truncated checkpoint blob")
    if blob > nbytes:
        raise FormatError(f"{path}: {blob - nbytes} trailing byte(s) after the parameters")
    if header["params"] != _index(config):
        raise FormatError(f"{path}: parameter index does not match the model config")
    weights = np.fromfile(path, "<f4", nbytes // 4, offset=_CKPT_LEN.size + hlen)
    try:
        return ViTModel(config, weights.astype(np.float32, copy=False))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
