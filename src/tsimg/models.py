"""The three trainable architectures and their analytic gradients.

Parameters are a dict (name -> ndarray); training runs on a FlatSet of
named views into one contiguous vector (flat_views). Forward passes cache
intermediates; backward consumes them and adds into gradients with the same
names, a FlatSet of views into one zeroed vector.

The parameters' dtype is the model's: init_params makes float32 models, and
every array a forward or training step makes follows embed_w's dtype.
_forward casts its input and _loss its targets to it (no copy when they
already are), so float64 samples, which imaging and alignment build, feed a
float32 model; training.train casts each split once. A float64 model is
float64 parameters passed to the same code.

Architectures (all share the patch-projection front end):
  wolvm     patch embed -> per-token linear layer
  lvm2attn  patch embed -> one multi-head self-attention block (residual + LN)
  minimae   lvm2attn under another name for now: the learned mask token and
            linear patch decoder belong to the forecast_reconstruct task

Task heads: classification (mean-pool per variate, concat, linear),
linear forecasting (flatten tokens, linear), and masked-patch
reconstruction (linear decoder, loss on masked patches only). One
_forward runs embed, body and head; the training loss, predict_linear,
predict_class and both reconstruct forwards all call it, so the model
trained is the model predicted with.

Samples are stacks, not lists: a Samples holds n samples of one kind (a
sample dataclass) as one (n, ...) array per field, and indexes like a
sequence of samples. The forecast sample functions return the stack they build;
stack_samples is the one place where a list of samples is stacked, once: a
list given to backward, batch_loss or training.train, say by a caller that
builds its own samples. train takes each batch with one index gather
per field and batch_loss slices a larger stack (a whole validation set, say)
into views of PASS_SAMPLES, so a batch runs as one forward and one backward
pass over (B, N, F) patches for the forecast tasks and (B, V, N, F) for
classification, whose variates run through the body as B*V sequences. The
kernels take any leading batch dims, (..., N, F) or (..., N, D), and compute
weight gradients as one matmul over all B*N token rows. The reconstruction
task follows the masked-autoencoder split: the patch projection runs only on
visible rows (masked rows take the mask token), and the decoder and the
masked MSE run only on the masked rows, gathered as body[mask]; their
gradient is scattered back into zeros.

Patches are plain arrays cut by alignment.patchify, and a forecast mask
is the read-only bool (N,) array of alignment.build_forecast_mask. The
model input width is ModelConfig.patch_dim. The reconstruction model is one
channel wide: it embeds gray (N, P * P) patches and decodes gray patches,
scored against the gray target. Classify and linear models take three
identical channels of one gray image (F = 3 * P * P,
alignment.replicate_channels).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    EmptyMaskError,
    LabelOutOfRangeError,
    NonFiniteLossError,
    NonPositiveError,
    RoutingError,
    ShapeMismatchError,
)
from .imaging import VALUE_PRESERVING_METHODS

ARCHS = ("wolvm", "lvm2attn", "minimae")
TASKS = ("classify", "forecast_linear", "forecast_reconstruct")

LN_EPS = 1e-8
PASS_SAMPLES = 64          # most samples batch_loss runs in one pass
SIZE_FIELDS = ("image_size", "patch_size", "embed_dim", "num_heads", "horizon",
               "num_classes", "num_variates")

ParamSet = dict  # name -> np.ndarray
GradSet = dict


class FlatSet(dict):
    """A ParamSet whose arrays are views into one vector, `.vector`."""


def flat_views(vec: np.ndarray, like: ParamSet) -> FlatSet:
    """Named views into the flat vector `vec`, in the order and shapes of `like`."""
    views, start = FlatSet(), 0
    for k, p in like.items():
        views[k] = vec[start:start + p.size].reshape(p.shape)
        start += p.size
    if start != vec.size:
        raise ShapeMismatchError(f"vector of {vec.size} values for {start} parameters")
    views.vector = vec
    return views


@dataclass
class ModelConfig:
    arch: str = "lvm2attn"
    task: str = "forecast_linear"
    image_size: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    num_heads: int = 4
    horizon: int = 96          # forecast tasks
    num_classes: int = 2       # classify
    num_variates: int = 1      # classify: variates concatenated at the head

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ShapeMismatchError(f"unknown arch {self.arch!r}")
        if self.task not in TASKS:
            raise ShapeMismatchError(f"unknown task {self.task!r}")
        small = [f"{k}={getattr(self, k)!r}" for k in SIZE_FIELDS if getattr(self, k) < 1]
        if small:
            raise NonPositiveError(f"ModelConfig sizes must be >= 1, got {', '.join(small)}")
        if self.image_size % self.patch_size != 0:
            raise ShapeMismatchError("image_size must be divisible by patch_size")
        if self.embed_dim % self.num_heads != 0:
            raise ShapeMismatchError("embed_dim must be divisible by num_heads")

    @property
    def grid_side(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid_side ** 2

    @property
    def patch_dim(self) -> int:
        """The model's patch width: P * P gray pixels for forecast_reconstruct,
        three identical channels of them for classify and forecast_linear."""
        P2 = self.patch_size ** 2
        return P2 if self.task == "forecast_reconstruct" else 3 * P2


def validate_routing(task: str, imaging_method: str) -> None:
    """Enforce the framework routing: mask-reconstruction forecasting only
    works on imaging methods whose pixels are raw series values."""
    if task == "forecast_reconstruct" and imaging_method not in VALUE_PRESERVING_METHODS:
        raise RoutingError(
            f"forecast_reconstruct requires a value-preserving imaging method "
            f"({'/'.join(VALUE_PRESERVING_METHODS)}); got {imaging_method!r}. "
            f"Pixels of {imaging_method!r} images do not hold raw series values, "
            f"so reconstructed patches cannot be read back as forecasts; "
            f"use forecast_linear instead.")


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _draw_params(cfg: ModelConfig, seed: int) -> ParamSet:
    """The float64 draw init_params casts: Xavier-uniform projections, zero
    biases, N(0, 0.02) mask token and positional embeddings.

    The one-channel reconstruction model is drawn as the fold of a
    three-channel one: embed_w sums the three (P*P, D) blocks of a (3*P*P, D)
    draw and dec_w averages those of a (D, 3*P*P) one, so it forecasts as the
    three-channel model does on three copies of a gray image."""
    rng = np.random.default_rng(seed)
    D, N, F = cfg.embed_dim, cfg.n_patches, 3 * cfg.patch_size ** 2
    p: ParamSet = {
        "embed_w": _xavier(rng, F, D),
        "embed_b": np.zeros(D),
        "pos": rng.normal(0.0, 0.02, size=(N, D)),
    }
    if cfg.arch == "wolvm":
        p["body_w"] = _xavier(rng, D, D)
        p["body_b"] = np.zeros(D)
    else:
        for name in ("wq", "wk", "wv", "wo"):
            p[name] = _xavier(rng, D, D)
        p["ln_g"] = np.ones(D)
        p["ln_b"] = np.zeros(D)
    if cfg.task == "forecast_reconstruct":
        e = p["embed_w"].reshape(3, -1, D)
        p["embed_w"] = e[0] + e[1] + e[2]                   # sum(axis=0)'s order
        p["mask_token"] = rng.normal(0.0, 0.02, size=D)
        w = _xavier(rng, D, F).reshape(D, 3, -1).swapaxes(0, 1)
        p["dec_w"] = (w[0] + w[1] + w[2]) / 3               # mean(axis=1)'s order
        p["dec_b"] = np.zeros(cfg.patch_dim)
    else:
        fan_in, out = ((N * D, cfg.horizon) if cfg.task == "forecast_linear"
                       else (cfg.num_variates * D, cfg.num_classes))
        p["head_w"] = _xavier(rng, fan_in, out)
        p["head_b"] = np.zeros(out)
    return p


def init_params(cfg: ModelConfig, seed: int = 0) -> ParamSet:
    """A seeded float32 model, the one place the model dtype is chosen: every
    array a forward or training step makes follows the parameters' dtype, so
    a float64 model is these arrays cast to float64."""
    return {k: v.astype(np.float32) for k, v in _draw_params(cfg, seed).items()}


# --- patch embedding ----------------------------------------------------

def forward_embed(patches: np.ndarray, params: ParamSet,
                  mask_rows: np.ndarray | None = None):
    """tokens = W_e @ patch + b + pos.

    patches is (..., N, F). Without mask_rows every row is projected. With
    mask_rows (bool, (..., N); reconstruction task) only the visible rows
    are, gathered in row-major order of their mask, the one inverse of
    mask_rows a pass builds: masked rows take mask_token + pos instead.
    """
    F, D = params["embed_w"].shape
    if patches.shape[-1] != F:
        raise ShapeMismatchError(f"patch dim {patches.shape[-1]} != embed fan-in {F}")
    visible = None
    if mask_rows is None:
        rows = patches.reshape(-1, F)
        proj = (rows @ params["embed_w"] + params["embed_b"]).reshape(patches.shape[:-1] + (D,))
    else:
        if patches.shape[:-1] != mask_rows.shape:
            raise ShapeMismatchError(f"patches {patches.shape} for row mask {mask_rows.shape}")
        visible = ~mask_rows
        rows = patches[visible]
        proj = np.empty(mask_rows.shape + (D,), params["embed_w"].dtype)
        proj[visible] = rows @ params["embed_w"] + params["embed_b"]
        proj[mask_rows] = params["mask_token"]
    proj += params["pos"][: proj.shape[-2]]
    return proj, {"rows": rows, "mask_rows": mask_rows, "visible": visible}


def backward_embed(d_tokens: np.ndarray, cache: dict, grads: GradSet) -> None:
    N, D = d_tokens.shape[-2:]
    grads["pos"][:N] += d_tokens.reshape(-1, N, D).sum(axis=0)
    mask_rows = cache["mask_rows"]
    if mask_rows is None:
        d_proj = d_tokens.reshape(-1, D)
    else:
        grads["mask_token"] += d_tokens[mask_rows].sum(axis=0)
        d_proj = d_tokens[cache["visible"]]
    grads["embed_w"] += cache["rows"].T @ d_proj
    grads["embed_b"] += d_proj.sum(axis=0)


# --- bodies -------------------------------------------------------------

def forward_body(tokens: np.ndarray, params: ParamSet, cfg: ModelConfig):
    if cfg.arch == "wolvm":
        rows = tokens.reshape(-1, tokens.shape[-1])
        out = rows @ params["body_w"] + params["body_b"]
        return out.reshape(tokens.shape), {"kind": "linear", "rows": rows}
    return forward_attention(tokens, params, cfg.num_heads)


def backward_body(d_out: np.ndarray, cache: dict, params: ParamSet,
                  grads: GradSet) -> np.ndarray:
    if cache["kind"] == "linear":
        d_rows = d_out.reshape(-1, d_out.shape[-1])
        grads["body_w"] += cache["rows"].T @ d_rows
        grads["body_b"] += d_rows.sum(axis=0)
        return (d_rows @ params["body_w"].T).reshape(d_out.shape)
    return backward_attention(d_out, cache, params, grads)


def _split_heads(rows: np.ndarray, lead: tuple, N: int, h: int) -> np.ndarray:
    """(rows, D) -> (..., h, N, D/h)."""
    return rows.reshape(lead + (N, h, -1)).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., h, N, dh) -> (rows, h * dh)."""
    x = x.swapaxes(-2, -3)
    return x.reshape(-1, x.shape[-2] * x.shape[-1])


def forward_attention(tokens: np.ndarray, params: ParamSet, num_heads: int):
    """Multi-head self-attention over (..., N, D) tokens with output
    projection, residual add and layer norm. Returns (output, cache); the
    cache holds the (..., heads, N, N) attention weights as "A"."""
    lead, (N, D) = tokens.shape[:-2], tokens.shape[-2:]
    if D % num_heads != 0:
        raise ShapeMismatchError(f"embed dim {D} not divisible by {num_heads} heads")
    dh = D // num_heads
    x = tokens.reshape(-1, D)
    Qh, Kh, Vh = (_split_heads(x @ params[w], lead, N, num_heads) for w in ("wq", "wk", "wv"))
    A = Qh @ Kh.swapaxes(-1, -2)                         # scores, then softmax in place
    A /= math.sqrt(dh)
    # row max over each sample's (keys, rows) copy: long elementwise maxima, not a reduce per row
    A -= A.reshape(len(A), -1, N).swapaxes(-1, -2).copy().max(axis=-2).reshape(A.shape[:-1] + (1,))
    np.exp(A, out=A)
    A /= A.sum(axis=-1, keepdims=True)                   # (..., h, N, N)
    O = _merge_heads(A @ Vh)
    # the residual and the layer norm run in place on fresh arrays: each
    # element sees the same operations in the same order as the expressions
    # x + O @ wo, (z - mean) * inv_std and ln_g * xhat + ln_b
    z = O @ params["wo"]
    z += x
    z -= z.sum(axis=1, keepdims=True) / D        # np.mean's sum and divide; centred once
    inv_std = 1.0 / np.sqrt((z * z).sum(axis=1, keepdims=True) / D + LN_EPS)
    xhat = z
    xhat *= inv_std
    out = xhat * params["ln_g"]
    out += params["ln_b"]
    cache = {"kind": "attn", "x": x, "Qh": Qh, "Kh": Kh, "Vh": Vh, "A": A, "O": O,
             "xhat": xhat, "inv_std": inv_std}
    return out.reshape(tokens.shape), cache


def backward_attention(d_out: np.ndarray, cache: dict, params: ParamSet,
                       grads: GradSet) -> np.ndarray:
    x, xhat, inv_std, A = cache["x"], cache["xhat"], cache["inv_std"], cache["A"]
    Qh, Kh, Vh = cache["Qh"], cache["Kh"], cache["Vh"]
    g = d_out.reshape(x.shape)
    grads["ln_g"] += (g * xhat).sum(axis=0)
    grads["ln_b"] += g.sum(axis=0)
    d_xhat = g * params["ln_g"]
    # dz = inv_std * (d_xhat - mean(d_xhat) - xhat * mean(d_xhat * xhat)), in
    # place; the means are np.mean's sum and divide, as in the forward
    D = x.shape[1]
    t = d_xhat * xhat
    s = t.sum(axis=1, keepdims=True) / D
    dz = d_xhat - d_xhat.sum(axis=1, keepdims=True) / D
    dz -= np.multiply(xhat, s, out=t)
    dz *= inv_std
    grads["wo"] += cache["O"].T @ dz
    dOh = _split_heads(dz @ params["wo"].T, A.shape[:-3], A.shape[-1], A.shape[-3])
    d_scores = dOh @ Vh.swapaxes(-1, -2)                 # dA, then softmax backward in place
    d_scores -= (d_scores * A).sum(axis=-1, keepdims=True)
    d_scores *= A
    scale = 1.0 / math.sqrt(Qh.shape[-1])
    dQh, dKh = d_scores @ Kh, d_scores.swapaxes(-1, -2) @ Qh
    dQh *= scale
    dKh *= scale
    dQ, dK, dV = (_merge_heads(a) for a in (dQh, dKh, A.swapaxes(-1, -2) @ dOh))
    grads["wq"] += x.T @ dQ
    grads["wk"] += x.T @ dK
    grads["wv"] += x.T @ dV
    d_tokens = dz                                        # dz + dQ wq' + dK wk' + dV wv', in place
    d_tokens += dQ @ params["wq"].T
    d_tokens += dK @ params["wk"].T
    d_tokens += dV @ params["wv"].T
    return d_tokens.reshape(d_out.shape)


# --- the whole model: embed, body, task head -----------------------------

_HEAD_PARAMS = {"classify": ("head_w", "head_b"), "forecast_linear": ("head_w", "head_b"),
               "forecast_reconstruct": ("dec_w", "dec_b")}


def _forward(x: np.ndarray, params: ParamSet, cfg: ModelConfig,
             mask_rows: np.ndarray | None = None):
    """Embed x (and its row mask) as forward_embed does, run the body and the
    task's linear head -> (output, head input, body, caches). The head input
    and the output are, per task:
      classify              (..., V * D) per-variate token means,
                            concatenated -> (..., classes) logits
      forecast_linear       (..., N * D) flattened tokens -> (..., horizon)
      forecast_reconstruct  (M, D) masked body rows, sample-major ->
                            (M, F) decoded patches
    """
    x = x.astype(params["embed_w"].dtype, copy=False)
    tokens, embed_cache = forward_embed(x, params, mask_rows)
    body, body_cache = forward_body(tokens, params, cfg)
    if cfg.task == "classify":
        pooled = body.mean(axis=-2)
        feat = pooled.reshape(pooled.shape[:-2] + (-1,))
    elif cfg.task == "forecast_linear":
        feat = body.reshape(body.shape[:-2] + (-1,))
    else:
        feat = body[mask_rows]
    w, b = _HEAD_PARAMS[cfg.task]
    if feat.shape[-1] != params[w].shape[0]:
        raise ShapeMismatchError(
            f"feature dim {feat.shape[-1]} != {w} fan-in {params[w].shape[0]}")
    return feat @ params[w] + params[b], feat, body, (embed_cache, body_cache)


def _checked_mask(mask: np.ndarray, N: int) -> np.ndarray:
    """A forecast mask, once checked to be a bool (N,) row mask."""
    if mask.dtype != bool or mask.shape != (N,):
        raise ShapeMismatchError(f"forecast mask of {mask.dtype} {mask.shape} for {N} patches")
    return mask


def forward_reconstruct(patches: np.ndarray, mask: np.ndarray, params: ParamSet,
                        cfg: ModelConfig) -> np.ndarray:
    """:func:`forward_reconstruct_gray` on the (N, P*P) patches of one image,
    under the name perfbench's tracer wraps."""
    return forward_reconstruct_gray(patches, mask, params, cfg)


def forward_reconstruct_gray(patches: np.ndarray, mask: np.ndarray, params: ParamSet,
                             cfg: ModelConfig) -> np.ndarray:
    """Full framework-(d) forward on the (..., N, P*P) gray patches of
    images that share one bool (N,) forecast mask, as one stacked pass:
    masked tokens become the mask token, the decoder regenerates only the
    masked patches, and unmasked patches are passed through untouched."""
    # the one (..., N) row mask; forward_embed builds its one inverse
    mask_rows = np.zeros(patches.shape[:-1], dtype=bool) | _checked_mask(mask, patches.shape[-2])
    out = patches.copy()
    out[mask_rows] = _forward(patches, params, cfg, mask_rows)[0]
    return out


# --- batched loss + gradients ------------------------------------------

@dataclass
class ClassifySample:
    patch_seqs: np.ndarray          # (V, N, F): a window's variates, aligned as one stack
    label: int


@dataclass
class ForecastSample:
    patches: np.ndarray             # (N, F)
    target: np.ndarray              # (T',)


@dataclass
class ReconstructSample:
    patches: np.ndarray             # gray (N, P*P) input (horizon region placeholder)
    target_patches: np.ndarray      # gray (N, P*P) ground truth in the same scale
    mask_rows: np.ndarray           # bool (N,)


class Samples(Sequence):
    """n samples of one kind, the sample dataclass `kind`, as one stacked
    (n, ...) array per field of it, read as attributes (``stack.patches``).
    An integer index gives one `kind` sample of views, as does each step of
    iterating it; a slice or an index array gives a Samples of the rows
    picked, with one index per field."""

    def __init__(self, kind: type, arrays):
        self.kind, self.arrays = kind, tuple(arrays)
        self.names = tuple(f.name for f in fields(kind))
        for name, a in zip(self.names, self.arrays, strict=True):
            setattr(self, name, a)
        self.n = len(self.arrays[0])

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return map(self.kind, *self.arrays)

    def __getitem__(self, i):
        picked = [a[i] for a in self.arrays]
        if isinstance(i, (int, np.integer)):
            return self.kind(*picked)
        return Samples(self.kind, picked)

    def astype(self, dtype) -> "Samples":
        """These samples with their float fields in `dtype`, copied only where
        they are not already."""
        return Samples(self.kind, (a.astype(dtype, copy=False) if a.dtype.kind == "f" else a
                                   for a in self.arrays))


def _stack(arrays, what: str) -> np.ndarray:
    try:
        return arrays if isinstance(arrays, np.ndarray) else np.stack(arrays)
    except ValueError as e:
        raise ShapeMismatchError(f"{what} of a batch differ in shape: {e}") from None


def stack_samples(samples) -> Samples:
    """`samples` as a non-empty Samples: a Samples as is, a sequence of
    samples of one kind stacked field by field. This is the one place where
    samples are stacked."""
    if not len(samples):
        raise ShapeMismatchError("batch is empty")
    if isinstance(samples, Samples):
        return samples
    kind = type(samples[0])
    if any(type(s) is not kind for s in samples):
        raise ShapeMismatchError(f"a batch mixes {kind.__name__} with other samples")
    return Samples(kind, (_stack([getattr(s, f.name) for s in samples], f.name)
                          for f in fields(kind)))


def _loss(batch: Samples, params: ParamSet, cfg: ModelConfig, grads: GradSet | None) -> float:
    """Mean loss of one stacked pass over the batch, which must be finite;
    when grads is a dict, the gradients of that mean are added into it."""
    B = len(batch)
    if cfg.task == "classify":
        x, labels = batch.patch_seqs, batch.label                       # (B, V, N, F), (B,)
        n_classes = params["head_b"].shape[0]
        if labels.min() < 0 or labels.max() >= n_classes:
            raise LabelOutOfRangeError(f"labels {labels} outside [0, {n_classes})")
        shifted, feat, body, caches = _forward(x, params, cfg)          # body (B, V, N, D)
        shifted -= shifted.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-log_probs[np.arange(B), labels].mean())
        d_out = np.exp(log_probs)
        d_out[np.arange(B), labels] -= 1.0
        d_out /= B
    elif cfg.task == "forecast_linear":
        x, target = batch.patches, batch.target                         # (B, N, F), (B, T')
        pred, feat, body, caches = _forward(x, params, cfg)
        if pred.shape != target.shape:
            raise ShapeMismatchError(f"forecast {pred.shape} != target {target.shape}")
        err = pred - target.astype(pred.dtype, copy=False)
        loss = float(np.mean(err * err))
        d_out = 2.0 * err / err.size
    else:  # forecast_reconstruct: MSE on masked patch entries only
        x, target = batch.patches, batch.target_patches                 # gray (B, N, P*P)
        mask = batch.mask_rows.astype(bool, copy=False)
        if x.ndim != 3 or x.shape != target.shape or x.shape[:2] != mask.shape:
            raise ShapeMismatchError("patches, target patches and mask rows differ")
        n_masked = mask.sum(axis=1)
        if not n_masked.all():
            raise EmptyMaskError("reconstruction loss needs >= 1 masked patch per sample")
        err, feat, body, caches = _forward(x, params, cfg, mask)        # body (B, N, D)
        err -= target[mask].astype(err.dtype, copy=False)
        # each sample's masked MSE, averaged over the batch: a row of sample
        # b weighs 1 / (B * n_b * F), in the model's dtype
        w = np.repeat((1.0 / (B * n_masked * err.shape[1])).astype(err.dtype, copy=False),
                      n_masked)[:, None]
        sq = w * err                            # (w * err * err).sum(), in place
        sq *= err
        loss = float(sq.sum())
        d_out = np.multiply(2.0 * w, err, out=sq)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss is {loss}")
    if grads is None:
        return loss
    w_name, b_name = _HEAD_PARAMS[cfg.task]
    grads[w_name] += feat.T @ d_out
    grads[b_name] += d_out.sum(axis=0)
    d_feat = d_out @ params[w_name].T
    if cfg.task == "classify":                  # each token gets 1/N of its variate's mean
        N, D = body.shape[-2:]
        d_body = np.broadcast_to(d_feat.reshape(body.shape[:-2] + (1, D)) / N, body.shape)
    elif cfg.task == "forecast_linear":
        d_body = d_feat.reshape(body.shape)
    else:
        d_body = np.zeros_like(body)
        d_body[mask] = d_feat
    embed_cache, body_cache = caches
    backward_embed(backward_body(d_body, body_cache, params, grads), embed_cache, grads)
    return loss


def batch_loss(batch, params: ParamSet, cfg: ModelConfig) -> float:
    """Mean loss over a batch (a Samples or a list of samples), forward
    only. Batches larger than PASS_SAMPLES (a whole validation set, say) run
    in several passes over views of the stack, so activation memory does
    not grow with the batch."""
    batch = stack_samples(batch)
    parts = [batch[i:i + PASS_SAMPLES] for i in range(0, len(batch), PASS_SAMPLES)]
    return sum(_loss(p, params, cfg, None) * (len(p) / len(batch)) for p in parts)


def backward(batch, params: ParamSet, cfg: ModelConfig):
    """Mean loss and analytic gradients over a batch (a Samples or a list
    of samples)."""
    batch = stack_samples(batch)
    grads = flat_views(np.zeros(sum(p.size for p in params.values()), params["embed_w"].dtype),
                       params)
    return _loss(batch, params, cfg, grads), grads


def predict_linear(sample_patches: np.ndarray, params: ParamSet,
                   cfg: ModelConfig) -> np.ndarray:
    """(..., N, F) patches -> (..., horizon) forecasts."""
    return _forward(sample_patches, params, cfg)[0]


def predict_class(patch_seqs, params: ParamSet, cfg: ModelConfig) -> int:
    """The class of V (N, F) patch matrices, a (V, N, F) array or a list;
    ties go to the lowest class."""
    return int(np.argmax(_forward(_stack(patch_seqs, "variate patches"), params, cfg)[0]))
