"""The three trainable architectures and their analytic gradients.

Parameters are a dict (name -> float64 ndarray); training runs on a
FlatSet of named views into one contiguous vector (flat_views). Forward
passes cache intermediates; backward consumes them and adds into gradients
with the same names, a FlatSet of views into one zeroed vector.

Architectures (all share the patch-projection front end):
  wolvm     patch embed -> per-token linear layer
  lvm2attn  patch embed -> one multi-head self-attention block (residual + LN)
  minimae   patch embed (+ learned mask token) -> attention block -> linear
            patch decoder

Task heads: classification (mean-pool per variate, concat, linear),
linear forecasting (flatten tokens, linear), and masked-patch
reconstruction (linear decoder, loss on masked patches only). One
_forward runs embed, body and head; the training loss, predict_linear,
predict_class and both reconstruct forwards all call it, so the model
trained is the model predicted with.

A batch runs as one forward and one backward pass over stacked arrays
(batch_loss splits batches larger than PASS_SAMPLES): (B, N, F) patches
for the forecast tasks and (B, V, N, F) for classification, whose
variates run through the body as B*V sequences.
The kernels take any leading batch dims, (..., N, F) or (..., N, D), and
compute weight gradients as one matmul over all B*N token rows. The
reconstruction task follows the masked-autoencoder split: the patch
projection runs only on visible rows (masked rows take the mask token),
and the decoder and the masked MSE run only on the masked rows, gathered
as body[mask]; their gradient is scattered back into zeros.

Patches are plain arrays cut by alignment.patchify, and a forecast mask
is the read-only bool (N,) array of alignment.build_forecast_mask. The
model input is three identical channels of one gray image (F = 3 * P * P):
classify and linear samples hold all three (alignment.replicate_channels).
Reconstruction samples and forecasts stay gray (N, P * P): _gray_embed sums
embed_w's three channel blocks for them, each block gets the one (exact)
gray gradient, and the decoder scores its three channels against the gray
target.
"""

from __future__ import annotations

from dataclasses import dataclass

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
PASS_SAMPLES = 64          # most samples batch_loss stacks into one pass
SIZE_FIELDS = ("image_size", "patch_size", "embed_dim", "num_heads", "horizon",
               "num_classes", "num_variates")

ParamSet = dict  # name -> np.ndarray
GradSet = dict


class FlatSet(dict):
    """A ParamSet whose arrays are views into one float64 vector, `.vector`."""


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
        return 3 * self.patch_size ** 2


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


def init_params(cfg: ModelConfig, seed: int = 0) -> ParamSet:
    """Xavier-uniform projections, zero biases, N(0, 0.02) mask token and
    positional embeddings."""
    rng = np.random.default_rng(seed)
    D, N, F = cfg.embed_dim, cfg.n_patches, cfg.patch_dim
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
        p["mask_token"] = rng.normal(0.0, 0.02, size=D)
        p["dec_w"] = _xavier(rng, D, F)
        p["dec_b"] = np.zeros(F)
    else:
        fan_in, out = ((N * D, cfg.horizon) if cfg.task == "forecast_linear"
                       else (cfg.num_variates * D, cfg.num_classes))
        p["head_w"] = _xavier(rng, fan_in, out)
        p["head_b"] = np.zeros(out)
    return p


# --- patch embedding ----------------------------------------------------

def forward_embed(patches: np.ndarray, params: ParamSet,
                  mask_rows: np.ndarray | None = None):
    """tokens = W_e @ patch + b + pos.

    Without mask_rows, patches is (..., N, F) and every row is projected.
    With mask_rows (bool, (..., N); reconstruction task), patches holds
    only the (n_visible, F) visible rows, in row-major order of ~mask_rows:
    masked rows are never projected and take mask_token + pos instead.
    """
    F, D = params["embed_w"].shape
    if patches.shape[-1] != F:
        raise ShapeMismatchError(f"patch dim {patches.shape[-1]} != embed fan-in {F}")
    if mask_rows is None:
        rows = patches.reshape(-1, F)
        proj = (rows @ params["embed_w"] + params["embed_b"]).reshape(patches.shape[:-1] + (D,))
    else:
        visible = ~mask_rows
        if patches.shape != (np.count_nonzero(visible), F):
            raise ShapeMismatchError(
                f"{patches.shape[0]} patch rows for {np.count_nonzero(visible)} visible ones")
        rows = patches
        proj = np.empty(mask_rows.shape + (D,))
        proj[visible] = rows @ params["embed_w"] + params["embed_b"]
        proj[mask_rows] = params["mask_token"]
    proj += params["pos"][: proj.shape[-2]]
    return proj, {"rows": rows, "mask_rows": mask_rows}


def backward_embed(d_tokens: np.ndarray, cache: dict, grads: GradSet) -> None:
    N, D = d_tokens.shape[-2:]
    grads["pos"][:N] += d_tokens.reshape(-1, N, D).sum(axis=0)
    mask_rows = cache["mask_rows"]
    if mask_rows is None:
        d_proj = d_tokens.reshape(-1, D)
    else:
        grads["mask_token"] += d_tokens[mask_rows].sum(axis=0)
        d_proj = d_tokens[~mask_rows]
    g = cache["rows"].T @ d_proj
    grads["embed_w"].reshape((-1,) + g.shape)[:] += g    # gray rows feed all 3 blocks
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
    A /= np.sqrt(dh)
    A -= A.max(axis=-1, keepdims=True)
    np.exp(A, out=A)
    A /= A.sum(axis=-1, keepdims=True)                   # (..., h, N, N)
    O = _merge_heads(A @ Vh)
    z = x + O @ params["wo"]
    z -= z.mean(axis=1, keepdims=True)                   # centred once for var and xhat
    inv_std = 1.0 / np.sqrt((z * z).mean(axis=1, keepdims=True) + LN_EPS)
    xhat = z * inv_std
    out = params["ln_g"] * xhat + params["ln_b"]
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
    dz = inv_std * (d_xhat
                    - d_xhat.mean(axis=1, keepdims=True)
                    - xhat * (d_xhat * xhat).mean(axis=1, keepdims=True))
    grads["wo"] += cache["O"].T @ dz
    dOh = _split_heads(dz @ params["wo"].T, A.shape[:-3], A.shape[-1], A.shape[-3])
    d_scores = dOh @ Vh.swapaxes(-1, -2)                 # dA, then softmax backward in place
    d_scores -= (d_scores * A).sum(axis=-1, keepdims=True)
    d_scores *= A
    scale = 1.0 / np.sqrt(Qh.shape[-1])
    dQ = _merge_heads(d_scores @ Kh * scale)
    dK = _merge_heads(d_scores.swapaxes(-1, -2) @ Qh * scale)
    dV = _merge_heads(A.swapaxes(-1, -2) @ dOh)
    grads["wq"] += x.T @ dQ
    grads["wk"] += x.T @ dK
    grads["wv"] += x.T @ dV
    d_tokens = dz + dQ @ params["wq"].T + dK @ params["wk"].T + dV @ params["wv"].T
    return d_tokens.reshape(d_out.shape)


# --- the whole model: embed, body, task head -----------------------------

_HEAD_PARAMS = {"classify": ("head_w", "head_b"), "forecast_linear": ("head_w", "head_b"),
               "forecast_reconstruct": ("dec_w", "dec_b")}


def _forward(x: np.ndarray, params: ParamSet, cfg: ModelConfig,
             mask_rows: np.ndarray | None = None):
    """Embed x (laid out as forward_embed takes it), run the body and the
    task's linear head -> (output, head input, body, caches). The head input
    and the output are, per task:
      classify              (..., V * D) per-variate token means,
                            concatenated -> (..., classes) logits
      forecast_linear       (..., N * D) flattened tokens -> (..., horizon)
      forecast_reconstruct  (M, D) masked body rows, sample-major ->
                            (M, F) decoded patches
    """
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
    """Full framework-(d) forward on the (N, F) patches of one image and
    its bool (N,) forecast mask: masked tokens become the mask token, the
    decoder regenerates only the masked patches, and unmasked patches are
    passed through untouched."""
    mask_rows = _checked_mask(mask, patches.shape[0])
    out = patches.copy()
    out[mask_rows] = _forward(patches[~mask_rows], params, cfg, mask_rows)[0]
    return out


def _gray_embed(params: ParamSet, P2: int) -> dict:
    """`params` with embed_w's three channel blocks summed, to embed gray P2-pixel patches."""
    F, D = params["embed_w"].shape
    if F != 3 * P2:
        raise ShapeMismatchError(f"gray patch width {P2}, expected embed_w fan-in / 3 = {F / 3:g}")
    return dict(params, embed_w=params["embed_w"].reshape(3, P2, D).sum(axis=0))


def forward_reconstruct_gray(patches: np.ndarray, mask: np.ndarray, params: ParamSet,
                             cfg: ModelConfig) -> np.ndarray:
    """:func:`forward_reconstruct` on the (..., N, P*P) patches of gray
    images that share one mask, as one stacked pass.

    Equal, up to rounding, to :func:`~tsimg.alignment.replicate_channels`
    followed by :func:`forward_reconstruct` (the three-channel reference),
    with the three output channels averaged. The copies are folded into
    the weights once per call instead: the embedding uses the sum of
    embed_w's three channel blocks (as in training) and the decoder the mean
    of dec_w's and dec_b's, so a third of the columns are embedded and decoded.
    """
    folded = _gray_embed(params, patches.shape[-1])
    P2, D = folded["embed_w"].shape
    if params["dec_w"].shape != (D, 3 * P2):
        raise ShapeMismatchError(
            f"dec_w {params['dec_w'].shape} does not fit three channels of {P2}-pixel patches")
    mask_rows = np.zeros(patches.shape[:-1], dtype=bool) | _checked_mask(mask, patches.shape[-2])
    folded.update(dec_w=params["dec_w"].reshape(D, 3, P2).mean(axis=1),
                  dec_b=params["dec_b"].reshape(3, P2).mean(axis=0))
    out = patches.copy()
    out[mask_rows] = _forward(patches[~mask_rows], folded, cfg, mask_rows)[0]
    return out


# --- batched loss + gradients ------------------------------------------

@dataclass
class ClassifySample:
    patch_seqs: list[np.ndarray]    # per-variate (N, F) patch matrices
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


def _stack(arrays: list, what: str) -> np.ndarray:
    try:
        return np.stack(arrays)
    except ValueError as e:
        raise ShapeMismatchError(f"{what} of a batch differ in shape: {e}") from None


def _loss(batch: list, params: ParamSet, cfg: ModelConfig, grads: GradSet | None) -> float:
    """Mean loss of one stacked pass over the batch, which must be finite;
    when grads is a dict, the gradients of that mean are added into it."""
    if not batch:
        raise ShapeMismatchError("batch is empty")
    B = len(batch)
    if cfg.task == "classify":
        x = _stack([s.patch_seqs for s in batch], "variate patches")    # (B, V, N, F)
        labels = np.array([s.label for s in batch])
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
        x = _stack([s.patches for s in batch], "patches")               # (B, N, F)
        target = _stack([s.target for s in batch], "targets")
        pred, feat, body, caches = _forward(x, params, cfg)
        if pred.shape != target.shape:
            raise ShapeMismatchError(f"forecast {pred.shape} != target {target.shape}")
        err = pred - target
        loss = float(np.mean(err * err))
        d_out = 2.0 * err / err.size
    else:  # forecast_reconstruct: MSE on masked patch entries only
        x = _stack([s.patches for s in batch], "patches")               # gray (B, N, P*P)
        target = _stack([s.target_patches for s in batch], "target patches")
        mask = _stack([s.mask_rows for s in batch], "masks").astype(bool, copy=False)
        if x.ndim != 3 or x.shape != target.shape or x.shape[:2] != mask.shape:
            raise ShapeMismatchError("patches, target patches and mask rows differ")
        n_masked = mask.sum(axis=1)
        if not n_masked.all():
            raise EmptyMaskError("reconstruction loss needs >= 1 masked patch per sample")
        err, feat, body, caches = _forward(x[~mask], _gray_embed(params, x.shape[2]), cfg,
                                           mask)                        # body (B, N, D)
        err3 = err.reshape(len(err), 3, -1)     # each decoded channel against the gray target
        err3 -= target[mask][:, None]
        # each sample's masked MSE, averaged over the batch: a row of sample
        # b weighs 1 / (B * n_b * F)
        w = np.repeat(1.0 / (B * n_masked * err.shape[1]), n_masked)[:, None]
        loss = float((w * err * err).sum())
        d_out = 2.0 * w * err
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


def batch_loss(batch: list, params: ParamSet, cfg: ModelConfig) -> float:
    """Mean loss over a batch, forward only. Batches larger than
    PASS_SAMPLES (a whole validation set, say) run in several stacked
    passes, so activation memory does not grow with the batch."""
    if not batch:
        raise ShapeMismatchError("batch is empty")
    parts = [batch[i:i + PASS_SAMPLES] for i in range(0, len(batch), PASS_SAMPLES)]
    return sum(_loss(p, params, cfg, None) * (len(p) / len(batch)) for p in parts)


def backward(batch: list, params: ParamSet, cfg: ModelConfig):
    """Mean loss and analytic gradients over a batch."""
    grads = flat_views(np.zeros(sum(p.size for p in params.values())), params)
    return _loss(batch, params, cfg, grads), grads


def predict_linear(sample_patches: np.ndarray, params: ParamSet,
                   cfg: ModelConfig) -> np.ndarray:
    """(..., N, F) patches -> (..., horizon) forecasts."""
    return _forward(sample_patches, params, cfg)[0]


def predict_class(patch_seqs: list[np.ndarray], params: ParamSet,
                  cfg: ModelConfig) -> int:
    """The class of V (N, F) patch matrices; ties go to the lowest class."""
    return int(np.argmax(_forward(_stack(patch_seqs, "variate patches"), params, cfg)[0]))
