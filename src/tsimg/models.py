"""The three trainable architectures and their analytic gradients.

All parameters live in a flat dict (name -> float64 ndarray) so the Adam
optimizer, checkpointing, and finite-difference checks can treat every
architecture uniformly. Forward passes cache intermediates; backward passes
consume them and add into a gradient dict with the same keys.

Architectures (all share the patch-projection front end):
  wolvm     patch embed -> per-token linear layer
  lvm2attn  patch embed -> one multi-head self-attention block (residual + LN)
  minimae   patch embed (+ learned mask token) -> attention block -> linear
            patch decoder

Task heads: classification (mean-pool per variate, concat, linear),
linear forecasting (flatten tokens, linear), and masked-patch
reconstruction (linear decoder, loss on masked patches only).

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import ForecastMask, PatchSequence
from .errors import (
    EmptyMaskError,
    LabelOutOfRangeError,
    NonFiniteLossError,
    RoutingError,
    ShapeMismatchError,
)
from .imaging import VALUE_PRESERVING_METHODS

ARCHS = ("wolvm", "lvm2attn", "minimae")
TASKS = ("classify", "forecast_linear", "forecast_reconstruct")

LN_EPS = 1e-8
PASS_SAMPLES = 64          # most samples batch_loss stacks into one pass

ParamSet = dict  # name -> np.ndarray
GradSet = dict


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
    elif cfg.task == "forecast_linear":
        p["head_w"] = _xavier(rng, N * D, cfg.horizon)
        p["head_b"] = np.zeros(cfg.horizon)
    else:
        p["head_w"] = _xavier(rng, cfg.num_variates * D, cfg.num_classes)
        p["head_b"] = np.zeros(cfg.num_classes)
    return p


def zeros_like_params(params: ParamSet) -> GradSet:
    return {k: np.zeros_like(v) for k, v in params.items()}


def count_params(params: ParamSet) -> int:
    return sum(v.size for v in params.values())


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
    A /= np.sqrt(dh)
    A -= A.max(axis=-1, keepdims=True)
    np.exp(A, out=A)
    A /= A.sum(axis=-1, keepdims=True)                   # (..., h, N, N)
    O = _merge_heads(A @ Vh)
    z = x + O @ params["wo"]
    mu = z.mean(axis=1, keepdims=True)
    var = z.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (z - mu) * inv_std
    out = params["ln_g"] * xhat + params["ln_b"]
    cache = {"kind": "attn", "x": x, "Qh": Qh, "Kh": Kh, "Vh": Vh, "A": A, "O": O,
             "xhat": xhat, "inv_std": inv_std}
    return out.reshape(tokens.shape), cache


def attention_weights(tokens: np.ndarray, params: ParamSet, num_heads: int) -> np.ndarray:
    """(..., heads, N, N) row-stochastic attention matrix (diagnostics)."""
    return forward_attention(tokens, params, num_heads)[1]["A"]


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


# --- heads --------------------------------------------------------------

def _head(feat: np.ndarray, params: ParamSet) -> np.ndarray:
    if feat.shape[-1] != params["head_w"].shape[0]:
        raise ShapeMismatchError(
            f"feature dim {feat.shape[-1]} != head fan-in {params['head_w'].shape[0]}")
    return feat @ params["head_w"] + params["head_b"]


def _pool_variates(body) -> np.ndarray:
    """(..., V, N, D) body outputs -> (..., V * D) per-variate token means."""
    pooled = np.asarray(body).mean(axis=-2)
    return pooled.reshape(pooled.shape[:-2] + (-1,))


def forward_classify(tokens_per_variate, params: ParamSet) -> np.ndarray:
    """Mean-pool tokens per variate, concatenate, linear head -> logits.
    Takes (..., V, N, D) tokens (or a list of V (N, D) arrays) and returns
    (..., classes) logits."""
    return _head(_pool_variates(tokens_per_variate), params)


def argmax_class(logits: np.ndarray) -> int:
    """Deterministic argmax; ties break toward the lower class index."""
    return int(np.argmax(logits))


def forward_forecast_linear(tokens: np.ndarray, params: ParamSet) -> np.ndarray:
    """Flatten (..., N, D) tokens, linear head -> (..., horizon)."""
    return _head(tokens.reshape(tokens.shape[:-2] + (-1,)), params)


def _encode(patches: np.ndarray, params: ParamSet, cfg: ModelConfig,
            mask_rows: np.ndarray | None = None):
    """Embed (see forward_embed for the patches layout) and body ->
    ((..., N, D) body outputs, caches)."""
    tokens, embed_cache = forward_embed(patches, params, mask_rows)
    body, body_cache = forward_body(tokens, params, cfg)
    return body, (embed_cache, body_cache)


def _encode_backward(d_body: np.ndarray, caches: tuple, params: ParamSet,
                     grads: GradSet) -> None:
    embed_cache, body_cache = caches
    backward_embed(backward_body(d_body, body_cache, params, grads), embed_cache, grads)


def forward_reconstruct(seq: PatchSequence, mask: ForecastMask, params: ParamSet,
                        cfg: ModelConfig) -> PatchSequence:
    """Full framework-(d) forward on one image: masked tokens become the
    mask token, the decoder regenerates only the masked patches, and
    unmasked output patches are the inputs passed through untouched."""
    mask_rows = mask.row_mask(seq.patches.shape[0])
    body, _ = _encode(seq.patches[~mask_rows], params, cfg, mask_rows)
    out = seq.patches.copy()
    out[mask_rows] = body[mask_rows] @ params["dec_w"] + params["dec_b"]
    return PatchSequence(patches=out, grid=seq.grid, patch_size=seq.patch_size)


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
    patches: np.ndarray             # (N, F) input (horizon region placeholder)
    target_patches: np.ndarray      # (N, F) ground truth in the same scale
    mask_rows: np.ndarray           # bool (N,)


def _stack(arrays: list, what: str) -> np.ndarray:
    try:
        return np.stack(arrays)
    except ValueError as e:
        raise ShapeMismatchError(f"{what} of a batch differ in shape: {e}") from None


def _loss(batch: list, params: ParamSet, cfg: ModelConfig, grads: GradSet | None) -> float:
    """Mean loss of one stacked pass over the batch; when grads is a dict,
    the gradients of that mean are added into it."""
    if not batch:
        raise ShapeMismatchError("batch is empty")
    B = len(batch)
    if cfg.task == "classify":
        x = _stack([s.patch_seqs for s in batch], "variate patches")    # (B, V, N, F)
        labels = np.array([s.label for s in batch])
        n_classes = params["head_b"].shape[0]
        if labels.min() < 0 or labels.max() >= n_classes:
            raise LabelOutOfRangeError(f"labels {labels} outside [0, {n_classes})")
        body, caches = _encode(x, params, cfg)                          # (B, V, N, D)
        feat = _pool_variates(body)
        shifted = _head(feat, params)
        shifted -= shifted.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-log_probs[np.arange(B), labels].mean())
        if grads is None:
            return loss
        d_logits = np.exp(log_probs)
        d_logits[np.arange(B), labels] -= 1.0
        d_logits /= B
        grads["head_w"] += feat.T @ d_logits
        grads["head_b"] += d_logits.sum(axis=0)
        N, D = body.shape[-2:]
        d_pooled = (d_logits @ params["head_w"].T).reshape(body.shape[:-2] + (1, D))
        d_body = np.broadcast_to(d_pooled / N, body.shape)
    elif cfg.task == "forecast_linear":
        x = _stack([s.patches for s in batch], "patches")               # (B, N, F)
        target = _stack([s.target for s in batch], "targets")
        body, caches = _encode(x, params, cfg)
        flat = body.reshape(B, -1)
        pred = _head(flat, params)
        if pred.shape != target.shape:
            raise ShapeMismatchError(f"forecast {pred.shape} != target {target.shape}")
        err = pred - target
        loss = float(np.mean(err * err))
        if grads is None:
            return loss
        d_pred = 2.0 * err / err.size
        grads["head_w"] += flat.T @ d_pred
        grads["head_b"] += d_pred.sum(axis=0)
        d_body = (d_pred @ params["head_w"].T).reshape(body.shape)
    else:  # forecast_reconstruct: MSE on masked patch entries only
        mask = _stack([s.mask_rows for s in batch], "masks").astype(bool, copy=False)
        if any(s.patches.shape != s.target_patches.shape or s.patches.shape[0] != mask.shape[1]
               for s in batch):
            raise ShapeMismatchError("patches, target patches and mask rows differ")
        n_masked = mask.sum(axis=1)
        if not n_masked.all():
            raise EmptyMaskError("reconstruction loss needs >= 1 masked patch per sample")
        # gathered per sample: only visible inputs and masked targets are copied
        visible = np.concatenate([s.patches[~m] for s, m in zip(batch, mask)])
        target = np.concatenate([s.target_patches[m] for s, m in zip(batch, mask)])
        body, caches = _encode(visible, params, cfg, mask)              # (B, N, D)
        rows = body[mask]                                               # (M, D), sample-major
        err = rows @ params["dec_w"] + params["dec_b"] - target
        # each sample's masked MSE, averaged over the batch: a row of sample
        # b weighs 1 / (B * n_b * F)
        w = np.repeat(1.0 / (B * n_masked * target.shape[1]), n_masked)[:, None]
        loss = float((w * err * err).sum())
        if grads is None:
            return loss
        d_dec = 2.0 * w * err
        grads["dec_w"] += rows.T @ d_dec
        grads["dec_b"] += d_dec.sum(axis=0)
        d_body = np.zeros_like(body)
        d_body[mask] = d_dec @ params["dec_w"].T
    _encode_backward(d_body, caches, params, grads)
    return loss


def _finite(loss: float) -> float:
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss is {loss}")
    return loss


def batch_loss(batch: list, params: ParamSet, cfg: ModelConfig) -> float:
    """Mean loss over a batch, forward only. Batches larger than
    PASS_SAMPLES (a whole validation set, say) run in several stacked
    passes, so activation memory does not grow with the batch."""
    if not batch:
        raise ShapeMismatchError("batch is empty")
    parts = [batch[i:i + PASS_SAMPLES] for i in range(0, len(batch), PASS_SAMPLES)]
    return _finite(sum(_loss(p, params, cfg, None) * (len(p) / len(batch)) for p in parts))


def backward(batch: list, params: ParamSet, cfg: ModelConfig):
    """Mean loss and analytic gradients over a batch."""
    grads = zeros_like_params(params)
    return _finite(_loss(batch, params, cfg, grads)), grads


def predict_linear(sample_patches: np.ndarray, params: ParamSet,
                   cfg: ModelConfig) -> np.ndarray:
    body, _ = _encode(sample_patches, params, cfg)
    return forward_forecast_linear(body, params)


def predict_class(patch_seqs: list[np.ndarray], params: ParamSet,
                  cfg: ModelConfig) -> int:
    body, _ = _encode(_stack(patch_seqs, "variate patches"), params, cfg)
    return argmax_class(forward_classify(body, params))
