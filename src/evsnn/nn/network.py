"""Network definition, forward pass with trace, and backprop through time.

The spiking model runs its convolutional encoder once per time bin;
integrate-and-fire sites carry membrane potential between bins. Per-step
feature vectors are merged by a biasless accumulator (sum over steps of a
d x d linear map) and classified by a final linear layer.

The backward pass is hand-derived reverse mode over the unrolled steps. At
every threshold site the Heaviside derivative is replaced by the arctan
surrogate; gradient also flows through the membrane carry and through the
reset term. In ``relaxed`` mode the forward pass itself uses the smooth
surrogate, which makes the network exactly differentiable; the identical
backward code then computes the true gradient, which is how the whole
pipeline is checked against finite differences.

The dense (non-spiking) twin of any config, the baseline of the energy
comparison, is the same engine run on a time-folded view of the config: the
T binary frames are stacked along the input channels of one step (the first
conv widened to take them), every threshold site is a ReLU, and every SEW
join is additive. With one step the accumulator is a plain linear layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Union

import numpy as np

from .layers import (avg_pool_backward, avg_pool_forward, conv2d_backward,
                     conv2d_forward, conv_out_size, global_pool_backward,
                     global_pool_forward, linear_backward, linear_forward)
from .surrogate import arctan_surrogate, arctan_surrogate_grad, heaviside


class ConfigError(ValueError):
    """Layer stack does not compose (raised before any compute)."""


@dataclass(frozen=True)
class Conv2d:
    c_in: int
    c_out: int
    k: int = 3
    stride: int = 1
    padding: int = 1
    bias: bool = True


@dataclass(frozen=True)
class IF:
    theta: float = 1.0


@dataclass(frozen=True)
class SEW:
    """Residual block: two conv+IF stages joined to the identity by an
    element-wise function g (add, and, iand)."""

    channels: int
    k: int = 3
    g: str = "add"
    theta: float = 1.0
    bias: bool = True


@dataclass(frozen=True)
class AvgPool:
    window: int


@dataclass(frozen=True)
class GlobalPool:
    pass


@dataclass(frozen=True)
class Accumulator:
    dim: int


@dataclass(frozen=True)
class Classifier:
    classes: int
    bias: bool = True


LayerSpec = Union[Conv2d, IF, SEW, AvgPool, GlobalPool, Accumulator, Classifier]

RESET_MODES = ("subtract", "zero")
INPUT_TIMINGS = ("same_step", "delayed")
SEW_FUNCTIONS = ("add", "and", "iand")


@dataclass(frozen=True)
class NetworkConfig:
    """Input geometry plus the ordered layer stack.

    The stack must end with one Accumulator followed by one Classifier;
    everything before them is the per-step encoder. ``reset`` picks the
    membrane reset rule (subtract theta, or zero), ``input_timing`` whether a
    threshold site sees the current step's input or the previous one's.
    """

    time_steps: int
    height: int
    width: int
    layers: tuple[LayerSpec, ...]
    in_channels: int = 2
    reset: str = "subtract"
    input_timing: str = "same_step"

    def __post_init__(self):
        if self.time_steps < 1:
            raise ConfigError(f"time_steps must be >= 1, got {self.time_steps}")
        if self.reset not in RESET_MODES:
            raise ConfigError(f"reset must be one of {RESET_MODES}, got {self.reset!r}")
        if self.input_timing not in INPUT_TIMINGS:
            raise ConfigError(f"input_timing must be one of {INPUT_TIMINGS}")
        self.encoder_shapes()  # raises on malformed stacks

    @property
    def encoder_layers(self) -> tuple[LayerSpec, ...]:
        return self.layers[:-2]

    @property
    def accumulator(self) -> Accumulator:
        if len(self.layers) < 2 or not isinstance(self.layers[-2], Accumulator) \
                or not isinstance(self.layers[-1], Classifier):
            raise ConfigError("layer stack must end with Accumulator then Classifier")
        for lay in self.layers[:-2]:
            if isinstance(lay, (Accumulator, Classifier)):
                raise ConfigError("Accumulator/Classifier only allowed at the end")
        return self.layers[-2]

    @property
    def classifier(self) -> Classifier:
        self.accumulator
        return self.layers[-1]

    def encoder_shapes(self) -> list[tuple]:
        """Input shape of every encoder layer plus the final feature shape.

        Returns len(encoder)+1 entries; the last one is the feature vector
        shape (d,) fed to the accumulator.
        """
        acc = self.accumulator
        shape: tuple = (self.in_channels, self.height, self.width)
        shapes = [shape]
        for i, lay in enumerate(self.encoder_layers):
            where = f"layer {i} ({type(lay).__name__})"
            if isinstance(lay, Conv2d):
                if len(shape) != 3:
                    raise ConfigError(f"{where}: needs (C,H,W) input, got {shape}")
                if shape[0] != lay.c_in:
                    raise ConfigError(f"{where}: expects {lay.c_in} channels, got {shape[0]}")
                shape = (lay.c_out,
                         conv_out_size(shape[1], lay.k, lay.stride, lay.padding),
                         conv_out_size(shape[2], lay.k, lay.stride, lay.padding))
                if shape[1] < 1 or shape[2] < 1:
                    raise ConfigError(f"{where}: output collapses to {shape}")
            elif isinstance(lay, IF):
                if lay.theta <= 0:
                    raise ConfigError(f"{where}: theta must be positive")
            elif isinstance(lay, SEW):
                if len(shape) != 3 or shape[0] != lay.channels:
                    raise ConfigError(f"{where}: expects ({lay.channels},H,W), got {shape}")
                if lay.g not in SEW_FUNCTIONS:
                    raise ConfigError(f"{where}: g must be one of {SEW_FUNCTIONS}")
            elif isinstance(lay, AvgPool):
                if len(shape) != 3 or shape[1] % lay.window or shape[2] % lay.window:
                    raise ConfigError(f"{where}: window {lay.window} does not tile {shape}")
                shape = (shape[0], shape[1] // lay.window, shape[2] // lay.window)
            elif isinstance(lay, GlobalPool):
                if len(shape) != 3:
                    raise ConfigError(f"{where}: needs (C,H,W) input, got {shape}")
                shape = (shape[0],)
            else:
                raise ConfigError(f"{where}: unsupported layer kind")
            shapes.append(shape)
        if len(shapes[-1]) == 3:
            c, h, w = shapes[-1]
            if h == 1 and w == 1 or not self.encoder_layers:
                shapes[-1] = (int(np.prod(shapes[-1])),)  # flattened features
            else:
                raise ConfigError(
                    f"accumulator needs vector features; encoder ends with {shapes[-1]}")
        if shapes[-1][0] != acc.dim:
            raise ConfigError(
                f"accumulator dim {acc.dim} != encoder feature size {shapes[-1][0]}")
        return shapes

    @property
    def feature_dim(self) -> int:
        return self.accumulator.dim


def sew_tiny(classes: int, height: int = 64, width: int = 64, time_steps: int = 6,
             theta: float = 1.0, g: str = "add", reset: str = "subtract",
             input_timing: str = "same_step") -> NetworkConfig:
    """Small three-block residual spiking encoder: 16 -> 32 -> 64 channels,
    global average pooling, a final threshold so per-step features are binary,
    then the 64-d accumulator head."""
    return NetworkConfig(
        time_steps=time_steps, height=height, width=width,
        reset=reset, input_timing=input_timing,
        layers=(
            Conv2d(2, 16, k=3, stride=2, padding=1), IF(theta),
            AvgPool(2),
            SEW(16, g=g, theta=theta),
            Conv2d(16, 32, k=3, stride=2, padding=1), IF(theta),
            SEW(32, g=g, theta=theta),
            Conv2d(32, 64, k=3, stride=2, padding=1), IF(theta),
            SEW(64, g=g, theta=theta),
            GlobalPool(), IF(theta),
            Accumulator(64),
            Classifier(classes),
        ))


def sew18(classes: int, height: int = 200, width: int = 200, time_steps: int = 6,
          theta: float = 1.0, g: str = "add") -> NetworkConfig:
    """Full-scale eight-block variant (d=512); expressible but heavy."""
    layers: list[LayerSpec] = [Conv2d(2, 64, k=7, stride=2, padding=3), IF(theta),
                               AvgPool(2)]
    channels = [64, 64, 128, 128, 256, 256, 512, 512]
    prev = 64
    for c in channels:
        if c != prev:
            layers += [Conv2d(prev, c, k=3, stride=2, padding=1), IF(theta)]
        layers += [SEW(c, g=g, theta=theta)]
        prev = c
    layers += [GlobalPool(), IF(theta), Accumulator(512), Classifier(classes)]
    return NetworkConfig(time_steps=time_steps, height=height, width=width,
                         layers=tuple(layers))


# ---------------------------------------------------------------------------
# parameters

def _kaiming_uniform(rng, shape, fan_in, dtype):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_params(config: NetworkConfig, seed: int, dtype=np.float32,
                kind: str = "spiking") -> dict[str, np.ndarray]:
    """Fresh parameter tensors in declared layer order; Kaiming-uniform
    weights, zero biases. ``kind='dense'`` initialises the dense twin, whose
    first conv takes the time-folded input."""
    if kind not in ("spiking", "dense"):
        raise ConfigError(f"kind must be spiking or dense, got {kind!r}")
    if kind == "dense":
        config = _dense_view(config)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params: dict[str, np.ndarray] = {}
    for i, lay in enumerate(config.encoder_layers):
        tag = f"{i:02d}"
        if isinstance(lay, Conv2d):
            fan = lay.c_in * lay.k * lay.k
            params[f"{tag}.conv.weight"] = _kaiming_uniform(
                rng, (lay.c_out, lay.c_in, lay.k, lay.k), fan, dtype)
            if lay.bias:
                params[f"{tag}.conv.bias"] = np.zeros(lay.c_out, dtype=dtype)
        elif isinstance(lay, SEW):
            fan = lay.channels * lay.k * lay.k
            for stage in ("conv1", "conv2"):
                params[f"{tag}.sew.{stage}.weight"] = _kaiming_uniform(
                    rng, (lay.channels, lay.channels, lay.k, lay.k), fan, dtype)
                if lay.bias:
                    params[f"{tag}.sew.{stage}.bias"] = np.zeros(lay.channels, dtype=dtype)
    d = config.feature_dim
    acc_tag = f"{len(config.layers) - 2:02d}"
    cls_tag = f"{len(config.layers) - 1:02d}"
    params[f"{acc_tag}.acc.weight"] = _kaiming_uniform(rng, (d, d), d, dtype)
    cls = config.classifier
    params[f"{cls_tag}.cls.weight"] = _kaiming_uniform(rng, (cls.classes, d), d, dtype)
    if cls.bias:
        params[f"{cls_tag}.cls.bias"] = np.zeros(cls.classes, dtype=dtype)
    return params


@dataclass(frozen=True)
class SynapticLayer:
    """Static description of one weighted layer, for operation counting.

    Names match the activity keys recorded by ``forward``. Linear layers use
    k = out_h = out_w = 1 so one FLOP formula covers both shapes. ``out_site``
    is the threshold site fed by this layer (None for the head layers), used
    by the alternative output-rate charging rule.
    """

    name: str
    op: str  # "conv" or "linear"
    k: int
    out_h: int
    out_w: int
    c_in: int
    c_out: int
    out_site: str | None = None

    @property
    def macs(self) -> int:
        return self.k * self.k * self.out_h * self.out_w * self.c_in * self.c_out


def synaptic_layers(config: NetworkConfig, kind: str = "spiking") -> list[SynapticLayer]:
    """Every weighted layer in forward order, with resolved shapes."""
    if kind == "dense":
        config = _dense_view(config)
    shapes = config.encoder_shapes()
    enc = config.encoder_layers
    out = []

    def next_if_site(start: int) -> str | None:
        for j in range(start, len(enc)):
            if isinstance(enc[j], IF):
                return f"{j:02d}"
            if isinstance(enc[j], (Conv2d, SEW)):
                return None
        return None

    for i, lay in enumerate(enc):
        tag = f"{i:02d}"
        if isinstance(lay, Conv2d):
            c, oh, ow = shapes[i + 1] if len(shapes[i + 1]) == 3 else (shapes[i + 1][0], 1, 1)
            out.append(SynapticLayer(f"{tag}.conv", "conv", lay.k, oh, ow,
                                     shapes[i][0], lay.c_out, next_if_site(i + 1)))
        elif isinstance(lay, SEW):
            _, h, w = shapes[i]
            for stage, site in (("conv1", f"{tag}a"), ("conv2", f"{tag}b")):
                out.append(SynapticLayer(f"{tag}.sew.{stage}", "conv", lay.k, h, w,
                                         lay.channels, lay.channels, site))
    d = config.feature_dim
    acc_tag = f"{len(config.layers) - 2:02d}"
    cls_tag = f"{len(config.layers) - 1:02d}"
    out.append(SynapticLayer(f"{acc_tag}.acc", "linear", 1, 1, 1, d, d))
    out.append(SynapticLayer(f"{cls_tag}.cls", "linear", 1, 1, 1, d,
                             config.classifier.classes))
    return out


# ---------------------------------------------------------------------------
# JSON grammar (checkpoints and experiment files embed configs)

_LAYER_KINDS: dict[str, type] = {
    "conv": Conv2d, "if": IF, "sew": SEW, "avg_pool": AvgPool,
    "global_pool": GlobalPool, "accumulator": Accumulator, "classifier": Classifier,
}
_KIND_NAMES = {cls: name for name, cls in _LAYER_KINDS.items()}


def config_to_json(config: NetworkConfig) -> dict:
    layers = []
    for lay in config.layers:
        entry = {"kind": _KIND_NAMES[type(lay)]}
        for f in type(lay).__dataclass_fields__:
            entry[f] = getattr(lay, f)
        layers.append(entry)
    return {"time_steps": config.time_steps, "height": config.height,
            "width": config.width, "in_channels": config.in_channels,
            "reset": config.reset, "input_timing": config.input_timing,
            "layers": layers}


def config_from_json(obj: dict) -> NetworkConfig:
    if not isinstance(obj, dict):
        raise ConfigError("network config must be a JSON object")
    allowed = {"time_steps", "height", "width", "in_channels", "reset",
               "input_timing", "layers"}
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown network config keys: {sorted(unknown)}")
    layers = []
    for n, entry in enumerate(obj.get("layers", ())):
        entry = dict(entry)
        kind = entry.pop("kind", None)
        cls = _LAYER_KINDS.get(kind)
        if cls is None:
            raise ConfigError(f"layer {n}: unknown kind {kind!r}")
        bad = set(entry) - set(cls.__dataclass_fields__)
        if bad:
            raise ConfigError(f"layer {n} ({kind}): unknown keys {sorted(bad)}")
        layers.append(cls(**entry))
    fields = {k: obj[k] for k in allowed - {"layers"} if k in obj}
    return NetworkConfig(layers=tuple(layers), **fields)


def check_finite(params: dict[str, np.ndarray]) -> None:
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise FloatingPointError(f"non-finite values in parameter {name}")


# ---------------------------------------------------------------------------
# forward

@dataclass
class ForwardTrace:
    """Everything the backward pass and the energy estimator need."""

    mode: str
    batch: int
    time_steps: int
    features: np.ndarray                  # (B, T, d) per-step feature vectors
    feature_shape: tuple                  # encoder output shape before flattening
    accumulated: np.ndarray               # (B, d)
    logits: np.ndarray                    # (B, C)
    caches: list | None                   # [t][encoder layer] tuples
    spike_counts: dict[str, float]        # per threshold site, batch+steps total
    site_sizes: dict[str, int]            # per-sample neuron count per site
    synaptic_inputs: dict[str, tuple[float, int]]  # layer -> (input sum, size)


def _if_apply(v, theta, mode, reset):
    if mode == "spike":
        x = heaviside(v - theta)
    else:
        x = arctan_surrogate(v - theta)
    if reset == "subtract":
        u = v - theta * x
    else:
        u = v * (1.0 - x)
    return x, u


def if_step(u_prev: np.ndarray, weighted_input: np.ndarray, theta: float = 1.0,
            reset: str = "subtract") -> tuple[np.ndarray, np.ndarray]:
    """One integrate-and-fire update: V = U_prev + I, spike where V >= theta,
    then reset by subtraction (default) or to zero. Returns (spikes, U_next)."""
    if reset not in ("subtract", "zero"):
        raise ValueError(f"unknown reset mode {reset!r}")
    v = np.asarray(u_prev, dtype=np.float64) + np.asarray(weighted_input)
    return _if_apply(v, theta, "spike", reset)


def _as_batched(x: np.ndarray, config: NetworkConfig) -> np.ndarray:
    want = (config.time_steps, config.in_channels, config.height, config.width)
    if x.shape == want:
        return x[None]
    if x.ndim == 5 and x.shape[1:] == want:
        return x
    raise ConfigError(f"input shape {x.shape} does not match {want} (optionally batched)")


def forward(config: NetworkConfig, params: dict, x: np.ndarray, mode: str = "spike",
            record: bool = True) -> tuple[np.ndarray, ForwardTrace]:
    """Run the model over all time bins.

    mode='spike' emits binary spikes; mode='relaxed' substitutes the smooth
    surrogate in the forward pass too (diagnostic, exactly differentiable);
    mode='dense' runs the non-spiking twin: one step on the time-folded
    input, ReLU at every threshold site.
    ``record=False`` drops backward caches but keeps the activity counters.
    """
    if mode not in ("spike", "relaxed", "dense"):
        raise ConfigError(f"mode must be spike, relaxed or dense, got {mode!r}")
    if mode == "dense":
        x = fold_time(x, config)[:, None]
        config = _dense_view(config)
    x = _as_batched(x, config)
    dtype = next(iter(params.values())).dtype
    b, t_steps = x.shape[0], config.time_steps
    enc = config.encoder_layers
    d = config.feature_dim

    membranes: dict[str, np.ndarray] = {}
    pending: dict[str, np.ndarray] = {}
    delayed = config.input_timing == "delayed"

    spike_counts: dict[str, float] = {"input": float(x.sum())}
    site_sizes: dict[str, int] = {
        "input": config.in_channels * config.height * config.width}
    syn_inputs: dict[str, tuple[float, int]] = {}
    caches: list | None = [] if record else None
    features = np.empty((b, t_steps, d), dtype=dtype)
    w_acc = params[f"{len(config.layers) - 2:02d}.acc.weight"]
    accumulated = np.zeros((b, d), dtype=dtype)

    def conv(name: str, h: np.ndarray, stride: int, padding: int) -> np.ndarray:
        total, _ = syn_inputs.get(name, (0.0, 0))
        syn_inputs[name] = (total + float(h.sum()), h[0].size)
        return conv2d_forward(h, params[f"{name}.weight"], params.get(f"{name}.bias"),
                              stride, padding)

    def site(name: str, drive: np.ndarray, theta: float):
        if mode == "dense":  # ReLU; nothing carries across steps
            v, spikes = drive, np.maximum(drive, 0.0)
        else:
            u_prev = membranes.get(name)
            if u_prev is None:
                u_prev = np.zeros_like(drive)
            if delayed:
                inp = pending.get(name)
                if inp is None:
                    inp = np.zeros_like(drive)
                pending[name] = drive
            else:
                inp = drive
            v = u_prev + inp
            spikes, membranes[name] = _if_apply(v, theta, mode, config.reset)
        spike_counts[name] = spike_counts.get(name, 0.0) + float(spikes.sum())
        site_sizes[name] = spikes[0].size
        return spikes, v

    for t in range(t_steps):
        h = np.ascontiguousarray(x[:, t], dtype=dtype)
        step_cache: list = []
        for i, lay in enumerate(enc):
            tag = f"{i:02d}"
            if isinstance(lay, Conv2d):
                step_cache.append((h,))
                h = conv(f"{tag}.conv", h, lay.stride, lay.padding)
            elif isinstance(lay, IF):
                h, v = site(tag, h, lay.theta)
                step_cache.append((v, h))
            elif isinstance(lay, SEW):
                pad = lay.k // 2
                s1, v1 = site(f"{tag}a", conv(f"{tag}.sew.conv1", h, 1, pad), lay.theta)
                s2, v2 = site(f"{tag}b", conv(f"{tag}.sew.conv2", s1, 1, pad), lay.theta)
                step_cache.append((h, v1, s1, v2, s2))
                if lay.g == "add":
                    h = s2 + h
                elif lay.g == "and":
                    h = s2 * h
                else:  # iand
                    h = (1.0 - s2) * h
            elif isinstance(lay, AvgPool):
                h = avg_pool_forward(h, lay.window)
                step_cache.append(())
            elif isinstance(lay, GlobalPool):
                step_cache.append((h.shape[2], h.shape[3]))
                h = global_pool_forward(h)
        feature_shape = h.shape[1:]
        if h.ndim > 2:
            h = h.reshape(b, -1)
        features[:, t] = h
        accumulated += h @ w_acc.T
        if record:
            caches.append(step_cache)

    cls_tag = f"{len(config.layers) - 1:02d}"
    logits = linear_forward(accumulated, params[f"{cls_tag}.cls.weight"],
                            params.get(f"{cls_tag}.cls.bias"))
    syn_inputs[f"{len(config.layers) - 2:02d}.acc"] = (float(features.sum()), d)
    trace = ForwardTrace(mode=mode, batch=b, time_steps=t_steps, features=features,
                         feature_shape=feature_shape, accumulated=accumulated,
                         logits=logits, caches=caches, spike_counts=spike_counts,
                         site_sizes=site_sizes, synaptic_inputs=syn_inputs)
    return logits, trace


def accumulate(features: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Sum over steps of weight @ F_t. features (T, d) or (B, T, d)."""
    single = features.ndim == 2
    f = features[None] if single else features
    out = np.zeros((f.shape[0], weight.shape[0]), dtype=f.dtype)
    for t in range(f.shape[1]):
        out += f[:, t] @ weight.T
    return out[0] if single else out


# ---------------------------------------------------------------------------
# backward

def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def backward(config: NetworkConfig, params: dict, trace: ForwardTrace,
             labels: np.ndarray) -> dict[str, np.ndarray]:
    """Mean cross-entropy gradients for every parameter, by BPTT.

    At threshold sites the local derivative is the arctan surrogate at
    (V - theta); the membrane carry and the reset term are differentiated with
    the same surrogate. For ``relaxed`` traces this is the exact gradient; for
    ``dense`` traces the sites are ReLUs with derivative 1[V > 0].
    """
    if trace.caches is None:
        raise ValueError("trace was recorded with record=False; cannot backprop")
    if trace.mode == "dense":
        config = _dense_view(config)
    labels = np.asarray(labels)
    b, t_steps = trace.batch, trace.time_steps
    enc = config.encoder_layers
    delayed = config.input_timing == "delayed"
    grads = {name: np.zeros_like(value) for name, value in params.items()}

    # loss head: mean cross-entropy over the batch
    dlogits = softmax(trace.logits)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b

    cls_tag = f"{len(config.layers) - 1:02d}"
    acc_tag = f"{len(config.layers) - 2:02d}"
    w_cls = params[f"{cls_tag}.cls.weight"]
    dacc, dw_cls, db_cls = linear_backward(trace.accumulated, w_cls, dlogits,
                                           f"{cls_tag}.cls.bias" in params)
    grads[f"{cls_tag}.cls.weight"] = dw_cls
    if db_cls is not None:
        grads[f"{cls_tag}.cls.bias"] = db_cls

    w_acc = params[f"{acc_tag}.acc.weight"]
    grads[f"{acc_tag}.acc.weight"] = dacc.T @ trace.features.sum(axis=1)
    dfeat = dacc @ w_acc  # ∂L/∂F_t, identical for every step

    carry_u: dict[str, np.ndarray] = {}
    carry_p: dict[str, np.ndarray] = {}

    def conv_back(name: str, x_in, g, stride: int, padding: int):
        """Returns gradient w.r.t. the conv input; accumulates its parameters'."""
        dx, dw, db = conv2d_backward(x_in, params[f"{name}.weight"], g, stride, padding,
                                     f"{name}.bias" in params)
        grads[f"{name}.weight"] += dw
        if db is not None:
            grads[f"{name}.bias"] += db
        return dx

    def site_back(name: str, g_out, v, spikes, theta):
        """Returns gradient w.r.t. this step's drive; updates carries."""
        if trace.mode == "dense":
            return g_out * (v > 0)
        sg = arctan_surrogate_grad(v - theta)
        g_u = carry_u.get(name)
        if config.reset == "subtract":
            reset_term = 1.0 - theta * sg
        else:
            reset_term = (1.0 - spikes) - v * sg
        gv = g_out * sg
        if g_u is not None:
            gv = gv + g_u * reset_term
        carry_u[name] = gv
        if delayed:
            g_in = carry_p.get(name)
            carry_p[name] = gv
            return np.zeros_like(gv) if g_in is None else g_in
        return gv

    for t in reversed(range(t_steps)):
        if not enc:
            continue  # passthrough encoder: gradient stops at the input
        g = dfeat
        if len(trace.feature_shape) == 3:  # undo the trailing flatten
            g = dfeat.reshape((b,) + trace.feature_shape)
        step_cache = trace.caches[t]
        for i in reversed(range(len(enc))):
            lay = enc[i]
            tag = f"{i:02d}"
            cache = step_cache[i]
            if isinstance(lay, Conv2d):
                g = conv_back(f"{tag}.conv", cache[0], g, lay.stride, lay.padding)
            elif isinstance(lay, IF):
                v, spikes = cache
                g = site_back(tag, g, v, spikes, lay.theta)
            elif isinstance(lay, SEW):
                x_in, v1, s1, v2, s2 = cache
                pad = lay.k // 2
                if lay.g == "add":
                    g_s2, g_res = g, g
                elif lay.g == "and":
                    g_s2, g_res = g * x_in, g * s2
                else:  # iand
                    g_s2, g_res = -g * x_in, g * (1.0 - s2)
                g2 = site_back(f"{tag}b", g_s2, v2, s2, lay.theta)
                g1 = site_back(f"{tag}a", conv_back(f"{tag}.sew.conv2", s1, g2, 1, pad),
                               v1, s1, lay.theta)
                g = conv_back(f"{tag}.sew.conv1", x_in, g1, 1, pad) + g_res
            elif isinstance(lay, AvgPool):
                g = avg_pool_backward(g, lay.window)
            elif isinstance(lay, GlobalPool):
                h, w = cache
                g = global_pool_backward(g, h, w)
    return grads


# ---------------------------------------------------------------------------
# dense (non-spiking) twin

def fold_time(x: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """(B, T, 2, H, W) -> (B, 2T, H, W): binary frames concatenated along the
    channel axis in step order."""
    x = _as_batched(x, config)
    b = x.shape[0]
    return x.reshape(b, config.time_steps * config.in_channels,
                     config.height, config.width)


def _dense_view(config: NetworkConfig) -> NetworkConfig:
    """The config the dense twin runs as: one step over the time-folded
    input, the first conv widened to take it, additive SEW joins, same-step
    site timing (ReLU sites are chosen by mode='dense')."""
    layers, widened = [], False
    for lay in config.layers:
        if isinstance(lay, Conv2d) and not widened:
            lay, widened = replace(lay, c_in=lay.c_in * config.time_steps), True
        elif isinstance(lay, SEW):
            lay = replace(lay, g="add")
        layers.append(lay)
    return replace(config, time_steps=1, in_channels=config.in_channels * config.time_steps,
                   layers=tuple(layers), input_timing="same_step")


# the twin's former entry points, kept as aliases; partial keeps
# dense_backward a distinct object, so the benchmark tracer, which wraps
# functions by identity, still reports backward under its own name
dense_forward = partial(forward, mode="dense")
dense_backward = partial(backward)
