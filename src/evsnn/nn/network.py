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

The split rule, decided by the batch alone (``_parts``, which returns one
result per part, in order): a batch of B samples whose second half, floor(B/2)
samples, holds fewer than ``_SPLIT_MIN`` (2**17) input values runs whole, as
one part; any other (sew_tiny at 64x64 and T=6: B >= 6) as two, the first
ceil(B/2) samples and the rest. ``forward(..., record=False)`` encodes each
part, concatenates their features and adds their counters left to right, and
runs the accumulator and classifier on the whole batch; ``nn.train`` sums its
parts' gradients, first part first, each from ``forward(..., record=True)``,
which never splits. ``evsnn._helper.beside`` alone decides where a second half
runs: where this process's OpenBLAS runs two or more threads, in its helper
process (forked on first use) beside the first, the fork leaving both at one
BLAS thread until the helper stops; in a sweep worker held at one thread, or
where no helper can be had, reached and kept through the job, here after the
first. Where a half runs never changes a result, so results do not depend on
the thread count or the helper's health, and reruns are byte-identical.
Against a whole-batch run, spike-mode logits, features and counters are
bitwise equal (spikes are thresholded and counted); relaxed- and dense-mode
values can differ in the last bits.

A trace holds an activity counter exactly where ``energy.stats_from_traces``
reads one, in spike mode only (relaxed and dense traces hold none): each
threshold site's spike count, from its threshold comparison, and the input sum
of each conv and of the accumulator whose ``SynapticLayer.real_input`` is
False. An input sum comes from those counts, through power-of-two pools and
additive SEW joins, or else from a float64 sum, exact (and so the same split or
whole) while fewer than 2**28 spikes feed one step's sum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Annotated, Literal, Union

import numpy as np

from .. import _helper
from .._heap import keep_heap
from .._schema import Bound, SchemaError, bounded, checked
from .layers import (_conv_columns, _flipped_kernel, _full_correlation, avg_pool_backward,
                     avg_pool_forward, conv2d_backward, conv2d_forward, conv_out_size,
                     global_pool_backward, global_pool_forward, linear_backward,
                     linear_forward)
from .surrogate import arctan_surrogate, arctan_surrogate_grad


class ConfigError(SchemaError):
    """Layer stack does not compose (raised before any compute)."""


@dataclass(frozen=True)
class Conv2d:
    c_in: COUNT
    c_out: COUNT
    k: COUNT = 3
    stride: SIZE = 1
    padding: Annotated[int, Bound(0, 0xFFFF)] = 1
    bias: bool = True


@dataclass(frozen=True)
class IF:
    theta: THETA = 1.0


@dataclass(frozen=True)
class SEW:
    """Residual block: two conv+IF stages joined to the identity by an element-wise g."""

    channels: COUNT
    k: COUNT = 3
    g: Literal["add", "and", "iand"] = "add"
    theta: THETA = 1.0
    bias: bool = True

    @property
    def conv(self) -> Conv2d:
        """Either stage's conv: channels to channels, stride 1, same size."""
        return Conv2d(self.channels, self.channels, self.k, 1, self.k // 2, self.bias)


@dataclass(frozen=True)
class AvgPool:
    window: COUNT


@dataclass(frozen=True)
class GlobalPool:
    pass


@dataclass(frozen=True)
class Accumulator:
    dim: COUNT


@dataclass(frozen=True)
class Classifier:
    classes: SIZE
    bias: bool = True


LayerSpec = Union[Conv2d, IF, SEW, AvgPool, GlobalPool, Accumulator, Classifier]
COUNT = Annotated[int, Bound(1)]
SIZE = Annotated[int, Bound(1, 0xFFFF)]  # at most the largest sensor side an event file holds
THETA = Annotated[float, Bound(0, exclusive=True)]

Reset = Literal["subtract", "zero"]
ModelKind = Literal["spiking", "dense"]


@dataclass(frozen=True)
class NetworkConfig:
    """Input geometry plus the ordered layer stack.

    The stack must end with one Accumulator followed by one Classifier;
    everything before them is the per-step encoder. ``reset`` picks the
    membrane reset rule (subtract theta, or zero), ``input_timing`` whether a
    threshold site sees the current step's input or the previous one's.
    """

    time_steps: SIZE
    height: SIZE
    width: SIZE
    layers: tuple[LayerSpec, ...]
    in_channels: COUNT = 2
    reset: Reset = "subtract"
    input_timing: Literal["same_step", "delayed"] = "same_step"

    def __post_init__(self):
        bounded(NetworkConfig, vars(self), "network config", ConfigError)
        for i, lay in enumerate(self.layers):
            bounded(type(lay), vars(lay), f"layer {i} ({type(lay).__name__})", ConfigError)
        self.encoder_shapes()  # raises on malformed stacks

    @property
    def encoder_layers(self) -> tuple[LayerSpec, ...]:
        return self.layers[:-2]

    @property
    def accumulator(self) -> Accumulator:
        return self.layers[-2]

    @property
    def classifier(self) -> Classifier:
        return self.layers[-1]

    def encoder_shapes(self) -> list[tuple]:
        """Input shape of every encoder layer plus the final feature shape.

        Returns len(encoder)+1 entries; the last one is the feature vector
        shape (d,) fed to the accumulator. The head is checked first.
        """
        if len(self.layers) < 2 or not isinstance(self.layers[-2], Accumulator) \
                or not isinstance(self.layers[-1], Classifier):
            raise ConfigError("layer stack must end with Accumulator then Classifier")
        if any(isinstance(lay, (Accumulator, Classifier)) for lay in self.encoder_layers):
            raise ConfigError("Accumulator/Classifier only allowed at the end")
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
            elif isinstance(lay, SEW):
                if len(shape) != 3 or shape[0] != lay.channels:
                    raise ConfigError(f"{where}: expects ({lay.channels},H,W), got {shape}")
                if lay.k % 2 == 0:
                    raise ConfigError(f"{where}: k must be odd to keep the map size, "
                                      f"got {lay.k}")
            elif isinstance(lay, AvgPool):
                if len(shape) != 3 or shape[1] % lay.window or shape[2] % lay.window:
                    raise ConfigError(f"{where}: window {lay.window} does not tile {shape}")
                shape = (shape[0], shape[1] // lay.window, shape[2] // lay.window)
            elif isinstance(lay, GlobalPool):
                if len(shape) != 3:
                    raise ConfigError(f"{where}: needs (C,H,W) input, got {shape}")
                shape = (shape[0],)
            elif not isinstance(lay, IF):
                raise ConfigError(f"{where}: unsupported layer kind")
            shapes.append(shape)
        if len(shapes[-1]) == 3:
            c, h, w = shapes[-1]
            if h == 1 and w == 1 or not self.encoder_layers:
                shapes[-1] = (int(np.prod(shapes[-1])),)  # flattened features
            else:
                raise ConfigError(
                    f"accumulator needs vector features; encoder ends with {shapes[-1]}")
        if shapes[-1][0] != self.accumulator.dim:
            raise ConfigError(f"accumulator dim {self.accumulator.dim} "
                              f"!= encoder feature size {shapes[-1][0]}")
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


def _layer_plan(config: NetworkConfig, dens: list | None = None) -> list[tuple]:
    """Per encoder layer, in forward order: (layer, the names of its
    threshold sites, its convs as (tensor name, Conv2d, output (C, H, W),
    site it feeds, whether its input is a conv's real-valued output)); the
    one place where all of these are named or decided. A plain conv feeds
    the first IF after it unless a Conv2d or SEW comes first; a SEW stage
    feeds its own site. Values are real from a Conv2d to the next IF (pools
    and SEW joins carry them); a SEW's second stage reads spikes. ``_encode``
    and ``backward`` build it once per call for their step loops.

    Where ``dens`` is a list, each layer's ``den`` is appended to it: the
    scale at which a recorded spike-mode trace holds the layer's output map
    as the uint8 count ``h * den``, None where it holds no count. A running
    grain ``(den, bound)``, the map's values being multiples of 1/den in
    [0, bound], decides it: an IF sets (1, 1) (its kept spikes are bool, so
    its den is 1); a power-of-two ``AvgPool(w)`` multiplies den by w*w; an
    ``add`` join raises bound by 1, ``and``/``iand`` keep it; a Conv2d, a
    GlobalPool and any other pool window leave no grain. A count is held
    where the grain is known, ``den * bound <= 255``, and a conv or SEW
    above caches the map (or a pool above holds its count): in ``sew_tiny``
    the pooled input of SEW 03 (quarters), SEW 03's join (quarters up to 2)
    and SEW 06's join (0 to 2), 0.94 MiB of a 16-sample trace where float32
    took 3.75; in ``sew18`` its pooled input, its first two joins (quarters
    up to 3) and every later join but the last (0 to 3), 4.30 MiB per
    200x200 sample at T=6 where float32 took 17.20. A
    power-of-two den reads back exactly as ``q / den``."""
    layers, shapes = config.encoder_layers, config.encoder_shapes()
    plan, real, grain, held = [], False, None, []
    for i, lay in enumerate(layers):
        tag = f"{i:02d}"
        if isinstance(lay, Conv2d):
            site = next((f"{j:02d}" if isinstance(nxt, IF) else None
                         for j, nxt in enumerate(layers[i + 1:], i + 1)
                         if isinstance(nxt, (IF, Conv2d, SEW))), None)
            out = shapes[i + 1] if len(shapes[i + 1]) == 3 else (shapes[i + 1][0], 1, 1)
            plan.append((lay, (), ((f"{tag}.conv", lay, out, site, real),)))
            real, grain = True, None
        elif isinstance(lay, IF):
            plan.append((lay, (tag,), ()))
            real, grain = False, (1, 1)
        elif isinstance(lay, SEW):
            conv, sites = lay.conv, (f"{tag}a", f"{tag}b")
            plan.append((lay, sites, ((f"{tag}.sew.conv1", conv, shapes[i], sites[0], real),
                                      (f"{tag}.sew.conv2", conv, shapes[i], sites[1], False))))
            if grain and lay.g == "add":
                grain = (grain[0], grain[1] + 1)
        elif isinstance(lay, AvgPool):
            plan.append((lay, (), ()))
            w = lay.window
            grain = (grain[0] * w * w, grain[1]) if grain and not w & (w - 1) else None
        else:
            plan.append((lay, (), ()))
            grain = None
        held.append(grain[0] if grain and grain[0] * grain[1] <= 255 else None)
    if dens is not None:  # kept where a conv or SEW caches it, or a counted pool reads it
        for i in reversed(range(len(layers))):
            nxt = layers[i + 1] if i + 1 < len(layers) else None
            if not (isinstance(nxt, (Conv2d, SEW)) or isinstance(nxt, AvgPool) and held[i + 1]):
                held[i] = None
        dens.extend(held)
    return plan


def _forward_mode(kind: ModelKind) -> str:
    """The ``forward`` mode a model kind runs in."""
    bounded(_forward_mode, {"kind": kind}, "", ConfigError)
    return "spike" if kind == "spiking" else "dense"


def param_shapes(config: NetworkConfig, kind: str = "spiking") -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in ``synaptic_layers`` order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for lay in synaptic_layers(config, kind):
        kernel = (lay.k, lay.k) if lay.op == "conv" else ()
        shapes[f"{lay.name}.weight"] = (lay.c_out, lay.c_in, *kernel)
        if lay.bias:
            shapes[f"{lay.name}.bias"] = (lay.c_out,)
    return shapes


def init_params(config: NetworkConfig, seed: int, dtype=np.float32,
                kind: str = "spiking") -> dict[str, np.ndarray]:
    """Fresh parameter tensors of ``param_shapes``: Kaiming-uniform weights
    (fan-in the product of all but the first dimension), zero biases.
    ``kind='dense'`` initialises the dense twin, whose first conv takes the
    time-folded input."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return {name: np.zeros(shape, dtype=dtype) if name.endswith(".bias")
            else _kaiming_uniform(rng, shape, math.prod(shape[1:]), dtype)
            for name, shape in param_shapes(config, kind).items()}


@dataclass(frozen=True)
class SynapticLayer:
    """Static description of one weighted layer, for operation counting and
    for its parameter tensors.

    Names match the activity keys recorded by ``forward``. Linear layers use
    k = out_h = out_w = 1 so one FLOP formula covers both shapes. ``out_site``
    is the threshold site fed by this layer (None for the head layers), read
    by the output-rate charging rule; ``real_input`` says whether its input is
    a conv's real-valued output rather than spikes, their pools and joins.
    A conv's two are its ``_layer_plan`` entry's; ``bias``: whether it has a bias tensor.
    """

    name: str
    op: str  # "conv" or "linear"
    k: int
    out_h: int
    out_w: int
    c_in: int
    c_out: int
    out_site: str | None = None
    bias: bool = False
    real_input: bool = False

    @property
    def macs(self) -> int:
        return self.k * self.k * self.out_h * self.out_w * self.c_in * self.c_out


def synaptic_layers(config: NetworkConfig, kind: str = "spiking") -> list[SynapticLayer]:
    """Every weighted layer, shapes resolved: ``_layer_plan``'s convs, then the head."""
    if _forward_mode(kind) == "dense":
        config = _dense_view(config)
    plan = _layer_plan(config)
    # the accumulator's input is real, as a conv's is, where the last Conv2d or IF is a Conv2d
    last = next((lay for lay, _, _ in reversed(plan) if isinstance(lay, (Conv2d, IF))), None)
    d, n = config.feature_dim, len(config.layers)
    return [*(SynapticLayer(name, "conv", conv.k, oh, ow, conv.c_in, conv.c_out, site,
                            conv.bias, real)
              for _, _, convs in plan for name, conv, (_, oh, ow), site, real in convs),
            SynapticLayer(f"{n - 2:02d}.acc", "linear", 1, 1, 1, d, d,
                          real_input=isinstance(last, Conv2d)),
            SynapticLayer(f"{n - 1:02d}.cls", "linear", 1, 1, 1, d, config.classifier.classes,
                          bias=config.classifier.bias)]


# ---------------------------------------------------------------------------
# JSON grammar (checkpoints and experiment files embed configs)

_LAYER_KINDS: dict[str, type] = {
    "conv": Conv2d, "if": IF, "sew": SEW, "avg_pool": AvgPool,
    "global_pool": GlobalPool, "accumulator": Accumulator, "classifier": Classifier,
}
_KIND_NAMES = {cls: name for name, cls in _LAYER_KINDS.items()}


def _layer(kind: str, **params): ...  # a layer entry's schema; its class reads the rest


def config_to_json(config: NetworkConfig) -> dict:
    return {**asdict(config), "layers": [{"kind": _KIND_NAMES[type(lay)], **asdict(lay)}
                                         for lay in config.layers]}


def config_from_json(obj: dict) -> NetworkConfig:
    checked(NetworkConfig, obj, "network config", error=ConfigError)
    layers = []
    for n, entry in enumerate(obj["layers"]):
        params = dict(checked(_layer, entry, f"layer {n}", error=ConfigError))
        kind = params.pop("kind")
        cls = _LAYER_KINDS.get(kind)
        if cls is None:
            raise ConfigError(f"layer {n}: unknown kind {kind!r}")
        layers.append(cls(**checked(cls, params, f"layer {n} ({cls.__name__})", (), ConfigError)))
    return NetworkConfig(**{**obj, "layers": tuple(layers)})


# ---------------------------------------------------------------------------
# forward

@dataclass
class ForwardTrace:
    """Everything the backward pass and the energy estimator need. The
    first conv's cached input is the frame as given (uint8 from
    ``voxelize_set``, a slice of such a batch too). Spike-mode spikes are
    cached as bool, one byte each: the sites' threshold comparisons, whose
    cast to the parameters' dtype the layers above read. A spike-mode pool
    or SEW join that a conv or SEW caches is held as the uint8 count ``h *
    den`` where ``_layer_plan`` gives it a den, built from the one-byte maps
    below it while the layers above read the float map. Every other cached
    array, and every relaxed or dense spike, is in the parameters' dtype.

    A recorded 16-sample 64x64 ``sew_tiny`` trace (T=6) holds 18.15 MiB:
    membranes 12.40, bool spikes 3.10, the first conv's uint8 columns 1.69,
    counts 0.94 (3.75 as float32), features 0.02; the frames are the
    batch's. Per ``sew18`` sample at 200x200 and T=6, the counts take 4.30
    MiB where float32 took 17.20."""

    mode: str
    batch: int
    time_steps: int
    features: np.ndarray                  # (B, T, d) per-step feature vectors
    feature_shape: tuple                  # encoder output shape before flattening
    caches: list | None                   # [t][encoder layer] tuples
    # the activity counters the energy ledger reads, batch+steps totals, in
    # spike mode only (see the module docstring); empty in the other modes
    spike_counts: dict[str, float]        # per threshold site
    site_sizes: dict[str, int]            # per-sample neuron count per site
    synaptic_inputs: dict[str, tuple[float, int]]  # layer -> (input sum, size)
    # [t] the first conv's patch columns, in the input's dtype (uint8 frames
    # give uint8 columns), kept for its weight gradient where its backward
    # reads x's columns (a strided conv); None unless recorded so. Not in
    # ``caches``, which hold activations only
    columns: list | None = None
    accumulated: np.ndarray | None = None  # (B, d); the head's, set by forward
    logits: np.ndarray | None = None      # (B, C); the head's, set by forward


def _if_apply(v, theta, mode, reset):
    """(spikes, next membrane, spike count, kept spikes). In spike mode the
    spikes are 0.0/1.0 in v's dtype and the kept spikes, what a trace holds,
    the bool threshold comparison they were cast from, one byte each; the
    count is taken from it. In relaxed mode the spikes are the surrogate,
    kept as they are, and the count is None."""
    if mode == "spike":  # for finite floats, heaviside(v - theta) bit for bit
        kept = v >= theta
        count = int(np.count_nonzero(kept.ravel("K")))  # in memory order, no copy
        x = kept.astype(v.dtype)
    else:
        count = None
        x = kept = arctan_surrogate(v - theta)
    if reset == "subtract":
        u = v - theta * x
    else:
        u = v * (1.0 - x)
    return x, u, count, kept


def _pooled_count(q: np.ndarray, window: int) -> np.ndarray:
    """The uint8 count ``avg_pool_forward`` times window**2 gives of the map
    whose one-byte form (bool spikes or a uint8 count) is q: the sum of q's
    window taps, in q's memory order. ``_layer_plan`` holds one only where it
    fits in a byte."""
    q = q.view(np.uint8)
    out = q[:, :, ::window, ::window].copy(order="K")
    for i in range(window):
        for j in range(window):
            if i or j:
                out += q[:, :, i::window, j::window]
    return out


def if_step(u_prev: np.ndarray, weighted_input: np.ndarray, theta: float = 1.0,
            reset: Reset = "subtract") -> tuple[np.ndarray, np.ndarray]:
    """One integrate-and-fire update: V = U_prev + I, spike where V >= theta,
    then reset by subtraction (default) or to zero. Returns (spikes, U_next),
    the spikes 0.0/1.0 in U_next's dtype."""
    bounded(if_step, {"reset": reset}, "", ValueError)
    v = np.asarray(u_prev, dtype=np.float64) + np.asarray(weighted_input)
    return _if_apply(v, theta, "spike", reset)[:2]


def _as_batched(x: np.ndarray, config: NetworkConfig) -> np.ndarray:
    want = (config.time_steps, config.in_channels, config.height, config.width)
    if x.shape == want:
        return x[None]
    if x.ndim == 5 and x.shape[1:] == want and len(x):
        return x
    raise ConfigError(f"input shape {x.shape} does not match {want} "
                      f"(optionally batched, at least one sample)")


# input values (samples x steps x channels x pixels) the smaller half of a
# batch must hold for forward or a training step to split it; one floor
# serves both. It is part of what a batch computes: retuning it changes the
# trained bits, and the float-mode logits, of batches that cross it, never
# spike-mode logits, features or counters. Measured on 2 cores with the
# helper holding the caller at one BLAS thread, sew_tiny at 64x64 and T=6,
# forward(record=False), medians of 40 interleaved rounds: a 4-sample batch
# (halves of 98,304 values, as the `train` benchmark's validation forward) took
# 9.57 ms split against 9.18 ms whole, so it runs whole; an 8-sample batch
# (196,608) took 14.9 ms split against 20.6 ms whole.
_SPLIT_MIN = 1 << 17


def forward(config: NetworkConfig, params: dict, x: np.ndarray,
            mode: Literal["spike", "relaxed", "dense"] = "spike",
            record: bool = True) -> tuple[np.ndarray, ForwardTrace]:
    """Run the model over all time bins.

    mode='spike' emits binary spikes; mode='relaxed' substitutes the smooth
    surrogate in the forward pass too (diagnostic, exactly differentiable);
    mode='dense' runs the non-spiking twin: one step on the time-folded
    input, ReLU at every threshold site.
    ``record=False`` drops backward caches but keeps the activity counters,
    and encodes a large enough batch in halves (see the module docstring).
    """
    bounded(forward, {"mode": mode}, "", ConfigError)
    keep_heap()
    x = _as_batched(x, config)
    if mode == "dense":  # the T frames of a sample stacked along its channels
        config = _dense_view(config)
        x = x.reshape(len(x), 1, config.in_channels, config.height, config.width)
    trace = (_encode({**params, "x": x}, config, mode, True) if record
             else _joined(*_parts(_encode, params, {"x": x}, config, mode, False)))

    acc_tag, cls_tag = f"{len(config.layers) - 2:02d}", f"{len(config.layers) - 1:02d}"
    trace.accumulated = accumulate(trace.features, params[f"{acc_tag}.acc.weight"])
    trace.logits = linear_forward(trace.accumulated, params[f"{cls_tag}.cls.weight"],
                                  params.get(f"{cls_tag}.cls.bias"))
    return trace.logits, trace


def _parts(fn, params: dict, batch: dict, *args) -> tuple:
    """The split rule: fn(part, *args) for each part of ``batch``, a part
    being ``params`` plus every array of ``batch`` cut alike: the whole batch
    where the rest after ceil(B/2) samples holds fewer than ``_SPLIT_MIN``
    values of ``"x"``, else the two halves, run by ``_helper.beside``."""
    cut = (len(batch["x"]) + 1) // 2
    if batch["x"][cut:].size < _SPLIT_MIN:
        return (fn({**params, **batch}, *args),)
    first = {**params, **{name: a[:cut] for name, a in batch.items()}}
    second = {**params, **{name: a[cut:] for name, a in batch.items()}}
    return _helper.beside(fn, first, second, *args)


def _joined(trace: ForwardTrace, *rest: ForwardTrace) -> ForwardTrace:
    """The encoder trace of a batch from those of its parts, in order: batch
    sizes added, features concatenated, counters added key by key, left to
    right."""
    for part in rest:
        trace = replace(
            trace, batch=trace.batch + part.batch,
            features=np.concatenate([trace.features, part.features]),
            spike_counts={name: n + part.spike_counts[name]
                          for name, n in trace.spike_counts.items()},
            synaptic_inputs={name: (total + part.synaptic_inputs[name][0], size)
                             for name, (total, size) in trace.synaptic_inputs.items()})
    return trace


def _encode(arrays: dict, config: NetworkConfig, mode: str, record: bool) -> ForwardTrace:
    """The encoder over every time bin of ``arrays["x"]``, a batched input
    beside the parameters, the config in its mode's view: the batch's trace,
    its head's ``accumulated`` and ``logits`` left None for ``forward``."""
    x, acc = arrays["x"], f"{len(config.layers) - 2:02d}.acc"
    dtype = arrays[f"{acc}.weight"].dtype
    b, t_steps = x.shape[0], config.time_steps
    # where a recorded spike-mode trace holds a pool or join as a uint8
    # count, the count's den (see _layer_plan); None in every other layer,
    # and everywhere in other modes and unrecorded runs
    dens: list = []
    plan = _layer_plan(config, dens)
    if not record or mode != "spike":
        dens = [None] * len(plan)
    # a first conv reads the frames in their own dtype where it casts safely
    # to the parameters' (voxelize_set's uint8): its GEMM casts their columns
    first = plan[0][2][0][1] if plan and isinstance(plan[0][0], Conv2d) else None
    in_dtype = x.dtype if first is not None and np.can_cast(x.dtype, dtype) else dtype
    columns: list | None = ([] if record and first is not None
                            and not _full_correlation(first.k, first.stride, first.padding)
                            else None)
    weights = {name: (arrays[f"{name}.weight"], arrays.get(f"{name}.bias"))
               for _, _, convs in plan for name, *_ in convs}
    d = config.feature_dim

    membranes: dict[str, np.ndarray] = {}
    pending: dict[str, np.ndarray] = {}
    delayed = config.input_timing == "delayed"

    spike_counts: dict[str, float] = {}
    site_sizes: dict[str, int] = {}
    syn_inputs: dict[str, tuple[float, int]] = {}
    caches: list | None = [] if record else None
    features = np.empty((b, t_steps, d), dtype=dtype)

    def held(h: np.ndarray, h_sum: float | None) -> tuple:
        """(h, its sum in float64, or None where h_sum, its source's, is None)"""
        return h, None if h_sum is None else float(np.add.reduce(h, axis=None, dtype=np.float64))

    def add_input(name: str, h_sum: float | None, size: int) -> None:
        """Add h_sum, where held, to the input sum of the layer ``name``."""
        if h_sum is not None:
            syn_inputs[name] = (syn_inputs.get(name, (0.0,))[0] + h_sum, size)

    def conv(named: tuple, h: np.ndarray, h_sum: float | None,
             cols: np.ndarray | None = None) -> np.ndarray:
        """The conv of h (its columns, where held), h_sum added to its input sum."""
        name, spec, *_ = named
        add_input(name, h_sum, h[0].size)
        weight, bias = weights[name]
        # looked up at call time: the benchmark tracer rebinds this name
        return conv2d_forward(h, weight, bias, spec.stride, spec.padding, cols=cols)

    def site(name: str, drive: np.ndarray, theta: float):
        """(spikes, membrane potential, spike count, kept spikes: what a
        trace holds, a spike-mode site's bool comparison, else the spikes);
        the count is None in relaxed and dense modes."""
        if mode == "dense":  # ReLU; nothing carries across steps
            v, count = drive, None
            spikes = kept = np.maximum(drive, 0.0)
        else:
            if delayed:
                inp = pending.get(name)
                if inp is None:
                    inp = np.zeros_like(drive)
                pending[name] = drive
            else:
                inp = drive
            u_prev = membranes.get(name)  # None before the first step
            v = inp if u_prev is None else u_prev + inp
            spikes, membranes[name], count, kept = _if_apply(v, theta, mode, config.reset)
        if count is not None:
            spike_counts[name] = spike_counts.get(name, 0.0) + count
            site_sizes[name] = spikes[0].size
        return spikes, v, count, kept

    for t in range(t_steps):
        # the encoder runs on batch-innermost activations (see nn.layers):
        # the frame itself where its batch is the innermost axis and it is of
        # in_dtype, as voxelize_set builds it (a slice of such a batch too:
        # the first conv pads it in one copy), else one copy
        h = x[:, t]
        if h.dtype != in_dtype or b > 1 and h.strides[0] != h.itemsize:
            h = np.empty(x.shape[2:] + (b,), dtype=in_dtype).transpose(3, 0, 1, 2)
            h[...] = x[:, t]
        # h_sum is h's sum wherever the energy ledger may read it (spike
        # mode, h not a conv's real-valued output); None elsewhere
        h_sum = float(np.add.reduce(h, axis=None, dtype=np.float64)) if mode == "spike" else None
        cols = None  # the first conv's, where kept
        if columns is not None:
            cols = _conv_columns(h, first.k, first.stride, first.padding)
            columns.append(cols)
        step_cache: list = []
        # h as the caches hold it: a site's kept spikes, a count where the
        # layer's den says so (built from the one-byte kept map below it)
        kept = h
        for (lay, sites, convs), den in zip(plan, dens):
            if isinstance(lay, Conv2d):
                step_cache.append((kept,))
                h, h_sum, cols = conv(convs[0], h, h_sum, cols), None, None
                kept = h
            elif isinstance(lay, IF):
                h, v, h_sum, kept = site(sites[0], h, lay.theta)
                step_cache.append((v, kept))
            elif isinstance(lay, SEW):
                s1, v1, n1, k1 = site(sites[0], conv(convs[0], h, h_sum), lay.theta)
                s2, v2, n2, k2 = site(sites[1], conv(convs[1], s1, n1), lay.theta)
                step_cache.append((kept, v1, k1, v2, k2))
                if lay.g == "add":
                    h, h_sum = s2 + h, None if h_sum is None else n2 + h_sum
                else:
                    h, h_sum = held(s2 * h if lay.g == "and" else (1.0 - s2) * h, h_sum)
                # the join of the counts: k2 * den + q, k2 * q or ~k2 * q
                kept = (h if den is None else
                        np.add(k2.view(np.uint8) * den if den > 1 else k2, kept, dtype=np.uint8)
                        if lay.g == "add" else
                        np.multiply(k2 if lay.g == "and" else ~k2, kept, dtype=np.uint8))
            elif isinstance(lay, AvgPool):
                pooled = avg_pool_forward(h, lay.window)
                exact = h_sum is not None and not lay.window & (lay.window - 1)  # power of two
                h, h_sum = (pooled, h_sum / lay.window ** 2) if exact else held(pooled, h_sum)
                step_cache.append(())
                kept = h if den is None else _pooled_count(kept, lay.window)
            elif isinstance(lay, GlobalPool):
                step_cache.append((h.shape[2], h.shape[3]))
                h, h_sum = held(global_pool_forward(h), h_sum)
                kept = h
        add_input(acc, h_sum, d)
        feature_shape = h.shape[1:]
        if h.ndim > 2:
            h = h.reshape(b, -1)
        features[:, t] = h
        if record:
            caches.append(step_cache)

    return ForwardTrace(mode, b, t_steps, features, feature_shape, caches, spike_counts,
                        site_sizes, syn_inputs, columns)


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
             labels: np.ndarray, denominator: int | None = None) -> dict[str, np.ndarray]:
    """Cross-entropy gradients for every parameter, by BPTT: of the loss
    summed over the trace's samples and divided by ``denominator``, by
    default the trace's batch (the mean loss). A training step passes its
    whole batch's size for each half of the batch.

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
    delayed = config.input_timing == "delayed"
    grads = {name: np.zeros_like(value) for name, value in params.items()}

    # loss head: cross-entropy summed over the batch, over the denominator
    dlogits = softmax(trace.logits)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b if denominator is None else denominator

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
    dens: list = []
    plan = _layer_plan(config, dens)
    dtype = w_acc.dtype
    # each conv's weight, its parameters' gradient buffers and, for a full
    # correlation, its flipped kernel, built once for every step. Such a
    # conv's dw is a flipped view of a (C_out, k, k, C_in) GEMM result; its
    # buffer is the same view of its zeroed gradient, so each step adds
    # contiguously
    tensors = {}
    for _, _, convs in plan:
        for name, spec, *_ in convs:
            weight, g_weight, flipped = params[f"{name}.weight"], grads[f"{name}.weight"], None
            if _full_correlation(spec.k, spec.stride, spec.padding):
                c_out, c_in, k, _ = weight.shape
                g_weight = g_weight.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
                flipped = _flipped_kernel(weight)
            tensors[name] = (weight, g_weight, grads.get(f"{name}.bias"), flipped)

    def conv_back(named: tuple, x_in, g, need_dx: bool = True, cols=None):
        """Returns gradient w.r.t. the conv input (None without ``need_dx``);
        accumulates its parameters'."""
        name, spec, *_ = named
        weight, g_weight, g_bias, flipped = tensors[name]
        # looked up at call time: the benchmark tracer rebinds this name
        dx, dw, db = conv2d_backward(x_in, weight, g, spec.stride, spec.padding,
                                     g_bias is not None, need_dx=need_dx, cols=cols,
                                     flipped=flipped)
        g_weight += dw
        if db is not None:
            g_bias += db
        return dx

    def site_back(name: str, g_out, v, spikes, theta):
        """Returns gradient w.r.t. this step's drive; updates carries."""
        if trace.mode == "dense":
            return g_out * (v > 0)
        sg = arctan_surrogate_grad(v - theta)
        g_u = carry_u.get(name)
        gv = g_out * sg
        if g_u is not None:  # gv += g_u * reset term, the term built in sg's buffer
            if config.reset == "subtract":  # 1 - theta * sg
                sg *= theta
                np.subtract(1.0, sg, out=sg)
            else:  # (1 - spikes) - v * sg
                sg *= v
                np.subtract(np.subtract(1.0, spikes, dtype=sg.dtype), sg, out=sg)
            sg *= g_u
            gv += sg
        carry_u[name] = gv
        if delayed:
            g_in = carry_p.get(name)
            carry_p[name] = gv
            return np.zeros_like(gv) if g_in is None else g_in
        return gv

    def conv_input(cache: tuple, i: int):
        """The input that layer i, a conv or SEW, cached, as its values: a
        uint8 count over its den from the plan (exact, den a power of two)
        in the parameters' dtype, anything else (den 1 too) as it is."""
        x_in, den = cache[0], dens[i - 1] if i else None
        if den is None or den == 1 or x_in.dtype != np.uint8:
            return x_in
        x_in = x_in.astype(dtype)
        x_in /= den
        return x_in

    # the gradient stops at the input: nothing below the first weighted layer
    # runs, and that layer's first conv computes no input gradient
    first = next((i for i, (_, _, convs) in enumerate(plan) if convs), len(plan))
    steps = list(enumerate(plan))[first:][::-1]
    for t in reversed(range(t_steps)):
        g = dfeat
        if len(trace.feature_shape) == 3:  # undo the trailing flatten
            g = dfeat.reshape((b,) + trace.feature_shape)
        step_cache = trace.caches[t]
        for i, (lay, sites, convs) in steps:
            cache = step_cache[i]
            if isinstance(lay, Conv2d):  # trace.columns are the first layer's
                g = conv_back(convs[0], conv_input(cache, i), g, need_dx=i > first,
                              cols=None if i or trace.columns is None else trace.columns[t])
            elif isinstance(lay, IF):
                v, spikes = cache
                g = site_back(sites[0], g, v, spikes, lay.theta)
            elif isinstance(lay, SEW):
                _, v1, s1, v2, s2 = cache
                x_in = conv_input(cache, i)
                if lay.g == "add":
                    g_s2, g_res = g, g
                elif lay.g == "and":
                    g_s2, g_res = g * x_in, g * s2
                else:  # iand
                    g_s2, g_res = -g * x_in, g * np.subtract(1.0, s2, dtype=g.dtype)
                g2 = site_back(sites[1], g_s2, v2, s2, lay.theta)
                g1 = site_back(sites[0], conv_back(convs[1], s1, g2), v1, s1, lay.theta)
                g = conv_back(convs[0], x_in, g1, need_dx=i > first)
                if g is not None:
                    g = g + g_res
            elif isinstance(lay, AvgPool):
                g = avg_pool_backward(g, lay.window)
            elif isinstance(lay, GlobalPool):
                h, w = cache
                g = global_pool_backward(g, h, w)
    for name, (_, g_weight, _, _) in tensors.items():
        grads[f"{name}.weight"] = np.ascontiguousarray(g_weight)
    return grads


# ---------------------------------------------------------------------------
# dense (non-spiking) twin

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

