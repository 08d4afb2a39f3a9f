"""The one JSON reader: objects checked against the signature they feed."""

import math
import re
from typing import Annotated, Literal

import numpy as np
import pytest

from evsnn._schema import Bound, SchemaError, bounded, checked, loads
from evsnn.augment import AugmentSpec, TransformSpec
from evsnn.bench import run_cv, run_specific_eda
from evsnn.energy import stats_from_traces
from evsnn.events import EventStream, devoxelize_counts, voxelize
from evsnn.nn import ConfigError
from evsnn.nn.network import forward, if_step, init_params, sew_tiny
from evsnn.nn.train import TrainSettings, cosine_lr
from evsnn.regress import student_t_sf2
from evsnn.synth import SynthParams


def numbers(count: int, ratio: float = 0.5, flag: bool = False):
    """count an integer, ratio a number, flag a boolean."""


def optional(limit: float | None = None, floor: float = 0.0):
    """limit admits null, floor does not."""


def stage(kind: str, **params):
    """Extra keys go to params."""


def transform(stream, rng, ratio: float = 0.1):
    """Like a transform: stream and rng are not JSON keys."""


def ranged(count: Annotated[int, Bound(1)] = 1,
           share: Annotated[float, Bound(0, 1)] = 0.5,
           theta: Annotated[float | None, Bound(0, exclusive=True)] = None):
    """count >= 1, share in [0, 1], theta > 0 or null."""


def choices(pick: Literal["a", "b"] = "a", mode: Literal["x", "y", "z"] = "x",
            count: Annotated[int, Bound(1)] = 1):
    """pick is a or b, mode x, y or z."""


def containers(items: tuple[int, ...] = (), table: dict = ..., names: list = ...):
    """Arrays and objects are checked for their JSON kind only."""


class TestChecked:
    def test_returns_obj(self):
        obj = {"count": 3}
        assert checked(numbers, obj, "x") is obj

    def test_bool_is_no_number(self):
        for obj in ({"count": True}, {"count": 1, "ratio": False}):
            with pytest.raises(SchemaError, match="must be a JSON (integer|number), got (True|False)"):
                checked(numbers, obj, "x")

    def test_int_is_a_number(self):
        checked(numbers, {"count": 1, "ratio": 1}, "x")

    def test_float_is_no_integer(self):
        with pytest.raises(SchemaError, match=r"x: count must be a JSON integer, got 1\.0"):
            checked(numbers, {"count": 1.0}, "x")

    def test_number_is_no_boolean(self):
        with pytest.raises(SchemaError, match="x: flag must be a JSON boolean, got 1"):
            checked(numbers, {"count": 1, "flag": 1}, "x")

    def test_strings_are_not_numbers(self):
        with pytest.raises(SchemaError, match="ratio must be a JSON number, got '0.5'"):
            checked(numbers, {"count": 1, "ratio": "0.5"}, "x")

    def test_null_only_for_optional(self):
        checked(optional, {"limit": None}, "x")
        with pytest.raises(SchemaError, match="floor must be a JSON number, got None"):
            checked(optional, {"floor": None}, "x")
        with pytest.raises(SchemaError, match="limit must be a JSON number or null, got 'a'"):
            checked(optional, {"limit": "a"}, "x")

    def test_var_keyword_admits_extra_keys(self):
        checked(stage, {"kind": "crop", "scale_min": 0.5, "anything": [1]}, "x")
        with pytest.raises(SchemaError, match=r"x: unknown keys \['anything', 'zzz'\]"):
            checked(numbers, {"count": 1, "zzz": 0, "anything": 2}, "x")

    def test_excluded_params_are_unknown(self):
        checked(transform, {"ratio": 0.2}, "x", exclude=("stream", "rng"))
        checked(transform, {}, "x", exclude=("stream", "rng"))  # nor required
        with pytest.raises(SchemaError, match=r"x: unknown keys \['rng'\]"):
            checked(transform, {"rng": 1}, "x", exclude=("stream", "rng"))

    def test_missing_required(self):
        with pytest.raises(SchemaError, match=r"x: missing required keys \['count'\]"):
            checked(numbers, {"ratio": 0.1}, "x")
        with pytest.raises(SchemaError, match=r"missing required keys \['rng', 'stream'\]"):
            checked(transform, {}, "x")

    @pytest.mark.parametrize("obj", [[], "a", None, 3])
    def test_not_an_object(self, obj):
        with pytest.raises(SchemaError, match="^where must be a JSON object$"):
            checked(numbers, obj, "where")

    def test_containers(self):
        checked(containers, {"items": [1, "a"], "table": {}, "names": []}, "x")
        for key, value, kind in (("items", (1,), "array"), ("items", {}, "array"),
                                 ("table", [], "object"), ("names", "ab", "array")):
            with pytest.raises(SchemaError, match=f"{key} must be a JSON {kind}"):
                checked(containers, {key: value}, "x")

    def test_error_class(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            checked(numbers, {"count": 1, "z": 1}, "x", error=ConfigError)

    def test_transform_spec_params(self):
        with pytest.raises(SchemaError, match="transform crop: scale_max must be a JSON number"):
            TransformSpec("crop", params={"scale_max": "1"})
        with pytest.raises(SchemaError, match=r"transform mirror: unknown keys \['ratio'\]"):
            TransformSpec("mirror", params={"ratio": 0.5})
        assert TransformSpec("eventdrop", params={"ratio_lo": 0.1}).params == {"ratio_lo": 0.1}


class TestBounds:
    @pytest.mark.parametrize("values", [{"count": 1}, {"share": 0}, {"share": 1},
                                        {"share": 0.25}, {"theta": 1e-300}, {"theta": None},
                                        {"count": 10**30}])
    def test_inside(self, values):
        bounded(ranged, values, "x")
        checked(ranged, values, "x")

    @pytest.mark.parametrize("values, message", [
        ({"count": 0}, "x.count must be >= 1, got 0"),
        ({"share": -0.5}, "x.share must be >= 0, got -0.5"),
        ({"share": 1.5}, "x.share must be <= 1, got 1.5"),
        ({"theta": 0.0}, "x.theta must be > 0, got 0.0"),
        ({"theta": -1}, "x.theta must be > 0, got -1"),
    ])
    def test_outside(self, values, message):
        for check in (bounded, checked):
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                check(ranged, values, "x")

    @pytest.mark.parametrize("key", ["count", "share", "theta"])
    def test_nan_outside_every_bound(self, key):
        with pytest.raises(SchemaError, match=f"{key} must be .*, got nan"):
            bounded(ranged, {key: math.nan}, "x")

    def test_where_names_the_key(self):
        for where, name in (("", "count"), ("folds", "folds.count"),
                            ("layer 0 (Conv2d)", "layer 0 (Conv2d): count")):
            with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be >= 1, got 0$"):
                bounded(ranged, {"count": 0}, where, ConfigError)

    def test_post_inits_hold_bounds(self):
        for build in (lambda: TrainSettings(epochs=-1), lambda: TrainSettings(lr=math.nan),
                      lambda: TrainSettings(early_stop_acc=math.nan),
                      lambda: SynthParams(width=0), lambda: SynthParams(width=0x10000),
                      lambda: TransformSpec("hflip", prob=1.5),
                      lambda: TransformSpec("hflip", prob=math.nan),
                      lambda: AugmentSpec().with_seed(-1)):
            with pytest.raises(SchemaError):
                build()


class TestChoices:
    """A Literal annotation is read like a Bound: a JSON string among its values."""

    @pytest.mark.parametrize("values", [{}, {"pick": "a"}, {"pick": "b", "mode": "z"}])
    def test_members_pass(self, values):
        bounded(choices, values, "x")
        checked(choices, values, "x")

    def test_none_is_no_choice(self):
        # a missing key passes (test_members_pass), a key set to None does not
        with pytest.raises(SchemaError, match="^x.pick must be a or b, got None$"):
            bounded(choices, {"pick": None}, "x")

    @pytest.mark.parametrize("value", [1, None, True, ["a"]])
    def test_checked_refuses_non_string(self, value):
        with pytest.raises(SchemaError, match=f"^x: pick must be a JSON string, got "
                                              f"{re.escape(repr(value))}$"):
            checked(choices, {"pick": value}, "x")

    @pytest.mark.parametrize("values, message", [
        ({"pick": "c"}, "x.pick must be a or b, got 'c'"),
        ({"pick": "A"}, "x.pick must be a or b, got 'A'"),
        ({"mode": "w"}, "x.mode must be x, y or z, got 'w'"),
    ])
    def test_non_member_refused(self, values, message):
        for check in (bounded, checked):
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                check(choices, values, "x")

    def test_where_names_the_key(self):
        for where, name in (("", "pick"), ("folds", "folds.pick"),
                            ("layer 0 (Conv2d)", "layer 0 (Conv2d): pick")):
            with pytest.raises(ConfigError,
                               match=f"^{re.escape(name)} must be a or b, got 'c'$"):
                bounded(choices, {"pick": "c"}, where, ConfigError)

    def test_bounds_still_read_beside_choices(self):
        with pytest.raises(SchemaError, match="^x.count must be >= 1, got 0$"):
            checked(choices, {"pick": "b", "count": 0}, "x")


class TestLibraryChoiceErrors:
    """A library call given a value outside its choices raises its module's
    error type, before any work."""

    def test_run_cv_kind_and_validation(self):
        for change, message in (({"kind": "sparse"}, "kind must be spiking or dense, got 'sparse'"),
                                ({"validation": "loocv"},
                                 "validation must be heldout or nested, got 'loocv'")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
                run_cv([], np.zeros(0), sew_tiny(2), TrainSettings(), **change)
            assert not isinstance(info.value, SchemaError)

    @pytest.mark.parametrize("mode", ["ann", None])
    def test_forward_mode(self, mode):
        config = sew_tiny(2, height=8, width=8, time_steps=1)
        with pytest.raises(ConfigError,
                           match=f"^mode must be spike, relaxed or dense, got {mode!r}$"):
            forward(config, init_params(config, 0), np.zeros((1, 2, 8, 8)), mode=mode)

    @pytest.mark.parametrize("reset", ["decay", None])
    def test_if_step_reset(self, reset):
        with pytest.raises(ValueError,
                           match=f"^reset must be subtract or zero, got {reset!r}$") as info:
            if_step(0.0, 1.0, reset=reset)
        assert not isinstance(info.value, SchemaError)

    def test_stats_from_traces_charging(self):
        with pytest.raises(ValueError,
                           match="^charging must be input or output, got 'both'$") as info:
            stats_from_traces(sew_tiny(2), [None], charging="both")
        assert not isinstance(info.value, SchemaError)


class TestTransformProbe:
    """A transform's own checks judge its parameters when the stage is built."""

    @pytest.mark.parametrize("kind, params, message", [
        ("crop", {"scale_min": 0.9, "scale_max": 0.5}, "bad crop scale range"),
        ("crop", {"scale_min": math.nan}, "bad crop scale range"),
        ("noise", {"ratio": -1}, "noise ratio must lie in"),
        ("noise", {"ratio": 1e12}, "noise ratio must lie in"),
        ("eventdrop", {"ratio_lo": 0.4, "time_ratio_max": 0.3}, "exceeds a strategy's max"),
        ("eventdrop", {"global_ratio_max": 2.0}, "global_ratio_max must be <= 1"),
    ])
    def test_rejected(self, kind, params, message):
        with pytest.raises(SchemaError, match=f"^transform {kind}: .*{message}"):
            TransformSpec(kind, params=params)

    def test_defaults_pass(self):
        for kind in ("crop", "hflip", "noise", "polflip", "reverse", "eventdrop", "mirror"):
            TransformSpec(kind)


class TestLoads:
    def test_reads_json(self):
        assert loads(b'{"a": [1, 2.5, null]}', "f.json") == {"a": [1, 2.5, None]}

    @pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": Infinity}', '[-Infinity]'])
    def test_refuses_non_finite(self, text):
        constant = text.strip("{}[]").removeprefix('"a": ')
        with pytest.raises(SchemaError,
                           match=rf"^f\.json: invalid JSON: {constant} is not a JSON number$"):
            loads(text, "f.json")

    def test_names_the_file(self):
        for text in ("{nope", b"\xff\xfe\x00"):
            with pytest.raises(SchemaError, match=r"^f\.json: invalid JSON: "):
                loads(text, "f.json")


def flags(time_steps: Annotated[int, Bound(1, 0xFFFF)] = 6, pick: Literal["a", "b"] = "a"):
    """Like cli._flags: keys are argparse dests."""


class TestFlagNames:
    @pytest.mark.parametrize("values, message", [
        ({"time_steps": 0}, "--time-steps must be >= 1, got 0"),
        ({"time_steps": 0x10000}, "--time-steps must be <= 65535, got 65536"),
        ({"pick": "c"}, "--pick must be a or b, got 'c'"),
    ])
    def test_dash_where_names_the_flag(self, values, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            bounded(flags, values, "--")


class TestLibraryBounds:
    """A library count below its Bound raises ValueError, not SchemaError,
    with the message its hand-written check gave."""

    @pytest.mark.parametrize("call, message", [
        (lambda: voxelize(make_stream(), 0), "time_bins must be >= 1, got 0"),
        (lambda: devoxelize_counts(make_stream(), -2), "time_bins must be >= 1, got -2"),
        (lambda: cosine_lr(0, 0, 0.1), "total_epochs must be >= 1, got 0"),
        (lambda: student_t_sf2(np.array(1.0), 0), "df must be >= 1, got 0"),
        (lambda: run_specific_eda([], np.zeros(0), sew_tiny(2), TrainSettings(), None,
                                  "cutmix"),
         "which must be none, eventdrop or eventdrop+mirror, got 'cutmix'"),
    ], ids=["voxelize", "devoxelize_counts", "cosine_lr", "student_t_sf2",
            "run_specific_eda"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            call()
        assert not isinstance(info.value, SchemaError)


def make_stream():
    return EventStream(x=[0], y=[0], t=[0], p=[1], width=2, height=2, t_start=0, t_end=1)
