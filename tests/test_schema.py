"""The one JSON reader: objects checked against the signature they feed."""

import pytest

from evsnn._schema import SchemaError, checked
from evsnn.augment import TransformSpec
from evsnn.nn import ConfigError


def numbers(count: int, ratio: float = 0.5, flag: bool = False):
    """count an integer, ratio a number, flag a boolean."""


def optional(limit: float | None = None, floor: float = 0.0):
    """limit admits null, floor does not."""


def stage(kind: str, **params):
    """Extra keys go to params."""


def transform(stream, rng, ratio: float = 0.1):
    """Like a transform: stream and rng are not JSON keys."""


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
