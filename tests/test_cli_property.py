"""Boundary values into every subcommand: whatever the value, a command exits
0, 2, 3 or 4, and never with a traceback.

Every integer and float input gets 0, -1, a huge value and 1e308; an input
read from JSON also gets NaN and Infinity. The huge value is left out only
where it is a valid request for a long job (``--samples-per-class``) or for
that many worker processes (``--jobs``). Training stops after its first
epoch (``early_stop_acc`` 0), so a huge ``epochs`` is a short run too.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsnn.cli import build_parser, main
from evsnn.nn import IF, Accumulator, Classifier, Conv2d, GlobalPool, NetworkConfig
from evsnn.nn.network import config_to_json

HUGE = 2**64
NUMBERS = (0, -1, HUGE, 1e308)
JSON_ONLY = ("NaN", "Infinity")
CASES = settings(max_examples=60, derandomize=True, deadline=None)

# (command, flag, whether a huge value is an input error rather than a long job)
FLAGS = [("synth", "--classes", True), ("synth", "--samples-per-class", False),
         ("synth", "--width", True), ("synth", "--height", True),
         ("synth", "--duration", True), ("synth", "--events", True),
         ("synth", "--seed", True), ("voxelize", "--time-steps", True),
         ("augment", "--prob", True), ("augment", "--sample-index", True),
         ("augment", "--seed", True), ("train", "--seed", True), ("eval", "--seed", True),
         ("energy", "--samples", True), ("sweep", "--seed", True), ("sweep", "--jobs", False)]


def test_flags_are_taken():
    """Each listed flag is one its command takes, so no case passes only
    because argparse refuses the flag itself."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, flag, _ in FLAGS:
        assert flag in sub.choices[command]._option_string_actions, (command, flag)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 4-sample dataset, an experiment on a one-conv network with every
    transform parameter spelled out, its checkpoint and its sweep scores."""
    root = tmp_path_factory.mktemp("boundary")
    assert main(["synth", "--classes", "2", "--samples-per-class", "2", "--width", "8",
                 "--height", "8", "--duration", "10000", "--events", "50",
                 "--out", str(root / "ds")]) == 0
    net = NetworkConfig(time_steps=2, height=8, width=8, layers=(
        Conv2d(2, 2, k=3, stride=2, padding=1), IF(), GlobalPool(), IF(0.5),
        Accumulator(2), Classifier(2)))
    exp = {"dataset": str(root / "ds" / "manifest.json"), "network": config_to_json(net),
           "train": {"epochs": 1, "batch_size": 4, "lr": 0.1, "momentum": 0.9,
                     "early_stop_acc": 0.0},
           "augment": {"seed": 1, "transforms": [
               {"kind": "crop", "prob": 0.5, "scale_min": 0.5, "scale_max": 1.0},
               {"kind": "noise", "prob": 0.5, "ratio": 0.2},
               {"kind": "eventdrop", "prob": 0.5, "ratio_lo": 0.05, "time_ratio_max": 0.3,
                "area_ratio_max": 0.3, "global_ratio_max": 0.5}]},
           "folds": {"k": 2, "seed": 0}, "seed": 0, "out_dir": str(root / "run"),
           "sweep": {"prob": 0.5}}
    (root / "exp.json").write_text(json.dumps(exp))
    for command in ("train", "sweep"):
        assert main([command, "--config", str(root / "exp.json")]) == 0
    return root


def run(argv):
    """The exit code of one command, which must be a documented one."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the value
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def base_argv(command, root):
    evt = str(sorted((root / "ds").glob("*.evt"))[0])
    config = ["--config", str(root / "exp.json"), "--out", str(root / "out")]
    checkpoint = ["--checkpoint", str(root / "run" / "model.evck")]
    return {"synth": ["synth", "--classes", "2", "--samples-per-class", "1", "--width", "8",
                      "--height", "8", "--duration", "10000", "--events", "50",
                      "--out", str(root / "out")],
            "voxelize": ["voxelize", evt],
            "augment": ["augment", evt, str(root / "out.evt"), "--pipeline", "crop,noise"],
            "train": ["train", *config], "eval": ["eval", *config, *checkpoint],
            "energy": ["energy", *config, *checkpoint], "sweep": ["sweep", *config],
            "regress": ["regress", "--scores", str(root / "run" / "sweep.json"),
                        "--out", str(root / "out")]}[command]


@CASES
@given(data=st.data())
def test_flags(workspace, data):
    command, flag, huge_is_error = data.draw(st.sampled_from(FLAGS))
    values = [v for v in NUMBERS if huge_is_error or v != HUGE]
    values += ["nan", "inf"] if flag == "--prob" else []  # the one float flag
    argv = base_argv(command, workspace)
    if flag in argv:
        argv = argv[:argv.index(flag)] + argv[argv.index(flag) + 2:]
    run(argv + [flag, str(data.draw(st.sampled_from(values)))])


def numbers_in(doc, path=()):
    """The path of every number in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numbers_in(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


def with_number(doc, path, text):
    """The JSON text of doc with the number at path replaced by raw text."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = "@@"
    return json.dumps(doc).replace('"@@"', text)


@CASES
@given(data=st.data())
def test_json_numbers(workspace, data):
    """A number in the experiment (read by every pipeline command), in the
    dataset manifest, or in the sweep scores."""
    exp_path = workspace / "exp.json"
    scores_path = workspace / "run" / "sweep.json"
    manifest_path = workspace / "ds" / "manifest.json"
    source = data.draw(st.sampled_from(["experiment", "manifest", "scores"]))
    path = {"experiment": exp_path, "manifest": manifest_path, "scores": scores_path}[source]
    doc = json.loads(path.read_text())
    if source == "scores":
        doc.pop("config")  # the echo of the experiment, which nothing reads back
    for sample in doc.get("samples", ()) if source == "manifest" else ():
        sample["file"] = str(workspace / "ds" / sample["file"])
    where = data.draw(st.sampled_from(list(numbers_in(doc))))
    text = with_number(doc, where, str(data.draw(st.sampled_from(NUMBERS + JSON_ONLY))))
    changed = workspace / "case" / path.name
    changed.parent.mkdir(exist_ok=True)
    changed.write_text(text)
    if source == "scores":
        run(["regress", "--scores", str(changed), "--out", str(workspace / "out")])
        return
    exp = json.loads(exp_path.read_text())
    if source == "manifest":
        exp["dataset"] = str(changed)
        changed = workspace / "case" / "exp.json"
        changed.write_text(json.dumps(exp))
    command = data.draw(st.sampled_from(["train", "eval", "energy", "sweep", "augment"]))
    argv = base_argv(command, workspace)
    if command == "augment":
        argv = argv[:3] + ["--config", str(changed)]
    else:
        argv[argv.index("--config") + 1] = str(changed)
    run(argv)
