"""One-line mutants of the layer plan, the count rule and the frame copy,
each run alone against the tests that should kill it.

    python tools/mutants.py [NAME ...]

Each entry of ``MUTANTS`` names a file under ``src/``, a text found there
exactly once, its replacement and the test files to run. The runner copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
applies one mutant at a time to that copy (never to this checkout) and runs
``pytest -x -q`` on the mutant's tests there, with the copy's ``src`` on the
import path. A mutant whose tests fail is killed; one whose tests pass
survives, and must then be listed in ``EQUIVALENT`` with the reason no test
can tell it apart. Output: one line per mutant and a summary. The exit
status is 1 where a survivor is not listed, a listed one is killed, a
mutant's text is not found exactly once, or pytest ends in any other way
(a collection error, say); else 0.

The table holds the audits of ``_layer_plan``'s walk (``walk/``: the shape
checks, fed sites and real inputs it alone decides) and of its count grain
(``grain/``), plus the count expression, its lookahead and the modes that
hold counts (``count/``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
NETWORK = "evsnn/nn/network.py"
# the energy tests first: they are quick and kill most walk mutants
NN_TESTS = ("tests/test_energy.py", "tests/test_network.py")

# name: (file under src, old text, new text, test files)
MUTANTS = {
    # the walk: output shapes and their checks, fed sites, real inputs
    "walk/if_keeps_real": (NETWORK, "real, grain = False, (1, 1)", "real, grain = real, (1, 1)",
                           NN_TESTS),
    "walk/sew_second_stage_real": (NETWORK, "sites[1], False))", "sites[1], real))", NN_TESTS),
    "walk/lookahead_without_sew": (NETWORK, "if isinstance(layers[j], (IF, Conv2d, SEW)):",
                                   "if isinstance(layers[j], (IF, Conv2d)):", NN_TESTS),
    "walk/lookahead_without_conv": (NETWORK, "if isinstance(layers[j], (IF, Conv2d, SEW)):",
                                    "if isinstance(layers[j], (IF, SEW)):", NN_TESTS),
    "walk/conv_leaves_real_unset": (NETWORK, "real, grain = True, None", "real, grain = real, None",
                                    NN_TESTS),
    "walk/sew_first_stage_never_real": (NETWORK, "sites[0], real),", "sites[0], False),",
                                        NN_TESTS),
    "walk/accumulator_reads_first": (NETWORK, "bool(plan) and plan[-1].real",
                                     "bool(plan) and plan[0].real", NN_TESTS),
    "walk/site_named_by_the_conv": (NETWORK, 'site = f"{j:02d}" if', "site = tag if", NN_TESTS),
    "walk/lookahead_from_the_conv": (NETWORK, "for j in range(i + 1, len(layers)):",
                                     "for j in range(i, len(layers)):", NN_TESTS),
    "walk/pool_tiling_unchecked": (NETWORK, "if len(shape) != 3 or shape[1] % w or shape[2] % w:",
                                   "if len(shape) != 3:", NN_TESTS),
    "walk/sew_odd_k_unchecked": (NETWORK, "if lay.k % 2 == 0:", "if False:", NN_TESTS),
    "walk/conv_collapse_unchecked": (NETWORK, "if shape[1] < 1 or shape[2] < 1:", "if False:",
                                     NN_TESTS),
    # the grain: where a count is held, at what den, and how backward reads it
    "grain/if_leaves_no_grain": (NETWORK, "real, grain = False, (1, 1)",
                                 "real, grain = False, None", NN_TESTS),
    "grain/pool_keeps_den": (NETWORK, "grain = (grain[0] * w * w, grain[1]) if",
                             "grain = (grain[0], grain[1]) if", NN_TESTS),
    "grain/add_keeps_bound": (NETWORK, "grain = (grain[0], grain[1] + 1)",
                              "grain = (grain[0], grain[1])", NN_TESTS),
    "grain/every_join_raises_bound": (NETWORK, 'if grain and lay.g == "add":', "if grain:",
                                      NN_TESTS),
    "grain/any_window_keeps_grain": (NETWORK, "if grain and not w & (w - 1) else None",
                                     "if grain else None", NN_TESTS),
    "grain/cap_at_256": (NETWORK, "grain[0] * grain[1] <= 255", "grain[0] * grain[1] <= 256",
                         NN_TESTS),
    "grain/conv_keeps_grain": (NETWORK, "real, grain = True, None", "real = True", NN_TESTS),
    "grain/global_pool_keeps_grain": (NETWORK, "shape, grain = (shape[0],), None",
                                      "shape = (shape[0],)", NN_TESTS),
    "grain/backward_reads_own_den": (NETWORK, "plan[i - 1].den if i else None",
                                     "plan[i].den if i else None", NN_TESTS),
    "grain/backward_never_scales": (NETWORK, "x_in /= den", "x_in /= 1", NN_TESTS),
    "grain/sliced_frames_copied": (NETWORK, "b > 1 and h.strides[0] != h.itemsize",
                                   "b > 1 and h.strides[-1] != b * h.itemsize", NN_TESTS),
    # the count: one expression from the float map, where the next layer caches it
    "count/den_dropped": (NETWORK, "return (h * den).astype(np.uint8)",
                          "return h.astype(np.uint8)", NN_TESTS),
    "count/c_order": (NETWORK, "return (h * den).astype(np.uint8)",
                      'return (h * den).astype(np.uint8, order="C")', NN_TESTS),
    "count/lookahead_without_sew": (NETWORK, "and isinstance(above, (Conv2d, SEW)) else None",
                                    "and isinstance(above, Conv2d) else None", NN_TESTS),
    "count/no_lookahead": (NETWORK, "and isinstance(above, (Conv2d, SEW)) else None",
                           "else None", NN_TESTS),
    "count/in_every_mode": (NETWORK, 'counts = record and mode == "spike"', "counts = record",
                            NN_TESTS),
    "count/unrecorded": (NETWORK, 'counts = record and mode == "spike"',
                         'counts = mode == "spike"', NN_TESTS),
}

# surviving mutants no test can kill, and why
EQUIVALENT = {
    "grain/global_pool_keeps_grain": "a GlobalPool's output is a vector, so no conv, SEW or "
                                     "pool can follow it and no den is ever given there",
}


def run(name: str, tree: Path) -> tuple[str, float]:
    """(outcome, seconds) of one mutant applied to ``tree``'s copy of src and
    restored after: killed (by the first failed test), survived, or what
    else happened."""
    rel, old, new, tests = MUTANTS[name]
    path = tree / "src" / rel
    text = path.read_text()
    found = text.count(old)
    if found != 1:
        return f"old text found {found} times", 0.0
    path.write_text(text.replace(old, new))
    # no bytecode: a mutant of the same length, written within the second,
    # could otherwise be run from the bytecode of the one before
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=tree, env=env, capture_output=True, text=True)
    finally:
        path.write_text(text)
    failed = next((line.split()[1] for line in done.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    outcome = {0: "survived", 1: f"killed by {failed}"}.get(
        done.returncode, f"pytest exit status {done.returncode}")
    return outcome, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - MUTANTS.keys()
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(HERE / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(HERE / "pyproject.toml", tree)
        start = time.perf_counter()
        for name in args.names or MUTANTS:
            outcome, seconds = run(name, tree)
            ok = outcome.split()[0] == ("survived" if name in EQUIVALENT else "killed")
            bad += not ok
            note = f" (equivalent: {EQUIVALENT[name]})" if name in EQUIVALENT else ""
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {outcome} in {seconds:.1f} s{note}",
                  flush=True)
    total = time.perf_counter() - start
    print(f"{'all as expected' if not bad else f'{bad} not as expected'}; {total:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
