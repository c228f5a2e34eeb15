"""Generated inputs against the CLI contract.

Whatever the data and the config, ``main`` ends with a documented exit code
(0-3) and raises nothing. A result it writes (exit 0 or 2) is strict JSON,
with no NaN or Infinity, and every value of a ``--plot-dir`` CSV is finite;
a rejected input (exit 1 or 3) writes no result file. The runs are
derandomized, so every run tries the same cases.
"""

import csv
import json
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilarx.cli import main


class Case(NamedTuple):
    command: str
    series: list        # samples of one or two series
    cfg: dict
    flags: list
    plots: bool


def _strict(token):
    raise ValueError(f"non-JSON number {token}")


# 1-12 samples up to the float limit, or in [-1, 1] times a scale whose
# square leaves floating-point range.
_SCALES = [1.0, 1e-300, 1e-160, 1e150, 1e155, 1e300, 1e308]
_samples = st.integers(1, 12).flatmap(lambda n: st.one_of(
    st.lists(st.floats(-1e308, 1e308), min_size=n, max_size=n),
    st.builds(lambda ys, scale: [y * scale for y in ys],
              st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
              st.sampled_from(_SCALES)),
))
_reals = st.one_of(st.sampled_from([0.0, 0.5, 2.0, 1e154, 1e308, 5e-324]),
                   st.floats(0.0, 1e308))
_lambdas = st.one_of(st.sampled_from([1.0, 1e2, 1e4, 1e7, 1e154, 1e155]),
                     st.floats(1e-3, 1e150))


@st.composite
def cases(draw):
    command = draw(st.sampled_from(["identify", "refine", "sweep", "baseline", "ripcheck"]))
    # the isometry check takes one FIR series
    fir = command == "ripcheck"
    series = draw(st.lists(_samples, min_size=1, max_size=1 if fir else 2))
    cfg = {"n_a": 0 if fir else draw(st.integers(0, 3)), "n_b": draw(st.integers(1, 3)),
           "n_k": draw(st.integers(0, 1)), "max_iters": draw(st.integers(1, 50)),
           "epsilon": draw(_reals), "lambda": draw(_lambdas), "gamma": draw(_reals)}
    stale = draw(st.sampled_from([None] * 8 + ["tol", "rho"]))
    if stale:
        cfg[stale] = draw(_reals)
    flags = []
    if command == "sweep":
        grid = draw(st.lists(_lambdas, min_size=1, max_size=3, unique=True))
        flags = ["--lambdas", ",".join(repr(g) for g in sorted(grid))]
    elif command == "baseline":
        flags = ["--segments", str(draw(st.integers(1, 4)))]
    elif command == "ripcheck":
        flags = ["--k", str(draw(st.integers(1, 2)))]
    return Case(command, series, cfg, flags, command != "ripcheck")


# A 12-sample random walk scaled far enough that squaring it left
# floating-point range, which once made the baseline's verdict depend on scale.
_WALK = list(np.cumsum(np.random.default_rng(0).standard_normal(12)))
_BASELINE_ROWS = [Case("baseline", [[float(y) * scale for y in _WALK]],
                       {"n_a": 1, "n_b": 2}, ["--segments", "2"], True)
                  for scale in (1.0, 1e150, 1e155, 1e-160)]


def _run(case: Case, tmp: Path) -> int:
    rows = [(t, y, f"s{j}") for j, ys in enumerate(case.series, 1)
            for t, y in enumerate(ys, 1)]
    (tmp / "data.csv").write_text("t,y,series\n" + "".join(
        f"{t},{y!r},{label}\n" for t, y, label in rows))
    (tmp / "cfg.json").write_text(json.dumps(case.cfg))
    flags = list(case.flags)
    if case.command == "refine":
        (tmp / "prior.json").write_text(json.dumps(
            {"u": {f"s{j}": ys for j, ys in enumerate(case.series, 1)}}))
        flags += ["--result", str(tmp / "prior.json")]
    if case.plots:
        flags += ["--plot-dir", str(tmp / "plots")]
    return main([case.command, "--data", str(tmp / "data.csv"),
                 "--config", str(tmp / "cfg.json"), "--out", str(tmp / "o.json"), *flags])


# An estimate with a pole far outside the unit circle warns, and may overflow.
@pytest.mark.filterwarnings("ignore:autoregressive polynomial", "ignore:overflow encountered")
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cases())
@example(Case("identify", [[1e308] * 3], {"n_a": 1, "n_b": 1, "epsilon": 2.0,
                                          "lambda": 2.0}, [], True))
@example(Case("identify", [[1e308] * 12], {"n_a": 0, "n_b": 1, "epsilon": 2.0,
                                           "lambda": 2.0}, [], True))
@example(Case("sweep", [[1e200] * 6 + [-1e200] * 6], {"n_a": 1, "n_b": 1, "epsilon": 1.0},
              ["--lambdas", "1e154,1e155"], True))
@example(Case("identify", [[1.0] * 12], {"n_a": 1, "n_b": 1, "tol": 1e-7, "rho": 1.0,
                                        "lambda": 1.0}, [], True))
@example(Case("identify", [[0.0, 0.0, 0.0, 1.0, 6.571157014032351e93]],
              {"n_a": 1, "n_b": 1, "max_iters": 1, "lambda": 1.0}, [], True))
@example(_BASELINE_ROWS[0])
@example(_BASELINE_ROWS[1])
@example(_BASELINE_ROWS[2])
@example(_BASELINE_ROWS[3])
def test_cli_contract(case):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        code = _run(case, tmp)
        assert code in (0, 1, 2, 3)
        out = tmp / "o.json"
        if code in (1, 3):
            assert not out.exists()
            return
        json.loads(out.read_text(), parse_constant=_strict)
        for path in (tmp / "plots").glob("*.csv") if case.plots else ():
            for row in list(csv.reader(path.read_text().splitlines()))[1:]:
                assert all(math.isfinite(float(v)) for v in row), path.name
