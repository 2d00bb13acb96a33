"""The config boundary: run configs, flags, sweep specs, translator specs,
run headers and LM files.

Every bad input exits 2 before any sentence is simulated, with a message
that names the file and the key; the readers raise nothing but their own
error types, and a config read back from its dict is the same config.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retransim import sim
from retransim.cli import main
from retransim.predict import PredictorConfig, save_lm, train_lm
from retransim.sim import ConfigError, RunConfig, SweepSpec, config_hash
from retransim.strategy import StrategyConfig
from conftest import write_corpus

DELETE = object()  # a change that removes the key


@pytest.fixture
def files(tmp_path):
    """A valid corpus, lexicon, script, LM and run config dict."""
    src, ref = write_corpus(tmp_path, ["a b", "b a"], ["x y", "y x"])
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("a ||| x ||| 1.0\nb ||| y ||| 1.0\n", encoding="utf-8")
    script = tmp_path / "script.tsv"
    script.write_text("a\tx\n", encoding="utf-8")
    lm = tmp_path / "lm.json"
    save_lm(train_lm([("a", "b")], order=2), lm)
    config = {
        "source_path": str(src),
        "reference_path": str(ref),
        "translator": {"kind": "toy", "lexicon_path": str(lexicon), "beam_size": 2},
        "strategy": {"kind": "mask_k", "k_mask": 1},
    }
    return {"dir": tmp_path, "config": config, "script": str(script), "lm": lm}


def _changed(data, path: tuple, value):
    """A deep copy of data with the value at path replaced (or removed: DELETE)."""
    data = copy.deepcopy(data)
    if not path:
        return value
    parent = data
    for part in path[:-1]:
        parent = parent[part]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def _write(path, data) -> str:
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _rejected(monkeypatch, capsys, argv, *names) -> None:
    """argv exits 2 before any simulation, naming each of names in stderr."""
    monkeypatch.setattr(sim, "simulate_sentence", None)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own rejections
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert "internal error" not in err
    for name in names:
        assert name in err, f"{name!r} not in {err!r}"


# (change path, value, key named); paths are into the run config dict
RUN_CONFIG_CASES = [
    (("seed",), "s", "seed"),  # wrong type
    (("char_mode",), "yes", "char_mode"),
    (("strategy", "bias_beta"), True, "strategy.bias_beta"),  # a bool is no number
    (("source_path",), 0, "source_path"),  # not a file descriptor
    (("reference_path",), None, "reference_path"),
    (("lm_path",), 5, "lm_path"),
    (("strategy", "k_mask"), 2.5, "strategy.k_mask"),
    (("strategy",), {"kind": "dynamic", "predictor": {"strategy": "random", "seed": 1.5}},
     "strategy.predictor.seed"),
    (("strategy", "k_mask"), -1, "k_mask"),  # out of range
    (("strategy", "bias_beta"), 1.5, "bias_beta"),
    (("strategy", "kind"), "bogus", "bogus"),
    (("strategy",), {"kind": "dynamic"}, "predictor"),
    (("strategy",), {"kind": "dynamic", "predictor": {"strategy": "random", "k": 0}},
     "strategy.predictor"),
    (("ne_mode",), "bogus", "ne_mode"),
    (("extra",), 1, "extra"),  # unknown key
    (("parallelism",), 2, "parallelism"),
    (("strategy", "k_mak"), 1, "strategy.k_mak"),
    (("strategy", "predictor"), {"strategy": "random", "kk": 1}, "strategy.predictor.kk"),
    (("source_path",), DELETE, "source_path"),  # missing key
    (("strategy", "kind"), DELETE, "strategy.kind"),
    (("strategy",), "mask_k", "strategy"),  # not an object
    (("strategy", "predictor"), [1], "strategy.predictor"),
    ((), [], "expected an object"),
]

# paths into the translator spec
TRANSLATOR_CASES = [
    (("beam_size",), "wide", "beam_size"),
    (("distortion",), "x", "distortion"),
    (("seed",), True, "seed"),
    (("lexicon_path",), 3, "lexicon_path"),
    (("instability",), float("nan"), "instability"),  # NaN is no JSON number
    (("max_len_ratio",), float("inf"), "max_len_ratio"),
    (("distortion",), 0, "distortion"),
    (("beam_size",), 0, "beam_size"),
    (("beam_sise",), 3, "beam_sise"),
    (("lexicon",), {}, "lexicon"),
    (("lexicon_path",), DELETE, "lexicon_path"),
    (("kind",), "neural", "kind"),
    ((), "toy", "translator"),
]


@pytest.mark.parametrize("path, value, key", RUN_CONFIG_CASES)
def test_bad_run_config_exits_2(files, monkeypatch, capsys, path, value, key):
    cfg = _write(files["dir"] / "run.json", _changed(files["config"], path, value))
    _rejected(monkeypatch, capsys, ["run", "--config", cfg], f"{cfg}: bad run config", key)


@pytest.mark.parametrize("path, value, key", TRANSLATOR_CASES)
def test_bad_translator_spec_exits_2(files, monkeypatch, capsys, path, value, key):
    data = _changed(files["config"], ("translator", *path), value)
    cfg = _write(files["dir"] / "run.json", data)
    _rejected(monkeypatch, capsys, ["run", "--config", cfg], cfg, key)


@pytest.mark.parametrize(
    "key, value",
    [("identity_fallbak", True), ("identity_fallback", "yes"), ("identity_fallback", 1),
     ("script_path", 7), ("script_path", DELETE)],
)
def test_bad_scripted_spec_exits_2(files, monkeypatch, capsys, key, value):
    spec = _changed({"kind": "scripted", "script_path": files["script"]}, (key,), value)
    cfg = _write(files["dir"] / "run.json", {**files["config"], "translator": spec})
    _rejected(monkeypatch, capsys, ["run", "--config", cfg], cfg, "scripted translator: ", key)


@pytest.mark.parametrize(
    "flags, names",
    [
        (["--k-mask", "-1"], ["flags over ", "k_mask"]),  # out of range
        (["--beta", "1.5"], ["flags over ", "bias_beta"]),
        (["--strategy", "dynamic"], ["flags over ", "predictor"]),
        (["--strategy", "dynamic", "--predictor", "random", "--pred-k", "0"],
         ["flags over ", "strategy.predictor"]),
        (["--strategy", "oracle", "--beta", "0.5"], ["flags over ", "oracle"]),
        (["--parallelism", "0"], ["parallelism"]),
        (["--k-mask", "x"], ["--k-mask"]),  # wrong type, unknown: argparse's own
        (["--k-mak", "1"], ["--k-mak"]),
        (["--ne-mode", "bogus"], ["--ne-mode"]),
    ],
)
def test_bad_flag_over_run_config_exits_2(files, monkeypatch, capsys, flags, names):
    cfg = _write(files["dir"] / "run.json", files["config"])
    names = [f"{name}{cfg}" if name == "flags over " else name for name in names]
    _rejected(monkeypatch, capsys, ["run", "--config", cfg, *flags], *names)


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--beam-size", "0"], "beam_size"),
        (["--distortion", "2"], "distortion"),
        (["--instability", "-1"], "instability"),
        (["--max-len-ratio", "0"], "max_len_ratio"),
    ],
)
def test_bad_translator_flag_exits_2(files, monkeypatch, capsys, flags, key):
    config = files["config"]
    argv = ["run", "--source", config["source_path"], "--reference", config["reference_path"],
            "--lexicon", config["translator"]["lexicon_path"], *flags]
    _rejected(monkeypatch, capsys, argv, "flags: bad run config: translator: toy translator", key)


# paths into a sweep spec whose axes are {"k_mask": [1]}
SWEEP_CASES = [
    (("include_none",), "false", "include_none"),  # wrong type
    (("include_oracle",), 1, "include_oracle"),
    (("base", "seed"), "s", "base.seed"),
    (("axes", "k_mask"), 3, "axes.k_mask"),
    (("axes", "k_mask"), [1.5], "axes.k_mask[0]"),
    (("axes", "bias_beta"), ["0.5"], "axes.bias_beta[0]"),
    (("dynamic_cells",), [{"strategy": "random", "k": "2"}], "dynamic_cells[0].k"),
    (("dynamic_cells",), {"strategy": "random"}, "dynamic_cells"),
    (("axes", "k_mask"), [-1], "k_mask"),  # out of range
    (("axes", "bias_beta"), [1.5], "bias_beta"),
    (("axes", "k_mask"), [1, 1], "duplicate sweep cell labels"),
    (("axes", "predictor_strategy"), ["bogus"], "bogus"),
    (("dynamic_cells",), [{"strategy": "random", "k": 0}], "dynamic_cells[0]"),
    (("axis",), {}, "axis"),  # unknown key
    (("axes", "k_mas"), [1], "axes.k_mas"),
    (("dynamic_cells",), [{"strategy": "random", "kk": 1}], "dynamic_cells[0].kk"),
    (("base", "extra"), 1, "base.extra"),
    (("base",), DELETE, "base"),  # missing key
    (("dynamic_cells",), [{"k": 1}], "dynamic_cells[0].strategy"),
    (("axes",), [1], "axes"),  # not an object
    (("dynamic_cells",), [3], "dynamic_cells[0]"),
    (("base",), "run.json", "base"),
    ((), [], "expected an object"),
    (("base", "translator", "beam_size"), 0, "toy translator: beam_size"),
]


@pytest.mark.parametrize("path, value, key", SWEEP_CASES)
def test_bad_sweep_spec_exits_2(files, monkeypatch, capsys, path, value, key):
    spec = {"base": files["config"], "axes": {"k_mask": [1]}}
    spec_path = _write(files["dir"] / "sweep.json", _changed(spec, path, value))
    argv = ["sweep", "--spec", spec_path, "--out-dir", str(files["dir"] / "out")]
    _rejected(monkeypatch, capsys, argv, f"{spec_path}: bad sweep spec", key)


@pytest.mark.parametrize("command", ["metrics", "mask-hist"])
@pytest.mark.parametrize(
    "path, value, key",
    [
        (("seed",), "s", "seed"),
        (("strategy", "k_mask"), -1, "k_mask"),
        (("extra",), 1, "extra"),
        (("strategy",), 3, "strategy"),
        (("translator", "beam_sise"), 3, "beam_sise"),
        ((), None, "expected an object"),
    ],
)
def test_bad_run_header_exits_2(files, monkeypatch, capsys, command, path, value, key):
    cfg = _write(files["dir"] / "run.json", files["config"])
    traces = files["dir"] / "t.jsonl"
    assert main(["run", "--config", cfg, "--traces-out", str(traces)]) == 0
    header, *lines = traces.read_text(encoding="utf-8").splitlines()
    header = json.loads(header)
    header["config"] = _changed(header["config"], path, value)
    traces.write_text("\n".join([json.dumps(header), *lines]) + "\n", encoding="utf-8")
    capsys.readouterr()
    _rejected(monkeypatch, capsys, [command, "--traces", str(traces)],
              f"{traces}: run header: bad run config", key)


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("counts", DELETE, "counts"),
        ("order", DELETE, "order"),
        ("order", "3", "order"),
        ("smoothing_alpha", "x", "smoothing_alpha"),
        ("vocabulary", 5, "vocabulary"),
        ("vocabulary", [1], "vocabulary"),
        ("counts", [1], "counts"),
        ("counts", {"1": 5}, "counts"),
        ("counts", {"2": {}}, "counts"),
        ("order", 9, "order"),
        ("smoothing_alpha", 0, "smoothing_alpha"),
        ("smoothing_alpha", float("nan"), "smoothing_alpha"),
        ("extra", 1, "extra"),
    ],
)
def test_bad_lm_file_exits_2(files, monkeypatch, capsys, key, value, named):
    payload = json.loads(files["lm"].read_text(encoding="utf-8"))
    _write(files["lm"], _changed(payload, (key,), value))
    cfg = _write(files["dir"] / "run.json", {**files["config"], "lm_path": str(files["lm"])})
    _rejected(monkeypatch, capsys, ["run", "--config", cfg], f"{files['lm']}: ", named)


@pytest.mark.parametrize("count", [-5, 2.7, "3", True, None])
@pytest.mark.parametrize("order, context", [("1", ""), ("2", "a")])
def test_lm_count_that_is_no_int_from_0_exits_2(files, monkeypatch, capsys, order, context, count):
    payload = json.loads(files["lm"].read_text(encoding="utf-8"))
    payload["counts"][order][context]["b"] = count
    _write(files["lm"], payload)
    cfg = _write(files["dir"] / "run.json", {**files["config"], "lm_path": str(files["lm"])})
    _rejected(monkeypatch, capsys, ["run", "--config", cfg],
              f"error: {files['lm']}: counts: order {order}, token 'b': "
              f"expected an int >= 0, got {count!r}")


@pytest.mark.parametrize(
    "content, problem",
    [
        (b'{"seed": oops}\n', ":1: Expecting value"),
        (b'{"seed":\n 1, "x": "\xff"}\n', ":2: not UTF-8"),
        (b"\xff{}\n", ":1: not UTF-8"),
        (b"[]\n", ""),  # not an object
    ],
)
@pytest.mark.parametrize("boundary", ["run config", "sweep spec", "trace file", "LM file"])
def test_unreadable_file_exits_2_naming_it(files, monkeypatch, capsys, boundary, content, problem):
    path = files["dir"] / "bad.json"
    _write(path, content)
    cfg = _write(files["dir"] / "run.json", files["config"])
    argv = {
        "run config": ["run", "--config", str(path)],
        "sweep spec": ["sweep", "--spec", str(path), "--out-dir", str(files["dir"] / "out")],
        "trace file": ["metrics", "--traces", str(path)],
        "LM file": ["run", "--config", cfg, "--lm", str(path)],
    }[boundary]
    _rejected(monkeypatch, capsys, argv, f"{path}{problem}")


# ---------------------------------------------------------------------------
# Property tests of the readers
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

predictors = st.builds(
    PredictorConfig,
    strategy=st.sampled_from(["lm_sample", "lm_greedy", "unknown", "random"]),
    k=st.integers(1, 5),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**64),
)
betas = st.sampled_from([0.0, 0.25, 0.5, 1, 1.0])


@st.composite
def strategies(draw):
    kind = draw(st.sampled_from(["none", "mask_k", "dynamic", "oracle"]))
    return StrategyConfig(
        kind,
        k_mask=draw(st.integers(0, 12)),
        predictor=draw(predictors) if kind == "dynamic" else None,
        bias_beta=0.0 if kind == "oracle" else draw(betas),
    )


translators = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("toy"), "lexicon_path": st.text(max_size=8)},
        optional={
            "beam_size": st.integers(1, 8),
            "distortion": st.sampled_from([0.5, 1, 1.0]),
            "instability": st.sampled_from([0, 0.0, 2.5]),
            "seed": st.integers(-5, 5),
        },
    ),
    st.fixed_dictionaries(
        {"kind": st.just("scripted"), "script_path": st.text(max_size=8)},
        optional={"identity_fallback": st.booleans()},
    ),
)

run_configs = st.builds(
    RunConfig,
    source_path=st.text(max_size=8),
    reference_path=st.text(max_size=8),
    translator=translators,
    strategy=strategies(),
    char_mode=st.booleans(),
    seed=st.integers(-(2**70), 2**70),
    lm_path=st.none() | st.text(max_size=8),
    ne_mode=st.sampled_from(["mean", "corpus"]),
)


@st.composite
def sweep_dicts(draw):
    spec = {"base": draw(run_configs).to_dict()}
    axes = draw(st.fixed_dictionaries({}, optional={
        "k_mask": st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
        "bias_beta": st.lists(betas, min_size=1, max_size=2, unique_by=float),
        "predictor_strategy": st.lists(st.sampled_from(["random", "lm_sample"]),
                                       max_size=2, unique=True),
        "predictor_k": st.lists(st.integers(1, 3), max_size=2, unique=True),
        "predictor_n": st.lists(st.integers(1, 3), max_size=2, unique=True),
    }))
    if axes:
        spec["axes"] = axes
    spec["include_none"] = draw(st.booleans())
    spec["include_oracle"] = not axes.get("k_mask") or draw(st.booleans())
    return spec


def _paths(data, prefix=()):
    """Every position in a JSON value: the root, each object key and list index."""
    yield prefix
    items = data.items() if isinstance(data, dict) else (
        enumerate(data) if isinstance(data, list) else ()
    )
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _reads_or_rejects(reader, data) -> None:
    try:
        reader(data)
    except ConfigError:
        pass


@settings(deadline=None)
@given(json_values)
def test_readers_on_any_json_raise_only_config_error(value):
    _reads_or_rejects(RunConfig.from_dict, value)
    _reads_or_rejects(SweepSpec.from_dict, value)


@settings(deadline=None)
@given(run_configs, st.data())
def test_run_config_with_one_value_swapped_raises_only_config_error(cfg, data):
    valid = cfg.to_dict()
    path = data.draw(st.sampled_from(list(_paths(valid))))
    _reads_or_rejects(RunConfig.from_dict, _changed(valid, path, data.draw(json_values)))


@settings(deadline=None)
@given(sweep_dicts(), st.data())
def test_sweep_spec_with_one_value_swapped_raises_only_config_error(valid, data):
    SweepSpec.from_dict(valid)
    path = data.draw(st.sampled_from(list(_paths(valid))))
    _reads_or_rejects(SweepSpec.from_dict, _changed(valid, path, data.draw(json_values)))


@settings(deadline=None)
@given(run_configs)
def test_run_config_round_trips_with_its_hash(cfg):
    read = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert read == cfg
    assert config_hash(read) == config_hash(cfg)
