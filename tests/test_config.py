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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from retransim import sim
from retransim.cli import main
from retransim.predict import (
    LM_FORMAT,
    LM_VERSION,
    LMFormatError,
    PredictorConfig,
    load_lm,
    save_lm,
    train_lm,
)
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
        (["--strategy", "dynamic", "--predictor", "lm_greedy", "--pred-n", "3"],
         ["flags over ", "strategy.predictor: n is for lm_sample and random only, got 3"]),
    ],
)
def test_bad_flag_over_run_config_exits_2(files, monkeypatch, capsys, flags, names):
    cfg = _write(files["dir"] / "run.json", files["config"])
    names = [f"{name}{cfg}" if name == "flags over " else name for name in names]
    _rejected(monkeypatch, capsys, ["run", "--config", cfg, *flags], *names)


MASK_K = {"kind": "mask_k", "k_mask": 2}


# (the config's strategy, flags, key named): a field the kind does not use,
# from the file or from a flag, is refused and never dropped
DEAD_STRATEGY_FIELDS = [
    (MASK_K, ["--strategy", "mask_k", "--k-mask", "3", "--predictor", "lm_sample",
              "--pred-k", "3"], "predictor"),
    (MASK_K, ["--strategy", "none", "--k-mask", "7"], "k_mask"),
    (MASK_K, ["--strategy", "none", "--pred-n", "4"], "strategy.predictor.strategy"),
    ({"kind": "none", "k_mask": 5}, [], "k_mask"),
    ({**MASK_K, "predictor": {"strategy": "random"}}, [], "predictor"),
]


@pytest.mark.parametrize("strategy, flags, key", DEAD_STRATEGY_FIELDS,
                         ids=["predictor-flag-on-mask_k", "k_mask-flag-on-none",
                              "pred-n-flag-on-none", "k_mask-key-on-none",
                              "predictor-key-on-mask_k"])
def test_strategy_field_the_kind_does_not_use_exits_2(files, monkeypatch, capsys, strategy,
                                                      flags, key):
    cfg = _write(files["dir"] / "run.json", {**files["config"], "strategy": strategy})
    _rejected(monkeypatch, capsys, ["run", "--config", cfg, *flags],
              f"{cfg}: bad run config", key)


@pytest.mark.parametrize(
    "strategy, flags, expected",
    [
        ({**MASK_K, "bias_beta": 0.5}, ["--strategy", "dynamic", "--predictor", "random"],
         {"kind": "dynamic", "k_mask": 0, "bias_beta": 0.5,
          "predictor": {"strategy": "random", "k": 1, "n": 1, "seed": 0}}),
        ({"kind": "dynamic", "predictor": {"strategy": "random", "k": 2}},
         ["--strategy", "mask_k", "--k-mask", "1"],
         {"kind": "mask_k", "k_mask": 1, "bias_beta": 0.0, "predictor": None}),
        ({"kind": "dynamic", "predictor": {"strategy": "random", "k": 2}},
         ["--strategy", "dynamic", "--pred-n", "3"],
         {"kind": "dynamic", "k_mask": 0, "bias_beta": 0.0,
          "predictor": {"strategy": "random", "k": 2, "n": 3, "seed": 0}}),
    ],
    ids=["to-dynamic", "to-mask_k", "same-kind"],
)
def test_strategy_flag_of_another_kind_drops_the_files_kind_fields(files, capsys, strategy,
                                                                   flags, expected):
    """--strategy of another kind keeps only bias_beta from the file; the
    other strategy flags then lay over their keys."""
    cfg = _write(files["dir"] / "run.json", {**files["config"], "strategy": strategy})
    assert main(["run", "--config", cfg, *flags, "--echo-config"]) == 0
    echoed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert json.loads(echoed[0])["strategy"] == expected


def test_predictor_flag_keeps_the_files_n(files, monkeypatch, capsys):
    """--predictor over a file's drawing predictor keeps its n: a deterministic
    predictor refuses it, naming n, and runs once --pred-n sets it to 1."""
    strategy = {"kind": "dynamic", "predictor": {"strategy": "random", "n": 3}}
    cfg = _write(files["dir"] / "run.json", {**files["config"], "strategy": strategy})
    argv = ["run", "--config", cfg, "--predictor", "lm_greedy", "--lm", str(files["lm"])]
    _rejected(monkeypatch, capsys, argv,
              f"flags over {cfg}: bad run config: strategy.predictor: n is for lm_sample")
    monkeypatch.undo()
    assert main([*argv, "--pred-n", "1", "--echo-config"]) == 0
    echoed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert json.loads(echoed[0])["strategy"]["predictor"] == {
        "strategy": "lm_greedy", "k": 1, "n": 1, "seed": 0}


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


# each translator flag with a value, the translator key it sets and that value in JSON
TRANSLATOR_FLAGS = [
    (["--beam-size", "3"], "beam_size", 3),
    (["--distortion", "0.5"], "distortion", 0.5),
    (["--instability", "0.0"], "instability", 0.0),
    (["--max-len-ratio", "1.5"], "max_len_ratio", 1.5),
    (["--model-seed", "7"], "seed", 7),
    (["--identity-fallback"], "identity_fallback", True),
]


@pytest.mark.parametrize("setup", ["config", "lexicon", "script", "config-script"])
@pytest.mark.parametrize("flag, key, value", TRANSLATOR_FLAGS,
                         ids=[flag[0] for flag, _, _ in TRANSLATOR_FLAGS])
def test_translator_flag_sets_its_key_or_exits_2(files, monkeypatch, capsys, setup, flag, key,
                                                 value):
    """With or without --config, a translator flag sets its key, or is refused
    as an unknown key of the translator's kind; it is never dropped."""
    config = files["config"]
    lexicon, script = config["translator"]["lexicon_path"], files["script"]
    cfg = ["--config", _write(files["dir"] / "run.json", config)]
    paths = ["--source", config["source_path"], "--reference", config["reference_path"]]
    # the translator each setup names; --script over a toy config keeps no toy key
    flags, translator = {
        "config": (cfg, config["translator"]),
        "lexicon": ([*paths, "--lexicon", lexicon], {"kind": "toy", "lexicon_path": lexicon}),
        "script": ([*paths, "--script", script], {"kind": "scripted", "script_path": script}),
        "config-script": ([*cfg, "--script", script],
                          {"kind": "scripted", "script_path": script}),
    }[setup]
    argv = ["run", *flags, *flag, "--echo-config"]
    if (translator["kind"] == "scripted") != (key == "identity_fallback"):
        _rejected(monkeypatch, capsys, argv, "bad run config: translator: ",
                  f"unknown key {key!r}")
        return
    assert main(argv) == 0
    echoed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert json.loads(echoed[0])["translator"] == {**translator, key: value}


def test_lexicon_and_script_exclude_each_other(files, monkeypatch, capsys):
    config = files["config"]
    argv = ["run", "--source", config["source_path"], "--reference", config["reference_path"],
            "--lexicon", config["translator"]["lexicon_path"], "--script", files["script"]]
    _rejected(monkeypatch, capsys, argv, "--script: not allowed with argument --lexicon")


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
    (("dynamic_cells",), [{"strategy": "bogus"}], "bogus"),
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
    # different predictors, one label: no cell may be dropped
    (("dynamic_cells",), [{"strategy": "random", "seed": 1}, {"strategy": "random", "seed": 2}],
     "duplicate sweep cell labels: ['dynamic:random,k=1,n=1']"),
    # one predictor listed twice: no cell is merged either
    (("dynamic_cells",), [{"strategy": "random"}, {"strategy": "random"}],
     "duplicate sweep cell labels: ['dynamic:random,k=1,n=1']"),
    # a deterministic predictor makes one extension: n is refused, not folded to 1
    (("dynamic_cells",), [{"strategy": "unknown", "n": 2}],
     "dynamic_cells[0]: n is for lm_sample and random only, got 2 with unknown"),
    # no beta crosses to no cells
    (("axes", "bias_beta"), [], "sweep defines no cells"),
    # dynamic cells are listed, never drawn from predictor axes
    (("axes", "predictor_strategy"), ["random"], "axes.predictor_strategy"),
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
        ("vocabulary", ["a", ""], "invalid token '' in vocabulary"),
        ("counts", {"1": {"": {"a": 1, "zz top": 1}}}, "invalid token 'zz top' in counts"),
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

predictors = st.one_of(
    st.builds(PredictorConfig, strategy=st.sampled_from(["lm_sample", "random"]),
              k=st.integers(1, 5), n=st.integers(1, 5), seed=st.integers(0, 2**64 - 1)),
    st.builds(PredictorConfig, strategy=st.sampled_from(["lm_greedy", "unknown"]),
              k=st.integers(1, 5)),
)
betas = st.sampled_from([0.0, 0.25, 0.5, 1, 1.0])


@st.composite
def strategies(draw):
    kind = draw(st.sampled_from(["none", "mask_k", "dynamic", "oracle"]))
    return StrategyConfig(
        kind,
        k_mask=draw(st.integers(0, 12)) if kind == "mask_k" else 0,
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
            "seed": st.integers(0, 5),
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
    lm_path=st.none() | st.text(max_size=8),
    ne_mode=st.sampled_from(["mean", "corpus"]),
)


@st.composite
def sweep_dicts(draw):
    spec = {"base": draw(run_configs).to_dict()}
    axes = draw(st.fixed_dictionaries({}, optional={
        "k_mask": st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
        "bias_beta": st.lists(betas, min_size=1, max_size=2, unique_by=float),
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


@st.composite
def swaps(draw, configs):
    """(a config's dict, a position in it, any JSON value to put there)."""
    valid = draw(configs).to_dict()
    return valid, draw(st.sampled_from(list(_paths(valid)))), draw(json_values)


def _read_back_as_given(given, read) -> bool:
    """Whether read holds each key of given, recursively, with its value and
    that value's type: a default may fill an absent key, but no value is converted."""
    if isinstance(given, dict):
        return isinstance(read, dict) and all(
            key in read and _read_back_as_given(value, read[key]) for key, value in given.items()
        )
    return type(read) is type(given) and read == given


DYNAMIC_RANDOM = RunConfig(
    "s", "r", {"kind": "toy", "lexicon_path": "l"},
    StrategyConfig("dynamic", predictor=PredictorConfig("random", n=3)),
).to_dict()


@settings(deadline=None)
@given(swaps(run_configs))
# a deterministic predictor's n is refused, not read as 1
@example((DYNAMIC_RANDOM, ("strategy", "predictor"), {"strategy": "lm_greedy", "n": 3}))
def test_run_config_with_one_value_swapped_raises_only_config_error(swap):
    """A swapped dict is refused with a ConfigError, or reads back as it is."""
    valid, path, value = swap
    data = _changed(valid, path, value)
    try:
        cfg = RunConfig.from_dict(data)
    except ConfigError:
        return
    assert _read_back_as_given(data, cfg.to_dict())


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


def _lm_loads_or_rejects(path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        load_lm(path)
    except LMFormatError:
        pass


lm_keys = st.dictionaries(
    st.sampled_from(["order", "smoothing_alpha", "vocabulary", "counts"]) | st.text(max_size=8),
    json_values,
    max_size=5,
)


@settings(deadline=None)
@given(json_values, lm_keys)
def test_load_lm_on_any_json_raises_only_lm_format_error(tmp_path_factory, value, keys):
    path = tmp_path_factory.mktemp("lm") / "lm.json"
    _lm_loads_or_rejects(path, value)
    _lm_loads_or_rejects(path, {"format": LM_FORMAT, "version": LM_VERSION, **keys})


@settings(deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=4), min_size=1, max_size=3),
    st.integers(1, 4),
    st.data(),
)
def test_lm_file_with_one_value_swapped_raises_only_lm_format_error(
    tmp_path_factory, corpus, order, data
):
    path = tmp_path_factory.mktemp("lm") / "lm.json"
    save_lm(train_lm([tuple(sentence) for sentence in corpus], order=order), path)
    valid = json.loads(path.read_text(encoding="utf-8"))
    load_lm(path)
    swapped = data.draw(st.sampled_from(list(_paths(valid))))
    _lm_loads_or_rejects(path, _changed(valid, swapped, data.draw(json_values)))
