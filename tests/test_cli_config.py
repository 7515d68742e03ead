"""Config robustness of the command line: malformed values exit 2 with a
message, never 1 with a traceback. Explicit cases first, then a hypothesis
fuzz that replaces one field of a small valid config with an arbitrary JSON
value."""

import copy
import hashlib
import inspect
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dropsim import cli
from dropsim.latency import NOISE_KINDS

FLEET = {"workers": 3, "base_mean": 1.0, "noise_mode": "additive_absolute",
         "noise": {"kind": "normal", "loc": 0.0, "std": 0.1}}

# Small valid configs, one per command (and mode); each runs in milliseconds.
BASES = {
    "simulate": {"fleet": FLEET, "m_per_step": 3, "t_comm": 0.2, "tau": "auto",
                 "warmup_iterations": 5, "iterations": 6, "seed": 1,
                 "stop_at_accumulation_boundary": False, "mode": "synchronous"},
    "local-sgd": {"fleet": FLEET, "m_per_step": 1, "iterations": 40, "seed": 1,
                  "mode": "local-sgd",
                  "local_sgd": {"sync_period": 2, "straggler_prob": 0.1,
                                "straggler_delay": 0.5, "straggler_mode": "uniform",
                                "server_size": 2, "tau": 1.5}},
    "scale-sweep": {"fleet": FLEET, "m_per_step": 3, "t_comm": 0.2, "tau": "auto",
                    "warmup_iterations": 5, "iterations": 6, "n_list": [2, 4],
                    "seed": 1, "stop_at_accumulation_boundary": False},
    "sgd-bench": {"problem": {"kind": "quadratic", "dimension": 3, "smoothness": 1.0,
                              "sigma": 1.0, "distance": 2.0, "seed": 0},
                  "schedule": {"kind": "per_worker_bernoulli", "b_max": 10,
                               "n_workers": 2, "p_drop": 0.1},
                  "k_total": 200, "seeds": 3, "theorem": "both", "seed": 1},
    "sgd-bench-logistic": {
        "problem": {"kind": "logistic_synthetic", "dimension": 3, "n_samples": 32,
                    "l2_reg": 0.1, "sin_amplitude": 0.05, "seed": 7},
        "schedule": {"kind": "none", "b_max": 10},
        "k_total": 1000, "seeds": 2, "theorem": "nonconvex"},
}

# One valid noise block per kind; the fuzz swaps each into the fleet.
NOISES = [
    {"kind": "none"},
    {"kind": "normal", "loc": 0.0, "std": 0.1},
    {"kind": "lognormal", "log_mean": -2.0, "log_std": 0.5},
    {"kind": "bounded_lognormal", "log_mean": 4.0, "log_std": 1.0,
     "scale_divisor": 180.0, "bound": 5.5},
    {"kind": "simulated_delay"},
    {"kind": "bernoulli", "p": 0.2, "scale": 0.5},
    {"kind": "exponential", "rate": 5.0},
    {"kind": "gamma", "shape": 2.0, "rate": 10.0},
    {"kind": "empirical", "samples": [0.1, -0.05, 0.2]},
]


def _argv(name: str, cfg: str, out: str) -> list:
    command = {"local-sgd": "simulate", "sgd-bench-logistic": "sgd-bench"}.get(name, name)
    return [command, "--config", cfg, "--out", out]


def _run(name: str, text: str, where: Path) -> int:
    cfg = where / "c.json"
    cfg.write_text(text)
    return cli.main(_argv(name, str(cfg), str(where / "o")))


def _with(doc: dict, keys: tuple, value) -> dict:
    """A copy of doc with the value at the key path replaced."""
    doc = copy.deepcopy(doc)
    inner = doc
    for k in keys[:-1]:
        inner = inner[k]
    inner[keys[-1]] = value
    return doc


def _with_literal(doc: dict, keys: tuple, literal: str) -> str:
    """doc as JSON text with the value at the key path written as a raw literal."""
    return json.dumps(_with(doc, keys, "@literal@")).replace('"@literal@"', literal)


def test_every_base_config_runs():
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in BASES.items():
            assert _run(name, json.dumps(doc), Path(tmp)) == 0, name
        for noise in NOISES:
            doc = _with(BASES["simulate"], ("fleet", "noise"), noise)
            assert _run("simulate", json.dumps(doc), Path(tmp)) == 0, noise
    assert {n["kind"] for n in NOISES} == set(NOISE_KINDS)


def test_readme_noise_table_matches_noise_kinds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|", readme, flags=re.M)
    assert {kind: set(re.findall(r"`(\w+)`", fields)) for kind, fields in rows} == \
        {kind: set(inspect.signature(make).parameters) for kind, make in NOISE_KINDS.items()}


# README heading of each config block -> the cli tables it documents.
_README_BLOCKS = {
    "`simulate`": [cli._SIMULATE, cli._SIMULATE_LOCAL_SGD],
    "`scale-sweep`": [cli._SCALE_SWEEP],
    "`fleet`": [cli._FLEET],
    "`local_sgd`": [cli._LOCAL_SGD],
    "`sgd-bench`": [cli._SGD_BENCH],
    "`problem`, kind `quadratic`": [cli._PROBLEMS["quadratic"]],
    "`problem`, kind `logistic_synthetic`": [cli._PROBLEMS["logistic_synthetic"]],
    "`schedule`": [cli._SCHEDULE],
}


def test_readme_config_tables_match_cli_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sections = dict(re.findall(r"^#### (.+)\n\n((?:\|.*\n)+)", readme, flags=re.M))
    assert set(sections) == set(_README_BLOCKS)
    for heading, tables in _README_BLOCKS.items():
        rows = {field: (kind, default) for field, kind, default in
                re.findall(r"^\| (\w+) \| (.+?) \| ((?:required|`).*?) \|$",
                           sections[heading], re.M)}
        for table in tables:
            assert set(rows) == set(table), heading
            for field, (kind, *default) in table.items():
                assert rows[field][0] == kind.name, (heading, field)
                cell = rows[field][1]
                # A cell may add a default of another mode after a ";".
                assert (f"`{json.dumps(default[0])}`" in cell if default
                        else cell.split(";")[0] == "required"), (heading, field)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                                     "1" + "0" * 400, "1" + "0" * 5000])
@pytest.mark.parametrize("name, keys", [
    ("simulate", ("t_comm",)),
    ("simulate", ("fleet", "noise", "std")),
    ("simulate", ("fleet", "noise", "loc")),
    ("scale-sweep", ("t_comm",)),
    ("sgd-bench", ("k_total",)),
])
def test_non_finite_number_exits_2(tmp_path, capsys, name, keys, literal):
    assert _run(name, _with_literal(BASES[name], keys, literal), tmp_path) == 2
    assert "is not finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, keys, literal", [
    ("simulate", ("tau",), '2.5, "tau": "auto"'),
    ("simulate", ("fleet", "noise", "std"), '0.1, "std": 0.2'),
    ("sgd-bench", ("schedule", "p_drop"), '0.1, "b_max": 20'),
])
def test_duplicate_key_exits_2(tmp_path, capsys, name, keys, literal):
    # json.loads keeps a repeated key's last value; a config names each key once.
    assert _run(name, _with_literal(BASES[name], keys, literal), tmp_path) == 2
    repeated = literal.split('"')[1]
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'c.json'}: duplicate key {repeated!r}\n"
    assert not (tmp_path / "o").exists()


# A config that is mostly numbers: json's C scanner reads them, and their
# finiteness is checked in bulk. The literals of the two tests above, placed
# after the list, must still be rejected with the same message.
_SAMPLES = _with(BASES["simulate"], ("fleet", "noise"), {
    "kind": "empirical",
    "samples": np.random.default_rng(3).normal(0.0, 0.05, 10_000).tolist()})


@pytest.mark.parametrize("literal, message", [
    *[(literal, f"number {literal[:24]} is not finite")
      for literal in ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                      "1" + "0" * 400, "1" + "0" * 5000]],
    ('0.2, "t_comm": 0.3', "duplicate key 't_comm'"),
], ids=["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "400-digits", "5000-digits",
        "duplicate-key"])
def test_error_after_a_long_number_list_reads_alike(tmp_path, capsys, literal, message):
    text = _with_literal(_SAMPLES, ("t_comm",), literal)
    assert text.index('"t_comm"') > text.index('"samples"')
    assert _run("simulate", text, tmp_path) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'c.json'}: {message}\n"
    assert not (tmp_path / "o").exists()


def test_truncated_config_after_a_long_number_list_reads_alike(tmp_path, capsys):
    text = json.dumps(_SAMPLES)[:-40]
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    assert _run("simulate", text, tmp_path) == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'c.json'}:{want.value.lineno}:{want.value.colno}: " \
        f"{want.value.msg}\n"


def test_valid_config_numbers_take_no_hook_call(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_SAMPLES))
    calls = []
    finite_float = cli._finite_float
    monkeypatch.setattr(cli, "_finite_float", lambda text: calls.append(text)
                        or finite_float(text))
    doc = cli._load_config(str(path))
    assert calls == []
    assert doc == _SAMPLES
    samples = doc["fleet"]["noise"]["samples"]
    assert np.array(samples).tobytes() == np.array(_SAMPLES["fleet"]["noise"]["samples"]).tobytes()


def test_list_checks_do_not_rest_on_the_sum(tmp_path, capsys):
    # Finite values whose float sum overflows load as they are; integers past
    # float range are rejected even where their exact sum cancels.
    path = tmp_path / "c.json"
    path.write_text('{"a": [1.7e308, 1.7e308, -1.0], "b": [[2, 1e308], 1e308]}')
    assert cli._load_config(str(path)) == {"a": [1.7e308, 1.7e308, -1.0],
                                          "b": [[2, 1e308], 1e308]}
    big = "1" + "0" * 400
    doc = _with_literal(_SAMPLES, ("fleet", "noise", "samples"), f"[{big}, -{big}, 0.5]")
    assert _run("simulate", doc, tmp_path) == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'c.json'}: number {big[:24]} is not finite\n"


# The config hash is the first 12 hex digits of the SHA-256 of json.dumps'
# canonical text; _config_hash writes lists of floats in bulk.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -2.75,
                *[float(np.nextafter(v, d)) for v in (1e-4, 1e16, -1e-4, -1e16)
                  for d in (-np.inf, np.inf)], 1e-4, 1e16, -1e-4, -1e16, 1.7976931348623157e308]
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_long_floats = st.integers(0, 2**32).map(lambda seed: (
    10.0 ** np.random.default_rng(seed).uniform(-8, 20, 3000)
    * np.random.default_rng(seed + 1).choice([-1.0, 1.0], 3000)).tolist())
_json_leaves = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | _floats
                | st.text(max_size=8)
                | st.lists(_floats, min_size=1, max_size=40) | _long_floats
                | st.lists(_floats | st.integers(-10, 10), max_size=12))
_json_docs = st.dictionaries(st.text(max_size=6), st.recursive(
    _json_leaves, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4), max_leaves=10), max_size=5)


@given(_json_docs)
@settings(max_examples=150, derandomize=True, deadline=None)
@example({"fleet": {"noise": {"kind": "empirical", "samples": _EDGE_FLOATS}},
          "\u00e9t\u00e9": [1, 0.5, -0.0], "\u65e5": {"z": [], "a": [[0.1, -2.0], 3]}})
def test_config_hash_is_the_sha256_of_the_canonical_json(doc):
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert cli._config_hash(doc) == hashlib.sha256(canon.encode()).hexdigest()[:12]
    assert cli._canonical(doc) == canon


@pytest.mark.parametrize("name, keys, value, message", [
    ("simulate", ("fleet", "noise", "loc"), "a", "invalid noise parameters"),
    ("simulate", ("fleet", "noise", "loc"), [0.0, 1.0], "invalid noise parameters"),
    ("simulate", ("fleet", "noise", "kind"), ["normal"], "unknown noise kind ['normal']"),
    ("simulate", ("fleet", "noise"), {"kind": "empirical", "samples": [[0.1], [0.2]]},
     "invalid noise parameters"),
    ("simulate", ("t_comm",), "nan", "t_comm must be finite and >= 0"),
    ("scale-sweep", ("t_comm",), "Infinity", "t_comm must be finite and >= 0"),
    ("simulate", ("fleet",), 5, "fleet must be a JSON object"),
    ("local-sgd", ("local_sgd",), 5, "local_sgd block must be a JSON object"),
    ("local-sgd", ("local_sgd", "server_size"), 0, "server_size must be >= 1"),
    # 0.9 of 3 workers cannot straggle on a server of 2
    ("local-sgd", ("local_sgd",), {"sync_period": 2, "straggler_prob": 0.9,
                                   "straggler_mode": "single_server", "server_size": 2},
     "invalid local_sgd config: single_server needs straggler_prob * workers <= server_size, "
     "got straggler_prob 0.9, 3 workers and server_size 2"),
    ("sgd-bench", ("problem",), [], "problem block must be a JSON object"),
    ("sgd-bench", ("schedule",), "x", "schedule block must be a JSON object"),
    ("sgd-bench", ("k_total",), 1000.5, "k_total must be a whole number"),
    ("sgd-bench", ("k_total",), "abc", "invalid sgd-bench config"),
    ("sgd-bench", ("k_total",), 5, "k_total must be at least b_max"),
    ("sgd-bench", ("seeds",), 0, "n_runs (the number of seeds) must be >= 1"),
    ("sgd-bench", ("seeds",), "x", "invalid sgd-bench config"),
    # wrong JSON types are rejected, not cast
    ("simulate", ("fleet", "workers"), True, "workers must be an integer, got True"),
    ("simulate", ("fleet", "workers"), 4.9, "workers must be an integer, got 4.9"),
    ("simulate", ("m_per_step",), "4", "m_per_step must be an integer, got '4'"),
    ("simulate", ("iterations",), 20.7, "iterations must be an integer, got 20.7"),
    ("simulate", ("tau",), "Infinity", "tau must be a number, \"auto\" or null"),
    ("simulate", ("tau",), True, "tau must be a number, \"auto\" or null"),
    ("simulate", ("fleet", "noise", "std"), True, "std must be a number, got True"),
    ("simulate", ("fleet", "noise"), {"kind": "empirical", "samples": [True, 0.1, False]},
     "samples must be a list of numbers"),
    ("local-sgd", ("local_sgd", "straggler_delay"), "Infinity",
     "straggler_delay must be a number"),
    ("sgd-bench", ("problem", "sigma"), "Infinity", "sigma must be a number"),
    # each problem kind takes only its own fields
    ("sgd-bench", ("problem", "n_samples"), 5, "unknown key(s) ['n_samples'] in problem block"),
    ("sgd-bench", ("problem", "l2_reg"), -4, "unknown key(s) ['l2_reg'] in problem block"),
    # seeds address 64-bit random streams; others would alias one of them
    ("simulate", ("seed",), -1, "seed must be an integer in [0, 2^64)"),
    ("local-sgd", ("seed",), 2**64, "seed must be an integer in [0, 2^64)"),
    ("scale-sweep", ("seed",), 2**64, "seed must be an integer in [0, 2^64)"),
    ("sgd-bench", ("seed",), -1, "seed must be an integer in [0, 2^64)"),
    ("sgd-bench", ("seed",), 1.5, "seed must be an integer in [0, 2^64)"),
    ("sgd-bench", ("problem", "seed"), 2**64, "seed must be an integer in [0, 2^64)"),
])
def test_malformed_value_exits_2(tmp_path, capsys, name, keys, value, message):
    assert _run(name, json.dumps(_with(BASES[name], keys, value)), tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# One value per place that turns a library ValueError into "invalid <where>:".
@pytest.mark.parametrize("name, keys, value, message", [
    ("simulate", ("fleet", "noise", "std"), -1.0,
     "invalid noise parameters in fleet.noise: NormalNoise needs a finite loc and std > 0"),
    ("simulate", ("fleet", "noise_mode"), "bogus", "invalid fleet: unknown noise_mode 'bogus'"),
    ("simulate", ("m_per_step",), 0, "invalid simulate config: m_per_step must be >= 1"),
    ("scale-sweep", ("m_per_step",), 0, "invalid scale-sweep config: m_per_step must be >= 1"),
    ("local-sgd", ("local_sgd", "sync_period"), 0,
     "invalid local_sgd config: sync_period must be >= 1"),
    ("sgd-bench", ("problem", "dimension"), 0, "invalid problem block: dimension must be >= 1"),
    ("sgd-bench", ("schedule", "kind"), "bogus",
     "invalid schedule block: unknown schedule kind 'bogus'"),
    ("sgd-bench", ("k_total",), 5, "invalid sgd-bench config: k_total must be at least b_max"),
    ("simulate", ("t_comm",), -1,
     "invalid simulate config: t_comm must be finite and >= 0, got -1.0"),
    ("simulate", ("iterations",), 0, "invalid simulate config: iterations must be >= 1"),
    ("simulate", ("fleet", "workers"), 0, "invalid fleet: fleet needs at least one worker"),
    ("sgd-bench-logistic", ("problem", "n_samples"), 1,
     "invalid problem block: dimension >= 1 and n_samples >= 2 required"),
    ("sgd-bench-logistic", ("theorem",), "both",
     "invalid sgd-bench config: the convex bound check needs the quadratic problem"),
    ("scale-sweep", ("n_list",), [4, 2],
     "invalid scale-sweep config: n_list must be strictly ascending"),
    ("scale-sweep", ("n_list",), [], "invalid scale-sweep config: n_list must be nonempty"),
])
def test_library_error_is_the_one_error_line(tmp_path, capsys, name, keys, value, message):
    assert _run(name, json.dumps(_with(BASES[name], keys, value)), tmp_path) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


# Errors the command line finds itself, past the JSON decoding.
@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "{config}: top-level config must be a JSON object"),
    (json.dumps(_with(BASES["simulate"], ("mode",), "bogus")),
     "unknown mode 'bogus'; use synchronous or local-sgd"),
    # a local_sgd block is read in either mode
    (json.dumps(_with(BASES["simulate"], ("local_sgd",), {"sync_perod": "four", "bogus": True})),
     "unknown key(s) ['bogus', 'sync_perod'] in local_sgd block"),
    (json.dumps(_with(BASES["simulate"], ("local_sgd",), {"sync_period": "four"})),
     "invalid local_sgd block: sync_period must be an integer, got 'four'"),
])
def test_command_line_error_is_the_one_error_line(tmp_path, capsys, text, message):
    assert _run("simulate", text, tmp_path) == 2
    assert capsys.readouterr().err == f"error: {message.format(config=tmp_path / 'c.json')}\n"
    assert not (tmp_path / "o").exists()


def test_synchronous_mode_leaves_local_sgd_ranges_to_local_sgd_mode(tmp_path):
    # Read for its keys and types, but a range only local_sgd_run checks
    # passes, since synchronous mode never runs the block.
    doc = _with(BASES["simulate"], ("local_sgd",), {"sync_period": 0, "straggler_prob": 7})
    assert _run("simulate", json.dumps(doc), tmp_path) == 0
    doc["mode"] = "local-sgd"
    assert _run("local-sgd", json.dumps(doc), tmp_path) == 2


def test_undecodable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b'{"m_per_step": "\xff"}')
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def _paths(doc: dict, prefix=()) -> list:
    """Key path of every field, nested objects and their fields included."""
    out = []
    for k, v in doc.items():
        out.append(prefix + (k,))
        if isinstance(v, dict):
            out.extend(_paths(v, prefix + (k,)))
    return out


_SCALARS = (st.none() | st.booleans() | st.integers(-3, 64)
            | st.floats(-64.0, 64.0) | st.sampled_from([math.nan, math.inf, -math.inf])
            | st.text(max_size=6))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                     max_leaves=6)


@st.composite
def _mutated(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    doc = BASES[name]
    if "fleet" in doc:
        doc = _with(doc, ("fleet", "noise"), draw(st.sampled_from(NOISES)))
    # Scalars drawn apart too: _JSON alone draws mostly lists and objects.
    return name, doc, draw(st.sampled_from(_paths(doc))), draw(_SCALARS | _JSON)


def _declared(name: str, doc: dict, keys: tuple) -> str:
    """The JSON type that the cli table of its block gives the field at keys."""
    table = {"simulate": cli._SIMULATE, "local-sgd": cli._SIMULATE_LOCAL_SGD,
             "scale-sweep": cli._SCALE_SWEEP}.get(name, cli._SGD_BENCH)
    blocks = {"fleet": cli._FLEET, "local_sgd": cli._LOCAL_SGD, "schedule": cli._SCHEDULE}
    for key in keys[:-1]:
        doc = doc[key]
        table = blocks.get(key) or {"noise": cli._NOISES,
                                    "problem": cli._PROBLEMS}[key][doc["kind"]]
    return table[keys[-1]][0].name


def _has_type(value, declared: str) -> bool:
    """Whether a parsed JSON value is of the declared type, bounds aside."""
    number = type(value) in (int, float)
    if declared.startswith("integer"):
        return type(value) is int
    return {"number": number,
            "number or null": number or value is None,
            'number, "auto" or null': number or value is None or value == "auto",
            "boolean": type(value) is bool,
            "string": type(value) is str,
            "object": type(value) is dict,
            "list of integers": type(value) is list and all(type(v) is int for v in value),
            "list of numbers": type(value) is list
            and all(type(v) in (int, float) for v in value)}[declared]


# The fuzz reaches sigma > 0 with tau <= M*mu/2 (mu 1, sigma 1, M 3, tau
# 0.15), where the closed form warns that it is outside its domain.
@pytest.mark.filterwarnings("ignore:expected_completed evaluated")
@given(_mutated())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_fuzzed_config_never_raises(case):
    name, doc, keys, value = case
    with tempfile.TemporaryDirectory() as tmp:
        rc = _run(name, json.dumps(_with(doc, keys, value)), Path(tmp))
    assert rc in ((0, 1, 2) if name.startswith("sgd-bench") else (0, 2))
    if not _has_type(value, _declared(name, doc, keys)):
        assert rc == 2
