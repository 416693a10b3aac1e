"""Runs of a builtin scenario share one network per process; every other network is built afresh."""

import contextlib
import io
import itertools

import pytest

import tisim as t
from tisim import cli, engine
from tisim import network as network_module
from tisim.errors import SimulatorError
from tisim.scenarios import _builtin_network, build_scenario, run_exact, run_mc, scenario_names, verification_checks

BUILTINS = [("ev-bomb", {"bomb": "present"}), ("ev-bomb", {"bomb": "absent"})] + [
    (name, {}) for name in scenario_names() if name != "ev-bomb"
]


def params_of(name, bomb):
    """Every basis and post-selection of a builtin (``qle-chsh`` fixes its own bases)."""
    if name == "qle-chsh":
        return [{}, {"post_select": "D"}]
    return [
        {**bomb, "atom_basis": basis, **post}
        for basis, post in itertools.product(("z", "y", "bloch:30,40"), ({}, {"post_select": "D"}))
    ]


def outcome(name, params):
    """The payload of an exact and a Monte Carlo run, or the error that refused them."""
    scenario = build_scenario(name, **params)
    try:
        return [run_exact(scenario), run_mc(scenario, 1_000, 5)]
    except SimulatorError as err:
        return f"{type(err).__name__}: {err}"


def test_a_builtin_scenario_returns_its_one_network():
    _builtin_network.cache_clear()
    for name, bomb in BUILTINS:
        networks = [build_scenario(name, **params).network for params in params_of(name, bomb) * 2]
        assert all(net is networks[0] for net in networks), name
    shared = {id(build_scenario(name, **bomb).network) for name, bomb in BUILTINS}
    assert len(shared) == len(BUILTINS)  # qle and qle-chsh, and the two bombs, each have their own


def test_constructors_given_and_loaded_networks_are_fresh(tmp_path):
    shared = {id(build_scenario(name, **bomb).network) for name, bomb in BUILTINS}
    qle = t.qle_network()
    path = tmp_path / "qle.json"
    t.save_network(qle, path)
    makers = [
        t.qle_network,
        t.hardy_network,
        lambda: t.ev_bomb_network(True),
        lambda: t.ev_bomb_network(False),
        lambda: t.two_laser_variant(qle),
        lambda: t.load_network(path),
    ]
    for make in makers:
        first, second = make(), make()
        assert first is not second and not {id(first), id(second)} & shared
    for scenario in ("qle", "qle-two-laser", "qle-chsh"):
        given = t.qle_network()
        assert build_scenario(scenario, given).network is given
        assert build_scenario(scenario).network is not given


@pytest.mark.parametrize("name, bomb", BUILTINS)
def test_a_second_run_walks_validates_and_tabulates_nothing(monkeypatch, name, bomb):
    calls = []
    for module, attr in ((network_module, "validate"), (network_module, "forward_propagate"), (engine, "_stage_table")):
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args, real=real, attr=attr: calls.append(attr) or real(*args))
    _builtin_network.cache_clear()
    outcome(name, params_of(name, bomb)[0])
    assert set(calls) == {"validate", "forward_propagate", "_stage_table"}  # the first run builds each
    for params in params_of(name, bomb):
        ran = not isinstance(outcome(name, params), str)
        calls.clear()
        outcome(name, params)
        assert calls == [] or not ran, (name, params)  # a refused context keeps no table, so it is tried again


def test_warm_runs_report_as_runs_on_a_fresh_network():
    _builtin_network.cache_clear()
    combos = [(name, params) for name, bomb in BUILTINS for params in params_of(name, bomb)]
    for name, params in combos:  # a first pass leaves every network holding the tables of all its contexts
        outcome(name, params)
    warm = [outcome(name, params) for name, params in combos]
    for (name, params), report in zip(combos, warm):
        _builtin_network.cache_clear()
        cold = outcome(name, params)
        if isinstance(cold, str):
            assert report == cold, (name, params)
        else:
            assert [a.payload_equal(b) for a, b in zip(report, cold)] == [True, True], (name, params)


def stdout_of(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv), out.getvalue()


def test_verify_and_path_report_alike_on_cold_warm_and_used_networks():
    path = ["path", "|L-_S1_-A-_S2_-D> + |L-S1-B-S2-D>"]
    _builtin_network.cache_clear()
    cold = verification_checks()
    _builtin_network.cache_clear()
    cold_path = stdout_of(path)
    warm = verification_checks()
    assert warm == cold
    assert stdout_of(path) == cold_path
    for name in scenario_names():  # every table of every builtin, left on the shared networks
        if name == "qle-chsh":
            assert stdout_of(["run", name, "--exact"])[0] == 0
            continue
        for bomb, basis, post in itertools.product(
            ("present", "absent") if name == "ev-bomb" else (None,), ("z", "y", "bloch:30,40"), ("none", "d")
        ):
            argv = ["run", name, "--exact", "--atom-basis", basis, "--post-select", post]
            code, _ = stdout_of(argv + (["--bomb", bomb] if bomb else []))
            # a present bomb's one symbol does not rotate; with the bomb absent the dark port never fires
            refused = basis != "z" if bomb == "present" else (bomb, post) == ("absent", "d")
            assert code == (2 if refused else 0), argv
    assert verification_checks() == cold
    assert stdout_of(path) == cold_path
