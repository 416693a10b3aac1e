import json
import math
import subprocess
import sys

import numpy as np
import pytest

import tisim as t
from tisim.cli import main as cli_main
from tisim.engine import CHUNK
from tisim.errors import UsageError
from tisim.network import AtomBox
from tisim.scenarios import (
    Check,
    RunReport,
    build_scenario,
    run_exact,
    run_mc,
    scenario_names,
    verification_checks,
)
from netgen import (
    hardy_emitting_excited_levels,
    hardy_two_source_unequal_photon_spaces,
    qle_emitting_level_first,
    qle_with_mirror,
    qle_with_spin_symbols,
    qle_with_three_outputs,
)

RT2 = math.sqrt(2.0)


# -- scenario construction ---------------------------------------------------------


def test_registry_names():
    assert scenario_names() == ("ev-bomb", "hardy-ifm", "qle", "qle-two-laser", "qle-chsh")
    for name in scenario_names():
        scenario = build_scenario(name)
        assert t.validate(scenario.network) == []


def test_single_atom_scenario_structure():
    scenario = build_scenario("hardy-ifm")
    boxes = scenario.network.boxes()
    assert len(boxes) == 1
    assert boxes[0].path == "v" and boxes[0].blocking == "+"


def test_two_atom_scenario_structure():
    scenario = build_scenario("qle")
    boxes = {b.id: b for b in scenario.network.boxes()}
    assert len(boxes) == 2
    assert boxes["A"].atom == "atom1" and boxes["A"].blocking == "+" and boxes["A"].path == "v"
    assert boxes["B"].atom == "atom2" and boxes["B"].blocking == "-" and boxes["B"].path == "u"


def test_unknown_scenario_and_bad_params():
    with pytest.raises(UsageError):
        build_scenario("nonsense")
    with pytest.raises(UsageError):
        build_scenario("ev-bomb", bomb="maybe")
    with pytest.raises(UsageError):
        build_scenario("qle", frobnicate=1)
    with pytest.raises(UsageError):
        build_scenario("qle", atom_basis="bloch:oops")
    with pytest.raises(UsageError):
        build_scenario("qle-chsh", angles=(1, 2, 3))


# -- exact runs ------------------------------------------------------------------------


def test_exact_unobstructed_interferometer_is_dark():
    report = run_exact(build_scenario("ev-bomb", bomb="absent"))
    assert report.photon_probabilities.get("D", 0.0) < 1e-12
    assert abs(report.photon_probabilities["C"] - 1.0) < 1e-12


def test_exact_obstructed_interferometer():
    report = run_exact(build_scenario("ev-bomb", bomb="present"))
    assert report.photon_probabilities == pytest.approx(
        {"C": 0.25, "D": 0.25, "bomb": 0.5}, abs=1e-12
    )


def test_exact_two_atom_distribution():
    report = run_exact(build_scenario("qle"))
    assert abs(report.photon_probabilities["D"] - 0.125) < 1e-12
    assert abs(report.photon_probabilities["C"] - 0.375) < 1e-12
    assert abs(report.absorbed_probability - 0.5) < 1e-12
    assert abs(sum(row["probability"] for row in report.outcomes) - 1.0) < 1e-12


def test_exact_reports_sum_to_one():
    for name in scenario_names():
        report = run_exact(build_scenario(name))
        assert abs(sum(row["probability"] for row in report.outcomes) - 1.0) < 1e-12


def test_exact_post_selected_run():
    report = run_exact(build_scenario("qle", post_select="D"))
    assert report.derived["post_selected_on"] == "D"
    assert abs(report.derived["selection_probability"] - 0.125) < 1e-12
    assert abs(report.derived["correlation"] - 1.0) < 1e-12  # perfect z agreement


def test_exact_y_basis_run():
    report = run_exact(build_scenario("qle", atom_basis="y", post_select="D"))
    probs = {row["outcome"]: row["probability"] for row in report.outcomes}
    assert probs == pytest.approx({"D|y+;y-": 0.5, "D|y-;y+": 0.5}, abs=1e-12)
    assert abs(report.derived["correlation"] - (-1.0)) < 1e-12  # perfect y anti-agreement


def test_exact_chsh_report():
    report = run_exact(build_scenario("qle-chsh"))
    assert abs(report.derived["chsh_s"] - 2.0 * RT2) < 1e-9
    assert abs(sum(row["probability"] for row in report.outcomes) - 1.0) < 1e-12


def test_chsh_reports_read_the_distributions_the_engine_read():
    settings = build_scenario("qle-chsh").params["settings"]
    exact = t.chsh(t.qle_network(), settings)
    sampled = t.chsh_monte_carlo(t.qle_network(), settings, pairs=4_000, seed=3)
    assert list(exact.distributions) == ["ab", "ab'", "a'b", "a'b'"]
    assert sampled.distributions == exact.distributions  # sampled from the conditionals chsh reads
    e = exact.correlations
    assert exact.s == abs(e["ab"] - e["ab'"] + e["a'b"] + e["a'b'"])
    report = run_exact(build_scenario("qle-chsh"))
    assert report.outcomes == [
        {"outcome": f"{key}:{c.outcome.label}", "count": None, "probability": c.weight / 4}
        for key, dist in exact.distributions.items()
        for c in dist.candidates
    ]
    assert report.derived["chsh_s"] == exact.s and report.derived["correlations"] == exact.correlations


@pytest.mark.parametrize("up, down", [("left", "right"), ("+1", "-1")])
def test_correlation_reads_each_atom_by_its_basis_position(up, down, tmp_path, capsys):
    """An atom reads +1 on the first symbol of the basis it was measured in, whatever the
    symbols are called: renaming qle's spin symbols changes no correlation and no S."""
    renamed = qle_with_spin_symbols(up, down)
    path = tmp_path / "renamed.json"
    t.save_network(renamed, path)
    for basis in ("z", "y"):
        for post in ("none", "d"):  # unselected runs hold absorbed outcomes, whose excited atom reads z
            argv = ["run", "qle", "--exact", "--atom-basis", basis, "--post-select", post]
            assert cli_main(argv) == 0
            builtin = json.loads(capsys.readouterr().out)["derived"]
            assert cli_main([*argv, "--network", str(path)]) == 0
            loaded = json.loads(capsys.readouterr().out)["derived"]
            assert loaded["correlation"] == builtin["correlation"]
    settings = build_scenario("qle-chsh").params["settings"]
    assert t.chsh(renamed, settings).s == t.chsh(t.qle_network(), settings).s
    sampled = t.chsh_monte_carlo(renamed, settings, pairs=4_000, seed=3)
    assert sampled.counts == t.chsh_monte_carlo(t.qle_network(), settings, pairs=4_000, seed=3).counts


def test_correlation_is_reported_for_two_two_symbol_atoms_only():
    assert "correlation" in run_exact(build_scenario("qle-two-laser")).derived
    for name in ("ev-bomb", "hardy-ifm"):
        assert "correlation" not in run_exact(build_scenario(name)).derived


# -- Monte Carlo runs ----------------------------------------------------------------------


def test_mc_counts_and_worker_independence():
    scenario = build_scenario("qle")
    one = run_mc(scenario, trials=1_000_000, seed=7, workers=1)
    eight = run_mc(scenario, trials=1_000_000, seed=7, workers=8)
    assert one.payload_equal(eight)  # bit-for-bit, wall time aside
    assert sum(row["count"] for row in one.outcomes) == 1_000_000


def test_mc_requires_positive_trials():
    with pytest.raises(UsageError):
        run_mc(build_scenario("qle"), trials=0, seed=1)


def test_mc_convergence_over_seeded_repetitions():
    """At 1e5 trials, >= 99/100 seeds keep every photon outcome within 4 sigma."""
    scenario = build_scenario("qle")
    dist = t.enumerate_transactions(scenario.network, scenario.context)
    expected = dist.photon_marginal()
    trials = 100_000
    good = 0
    for seed in range(100):
        counts = t.sample_flat(dist, trials, seed)
        tally: dict[str, int] = {}
        for c, n in zip(dist.candidates, counts):
            tally[c.outcome.photon] = tally.get(c.outcome.photon, 0) + int(n)
        ok = all(
            abs(tally.get(photon, 0) / trials - p) < 4.0 * math.sqrt(p * (1 - p) / trials)
            for photon, p in expected.items()
        )
        good += ok
    assert good >= 99


def test_mc_chsh_report():
    report = run_mc(build_scenario("qle-chsh"), trials=200_000, seed=5)
    assert abs(report.derived["chsh_s"] - 2.0 * RT2) < 0.05
    assert sum(row["count"] for row in report.outcomes) == 200_000


# -- report serialization ----------------------------------------------------------------


def test_report_json_roundtrip_is_byte_identical():
    for report in (
        run_exact(build_scenario("qle")),
        run_mc(build_scenario("hardy-ifm"), trials=10_000, seed=3),
        run_exact(build_scenario("qle-chsh")),
    ):
        blob = report.to_json()
        again = RunReport.from_json(blob).to_json()
        assert again == blob


def test_report_csv_shape():
    report = run_mc(build_scenario("hardy-ifm"), trials=1_000, seed=2)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "outcome,count,probability"
    assert len(lines) == len(report.outcomes) + 1
    outcome, count, probability = lines[1].split(",")
    assert int(count) >= 0 and 0.0 <= float(probability) <= 1.0


# -- verification checklist -----------------------------------------------------------------


def test_verification_checklist_passes():
    checks = verification_checks()
    assert len(checks) >= 10
    failed = [c.name for c in checks if not c.passed]
    assert failed == []


# -- command-line interface -------------------------------------------------------------------


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "tisim", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_list():
    code, out, _ = run_cli("list")
    assert code == 0
    for name in scenario_names():
        assert name in out


def test_cli_run_exact_json():
    code, out, _ = run_cli("run", "qle", "--exact")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert abs(data["photon_probabilities"]["D"] - 0.125) < 1e-12


def test_cli_run_mc_csv():
    code, out, _ = run_cli("run", "qle", "--trials", "2000", "--seed", "11", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "outcome,count,probability"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 2000


def test_cli_run_with_basis_and_post_selection():
    code, out, _ = run_cli(
        "run", "qle", "--exact", "--atom-basis", "y", "--post-select", "d"
    )
    assert code == 0
    data = json.loads(out)
    probs = {row["outcome"]: row["probability"] for row in data["outcomes"]}
    assert probs == pytest.approx({"D|y+;y-": 0.5, "D|y-;y+": 0.5}, abs=1e-12)


def test_cli_run_with_bloch_basis_matches_y():
    # theta=90, phi=90 is the y direction
    code, out, _ = run_cli(
        "run", "qle", "--exact", "--atom-basis", "bloch:90,90", "--post-select", "d"
    )
    assert code == 0
    data = json.loads(out)
    probs = {row["outcome"]: row["probability"] for row in data["outcomes"]}
    assert probs == pytest.approx({"D|n+;n-": 0.5, "D|n-;n+": 0.5}, abs=1e-12)


def test_cli_run_chsh_scenario():
    code, out, _ = run_cli("run", "qle-chsh", "--exact")
    assert code == 0
    data = json.loads(out)
    assert abs(data["derived"]["chsh_s"] - 2.0 * RT2) < 1e-9


def test_cli_run_with_network_file(tmp_path):
    path = tmp_path / "net.json"
    t.save_network(t.qle_network(), path)
    code, out, _ = run_cli("run", "qle", "--exact", "--network", str(path))
    assert code == 0
    assert abs(json.loads(out)["photon_probabilities"]["D"] - 0.125) < 1e-12


def test_cli_run_with_network_file_uses_its_atoms(tmp_path, capsys):
    path = tmp_path / "hardy.json"
    t.save_network(t.hardy_network(), path)
    for basis in ("z", "y"):
        assert cli_main(["run", "qle", "--exact", "--atom-basis", basis, "--network", str(path)]) == 0
        loaded = json.loads(capsys.readouterr().out)
        assert cli_main(["run", "hardy-ifm", "--exact", "--atom-basis", basis]) == 0
        builtin = json.loads(capsys.readouterr().out)
        assert loaded["outcomes"] == builtin["outcomes"]


@pytest.mark.parametrize("case", ["missing", "not-json", "no-keys", "not-an-object"])
@pytest.mark.parametrize("command", [["run", "qle", "--exact"], ["path", "|L-S1-D>"]])
def test_cli_network_file_failures_exit_two(case, command, tmp_path, capsys):
    path = tmp_path / "net.json"
    if case == "not-json":
        path.write_text("{not json")
    elif case == "no-keys":
        path.write_text("{}")
    elif case == "not-an-object":
        path.write_text("[1, 2]")
    assert cli_main([*command, "--network", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def with_nan_emitter() -> dict:
    data = t.network_to_dict(t.qle_network())
    next(item for item in data["elements"] if item["id"] == "L")["params"]["state"][0]["re"] = math.nan
    return data


def with_foreign_filter() -> dict:
    # the backward pass filters against the emitted state, so no other filter can be honoured
    data = t.network_to_dict(t.qle_network())
    item = next(item for item in data["elements"] if item["id"] == "atom1-source")
    item["params"]["filter"] = [{"label": {"atom1": "-", "atom1-level": "0"}, "re": 5.0, "im": 0.0}]
    return data


def qle_element(data: dict, eid: str) -> dict:
    return next(item for item in data["elements"] if item["id"] == eid)


def with_photon_declared_last() -> dict:
    data = t.network_to_dict(t.qle_network())
    data["subsystems"].append(data["subsystems"].pop(0))
    return data


def with_atom2_source_on_atom1() -> dict:
    # atom2's source re-pointed at atom1, so atom1 is emitted twice and atom2 never
    data = t.network_to_dict(t.qle_network())
    params = qle_element(data, "atom2-source")["params"]
    params["subsystems"] = ["atom1", "atom1-level"]
    for term in params["state"]:
        term["label"] = {"atom1": term["label"]["atom2"], "atom1-level": term["label"]["atom2-level"]}
    return data


def with_box_blocking(symbol: str) -> dict:
    data = t.network_to_dict(t.qle_network())
    qle_element(data, "A")["params"]["blocking"] = symbol
    return data


@pytest.mark.parametrize(
    "description, message",
    [
        (lambda: qle_with_mirror(2.0), "mirror-unitary [M]"),
        (lambda: qle_with_mirror(math.nan), "element 'M' has a non-finite amplitude"),
        (with_nan_emitter, "element 'L' has a non-finite amplitude"),
        (qle_with_three_outputs, "splitter-arity [S2]"),
        (with_foreign_filter, "emitter 'atom1-source': a filter must be the dual"),
        (lambda: t.network_to_dict(hardy_emitting_excited_levels()), "emitter-level [atom1-source]"),
        (lambda: t.network_to_dict(qle_emitting_level_first()), "emitter-order [atom1-source]"),
        (lambda: t.network_to_dict(hardy_two_source_unequal_photon_spaces()), "photon-source-space"),
        (with_photon_declared_last, "subsystem-order"),
        (with_atom2_source_on_atom1, "emitter-coverage [atom2-source]: subsystem 'atom1' emitted twice"),
        (lambda: with_box_blocking("x"), "box-blocking [A]"),
    ],
)
@pytest.mark.parametrize("command", [["run", "qle", "--exact"], ["run", "qle", "--trials", "100"]])
def test_cli_rejects_unphysical_descriptions(description, message, command, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(description()))
    assert cli_main([*command, "--network", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_cli_usage_errors_exit_two():
    code, _, err = run_cli("run", "not-a-scenario", "--exact")
    assert code == 2
    assert "unknown scenario" in err
    code, _, _ = run_cli("run")  # missing positional
    assert code == 2
    code, _, err = run_cli("run", "qle", "--trials", "0")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "qle", "--exact", "--bomb", "present"], "unknown scenario parameters: ['bomb']"),
        (["run", "qle", "--exact", "--atom-basis", "w"], "unknown atom basis 'w'"),
        (["path", "|L-S1-D>", "--alias", "nope"], "bad alias 'nope'"),
        (["run", "qle", "--exact", "--trials", "5"], "--exact and --trials exclude each other"),
    ],
)
def test_cli_option_errors_exit_two_with_one_line(argv, message, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and message in captured.err


def test_cli_path_evaluation():
    code, out, _ = run_cli("path", "|L-_S1_-A-_S2_-D> + |L-S1-B-S2-D>")
    assert code == 0
    assert "exact cancellation" in out


def test_cli_list_prints_each_scenario_with_its_description(capsys):
    assert cli_main(["list"]) == 0
    assert capsys.readouterr().out == (
        "ev-bomb        dark-port interferometer with an optional obstruction (bomb=present|absent)\n"
        "hardy-ifm      interaction-free measurement with a boxed atom on one arm\n"
        "qle            two boxed atoms straddling the arms; dark-port detections entangle them\n"
        "qle-two-laser  the two-atom experiment fed by two coherent sources, no first splitter\n"
        "qle-chsh       two-atom experiment at four Bloch settings, reported as a CHSH trial\n"
    )


def test_cli_path_resolves_aliases(tmp_path, capsys):
    path = tmp_path / "net.json"
    t.save_network(t.qle_network(), path)
    argv = ["path", "|Laser-S1-BoxA-S2-Dark>", "--network", str(path)]
    assert cli_main([*argv, "--alias", "Laser=L", "--alias", "BoxA=A", "--alias", "Dark=D"]) == 0
    assert capsys.readouterr().out == (
        "expression: |Laser-S1-BoxA-S2-Dark>\n"
        "  term |Laser-S1-BoxA-S2-Dark> -> (0.4999999999999999+0j)\n"
        "sum = (0.4999999999999999+0j)\n"
    )


def test_cli_path_syntax_error_exits_two():
    code, _, err = run_cli("path", "|L-")
    assert code == 2
    assert "position" in err


def test_verify_walks_each_network_once(monkeypatch):
    import tisim.network as network_module

    walked, emit = [], network_module.emitted_state  # every offer-wave walk starts from the emitted state
    monkeypatch.setattr(network_module, "emitted_state", lambda net: walked.append(net.name) or emit(net))
    assert all(c.passed for c in verification_checks())
    assert walked == ["hardy-ifm", "qle", "qle-two-laser"]


def test_cli_verify_passes():
    code, out, _ = run_cli("verify")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_cli_verify_exit_three_on_failure(monkeypatch, capsys):
    import tisim.cli as cli

    monkeypatch.setattr(
        cli, "verification_checks", lambda: [Check("stub", False, "0", "1")]
    )
    code = cli_main(["verify"])
    assert code == 3
    assert "FAIL stub" in capsys.readouterr().out


# -- Monte Carlo boundaries -----------------------------------------------------------------


class _InlinePool:
    """Stands in for ThreadPoolExecutor: records the pool size and each thread's chunks, starts no thread."""

    sizes: list[int] = []
    parts: list[range] = []  # each thread's chunk starts

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.parts.extend(items)
        return map(fn, items)


@pytest.fixture
def inline_pool(monkeypatch):
    """The engine's thread pool replaced by ``_InlinePool``, on a machine with 3 CPUs."""
    import tisim.engine as engine

    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "parts", [])
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
    return _InlinePool


def test_worker_threads_are_capped_by_cpus_and_chunks(inline_pool):
    scenario = build_scenario("qle")
    many = run_mc(scenario, trials=4 * CHUNK, seed=4, workers=5000)
    assert inline_pool.sizes == [3]
    assert [list(part) for part in inline_pool.parts] == [[0, 3 * CHUNK], [CHUNK], [2 * CHUNK]]
    assert many.payload_equal(run_mc(scenario, trials=4 * CHUNK, seed=4, workers=1))
    run_mc(scenario, trials=CHUNK + 1, seed=4, workers=5000)
    assert inline_pool.sizes == [3, 2]
    run_mc(scenario, trials=10_000, seed=4, workers=5000)  # one chunk runs inline
    assert inline_pool.sizes == [3, 2]


def test_mc_threads_match_one_worker_across_chunks(monkeypatch):
    import tisim.engine as engine

    monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)  # so three threads run on any machine
    scenario = build_scenario("hardy-ifm", post_select="D")
    trials = 2 * CHUNK + 3
    one = run_mc(scenario, trials=trials, seed=2**63 + 1, workers=1)
    for workers in (2, 3):
        assert one.payload_equal(run_mc(scenario, trials=trials, seed=2**63 + 1, workers=workers))
    assert sum(row["count"] for row in one.outcomes) == trials


def test_chsh_monte_carlo_threads_per_setting(inline_pool):
    scenario = build_scenario("qle-chsh")
    pairs = 4 * CHUNK + 5  # every setting spans two chunks
    run_mc(scenario, trials=pairs, seed=11, workers=1)
    assert inline_pool.sizes == []
    run_mc(scenario, trials=pairs, seed=11, workers=2)
    assert inline_pool.sizes == [2] * 4  # one pool of two threads per setting
    run_mc(scenario, trials=pairs, seed=11, workers=3)  # capped by the two chunks
    assert inline_pool.sizes == [2] * 8


def test_chsh_monte_carlo_threads_match_one_worker(monkeypatch):
    import tisim.engine as engine

    monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
    scenario = build_scenario("qle-chsh")
    pairs = 4 * CHUNK + 5
    one = run_mc(scenario, trials=pairs, seed=12, workers=1)
    for workers in (2, 3):
        assert one.payload_equal(run_mc(scenario, trials=pairs, seed=12, workers=workers))
    assert sum(row["count"] for row in one.outcomes) == pairs


def test_fewer_than_one_worker_is_a_usage_error():
    qle = t.qle_network()
    settings = build_scenario("qle-chsh").params["settings"]
    for call in (
        lambda: t.sample_flat(t.enumerate_transactions(qle, t.z_context(qle)), 10, 0, workers=0),
        lambda: t.chsh_monte_carlo(qle, settings, 8, 0, workers=0),
        lambda: run_mc(build_scenario("qle"), trials=10, seed=0, workers=0),
        lambda: run_mc(build_scenario("qle-chsh"), trials=10, seed=0, workers=-1),
    ):
        with pytest.raises(UsageError, match="workers"):
            call()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_rejects_seeds_outside_64_bits(seed, capsys):
    code = cli_main(["run", "qle", "--trials", "10", "--seed", seed])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "seed" in err


@pytest.mark.parametrize("basis", ["bloch:inf,0", "bloch:0,-inf", "bloch:nan,0"])
@pytest.mark.parametrize("mode", [["--exact"], ["--trials", "10"]])
def test_cli_rejects_non_finite_bloch_angles(basis, mode, capsys):
    code = cli_main(["run", "qle", "--atom-basis", basis, *mode])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "bloch" in err


def test_cli_accepts_largest_seed(capsys):
    code = cli_main(["run", "qle", "--trials", "10", "--seed", str(2**64 - 1)])
    assert code == 0
    assert sum(row["count"] for row in json.loads(capsys.readouterr().out)["outcomes"]) == 10


def test_library_seed_errors_are_simulator_errors():
    from tisim.errors import SimulatorError
    from tisim.rng import uniforms

    dist = t.enumerate_transactions(t.qle_network(), t.z_context(t.qle_network()))
    for seed in (-1, 2**64):
        with pytest.raises(SimulatorError):
            t.sample_flat(dist, 10, seed)
        with pytest.raises(SimulatorError):
            uniforms(seed, 0, 0, 1)
    # trial indices outside the stream's [0, 2**66)
    qle = t.qle_network()
    for call in (
        lambda: t.resolve_flat(dist, 5, -1),
        lambda: t.resolve_hierarchical(qle, t.z_context(qle), 5, -3),
        lambda: t.sample_flat(dist, 10, 5, start=-5),
        lambda: t.resolve_flat(dist, 5, 2**70),
        lambda: t.sample_flat(dist, 10, 5, start=2**66 - 9),
        lambda: uniforms(5, 0, 0, -1),
    ):
        with pytest.raises(SimulatorError):
            call()
    assert uniforms(5, 0, 2**66 - 1, 1).shape == (1,)  # the last index of the stream


def test_out_of_stream_runs_are_refused_before_any_draw(monkeypatch, capsys):
    from tisim import rng
    from tisim.errors import ContractError

    draws = []

    def no_draw(*args):  # raise, so a sampler that checks chunk by chunk fails here instead of drawing for hours
        draws.append(args)
        raise AssertionError(f"drew {args} before refusing the run")

    qle, settings = t.qle_network(), t.ChshSettings(a=(0.0, 0.0), a_prime=(1.0, 0.0), b=(0.5, 0.0), b_prime=(1.5, 0.0))
    dist = t.enumerate_transactions(qle, t.z_context(qle))
    monkeypatch.setattr(rng, "uniforms", no_draw)
    for call in (
        lambda: t.sample_flat(dist, 10**23, 5),
        lambda: t.sample_flat(dist, 3 * CHUNK, 5, start=2**66 - CHUNK),  # only the second chunk leaves the stream
        lambda: t.sample_flat(dist, 10, 2**64),
        lambda: t.sample_flat(dist, 10, -1, workers=2),
        lambda: t.sample_hierarchical(qle, t.z_context(qle), 10**23, 5),
        lambda: t.chsh_monte_carlo(qle, settings, 4 * 10**23, 5),
    ):
        with pytest.raises(ContractError):
            call()
    assert draws == []
    for argv in (["run", "qle", "--trials", "100000000000000000000000"], ["run", "qle", "--trials", "10", "--seed", "-1"]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), argv
    assert draws == []


def with_element_field(element_id, field, value) -> dict:
    data = t.network_to_dict(t.qle_network())
    item = next(item for item in data["elements"] if item["id"] == element_id)
    if field == "id":
        item["id"] = value
    else:
        item["params"][field] = value
    return data


def with_label_symbol(element_id, entry, subsystem, symbol) -> dict:
    """qle with one label of an emitter's state edited; ``symbol=None`` drops the subsystem."""
    data = t.network_to_dict(t.qle_network())
    label = next(item for item in data["elements"] if item["id"] == element_id)["params"]["state"][entry]["label"]
    label.pop(subsystem)
    if symbol is not None:
        label[subsystem] = symbol
    return data


@pytest.mark.parametrize(
    "description, message",
    [
        (lambda: with_element_field("S1", "id", 7), "field 'id' must be a string, not an integer"),
        (lambda: with_element_field("A", "level", {"id": "atom1-level"}), "element 'A': field 'level' must be"),
        (lambda: with_element_field("S2", "inputs", ["u", {"v": 1}]), "element 'S2': field 'inputs' item 1"),
        (lambda: with_element_field("L", "subsystems", ["nope"]), "element 'L': field 'subsystems' item 0 'nope'"),
        (
            lambda: with_label_symbol("atom1-source", 0, "atom1-level", None),
            "element 'atom1-source': field 'state' item 0 label: field 'atom1-level' is missing",
        ),
        (
            lambda: with_label_symbol("atom1-source", 1, "atom1", "y+"),
            "element 'atom1-source': field 'state': symbol 'y+' is not in the basis of subsystem 'atom1'",
        ),
    ],
)
@pytest.mark.parametrize("command", [["run", "qle", "--exact"], ["path", "|L-S1-B-S2-D>"]])
def test_cli_rejects_mistyped_description_fields(description, message, command, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(description()))
    assert cli_main([*command, "--network", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "qle-chsh", "--exact", "--atom-basis", "y"], "qle-chsh measures each atom at its angles"),
        (["run", "qle-chsh", "--trials", "100", "--atom-basis", "z"], "qle-chsh measures each atom at its angles"),
        (["run", "qle", "--exact", "--seed", "5", "--workers", "3"], "--seed and --workers apply only to Monte Carlo"),
        (["run", "qle", "--exact", "--seed", "0"], "--seed and --workers apply only to Monte Carlo"),
        (["run", "hardy-ifm", "--workers", "1"], "--seed and --workers apply only to Monte Carlo"),
        (["run", "qle-chsh", "--trials", "3"], "need at least one pair per setting"),
        (["run", "qle", "--exact", "--atom-basis", ""], "unknown atom basis ''"),
    ],
)
def test_cli_options_a_run_would_ignore_exit_two_with_one_line(argv, message, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and message in captured.err


def test_chsh_scenario_refuses_an_atom_basis():
    with pytest.raises(UsageError, match="takes no atom basis"):
        build_scenario("qle-chsh", atom_basis="z")


def test_monte_carlo_seed_and_workers_default_to_zero_and_one(capsys):
    assert cli_main(["run", "qle", "--trials", "1000"]) == 0
    default = json.loads(capsys.readouterr().out)
    assert cli_main(["run", "qle", "--trials", "1000", "--seed", "0", "--workers", "1"]) == 0
    explicit = json.loads(capsys.readouterr().out)
    assert RunReport(**default).payload_equal(RunReport(**explicit))


@pytest.mark.parametrize("content", ["[1]", '"x"'])
@pytest.mark.parametrize("command", [["run", "qle", "--exact"], ["path", "|L-S1-D>"]])
def test_cli_network_file_that_is_not_an_object_exits_two(content, command, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(content)
    assert cli_main([*command, "--network", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: network description must be a JSON object\n"
