"""CLI: config parsing, task dispatch, deterministic reports, presets."""

import json
import math
import os

import numpy as np
import pytest

import kernelblaschke as kb
from kernelblaschke import cli, jsonio, verify

from mpref import run_cli


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


BASE_VERIFY = {
    "name": "h2-half",
    "space": {"type": "dirichlet", "alpha": 0},
    "multiset": {"origin": 0, "points": [{"point": [0.5, 0.0], "mult": 1}]},
    "route": "determinant",
    "taylor_degree": 300,
    "K": 10,
    "tolerance": 1e-8,
}
# BASE_VERIFY trimmed to the keys of a construct and of a zeros config.
BASE_CONSTRUCT = {k: v for k, v in BASE_VERIFY.items() if k not in ("K", "tolerance")}
BASE_ZEROS = {k: v for k, v in BASE_VERIFY.items() if k != "K"}
POLY = {"leading": [1, 0], "roots": [{"point": [0.5, 0], "mult": 1}]}


def test_verify_task_and_exit_codes(tmp_path):
    assert run_cli(tmp_path, "verify", BASE_VERIFY) == 0
    report = json.loads((tmp_path / "r" / "verify-h2-half.json").read_text())
    assert report["ok"] is True
    assert report["report"]["inner_report"]["verdict"] is True
    assert report["config"]["K"] == 10


def test_reports_byte_identical_across_runs(tmp_path):
    run_cli(tmp_path, "verify", BASE_VERIFY, out="a")
    run_cli(tmp_path, "verify", BASE_VERIFY, out="b")
    a = (tmp_path / "a" / "verify-h2-half.json").read_bytes()
    b = (tmp_path / "b" / "verify-h2-half.json").read_bytes()
    assert a == b


def test_extremal_seed_determinism(tmp_path):
    cfg_obj = {
        "name": "ext",
        "space": {"type": "dirichlet", "alpha": 0},
        "p": POLY,
        "M": 120,
        "taylor_degree": 200,
        "seed": 9,
    }
    run_cli(tmp_path, "extremal", cfg_obj, out="a")
    run_cli(tmp_path, "extremal", cfg_obj, out="b")
    a = (tmp_path / "a" / "extremal-ext.json").read_bytes()
    assert a == (tmp_path / "b" / "extremal-ext.json").read_bytes()
    # The check draws nothing: a seed override moves the recorded seed only.
    cli.main(["extremal", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "c"),
              "--seed", "10", "--quiet"])
    c = json.loads((tmp_path / "c" / "extremal-ext.json").read_text())
    assert c["seed"] == 10
    assert c["ok"] is True
    assert c["report"] == json.loads(a)["report"]


def test_numeric_fields_refuse_booleans_fractions_and_non_finite(tmp_path, capsys):
    # int() truncated these: taylor_degree 30.9 ran at degree 30 and K true as
    # K = 1, exit 0; float() read true as 1.0, and JSON's NaN passed every check.
    extremal = {"space": {"type": "dirichlet", "alpha": 0}, "p": POLY, "M": 60}
    for task, cfg, field in (
            ("verify", dict(BASE_VERIFY, taylor_degree=30.9), "taylor_degree"),
            ("verify", dict(BASE_VERIFY, K=True), "K"),
            ("verify", dict(BASE_VERIFY, K=10.5), "K"),
            ("verify", dict(BASE_VERIFY, route="oracle", oracle_degree=40.5), "oracle_degree"),
            ("verify", dict(BASE_VERIFY, policy={"max_terms": 1e5 + 0.5}), "policy.max_terms"),
            ("verify", dict(BASE_VERIFY, policy={"max_terms": True}), "policy.max_terms"),
            ("verify", dict(BASE_VERIFY, tolerance=True), "tolerance"),
            ("verify", dict(BASE_VERIFY, tolerance=math.nan), "tolerance"),
            ("verify", dict(BASE_VERIFY, tolerance=math.inf), "tolerance"),
            ("verify", dict(BASE_VERIFY, policy={"target_tolerance": math.nan}),
             "policy.target_tolerance"),
            ("verify", dict(BASE_VERIFY, policy={"target_tolerance": False}),
             "policy.target_tolerance"),
            ("zeros", dict(BASE_ZEROS, radius=math.nan), "radius"),
            ("zeros", dict(BASE_ZEROS, radius=True), "radius"),
            ("oracle", dict(extremal, M=60.25), "M"),
            ("oracle", dict(extremal, M=True), "M"),
            ("oracle", dict(extremal, d=True), "d"),
            ("oracle", dict(extremal, d=0.5), "d"),
            # The JSON parsers truncated these integers and read alpha true as
            # 1.0; alpha NaN or inf ran to a typed error past the parse.
            ("verify", dict(BASE_VERIFY, multiset={
                "origin": 0, "points": [{"point": [0.5, 0], "mult": 1.7}]}),
             "multiset.points[0].mult"),
            ("verify", dict(BASE_VERIFY, multiset={
                "origin": 0, "points": [{"point": [0.5, 0], "mult": True}]}),
             "multiset.points[0].mult"),
            ("verify", dict(BASE_VERIFY, multiset={"origin": 1.9, "points": []}),
             "multiset.origin"),
            ("oracle", dict(extremal, p={"leading": [1, 0], "roots": [
                {"point": [0.5, 0], "mult": 2.5}]}), "p.roots[0].mult"),
            ("oracle", dict(extremal, space={
                "type": "weights", "rule": "table", "boundary_order": 0.5,
                "values": [(k + 1.0) ** 4 for k in range(61)]}), "space.boundary_order"),
            ("oracle", dict(extremal, M=11, space={
                "type": "custom",
                "values": [[[float(i == j), 0] for j in range(12)] for i in range(12)],
                "reproducibility": [{"point": [0.5, 0], "order": 1.5}]}),
             "space.reproducibility[0].order"),
            ("verify", dict(BASE_VERIFY, space={"type": "dirichlet", "alpha": True}),
             "space.alpha"),
            ("verify", dict(BASE_VERIFY, space={"type": "dirichlet", "alpha": math.nan}),
             "space.alpha"),
            ("verify", dict(BASE_VERIFY, space={"type": "dirichlet", "alpha": math.inf}),
             "space.alpha"),
            # int() read these seeds as 1, 1 and a bare ValueError (exit 1).
            ("verify", dict(BASE_VERIFY, seed=1.5), "seed"),
            ("verify", dict(BASE_VERIFY, seed=True), "seed"),
            ("verify", dict(BASE_VERIFY, seed="abc"), "seed"),
            # pair_complex and the one-step table parse read true as 1.0 in a
            # complex value (exit 0).
            ("oracle", dict(extremal, p=dict(POLY, leading=[True, 0])), "p.leading"),
            ("oracle", dict(extremal, p=dict(POLY, leading=True)), "p.leading"),
            ("oracle", dict(extremal, M=11, space={
                "type": "custom",
                "values": [[[True if i == j == 0 else float(i == j), 0]
                            for j in range(12)] for i in range(12)],
                "reproducibility": [{"point": [0.5, 0], "order": "infinite"}]}),
             "space.values[0][0][0]")):
        assert run_cli(tmp_path, task, cfg) == 2, (task, cfg)
        assert capsys.readouterr().err.startswith(f"config error: {field} must be"), (task, cfg)
    # An integral float is that integer; a negative seed is accepted (it is
    # only recorded).
    whole = dict(name="whole", taylor_degree=300.0, seed=-3.0)
    for task, cfg in (("verify", dict(BASE_VERIFY, K=10.0, **whole)),
                      ("construct", dict(BASE_CONSTRUCT, **whole))):
        assert run_cli(tmp_path, task, cfg, out="w") == 0
    report = json.loads((tmp_path / "w" / "verify-whole.json").read_text())
    assert report["report"]["inner_report"]["K"] == 10 and report["seed"] == -3
    report = json.loads((tmp_path / "w" / "construct-whole.json").read_text())
    assert report["report"]["construction"]["taylor"]["N"] == 300


def test_failing_verdict_gives_exit_one(tmp_path):
    cfg_obj = dict(BASE_VERIFY, name="bad",
                   multiset={"origin": 0,
                             "points": [{"point": [0.5, 0.0], "mult": 1}]},
                   tolerance=1e-30)
    # Tolerance 1e-30 is below double-precision resolution of the residuals.
    assert run_cli(tmp_path, "verify", cfg_obj) == 1


@pytest.fixture
def builds(monkeypatch):
    """The arguments of every ``shapiro_shields`` call, from the CLI or ``verify``."""
    calls = []
    build = kb.shapiro_shields

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli._construct, "shapiro_shields", counted)
    monkeypatch.setattr(verify, "shapiro_shields", counted)
    return calls


def test_a_radius_outside_the_disk_is_refused_before_any_construction(tmp_path, builds):
    assert run_cli(tmp_path, "zeros", dict(BASE_ZEROS, radius=1.5)) == 2
    with pytest.raises(ValueError, match="radius must lie in"):
        kb.extraneous_zero_scan(kb.bergman_space(), radius=1.5)
    assert builds == []


def test_every_value_is_read_before_any_construction(tmp_path, capsys, builds, monkeypatch):
    # K, tolerance and scan were read after the construction, M after the
    # extremal's construction and expect after the subspace projections: each
    # of these configs built (at taylor_degree 200000) or projected once
    # before exiting 2.
    projections, project = [], verify.subspace_equal

    def counted(*args, **kwargs):
        projections.append(args)
        return project(*args, **kwargs)

    monkeypatch.setattr(verify, "subspace_equal", counted)
    long = {"taylor_degree": 200_000}
    for task, cfg, field in (
            ("verify", dict(BASE_VERIFY, K=0, **long), "K"),
            ("verify", dict(BASE_VERIFY, tolerance=-1, **long), "tolerance"),
            ("zeros", dict(BASE_ZEROS, tolerance=-1, **long), "tolerance"),
            ("zeros", dict(BASE_ZEROS, scan="no", **long), "scan"),
            ("extremal", {"space": BASE_VERIFY["space"], "p": POLY, "M": 0, **long}, "M"),
            ("subspace", {"space": BASE_VERIFY["space"], "p": POLY, "q": POLY,
                          "expect": "yes"}, "expect")):
        assert run_cli(tmp_path, task, cfg) == 2, (task, field)
        assert capsys.readouterr().err.startswith(f"config error: {field} must be")
    assert builds == [] and projections == []
    # The oracle's d defaults to the origin multiplicity of p's reproducible
    # multiset, which was computed even when d was given.
    multisets = []
    monkeypatch.setattr(cli, "reproducible_multiset",
                        lambda *args: multisets.append(args) or kb.reproducible_multiset(*args))
    oracle = {"name": "o", "space": BASE_VERIFY["space"], "p": POLY, "M": 20}
    assert run_cli(tmp_path, "oracle", dict(oracle, d=0)) == 0 and multisets == []
    assert run_cli(tmp_path, "oracle", oracle) == 0 and len(multisets) == 1


def test_config_error_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": {"type": "dirichlet"\n', encoding="utf-8")
    rc = cli.main(["verify", "--config", str(bad), "--out", str(tmp_path / "r"),
                   "--quiet"])
    assert rc == 2
    assert run_cli(tmp_path, "verify", {"space": {"type": "dirichlet", "alpha": 0}}) == 2
    rc = cli.main(["verify", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "r"), "--quiet"])
    assert rc == 2
    assert "missing required field multiset" in capsys.readouterr().err
    # Integer fields are validated before they reach the library, and a value
    # the library rejects for this polynomial (M or oracle_degree too small
    # for deg p, a negative derivative order d) is a config error too.
    cubic = {"leading": [1, 0], "roots": [{"point": [0.5, 0], "mult": 1},
                                          {"point": [0, 0.3], "mult": 2}]}
    extremal = {"space": {"type": "dirichlet", "alpha": 0}, "p": POLY, "M": 60}
    for task, cfg, message in (
            ("extremal", dict(extremal, M=-3), "M must be"),
            ("oracle", dict(extremal, M="abc"), "M must be"),
            ("oracle", dict(extremal, M=math.inf), "M must be"),
            ("verify", dict(BASE_VERIFY, K=0), "K must be"),
            ("verify", dict(BASE_VERIFY, route="oracle", oracle_degree=-1),
             "oracle_degree must be"),
            ("oracle", dict(extremal, M=5), "oracle: M = 5 too small"),
            ("oracle", dict(extremal, d=-1), "d must be"),
            ("oracle", dict(extremal, d="abc"), "d must be"),
            ("extremal", dict(extremal, p=cubic, M=2), "extremal: M = 2 leaves the span"),
            ("extremal", dict(extremal, route="oracle", oracle_degree=5),
             "extremal: M = 5 too small"),
            ("construct", dict(BASE_CONSTRUCT, route="oracle", oracle_degree=5),
             "construct: M = 5 too small"),
            # A policy that is not an object, a key of the wrong type, a
            # misspelt key and the retired bound_kind.
            ("verify", dict(BASE_VERIFY, policy=5), "policy must be an object"),
            ("verify", dict(BASE_VERIFY, policy=[1e-3]), "policy must be an object"),
            ("verify", dict(BASE_VERIFY, policy={"max_terms": None}), "policy.max_terms must be"),
            ("verify", dict(BASE_VERIFY, policy={"target_tolerance": [1]}),
             "policy.target_tolerance must be"),
            ("verify", dict(BASE_VERIFY, policy={"target_tolerance": 0}),
             "policy.target_tolerance must be"),
            ("verify", dict(BASE_VERIFY, policy={"max_terms": 8}),
             "verify: max_terms must be at least 16"),
            ("verify", dict(BASE_VERIFY, policy={"target_tolerence": 1e-3}),
             "policy.target_tolerence is not a key of a policy"),
            ("verify", dict(BASE_VERIFY, policy={"bound_kind": "none"}),
             "policy.bound_kind is not a key of a policy"),
            ("construct", dict(BASE_CONSTRUCT, taylor_degree=None), "taylor_degree must be"),
            ("construct", dict(BASE_CONSTRUCT, taylor_degree=[3]), "taylor_degree must be"),
            ("construct", dict(BASE_CONSTRUCT, taylor_degree=-5), "taylor_degree must be"),
            ("zeros", dict(BASE_ZEROS, scan="no"), "scan must be"),
            ("zeros", dict(BASE_ZEROS, radius=1.5), "zeros: radius must lie in (0, 1)"),
            ("zeros", dict(BASE_ZEROS, scan=0), "scan must be"),
            ("subspace", dict(extremal, q=POLY, expect="no"), "expect must be"),
            # A field or a whole config that is not an object.
            ("verify", dict(BASE_VERIFY, multiset=[1, 2]), "multiset must be an object"),
            ("verify", dict(BASE_VERIFY, space=[1]), "space must be an object"),
            ("verify", [1, 2], "config must be an object"),
            # The extremal check no longer samples: the key is refused by the
            # rule for any key a config does not know.
            ("extremal", dict(extremal, samples=0), "samples is not a key of an extremal config"),
            ("extremal", dict(extremal, samples=10_000),
             "samples is not a key of an extremal config")):
        assert run_cli(tmp_path, task, cfg) == 2, (task, cfg)
        assert capsys.readouterr().err.startswith(f"config error: {message}"), (task, cfg)


def test_short_weight_table_exits_two(tmp_path, capsys):
    values = [(k + 1.0) ** 2 for k in range(64)]
    assert run_cli(tmp_path, "construct", dict(
        BASE_CONSTRUCT, space={"type": "weights", "rule": "table", "values": values})) == 2
    assert "ToleranceUnreachable" in capsys.readouterr().err


def test_one_weight_table_exits_two(tmp_path, capsys):
    # The positivity probe read w_1 and w_2 of any table: a bare IndexError.
    assert kb.WeightedHardy((1.0,)).weight(0) == 1.0
    assert run_cli(tmp_path, "verify", dict(
        BASE_VERIFY, space={"type": "weights", "rule": "table", "values": [1.0]})) == 2
    assert "error [ToleranceUnreachable]" in capsys.readouterr().err


def _custom_4x4():
    return {"type": "custom", "gram": "table",
            "values": [[[float(m == n) * (m + 1), 0.0] for n in range(4)]
                       for m in range(4)],
            "reproducibility": [{"point": [0.5, 0.0], "order": "infinite"}]}


def test_short_custom_table_exits_two(tmp_path, capsys):
    assert run_cli(tmp_path, "oracle", {
        "name": "cg", "space": _custom_4x4(), "M": 40,
        "p": POLY}) == 2
    err = capsys.readouterr().err
    assert "error [ToleranceUnreachable]" in err and "at least 41" in err


def test_custom_table_checked_past_the_first_rows_exits_two(tmp_path, capsys):
    # Only the first 8 rows were checked: the lopsided table ran (exit 0) on
    # the upper entry its mirrored Gram serves, and the indefinite one failed
    # later, in the span (IllConditioned).
    for (m, n), value in (((20, 3), 5.0), ((30, 30), -1.0)):
        space = dict(_custom_4x4(), values=[[[float(i == j), 0.0] for j in range(41)]
                                            for i in range(41)])
        space["values"][m][n] = [value, 0.0]
        assert run_cli(tmp_path, "oracle", {
            "name": "cg", "space": space, "M": 40,
            "p": POLY}) == 2, (m, n)
        assert capsys.readouterr().err.startswith("config error: oracle: gram rule is not")


def test_kernel_route_on_a_non_diagonal_space_exits_two(tmp_path, capsys):
    # The default route needs kernel pairings; it raised a bare TypeError.
    multiset = {"origin": 0, "points": [{"point": [0.5, 0.0], "mult": 1}]}
    for space in (_custom_4x4(), {"type": "local_dirichlet", "zeta": [1.0, 0.0]}):
        for task, cfg in (("extremal", {"p": POLY, "M": 3}),
                          ("verify", {"multiset": multiset}),
                          ("construct", {"multiset": multiset})):
            assert run_cli(tmp_path, task, dict(cfg, name="k", space=space)) == 2, (task, space)
            err = capsys.readouterr().err
            assert "error [UnsupportedRoute]" in err and 'route: "oracle"' in err


def test_construct_zeros_subspace_oracle_tasks(tmp_path):
    assert run_cli(tmp_path, "construct", {
        "name": "c",
        "space": {"type": "dirichlet", "alpha": -1},
        "multiset": {"origin": 1, "points": [{"point": [0.4, 0.1], "mult": 1}]},
        "taylor_degree": 200,
    }) == 0
    report = json.loads((tmp_path / "r" / "construct-c.json").read_text())
    assert report["report"]["construction"]["route"] == "determinant"

    assert run_cli(tmp_path, "zeros", {
        "name": "z",
        "space": {"type": "dirichlet", "alpha": 0},
        "multiset": {"origin": 0, "points": [{"point": [0.5, 0.0], "mult": 1}]},
        "taylor_degree": 400,
        "radius": 0.99,
        "tolerance": 1e-8,
    }) == 0

    assert run_cli(tmp_path, "subspace", {
        "name": "s",
        "space": {"type": "dirichlet", "alpha": 0},
        "p": {"leading": [1, 0], "roots": [{"point": [0, 0], "mult": 1},
                                           {"point": [2, 0], "mult": 1}]},
        "q": {"leading": [1, 0], "roots": [{"point": [0, 0], "mult": 1}]},
        "M": 300,
        "expect": True,
    }) == 0
    report = json.loads((tmp_path / "r" / "subspace-s.json").read_text())
    assert report["report"]["equal"] is True

    assert run_cli(tmp_path, "oracle", {
        "name": "o",
        "space": {"type": "dirichlet", "alpha": 0},
        "p": POLY,
        "d": 0,
        "M": 200,
    }) == 0
    report = json.loads((tmp_path / "r" / "oracle-o.json").read_text())
    coeffs = [complex(re, im) for re, im in report["report"]["taylor"]["coeffs"]]
    assert coeffs[0] == pytest.approx(1.0)
    assert coeffs[1] == pytest.approx(-1.5)


def test_batch_runs_all_and_aggregates(tmp_path):
    assert run_cli(tmp_path, "batch", {"experiments": [
        dict(BASE_VERIFY, task="verify", name="one"),
        {"task": "preset", "preset": "paper-Rf-example"}]}) == 0
    assert (tmp_path / "r" / "verify-one.json").exists()
    assert (tmp_path / "r" / "preset-paper-Rf-example.json").exists()


def test_a_batch_reads_every_entry_before_the_first_runs(tmp_path, capsys, builds):
    # Entry by entry, the construction at degree 200000 ran and wrote its 2 MB
    # report before the second entry's misspelled key exited 2, and the
    # message left out the entry's task.
    construct = dict(BASE_CONSTRUCT, task="construct", name="first", taylor_degree=200_000)
    missing = str(tmp_path / "missing.json")
    for second, message in (
            (dict(BASE_VERIFY, task="verify", tolerence=1e-8), "experiments[1].tolerence is "
             "not a key of a verify config; known: K, multiset, name, oracle_degree, policy, "
             "route, seed, space, task, taylor_degree, tolerance"),
            (missing, f"config file not found: {missing}"),
            # The route was checked only as the construction started.
            (dict(construct, route="solv"),
             'experiments[1].route must be "determinant", "solve" or "oracle", got \'solv\'')):
        assert run_cli(tmp_path, "batch", {"experiments": [construct, second]}) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    # A config run by its own subcommand has no task key.
    assert run_cli(tmp_path, "construct", construct) == 2
    assert capsys.readouterr().err.startswith("config error: task is not a key of a construct")
    assert builds == [] and not (tmp_path / "r").exists()


def test_a_batch_runs_the_construction_checks_before_the_first_entry(tmp_path, capsys,
                                                                     builds):
    # The checks ran only as each entry built: the construct entry wrote
    # construct-first.json before the verify entry's non-diagonal space,
    # which the default route cannot build, exited 2.
    construct = dict(BASE_CONSTRUCT, task="construct", name="first")
    local = dict(BASE_VERIFY, task="verify", space={"type": "local_dirichlet",
                                                    "zeta": [1, 0]})
    del local["route"]
    assert run_cli(tmp_path, "batch", {"experiments": [construct, local]}) == 2
    assert capsys.readouterr().err.startswith("error [UnsupportedRoute]: route "
                                              "'determinant' needs kernel pairings")
    assert builds == [] and not (tmp_path / "r").exists()


@pytest.mark.parametrize("second, message", [
    # The oracle entry refused M only as it ran, after construct-first.json
    # was written.
    (dict(task="oracle", p=POLY, M=5), "oracle: M = 5 too small; need at least "
     "deg p + 10 = 11"),
    (dict(BASE_CONSTRUCT, task="construct", route="oracle", oracle_degree=5),
     "construct: M = 5 too small"),
    (dict(task="subspace", p=POLY, q={"leading": [1, 0], "roots": [
        {"point": [0.5, 0], "mult": 3}]}, M=2), "subspace: M = 2 leaves the span"),
    (dict(task="extremal", p={"leading": [1, 0], "roots": [
        {"point": [0.5, 0], "mult": 3}]}, M=2), "extremal: M = 2 leaves the span"),
], ids=["oracle", "oracle-route", "subspace", "extremal"])
def test_a_batch_refuses_an_m_too_small_before_the_first_entry(tmp_path, capsys,
                                                               builds, second, message):
    construct = dict(BASE_CONSTRUCT, task="construct", name="first")
    second = dict(second, space=BASE_CONSTRUCT["space"])
    assert run_cli(tmp_path, "batch", {"experiments": [construct, second]}) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert builds == [] and not (tmp_path / "r").exists()


def test_reports_take_the_mode_of_a_plain_open(tmp_path):
    # mkstemp created every report and CSV owner-only (0o600), and os.replace
    # kept it; open(path, "w") gives 0o666 less the umask.
    out = tmp_path / "r"
    assert cli.main(["preset", "h2-blaschke-match", "--out", str(out), "--quiet"]) == 0
    open(out / "plain.txt", "w").close()
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}  # no temp file left
    assert modes == dict.fromkeys(
        ("h2-blaschke-circle.csv", "plain.txt", "preset-h2-blaschke-match.json"),
        modes["plain.txt"])


def test_preset_rf_example(tmp_path):
    out = str(tmp_path / "r")
    assert cli.main(["preset", "paper-Rf-example", "--out", out, "--quiet"]) == 0
    report = json.loads((tmp_path / "r" / "preset-paper-Rf-example.json").read_text())
    assert report["ok"] is True
    cases = report["report"]["cases"]
    assert [c["multiset"] for c in cases] == [c["expected"] for c in cases]
    got = {c["range"]: c["multiset"] for c in cases}
    assert got["alpha <= 1"] == {"origin": 2,
                                 "points": [{"point": [0.0, 0.5], "mult": 1}]}
    assert got["3 < alpha <= 5"]["points"] == [
        {"point": [-1.0, 0.0], "mult": 2},
        {"point": [0.0, 0.5], "mult": 1},
        {"point": [1.0, 0.0], "mult": 2},
    ]


def test_preset_blaschke_match_writes_csv(tmp_path):
    out = str(tmp_path / "r")
    assert cli.main(["preset", "h2-blaschke-match", "--out", out, "--quiet"]) == 0
    csv_path = tmp_path / "r" / "h2-blaschke-circle.csv"
    lines = csv_path.read_text().split("\n")
    assert lines[0] == "theta,modulus"
    assert len(lines) == 514  # header + 512 rows + trailing newline
    theta, modulus = lines[5].split(",")
    assert float(theta) == pytest.approx(2 * math.pi * 4 / 512)
    assert float(modulus) == pytest.approx(1.0, abs=1e-12)
    # 17 significant digits requested
    assert len(modulus.replace(".", "").replace("-", "").lstrip("0")) <= 17


def test_preset_residue_match(tmp_path):
    out = str(tmp_path / "r")
    assert cli.main(["preset", "a2-residue-match", "--out", out, "--quiet"]) == 0
    report = json.loads((tmp_path / "r" / "preset-a2-residue-match.json").read_text())
    assert report["ok"] is True
    for case in report["report"]["cases"]:
        assert case["scalar_check"]["is_scalar_multiple"] is True
        assert all(r["abs_residue"] <= 1e-10 for r in case["residues"])


def test_circle_profile_bergman_not_unimodular(tmp_path):
    # Bergman-space inner functions are not unimodular on the circle; the
    # rational form gives an exact, visibly non-constant modulus profile.
    rational, _ = kb.bergman_rational([0.5 + 0j], 60)
    moduli = cli.emit_circle_profile(rational, 256, str(tmp_path / "a2.csv"))
    assert float(np.max(moduli) - np.min(moduli)) > 0.01
    assert np.min(moduli) > 0.0


def test_emit_circle_profile_validation(tmp_path):
    path = str(tmp_path / "c.csv")
    constant = kb.TaylorSeries([1.0], 0.0)
    moduli = cli.emit_circle_profile(constant, 16, path)
    assert np.allclose(moduli, 1.0)
    truncated = kb.TaylorSeries([1.0, 0.5], 0.25)
    with pytest.raises(kb.UnboundedTail):
        cli.emit_circle_profile(truncated, 16, path)
    with pytest.raises(TypeError):
        cli.emit_circle_profile(object(), 16, path)


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["preset", "nope", "--out", str(tmp_path)])


def test_numbers_written_as_strings_exit_two(tmp_path, capsys):
    # json_number converted by kind(value) and pair_complex by float(): each of
    # these ran on the number its string spells and exited 0.
    oracle = {"space": {"type": "dirichlet", "alpha": 0}, "p": POLY, "M": 60}
    point = {"origin": 0, "points": [{"point": [0.5, 0.0], "mult": 1}]}
    cg = _custom_4x4()
    weights = {"type": "weights", "rule": "table",
               "values": [(k + 1.0) ** 0.5 for k in range(1024)]}
    for task, cfg in (
            ("verify", dict(BASE_VERIFY, seed="7")),
            ("verify", dict(BASE_VERIFY, K="10")),
            ("verify", dict(BASE_VERIFY, taylor_degree="300")),
            ("verify", dict(BASE_VERIFY, tolerance="1e-8")),
            ("verify", dict(BASE_VERIFY, policy={"max_terms": "100000"})),
            ("verify", dict(BASE_VERIFY, space={"type": "dirichlet", "alpha": "0"})),
            ("verify", dict(BASE_VERIFY, space=dict(weights, boundary_order="1"))),
            ("verify", dict(BASE_VERIFY, multiset=dict(point, origin="0"))),
            ("verify", dict(BASE_VERIFY, multiset={
                "origin": 0, "points": [{"point": [0.5, 0.0], "mult": "1"}]})),
            ("verify", dict(BASE_VERIFY, multiset={
                "origin": 0, "points": [{"point": ["0.5", "0"], "mult": 1}]})),
            ("verify", dict(BASE_VERIFY, multiset={
                "origin": 0, "points": [{"point": [0.5, "0"], "mult": 1}]})),
            ("zeros", dict(BASE_ZEROS, radius="0.99")),
            ("subspace", dict(oracle, q=POLY, M="300")),
            ("oracle", dict(oracle, d="0")),
            ("oracle", dict(oracle, p=dict(POLY, leading=["1", "0"]))),
            ("oracle", dict(oracle, p=dict(POLY, roots=[{"point": [0.5, 0], "mult": "1"}]))),
            ("oracle", dict(oracle, space={"type": "local_dirichlet", "zeta": ["1", "0"]})),
            ("oracle", dict(oracle, M=3, space=dict(cg, values=[
                [["1", "0"]] + row[1:] if m == 0 else row
                for m, row in enumerate(cg["values"])]))),
            ("oracle", dict(oracle, M=3, space=dict(cg, reproducibility=[
                {"point": ["0.5", "0"], "order": "infinite"}]))),
            ("oracle", dict(oracle, M=3, space=dict(cg, reproducibility=[
                {"point": [0.5, 0], "order": "2"}])))):
        assert run_cli(tmp_path, task, cfg) == 2, (task, cfg)
        assert capsys.readouterr().err.startswith("config error"), (task, cfg)


def test_weight_table_entries_read_as_json_numbers(tmp_path, capsys):
    # float(v) per entry read "4.0" and true as weights and took inf at an
    # index the positivity probe skips (exit 0); 10**400 ended in a bare
    # OverflowError; -1 and 0 at an index the probe skips passed verify.  Each
    # now exits 2 naming the entry.
    values = [(k + 1.0) ** 0.5 for k in range(1024)]
    for index, bad in ((3, "4.0"), (0, True), (7, False), (10, math.inf),
                       (10, math.nan), (10, 10 ** 400), (10, None), (10, [1.0]),
                       (10, -1), (10, 0)):
        table = list(values)
        table[index] = bad
        space = {"type": "weights", "rule": "table", "values": table}
        assert run_cli(tmp_path, "verify", dict(BASE_VERIFY, space=space)) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"space.values[{index}]" in err, bad
    assert kb.space_from_json({"type": "weights", "rule": "table",
                               "values": [1, 2.5, 3]}).table.tolist() == [1.0, 2.5, 3.0]


def _dumps_spelled(obj, spell) -> str:
    """JSON text of ``obj`` with every float written by ``spell``."""
    if isinstance(obj, float):
        return spell(obj)
    if isinstance(obj, list):
        return "[" + ",".join(_dumps_spelled(v, spell) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps_spelled(v, spell)}"
                              for k, v in obj.items()) + "}"
    return json.dumps(obj)


# Three spellings of one float: 1.0, 1 and 1e0 (0.25 as 0.25, 0.25, 2.5e-01).
_SPELLINGS = (repr,
              lambda v: str(int(v)) if v.is_integer() else repr(v),
              lambda v: f"{int(v)}e0" if v.is_integer() else f"{v:e}")


def _table_configs():
    """An oracle config on a 64 x 64 custom Gram and a construct config on a
    1024-entry weight table, every entry an integer or a quarter."""
    gram = [[[float(m + 1) if m == n else 0.25 * (abs(m - n) == 1), 0.0]
             for n in range(64)] for m in range(64)]
    custom = {"name": "cg", "M": 50,
              "space": {"type": "custom", "gram": "table", "values": gram,
                        "reproducibility": [{"point": [0.5, 0.0], "order": "infinite"}]},
              "p": {"leading": [1.0, 0.0], "roots": [{"point": [0.5, 0.0], "mult": 1}]}}
    weights = dict(BASE_CONSTRUCT, name="wt", space={
        "type": "weights", "rule": "table",
        "values": [float(k + 1) + 0.25 * (k % 4 == 1) for k in range(1024)]})
    return (("oracle", custom), ("construct", weights))


def _report(tmp_path, task, text, out):
    path = tmp_path / "spelled.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main([task, "--config", str(path), "--out", str(tmp_path / out),
                     "--quiet"]) == 0
    name = json.loads(text)["name"]
    return (tmp_path / out / f"{task}-{name}.json").read_bytes()


def test_report_cites_tables_by_digest_of_the_parsed_array(tmp_path):
    for task, cfg in _table_configs():
        digests = set()
        for i, spell in enumerate(_SPELLINGS):
            report = json.loads(_report(tmp_path, task, _dumps_spelled(cfg, spell), f"s{i}"))
            cited = report["config"]["space"]["values"]
            assert set(cited) == {"sha256", "shape"}
            digests.add(cited["sha256"])
            # Every other key is echoed as written.
            assert {k: v for k, v in report["config"]["space"].items() if k != "values"} \
                == {k: v for k, v in cfg["space"].items() if k != "values"}
            assert {k: v for k, v in report["config"].items() if k != "space"} \
                == {k: v for k, v in cfg.items() if k != "space"}
        assert len(digests) == 1, task
        # One entry moved by one ulp is another table.
        moved = json.loads(json.dumps(cfg))
        if task == "oracle":
            moved["space"]["values"][2][2][0] = float(np.nextafter(3.0, 4.0))
        else:
            moved["space"]["values"][5] = float(np.nextafter(6.0, 7.0))
        report = json.loads(_report(tmp_path, task, json.dumps(moved), "ulp"))
        assert report["config"]["space"]["values"]["sha256"] not in digests, task


def test_config_table_checks_against_report_digest(tmp_path):
    # The README's recipe: parse the config's space and digest its table.
    (task, custom), (_, weights) = _table_configs()
    report = json.loads(_report(tmp_path, task, json.dumps(custom), "cg"))
    space = kb.space_from_json(custom["space"])
    assert space.table is space.gram_rule
    assert jsonio.table_digest(space.table) == report["config"]["space"]["values"]
    assert report["config"]["space"]["values"]["shape"] == [64, 64]
    report = json.loads(_report(tmp_path, "construct", json.dumps(weights), "wt"))
    space = kb.space_from_json(weights["space"])
    assert jsonio.table_digest(space.table) == report["config"]["space"]["values"]
    assert report["config"]["space"]["values"]["shape"] == [1024]


def test_table_reports_byte_identical_across_runs(tmp_path):
    for task, cfg in _table_configs():
        text = json.dumps(cfg)
        assert _report(tmp_path, task, text, "a") == _report(tmp_path, task, text, "b")


def test_report_without_a_table_keeps_its_bytes(tmp_path):
    # Only a table is cited by digest: a dirichlet report echoes its config
    # as written, byte for byte.
    cfg = {"name": "pin", "space": {"type": "dirichlet", "alpha": 0},
           "multiset": {"origin": 1, "points": []}, "taylor_degree": 4, "seed": 3}
    assert _report(tmp_path, "construct", json.dumps(cfg), "pin") == (
        b'{"config":{"multiset":{"origin":1,"points":[]},"name":"pin","seed":3,'
        b'"space":{"alpha":0,"type":"dirichlet"},"taylor_degree":4},"ok":true,'
        b'"report":{"construction":{"combo":{"terms":[{"coef":[1.0,0.0],"order":1,'
        b'"point":[0.0,0.0]},{"coef":[-0.0,0.0],"order":0,"point":[0.0,0.0]}]},'
        b'"normalization":[1.0,0.0],"pairing_error":0.0,"route":"determinant",'
        b'"taylor":{"N":4,"coeffs":[[0.0,0.0],[1.0,0.0],[0.0,0.0],[0.0,0.0],'
        b'[0.0,0.0]],"tail":0.0}}},"seed":3,"task":"construct"}\n')


def test_report_name_names_a_file_inside_out(tmp_path, capsys):
    # The report path joined the name unchecked: "x/../../escaped" wrote
    # escaped.json above --out, and ["x"] wrote construct-['x'].json.
    out = str(tmp_path / "a" / "r")
    for name in ("x/y", "x/../../escaped", "", ".", "..", ["x"], 5):
        batch = write_config(tmp_path / "batch.json", {"experiments": [
            dict(BASE_CONSTRUCT, task="construct", name=name)]})
        assert cli.main(["batch", "--config", batch, "--out", out, "--quiet"]) == 2, name
        assert capsys.readouterr().err.startswith(
            "config error: experiments[0].name must be"), name
    path = write_config(tmp_path / "cfg.json", dict(BASE_CONSTRUCT, name="../escaped"))
    assert cli.main(["construct", "--config", path, "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: name must be")
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
        "batch.json", "cfg.json"]


def _replace(cfg, path, value):
    """A deep copy of ``cfg`` with the entry at ``path`` (keys and indices)
    set to ``value``, or deleted when ``value`` is ``_DELETE``."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return cfg


_DELETE = object()


def test_malformed_objects_name_their_path(tmp_path, capsys):
    # Each reader, fed a missing required key, a list where an object belongs
    # (or the reverse) and a scalar of the wrong type, exits 2 naming the
    # field; before one reader several of these ended in Python's own text
    # ("'alpha'", "list indices must be integers or slices, not str").
    oracle = {"name": "o", "space": {"type": "dirichlet", "alpha": 0}, "p": POLY, "M": 60}
    subspace = dict(oracle, q=POLY)
    weights = dict(BASE_VERIFY, space={"type": "weights", "rule": "table",
                                       "values": [(k + 1.0) ** 0.5 for k in range(1024)]})
    local = dict(oracle, space={"type": "local_dirichlet", "zeta": [1.0, 0.0]})
    custom = dict(oracle, M=3, space=_custom_4x4())
    cases = (
        # space, each type
        ("verify", BASE_VERIFY, ("space", "alpha"), _DELETE, "missing required field space.alpha"),
        ("verify", BASE_VERIFY, ("space",), [{"type": "dirichlet", "alpha": 0}],
         "space must be an object"),
        ("verify", BASE_VERIFY, ("space", "alpha"), "0", "space.alpha must be a finite number"),
        ("verify", weights, ("space", "values"), _DELETE, "missing required field space.values"),
        ("verify", weights, ("space", "values"), {"0": 1.0}, "space.values must be a list"),
        ("verify", weights, ("space", "values", 5), "2", "space.values[5] must be"),
        ("oracle", local, ("space", "zeta"), _DELETE, "missing required field space.zeta"),
        ("oracle", local, ("space", "zeta"), {"re": 1, "im": 0}, "space.zeta must be"),
        ("oracle", local, ("space", "zeta"), [1, "0"], "space.zeta must be"),
        ("oracle", custom, ("space", "values"), _DELETE, "missing required field space.values"),
        ("oracle", custom, ("space", "values"), {"0": [[1.0, 0.0]]}, "space.values must be a list"),
        ("oracle", custom, ("space", "values", 1, 2), [0, "0"], "space.values[1][2][1] must be"),
        # a reproducibility entry
        ("oracle", custom, ("space", "reproducibility", 0, "order"), _DELETE,
         "missing required field space.reproducibility[0].order"),
        ("oracle", custom, ("space", "reproducibility", 0), [0.5, 0],
         "space.reproducibility[0] must be an object"),
        ("oracle", custom, ("space", "reproducibility"), {"point": [0.5, 0], "order": 1},
         "space.reproducibility must be a list"),
        ("oracle", custom, ("space", "reproducibility", 0, "order"), "2",
         "space.reproducibility[0].order must be"),
        # multiset
        ("verify", BASE_VERIFY, ("multiset", "points", 0, "mult"), _DELETE,
         "missing required field multiset.points[0].mult"),
        ("verify", BASE_VERIFY, ("multiset",), [[0.5, 0]], "multiset must be an object"),
        ("verify", BASE_VERIFY, ("multiset", "points"), {"point": [0.5, 0], "mult": 1},
         "multiset.points must be a list"),
        ("verify", BASE_VERIFY, ("multiset", "points", 0, "point"), "0.5",
         "multiset.points[0].point must be"),
        # polynomials p and q
        ("oracle", oracle, ("p", "leading"), _DELETE, "missing required field p.leading"),
        ("oracle", oracle, ("p", "roots", 0), [0.5, 0], "p.roots[0] must be an object"),
        ("oracle", oracle, ("p", "roots"), {"point": [0.5, 0], "mult": 1},
         "p.roots must be a list"),
        ("oracle", oracle, ("p", "roots", 0, "mult"), "1", "p.roots[0].mult must be"),
        ("subspace", subspace, ("q",), _DELETE, "missing required field q"),
        ("subspace", subspace, ("q",), [POLY], "q must be an object"),
        ("subspace", subspace, ("q", "leading"), True, "q.leading must be"),
        # policy
        ("verify", BASE_VERIFY, ("policy",), {"max_term": 100},
         "policy.max_term is not a key of a policy; known: max_terms, target_tolerance"),
        ("verify", BASE_VERIFY, ("policy",), [1e-3], "policy must be an object"),
        ("verify", BASE_VERIFY, ("policy",), {"max_terms": "100000"},
         "policy.max_terms must be a positive integer"),
    )
    for task, cfg, path, value, message in cases:
        assert run_cli(tmp_path, task, _replace(cfg, path, value)) == 2, (task, path, value)
        assert capsys.readouterr().err.startswith(f"config error: {message}"), (task, path)
