"""CLI: config parsing, task dispatch, deterministic reports, presets."""

import json
import math
import os

import numpy as np
import pytest

import kernelblaschke as kb
from kernelblaschke import cli


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


def test_verify_task_and_exit_codes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", BASE_VERIFY)
    rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "r"),
                   "--quiet"])
    assert rc == 0
    report = json.loads((tmp_path / "r" / "verify-h2-half.json").read_text())
    assert report["ok"] is True
    assert report["report"]["inner_report"]["verdict"] is True
    assert report["config"]["K"] == 10


def test_reports_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", BASE_VERIFY)
    cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"])
    cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"])
    a = (tmp_path / "a" / "verify-h2-half.json").read_bytes()
    b = (tmp_path / "b" / "verify-h2-half.json").read_bytes()
    assert a == b


def test_extremal_seed_determinism(tmp_path):
    cfg_obj = {
        "name": "ext",
        "space": {"type": "dirichlet", "alpha": 0},
        "p": {"leading": [1, 0], "roots": [{"point": [0.5, 0], "mult": 1}]},
        "samples": 500,
        "M": 120,
        "taylor_degree": 200,
        "seed": 9,
    }
    cfg = write_config(tmp_path / "cfg.json", cfg_obj)
    cli.main(["extremal", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"])
    cli.main(["extremal", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"])
    a = (tmp_path / "a" / "extremal-ext.json").read_bytes()
    assert a == (tmp_path / "b" / "extremal-ext.json").read_bytes()
    # A seed override changes the draw but stays deterministic.
    cli.main(["extremal", "--config", cfg, "--out", str(tmp_path / "c"),
              "--seed", "10", "--quiet"])
    c = json.loads((tmp_path / "c" / "extremal-ext.json").read_text())
    assert c["seed"] == 10
    assert c["ok"] is True


def test_failing_verdict_gives_exit_one(tmp_path):
    cfg_obj = dict(BASE_VERIFY, name="bad",
                   multiset={"origin": 0,
                             "points": [{"point": [0.5, 0.0], "mult": 1}]},
                   tolerance=1e-30)
    # Tolerance 1e-30 is below double-precision resolution of the residuals.
    cfg = write_config(tmp_path / "cfg.json", cfg_obj)
    rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "r"),
                   "--quiet"])
    assert rc == 1


def test_config_error_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": {"type": "dirichlet"\n', encoding="utf-8")
    rc = cli.main(["verify", "--config", str(bad), "--out", str(tmp_path / "r"),
                   "--quiet"])
    assert rc == 2
    missing = write_config(tmp_path / "missing.json",
                           {"space": {"type": "dirichlet", "alpha": 0}})
    rc = cli.main(["verify", "--config", missing, "--out", str(tmp_path / "r"),
                   "--quiet"])
    assert rc == 2
    rc = cli.main(["verify", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "r"), "--quiet"])
    assert rc == 2
    # Integer fields are validated before they reach the library, and a value
    # the library rejects for this polynomial (M or oracle_degree too small
    # for deg p, a negative derivative order d) is a config error too.
    poly = {"leading": [1, 0], "roots": [{"point": [0.5, 0], "mult": 1}]}
    cubic = {"leading": [1, 0], "roots": [{"point": [0.5, 0], "mult": 1},
                                          {"point": [0, 0.3], "mult": 2}]}
    extremal = {"space": {"type": "dirichlet", "alpha": 0}, "p": poly,
                "samples": 50, "M": 60}
    for task, cfg in (("extremal", dict(extremal, M=-3)),
                      ("extremal", dict(extremal, samples=0)),
                      ("oracle", dict(extremal, M="abc")),
                      ("oracle", dict(extremal, M=math.inf)),
                      ("verify", dict(BASE_VERIFY, K=0)),
                      ("verify", dict(BASE_VERIFY, route="oracle",
                                      oracle_degree=-1)),
                      ("oracle", dict(extremal, M=5)),
                      ("oracle", dict(extremal, d=-1)),
                      ("oracle", dict(extremal, d="abc")),
                      ("extremal", dict(extremal, p=cubic, M=2)),
                      ("extremal", dict(extremal, route="oracle", oracle_degree=5)),
                      ("construct", dict(BASE_VERIFY, route="oracle",
                                         oracle_degree=5))):
        path = write_config(tmp_path / "int.json", cfg)
        rc = cli.main([task, "--config", path, "--out", str(tmp_path / "r"),
                       "--quiet"])
        assert rc == 2, (task, cfg)


def test_short_weight_table_exits_two(tmp_path, capsys):
    values = [(k + 1.0) ** 2 for k in range(64)]
    cfg = write_config(tmp_path / "cfg.json", dict(
        BASE_VERIFY, space={"type": "weights", "rule": "table", "values": values}))
    rc = cli.main(["construct", "--config", cfg, "--out", str(tmp_path / "r"),
                   "--quiet"])
    assert rc == 2
    assert "ToleranceUnreachable" in capsys.readouterr().err


def test_construct_zeros_subspace_oracle_tasks(tmp_path):
    out = str(tmp_path / "r")
    cfg = write_config(tmp_path / "c1.json", {
        "name": "c",
        "space": {"type": "dirichlet", "alpha": -1},
        "multiset": {"origin": 1, "points": [{"point": [0.4, 0.1], "mult": 1}]},
        "taylor_degree": 200,
    })
    assert cli.main(["construct", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((tmp_path / "r" / "construct-c.json").read_text())
    assert report["report"]["construction"]["route"] == "determinant"

    cfg = write_config(tmp_path / "c2.json", {
        "name": "z",
        "space": {"type": "dirichlet", "alpha": 0},
        "multiset": {"origin": 0, "points": [{"point": [0.5, 0.0], "mult": 1}]},
        "taylor_degree": 400,
        "radius": 0.99,
        "tolerance": 1e-8,
    })
    assert cli.main(["zeros", "--config", cfg, "--out", out, "--quiet"]) == 0

    cfg = write_config(tmp_path / "c3.json", {
        "name": "s",
        "space": {"type": "dirichlet", "alpha": 0},
        "p": {"leading": [1, 0], "roots": [{"point": [0, 0], "mult": 1},
                                           {"point": [2, 0], "mult": 1}]},
        "q": {"leading": [1, 0], "roots": [{"point": [0, 0], "mult": 1}]},
        "M": 300,
        "expect": True,
    })
    assert cli.main(["subspace", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((tmp_path / "r" / "subspace-s.json").read_text())
    assert report["report"]["equal"] is True

    cfg = write_config(tmp_path / "c4.json", {
        "name": "o",
        "space": {"type": "dirichlet", "alpha": 0},
        "p": {"leading": [1, 0], "roots": [{"point": [0.5, 0], "mult": 1}]},
        "d": 0,
        "M": 200,
    })
    assert cli.main(["oracle", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((tmp_path / "r" / "oracle-o.json").read_text())
    coeffs = [complex(re, im) for re, im in report["report"]["taylor"]["coeffs"]]
    assert coeffs[0] == pytest.approx(1.0)
    assert coeffs[1] == pytest.approx(-1.5)


def test_batch_runs_all_and_aggregates(tmp_path):
    out = str(tmp_path / "r")
    batch = write_config(tmp_path / "batch.json", {
        "experiments": [
            dict(BASE_VERIFY, task="verify", name="one"),
            {"task": "preset", "preset": "paper-Rf-example"},
        ]
    })
    assert cli.main(["batch", "--config", batch, "--out", out, "--quiet"]) == 0
    assert (tmp_path / "r" / "verify-one.json").exists()
    assert (tmp_path / "r" / "preset-paper-Rf-example.json").exists()


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
