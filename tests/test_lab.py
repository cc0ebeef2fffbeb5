import hashlib
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plaplab.grid import ElemField, Mesh, NodalField, write_elem_field, write_nodal_field
from plaplab.lab.cases import (N_MODES, boundary_knots, perimeter_coordinate,
                               random_smooth_potential, rough_boundary_trace, smooth_potential_fn,
                               smooth_tensor_fn, trace_from_knots, trig_series)
from plaplab.lab import config
from plaplab.lab.cli import main as cli_main
from plaplab.lab.config import (ExperimentConfig, load_problem, modulus_from_spec,
                                parse_config_file, young_from_spec)
from plaplab.lab.experiments import (EXPERIMENTS, _modular_constant, exp_basic_estimate,
                                     exp_decay, exp_potential, norm_table, xi_profile)
from plaplab.lab.report import Report
from plaplab.oscillation import dini_log_modulus, log_inverse_modulus
from plaplab.rearrange import CapYoung, ExpYoung, PowerYoung, StepFunction
from plaplab.solver import SolverConfig, solve
import math

SMALL = dict(ps=[1.5, 3.0], grids=[16], n_seeds=2, seed=5)
TIGHT = SolverConfig(tol_residual=1e-9, max_iter=400)


def test_config_parsing(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text(
        "# comment\n"
        "p = 1.5, 2\n"
        "grids = 16, 32\n"
        "seed = 42\n"
        "n_seeds = 3\n"
        "modulus = power 0.4\n"
        "young = exp 1.0 3.0\n"
        "assert_mode = true\n")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.ps == [1.5, 2.0]
    assert cfg.grids == [16, 32]
    assert cfg.seed == 42
    assert cfg.modulus_spec == ("power", (0.4,))
    assert cfg.young_spec == ("exp", (1.0, 3.0))
    assert cfg.assert_mode

    bad = tmp_path / "bad.cfg"
    bad.write_text("p 1.5\n")
    with pytest.raises(ValueError, match=":1"):
        parse_config_file(bad)


def test_config_rejects_duplicate_key(tmp_path):
    # a second line for one key must not silently win
    dup = tmp_path / "dup.cfg"
    dup.write_text("seed = 3\n# comment\nseed = 4\n")
    with pytest.raises(ValueError, match=f"{dup}:3: duplicate key 'seed'"):
        parse_config_file(dup)


def test_config_rejects_unknown_key(tmp_path):
    # 'grid' is a typo for 'grids' and must not fall back to the default grids
    typo = tmp_path / "typo.cfg"
    typo.write_text("p = 2\ngrid = 64\n")
    with pytest.raises(ValueError, match="unknown config key.*grid"):
        ExperimentConfig.from_file(typo)


@pytest.mark.parametrize("text,value", [("true", True), ("False", False), ("TRUE", True)])
def test_config_assert_mode_spellings(tmp_path, text, value):
    path = tmp_path / "lab.cfg"
    path.write_text(f"assert_mode = {text}\n")
    assert ExperimentConfig.from_file(path).assert_mode is value


def test_config_rejects_a_misspelled_boolean(tmp_path):
    # 'ture' used to read as false without a word
    for text in ("ture", "yes"):
        path = tmp_path / "lab.cfg"
        path.write_text(f"assert_mode = {text}\n")
        with pytest.raises(ValueError, match=f"'assert_mode'.*'{text}'"):
            ExperimentConfig.from_file(path)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(ps=[])
    with pytest.raises(ValueError):
        ExperimentConfig(radii_ratio=1.2)
    assert ExperimentConfig.from_mapping({"n_seeds": "0"}).n_seeds == 0
    # a config file's errors name the file as well as the key
    path = tmp_path / "lab.cfg"
    path.write_text("seed = -1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: config key 'seed': "
                                         "must be at least 0, not -1$"):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("key, text", [
    ("n_seeds", "-1"), ("comps", "0"), ("comps", "-2"),
    ("r_max_frac", "inf"), ("r_max_frac", "nan"), ("r_max_frac", "0"),
    ("r_min_cells", "-2"), ("r_min_cells", "inf"),
    ("stability_factor", "nan"), ("stability_factor", "0"),
    ("radii_ratio", "2"), ("radii_ratio", "0")])
def test_config_rejects_out_of_range_values_naming_the_key(key, text):
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        ExperimentConfig.from_mapping({key: text})


@pytest.mark.parametrize("key, text, reason", [
    ("grids", "1", "at least 2 cells per side"),
    ("grids", "16, 1", "at least 2 cells per side"),
    ("bounds", "0, 1, 0, 2", "only square domains"),
    ("bounds", "0, 1, 0, inf", "must be finite"),
    ("bounds", "0, 1, 0", "expected 4"),
    ("p", "1.0", "p > 1"), ("p", "nan", "p > 1"), ("p", "2, 1", "p > 1"),
    ("lorentz_r", "0.5", r"\[1, inf\]"), ("lorentz_r", "nan", r"\[1, inf\]"),
    ("seed", "-1", "at least 0"),
    ("young", "power 0.5", "q >= 1"), ("young", "foo 2", "unknown Young function family"),
    ("young", "exp 1", "'exp': missing a required argument: 'q'"),
    ("modulus", "foo", "unknown modulus family"), ("modulus", "power -1", "beta_cert > 0"),
    ("modulus", "log_inverse", "'log_inverse': missing a required argument: 'sigma'"),
    ("modulus", "log_inverse -1", "sigma >= 0, got sigma=-1.0"),
    ("grids", "8.5", "whole number"), ("seed", "x", "must be a whole number, not 'x'"),
    ("seed", "7.5", "must be a whole number, not '7.5'"), ("n_seeds", "x", "whole number"),
    ("comps", "2.5", "whole number"), ("grids", "inf", "whole number"),
    ("modulus", "power x", "could not convert string to float: 'x'"),
    ("young", "", "unknown Young function family ''")])
def test_config_rejects_what_a_run_would_reject_naming_the_key(key, text, reason):
    # each of these used to fail only inside a run, with a message naming no key
    with pytest.raises(ValueError, match=f"config key '{key}'.*{reason}"):
        ExperimentConfig.from_mapping({key: text})


def test_config_accepts_the_ends_of_the_ranges():
    cfg = ExperimentConfig.from_mapping({"grids": "2", "seed": "0", "lorentz_r": "inf",
                                         "bounds": "-1, 1, 3, 5", "p": "1.01"})
    assert (cfg.grids, cfg.seed, cfg.lorentz_r) == ([2], 0, math.inf)


def test_whole_number_keys_read_integer_and_whole_float_literals(tmp_path):
    cfg = ExperimentConfig.from_mapping({"seed": "7.0", "n_seeds": "5.0", "grids": "32.0, 1e2",
                                         "comps": "2.0"})
    assert (cfg.seed, cfg.n_seeds, cfg.grids, cfg.comps) == (7, 5, [32, 100], 2)
    assert all(type(x) is int for x in (cfg.seed, cfg.n_seeds, *cfg.grids, cfg.comps))
    # an integer literal is read exactly, with no float round trip
    big = "12345678901234567891"
    assert ExperimentConfig.from_mapping({"seed": big}).seed == int(big)
    # one past a float's range is refused under its key, as 1e400 is
    for text in ("1" + "0" * 400, "1e400"):
        with pytest.raises(ValueError, match="config key 'grids'"):
            ExperimentConfig.from_mapping({"grids": text})
    # a problem file's grid, comps and source seeds read alike
    path = tmp_path / "prob.cfg"
    path.write_text("grid = 4.0\ncomps = 2.0\nF = trig 3.0\n")
    prob = load_problem(path)
    assert (prob.mesh.cells_per_side, prob.g.shape[1]) == (4, 2)
    path.write_text("grid = 4\ncomps = 2\nF = trig 3\n")
    assert np.array_equal(prob.F.tensors, load_problem(path).F.tensors)


def test_modulus_from_spec():
    assert modulus_from_spec("power", (0.4,)).family == "power"
    assert modulus_from_spec("constant").family == "constant"
    assert modulus_from_spec("dini_log", (math.e,)) == log_inverse_modulus(1.0, math.e)
    with pytest.raises(ValueError):
        modulus_from_spec("what")
    # a wrong parameter count names the family instead of raising a TypeError
    for name, params in (("log_inverse", ()), ("power", (0.3, 2.0)), ("constant", (1.0,))):
        with pytest.raises(ValueError, match=f"modulus family '{name}': (missing|too many)"):
            modulus_from_spec(name, params)


def test_young_from_spec():
    assert isinstance(young_from_spec("power", (2.0,)), PowerYoung)
    assert isinstance(young_from_spec("exp", (1.0, 2.0)), ExpYoung)
    assert isinstance(young_from_spec("linf_cap", (2.0,)), CapYoung)
    with pytest.raises(ValueError):
        young_from_spec("nope")
    # a wrong parameter count names the family instead of raising a TypeError
    for name, params in (("exp", (1.0,)), ("power", ()), ("linf_cap", (2.0, 3.0))):
        with pytest.raises(ValueError, match=f"Young function family '{name}': (missing|too)"):
            young_from_spec(name, params)


def test_cli_seed_override_is_checked_like_the_config_key(tmp_path):
    with pytest.raises(ValueError, match="config key 'seed'"):
        cli_main(["decay", "--seed", "-1", "--out", str(tmp_path)])


def test_problem_file_loading(tmp_path):
    cfgfile = tmp_path / "prob.cfg"
    cfgfile.write_text(
        "p = 3.0\ngrid = 8\nbounds = 0, 1, 0, 1\ncomps = 1\n"
        "F = amap 4\ng = keep\n")
    prob = load_problem(cfgfile)
    assert prob.p.p == 3.0
    assert prob.mesh.cells_per_side == 8
    sol = solve(prob, TIGHT)
    assert sol.residual <= 1e-9

    cfgfile.write_text("p = 2.0\ngrid = 6\nF = zero\ng = affine 1 2 0\n")
    prob = load_problem(cfgfile)
    sol = solve(prob, TIGHT)
    exact = prob.mesh.nodes[:, 0] + 2.0 * prob.mesh.nodes[:, 1]
    assert np.allclose(sol.u.values[:, 0], exact, atol=1e-8)


def test_problem_file_rejects_unknown_keys(tmp_path):
    # 'grids' is a typo for 'grid' and must not fall back to the default M
    cfgfile = tmp_path / "prob.cfg"
    cfgfile.write_text("p = 3.0\ngrids = 8\n")
    with pytest.raises(ValueError, match="unknown problem key.*grids"):
        load_problem(cfgfile)


def test_problem_file_boundary_sources_with_amap(tmp_path):
    # an absent g keeps the trace of the amap potential; g = zero means zero
    cfgfile = tmp_path / "prob.cfg"
    head = "p = 3.0\ngrid = 8\nF = amap 4\n"
    mesh = Mesh((0, 1, 0, 1), 8)
    w = random_smooth_potential(mesh, 1, np.random.default_rng(4))
    trace = w.values[mesh.boundary_nodes]
    assert np.abs(trace).max() > 0.1
    for g_line, expected in (("", trace), ("g = keep\n", trace),
                             ("g = zero\n", np.zeros_like(trace))):
        cfgfile.write_text(head + g_line)
        assert np.array_equal(load_problem(cfgfile).g, expected), g_line


@pytest.mark.parametrize("line, reason", [
    ("comps = 0", "'comps': must be at least 1"),
    ("bounds = 0, 1", "'bounds': .*expected 4"),
    ("grid = 8.5", "'grid': must be a whole number, not '8.5'"),
    ("comps = 2.5", "'comps': must be a whole number, not '2.5'"),
    ("p = 1", "'p': .*p > 1"),
    ("F = trig", "'F': source 'trig': missing a required argument: 'seed'"),
    ("F = file", "'F': source 'file': missing a required argument: 'file'"),
    ("F = file {elems}", r"'F': .* shape \(32, 1, 2\), not \(2048, 1, 2\)"),
    ("g = affine 1 2", "'g': source 'affine': missing a required argument: 'c'"),
    ("g = zero 0", "'g': source 'zero': too many positional arguments"),
    ("g = file {nodes}", r"'g': .* shape \(25, 1\), not \(1089, 1\)"),
    ("g = sine", "'g': unknown source 'sine'"),
    ("g = affine nan 0 0", "'g': boundary data must be finite")])
def test_problem_file_names_the_bad_key(tmp_path, line, reason):
    # each of these used to load a problem that failed later, or raise an
    # IndexError or an unpacking error that named no key
    coarse = Mesh((0, 1, 0, 1), 4)
    elems, nodes = tmp_path / "elems.csv", tmp_path / "nodes.csv"
    write_elem_field(elems, ElemField.zeros(coarse))
    write_nodal_field(nodes, NodalField.zeros(coarse))
    path = tmp_path / "prob.cfg"
    path.write_text(line.format(elems=elems, nodes=nodes) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: problem key {reason}"):
        load_problem(path)


def _key_column(doc):
    """The first word of every line of a docstring's indented key table."""
    return {line.split()[0] for line in inspect.cleandoc(doc).splitlines()
            if line.startswith("    ")}


def test_documented_keys_are_the_accepted_keys(tmp_path):
    # the module docstring says that a key not documented there is an error
    assert _key_column(config.__doc__) == set(config._KEYS)
    assert _key_column(load_problem.__doc__) == set(config._PROBLEM_DEFAULTS)
    path = tmp_path / "prob.cfg"
    for key, text in config._PROBLEM_DEFAULTS.items():
        path.write_text(f"{key} = {text}\n")
        load_problem(path)
    path.write_text("grids = 8\n")
    with pytest.raises(ValueError, match="unknown problem key"):
        load_problem(path)


def test_report_roundtrip_and_determinism(tmp_path):
    rep = Report("demo", {"seed": 1})
    rep.add_case(case="a", p=2.0, M=16, seed=0, fitted_constant=1.25,
                 stability_factor=1.01, **{"pass": True})
    rep.check("demo assertion", "<= 2", True, value=1.01)
    rep.runtime = 12.34
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rep.write_json(j1)
    rep.write_json(j2)
    assert j1.read_bytes() == j2.read_bytes()
    data = json.loads(j1.read_text())
    assert "runtime" not in json.dumps(data)     # runtime never serialized
    assert data["assertions"][0]["tolerance"] == "<= 2"
    csv_path = tmp_path / "r.csv"
    rep.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "case,p,M,seed,fitted_constant,stability_factor,pass"
    assert lines[1].startswith("a,2.0,16,0,1.25")


def test_every_assertion_names_a_tolerance():
    cfg = ExperimentConfig(**SMALL)
    rep = exp_decay(cfg)
    assert rep.assertions
    assert all(a.tolerance for a in rep.assertions)


def test_case_builders_seeded_and_mesh_independent():
    rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
    fn1, fn2 = smooth_tensor_fn(rng1, 2), smooth_tensor_fn(rng2, 2)
    x = np.array([0.2, 0.7])
    y = np.array([0.3, 0.9])
    assert np.array_equal(fn1(x, y), fn2(x, y))
    pot = smooth_potential_fn(np.random.default_rng(4), 1)
    assert pot(x, y).shape == (2, 1)
    # knots realize consistently across refinements
    kv = boundary_knots(np.random.default_rng(5), 1)
    m16, m32 = Mesh((0, 1, 0, 1), 16), Mesh((0, 1, 0, 1), 32)
    t16 = trace_from_knots(m16, kv)
    t32 = trace_from_knots(m32, kv)
    # shared corner node (0, 0) gets the same value on both meshes
    i16 = np.flatnonzero((m16.nodes[m16.boundary_nodes] == [0.0, 0.0]).all(axis=1))[0]
    i32 = np.flatnonzero((m32.nodes[m32.boundary_nodes] == [0.0, 0.0]).all(axis=1))[0]
    assert t16[i16, 0] == pytest.approx(t32[i32, 0], rel=1e-12)


def _trig_series_reference(rng, n_components):
    """Reference: the series as one (points, modes) expression per component."""
    freq = rng.integers(1, 4, size=(n_components, N_MODES, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n_components, N_MODES))
    coef = rng.normal(size=(n_components, N_MODES)) / (1.0 + np.sum(freq ** 2, axis=2))

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros((len(x), n_components))
        for c in range(n_components):
            arg = (np.pi * freq[c, :, 0][None, :] * x[:, None]
                   + np.pi * freq[c, :, 1][None, :] * y[:, None]
                   + phase[c][None, :])
            out[:, c] = np.sum(coef[c][None, :] * np.sin(arg), axis=1)
        return out

    return evaluate


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
       where=st.sampled_from(["none", "one", "barycenters", "nodes"]),
       M=st.integers(2, 40), point=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_trig_series_is_bitwise_the_reference(seed, n, where, M, point):
    mesh = Mesh((0, 1, 0, 1), M)
    pts = {"none": np.empty((0, 2)), "one": np.array([point]),
           "barycenters": mesh.barycenters, "nodes": mesh.nodes}[where]
    got = trig_series(np.random.default_rng(seed), n)(pts[:, 0], pts[:, 1])
    want = _trig_series_reference(np.random.default_rng(seed), n)(pts[:, 0], pts[:, 1])
    assert got.shape == want.shape == (len(pts), n)
    assert got.tobytes() == want.tobytes()


def test_perimeter_coordinate_covers_boundary():
    mesh = Mesh((0, 1, 0, 1), 8)
    pts = mesh.nodes[mesh.boundary_nodes]
    t = perimeter_coordinate(mesh, pts)
    assert t.min() >= 0.0 and t.max() <= 4.0
    assert len(np.unique(np.round(t, 12))) == len(pts)
    g = rough_boundary_trace(mesh, 2, np.random.default_rng(6))
    assert g.shape == (len(pts), 2)
    assert np.all(np.abs(g) <= 1.0)


@pytest.mark.parametrize("x0", [1e4, 1e5])
def test_translated_square_boundary_is_the_outer_ring(x0):
    # a coordinate-scaled closeness test took interior nodes near x = 1e4
    # (or all of them near 1e5) for boundary nodes; the index ring does not
    M = 16
    mesh = Mesh((x0, x0 + 1.0, 0.0, 1.0), M)
    assert len(mesh.boundary_nodes) == 4 * M
    assert np.array_equal(mesh.interior_nodes, Mesh((0, 1, 0, 1), M).interior_nodes)
    t = perimeter_coordinate(mesh, mesh.nodes[mesh.boundary_nodes])
    assert len(np.unique(t)) == 4 * M


def test_xi_profile_anchor_and_extension():
    omega = dini_log_modulus(math.e ** 2)
    assert xi_profile(omega, 1.0) == 0.0
    assert xi_profile(omega, 0.1) < 0.0
    assert xi_profile(omega, 1.3) > 0.0
    # substitution oracle: omega = 1/log(e/r) gives xi(r) = -log log(e/r)
    om_e = dini_log_modulus(math.e, cert_r_max=0.3)
    for r in (0.05, 0.2):
        assert xi_profile(om_e, r) == pytest.approx(-math.log(math.log(math.e / r)),
                                                    rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4),
                  elements=st.one_of(st.floats(1e-12, 1.4), st.just(1.0))),
       st.sampled_from([math.e ** 2, math.e]))
def test_xi_profile_on_arrays_is_per_element(r, scale):
    omega = dini_log_modulus(scale, cert_r_max=0.3)
    expect = [xi_profile(omega, float(x)) for x in r.ravel()]
    assert all(type(x) is float for x in expect)
    assert np.array_equal(xi_profile(omega, r), np.reshape(expect, r.shape))


def test_report_determinism_across_runs(tmp_path):
    cfg = ExperimentConfig(**SMALL)
    r1 = exp_decay(cfg)
    r2 = exp_decay(cfg)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    r1.write_json(p1)
    r2.write_json(p2)
    assert p1.read_bytes() == p2.read_bytes()


# SHA-256 of the six reports at ExperimentConfig(seed=7, grids=[24], n_seeds=2).
# A change that moves a report bit updates its digest here and names the
# moved values in CHANGES.md.
REPORT_DIGESTS = {
    "basic-estimate.json": "c1d3fe7684f4d330e9b73980de09477a61083201005b3bece2a7a9365572a5ba",
    "basic-estimate.csv": "0a12666102a1b6f604973f894b8a4906e489ff1d7a4c72eea1158b05f36cc1d5",
    "decay.json": "1cd8c4049d92a2afd2bd5c63ab437140b76dd0d675ef602da376f8dbf1ae6039",
    "decay.csv": "b7a3e5335669c4e8c5ba55b31624e684df432545d630b44eee73865ea02048c2",
    "oscillation.json": "7fb65cd49d7ec9b67aec19403ce2496b49c90b8f976c9d0cb93cb072a821f281",
    "oscillation.csv": "fe2dee003d8a52e40a054298a45df3a39e2170ce98c9a9d636ee74730243e18b",
    "potential.json": "1a0a34e8c18f5aa5bbab82bd558c80a3aadd4cadf828111a1599e1a75f8c7abb",
    "potential.csv": "e2291a4c3f6ff6b0ce234d96c5241c8cc9b9bacfa8e9e1b0fe2f50a88879d85b",
    "example55.json": "0e82319ba7e543af9565c78668f71ebfe3c206ecb4a28b31b4fe23a5b15d39c1",
    "example55.csv": "69d2791fb8c75bd48b0e45d8c452656605cd4519b0f4acb8e8eb81b106414e86",
    "reduction.json": "ad731d8485a943b98591b0c4d22d2a1a75bf070529f1ac235297f6acf1e7d124",
    "reduction.csv": "7c3f09391cdc6df10ce658f44191ad08d2cc2337acf3f51ab7dd02126b793b36",
}


def test_reports_match_their_recorded_digests(tmp_path):
    cfg = ExperimentConfig(seed=7, grids=[24], n_seeds=2)
    digests = {}
    for name, run in EXPERIMENTS.items():
        rep = run(cfg)
        assert rep.all_passed, name
        rep.write_json(tmp_path / f"{name}.json")
        rep.write_csv(tmp_path / f"{name}.csv")
        for ext in ("json", "csv"):
            data = (tmp_path / f"{name}.{ext}").read_bytes()
            digests[f"{name}.{ext}"] = hashlib.sha256(data).hexdigest()
    assert digests == REPORT_DIGESTS


def test_basic_estimate_smoke():
    cfg = ExperimentConfig(**SMALL)
    rep = exp_basic_estimate(cfg)
    assert rep.all_passed
    for rec in rep.cases:
        assert np.isfinite(rec["fitted_constant"])
    # the shifted datum has the base's discrete solution and solves from it,
    # so the check sees the invariance, not where two solves stopped
    (shift,) = [a for a in rep.assertions
                if a.name == "ratio invariant under F -> F + const"]
    assert shift.value <= 1e-12


def test_two_component_basic_estimate_and_potential_smoke():
    cfg = ExperimentConfig(grids=[12], n_seeds=2, ps=[1.5, 3.0], comps=2)
    for run in (exp_basic_estimate, exp_potential):
        rep = run(cfg)
        assert rep.all_passed, run.__name__
        assert rep.cases
        for rec in rep.cases:
            assert np.isfinite(rec["fitted_constant"])


def test_norm_table_values_and_invariance():
    cfg = ExperimentConfig(**SMALL)
    mesh = Mesh((0, 1, 0, 1), 16)
    zero = ElemField.zeros(mesh)
    rows = dict(norm_table(mesh, zero, cfg))
    assert all(v == 0.0 for v in rows.values())

    rng = np.random.default_rng(7)
    t = rng.normal(size=(mesh.num_elements, 1, 2))
    rows1 = norm_table(mesh, ElemField(t), cfg)
    perm = rng.permutation(mesh.num_elements)
    rows2 = norm_table(mesh, ElemField(t[perm]), cfg)
    for (n1, v1), (n2, v2) in zip(rows1, rows2):
        assert n1 == n2
        if n1.startswith(("L^", "Lorentz", "Luxemburg", "Marcink")):
            assert v1 == pytest.approx(v2, rel=1e-9)

    # indicator Lorentz value matches the closed form
    ind = np.zeros((mesh.num_elements, 1, 2))
    ind[:10, 0, 0] = 1.0
    rowsi = dict(norm_table(mesh, ElemField(ind), cfg))
    t_meas = 10 * mesh.element_area
    expect = (2.0 / cfg.lorentz_r) ** (1.0 / cfg.lorentz_r) * t_meas ** 0.5
    assert rowsi[f"Lorentz(2,{cfg.lorentz_r:g})"] == pytest.approx(expect, rel=1e-12)


def test_cli_runs_and_asserts(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 1.5\ngrids = 16\nn_seeds = 2\nseed = 3\n")
    out = tmp_path / "rep"
    code = cli_main(["decay", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    assert (out / "decay.json").exists() and (out / "decay.csv").exists()
    data = json.loads((out / "decay.json").read_text())
    assert data["experiment"] == "decay"

    # norm-table subcommand reads a field file
    mesh = Mesh((0, 1, 0, 1), 16)
    rng = np.random.default_rng(8)
    fpath = tmp_path / "field.csv"
    write_elem_field(fpath, ElemField(rng.normal(size=(mesh.num_elements, 1, 2))))
    code = cli_main(["norm-table", "--config", str(cfgfile), "--out", str(out),
                     "--field", str(fpath), "--grid", "16"])
    assert code == 0
    assert (out / "norm-table.csv").exists()

    # malformed field files are reported with their line number
    bad = tmp_path / "bad.csv"
    bad.write_text("elem,row,col,value\n0,0,0,x\n")
    code = cli_main(["norm-table", "--config", str(cfgfile), "--out", str(out),
                     "--field", str(bad)])
    assert code == 2


def test_cli_norm_table_refuses_a_field_of_another_grid(tmp_path, capsys):
    # the shape rule of problem files, with the hint to set --grid
    fpath = tmp_path / "field.csv"
    write_elem_field(fpath, ElemField.zeros(Mesh((0, 1, 0, 1), 8)))
    out = str(tmp_path / "rep")
    assert cli_main(["norm-table", "--out", out, "--field", str(fpath), "--grid", "16"]) == 2
    err = capsys.readouterr().err
    assert f"{fpath} (set --grid): " in err and "shape (128, 1, 2), not (512, 1, 2)" in err
    # a grid the mesh refuses and a missing table exit the same way
    for argv, says in ((["--field", str(fpath), "--grid", "1"], "at least 2 cells"),
                       (["--field", str(tmp_path / "none.csv")], "No such file")):
        assert cli_main(["norm-table", "--out", out, *argv]) == 2
        assert says in capsys.readouterr().err


def test_oscillation_estimate_on_too_coarse_grid_records_failed_checks():
    # at M = 8 no decay exponent can be measured and no radius fits below R:
    # both surface as failed checks naming p and M instead of a crash
    from plaplab.lab.experiments import exp_oscillation_estimate

    rep = exp_oscillation_estimate(ExperimentConfig(grids=[8], n_seeds=1, ps=[2.0]))
    failed = [a.name for a in rep.assertions if not a.passed]
    assert "decay exponent measurable at p = 2.0, M = 8" in failed
    assert any("M = 8" in name and "radius set" in name for name in failed)
    assert not rep.all_passed and rep.cases == []


def test_potential_on_too_coarse_grid_records_failed_check():
    # at M = 8 no barycenter lies 4h inside the boundary, so the
    # power-modulus datum has no probe points: a failed check naming M
    rep = exp_potential(ExperimentConfig(grids=[8], n_seeds=1, ps=[2.0]))
    failed = [a.name for a in rep.assertions if not a.passed]
    assert any("M = 8" in name and "power-modulus" in name for name in failed)
    assert not rep.all_passed


def test_experiment_registry_is_complete():
    assert set(EXPERIMENTS) == {"basic-estimate", "decay", "oscillation",
                                "potential", "example55", "reduction"}


def test_counterexample_gradient_formula_by_finite_differences():
    # the displayed gradient of y * xi(|x|) agrees with central differences
    # of the potential at second order
    from plaplab.lab.experiments import analytic_gradient, xi_profile

    omega = dini_log_modulus(math.e ** 2)
    pts = np.array([[0.31, 0.22], [-0.4, 0.1], [0.05, -0.5], [0.33, 0.47]])

    def u(q):
        return q[:, 1] * np.array([xi_profile(omega, r)
                                   for r in np.hypot(q[:, 0], q[:, 1])])

    errs = []
    for h in (1e-3, 5e-4):
        ex = np.zeros((len(pts), 2))
        ex[:, 0] = h
        ey = np.zeros((len(pts), 2))
        ey[:, 1] = h
        fd = np.stack([(u(pts + ex) - u(pts - ex)) / (2 * h),
                       (u(pts + ey) - u(pts - ey)) / (2 * h)], axis=1)
        errs.append(np.abs(fd - analytic_gradient(omega, pts)).max())
    assert errs[0] <= 1e-5
    assert errs[1] <= errs[0] / 2.5        # about O(h^2)


def test_reduction_zero_datum_gives_zero_left_side():
    # affine potential: constant F, constant flux, centered norms vanish
    from plaplab.fluxmaps import Exponent, a_map
    from plaplab.grid import gradient as grid_gradient
    from plaplab.lab.experiments import _centered_norms
    from plaplab.rearrange import lq_norm
    from plaplab.rearrange import rearrange as do_rearrange
    from plaplab.solver import DirichletProblem, SolverConfig, solve

    mesh = Mesh((0, 1, 0, 1), 12)
    p = Exponent(3.0)
    w = mesh.nodes[:, 0] * 2.0 - mesh.nodes[:, 1]
    from plaplab.grid import NodalField
    wf = NodalField(w[:, None])
    F = ElemField(a_map(p, grid_gradient(mesh, wf).tensors))
    prob = DirichletProblem(p, mesh, F, wf.values[mesh.boundary_nodes])
    sol = solve(prob, SolverConfig(tol_residual=1e-9))
    A = ElemField(a_map(p, grid_gradient(mesh, sol.u).tensors))
    left = lq_norm(do_rearrange(mesh, _centered_norms(A)), 3.0)
    assert left <= 1e-7


def test_no_experiment_solves_the_same_problem_twice(monkeypatch):
    # every (p, M, F, g, tol) is solved at most once per experiment call
    from plaplab.lab import experiments

    keys = []
    real = experiments.solve

    def recording(prob, cfg=None, u0=None):
        keys.append((prob.p.p, prob.mesh.bounds, prob.mesh.cells_per_side,
                     prob.F.tensors.tobytes(), prob.g.tobytes(), cfg.tol_residual))
        return real(prob, cfg, u0)

    monkeypatch.setattr(experiments, "solve", recording)
    cfg = ExperimentConfig(ps=[1.5, 3.0], grids=[16], n_seeds=2)
    for name, run in EXPERIMENTS.items():
        keys.clear()
        run(cfg)
        assert len(keys) == len(set(keys)), name


def test_norm_table_makes_one_ball_family_pass(monkeypatch):
    # BMO, Campanato and VMO all read one table of inscribed sups, and the
    # family's batched calls together evaluate every inscribed (center, r)
    # ball exactly once and no other ball
    from collections import Counter

    from plaplab import oscillation

    balls = Counter()
    real = oscillation.ball_family_oscillations

    def counting(mesh, f, centers, radii, q):
        balls.update((x, y, r) for x, y in np.asarray(centers).tolist() for r in radii)
        return real(mesh, f, centers, radii, q)

    monkeypatch.setattr(oscillation, "ball_family_oscillations", counting)
    mesh = Mesh((0, 1, 0, 1), 16)
    t = np.random.default_rng(9).normal(size=(mesh.num_elements, 1, 2))
    rows = dict(norm_table(mesh, ElemField(t), ExperimentConfig(**SMALL)))
    centers, radii = oscillation.default_ball_family(mesh)
    inscribed = Counter((x, y, r) for x, y in centers.tolist() for r in radii
                        if mesh.boundary_distance((x, y)) > r)
    assert balls == inscribed and max(balls.values()) == 1
    assert len(inscribed) < len(centers) * len(radii)
    vmo = [v for name, v in rows.items() if name.startswith("VMO[")]
    assert rows["BMO"] == vmo[-1]


def test_decay_slopes_gather_once_per_center(monkeypatch):
    # the V and A slopes of a center share one gather of all its radii
    from plaplab.lab import experiments

    calls = []
    real = experiments._ball_members

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(experiments, "_ball_members", counting)
    alpha, kappa = experiments.measure_alpha(ExperimentConfig(), 3.0, 24)
    assert alpha is not None and kappa is not None
    assert len(calls) == 5                   # every default center clears R


def test_ball_queries_do_not_grow_with_the_probe_lattice(monkeypatch):
    # every probe set is one batched ball query, so a 6 x 6 lattice makes as
    # many kernel calls as a 3 x 3 one; a per-point loop around a ball query
    # fails here
    from plaplab import grid
    from plaplab.lab import experiments

    calls = []
    real_chunks, real_probes = grid._ball_chunks, experiments._probe_points

    def counting(*args):
        calls.append(1)
        return real_chunks(*args)

    monkeypatch.setattr(grid, "_ball_chunks", counting)
    cfg = ExperimentConfig(**SMALL)
    counts = []
    for n in (3, 6):
        monkeypatch.setattr(experiments, "_probe_points",
                            lambda cfg, margin, per_side=10, n=n: real_probes(cfg, margin, n))
        calls.clear()
        for run in (experiments.exp_decay, experiments.exp_oscillation_estimate,
                    experiments.exp_potential):
            run(cfg)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_modular_constant_closed_form_and_failure():
    # theta = phi = t^2: the least C with C^2 sum m F^2 >= sum m A^2
    rng = np.random.default_rng(3)
    sfA, sfF = (StepFunction.from_samples(rng.uniform(0.0, 2.0, 20), rng.uniform(0.01, 0.1, 20))
                for _ in range(2))
    phi = PowerYoung(2.0)
    want = math.sqrt(np.sum(sfA.measures * sfA.values ** 2)
                     / np.sum(sfF.measures * sfF.values ** 2))
    assert _modular_constant(phi, phi, sfA, sfF) == pytest.approx(want, rel=1e-9)
    zero = StepFunction(np.zeros(3), np.full(3, 0.1))
    assert _modular_constant(phi, phi, zero, sfF) == 0.0
    # no C makes a zero right side reach a positive left side
    with pytest.raises(ValueError, match="no finite"):
        _modular_constant(phi, phi, sfA, zero)


_SCIPY_PROBE = """
import sys
import numpy as np
import plaplab, plaplab.lab.experiments

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()[:3]
from plaplab.grid import ElemField, Mesh, NodalField, write_elem_field, write_nodal_field
from plaplab.lab.cli import main
mesh = Mesh((0, 1, 0, 1), 8)
write_elem_field(sys.argv[1], ElemField(np.random.default_rng(0).normal(size=(128, 1, 2))))
assert main(["norm-table", "--field", sys.argv[1], "--grid", "8", "--out", sys.argv[2]]) == 0
assert not scipy_modules(), scipy_modules()[:3]
from plaplab import DirichletProblem, Exponent, SolverConfig, solve
g = mesh.nodes[mesh.boundary_nodes, :1] ** 2
sol = solve(DirichletProblem(Exponent(3.0), mesh, ElemField.zeros(mesh), g))
assert "scipy.linalg" in sys.modules
assert sol.residual <= SolverConfig().tol_residual, sol.residual
print("ok")
"""


def test_importing_the_experiments_leaves_scipy_special_out(tmp_path):
    # scipy costs about 0.3 s at every start, scipy.special about 50 ms of it:
    # the experiments and norm-table load none of it, and LAPACK's banded
    # solver loads at the first solve
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "field.csv"), str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("ok")
