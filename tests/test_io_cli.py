import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tuttedeform import cli, tutte

from tuttedeform import checkpoint as ckpt
from tuttedeform.errors import InternalError
from tuttedeform.fileio import (Normalization, fit_normalization, load_geometry,
                                normalize_jointly, save_geometry)
from tuttedeform.jobfile import ConfigError, load_jobfile

from conftest import random_net


# Malformed geometry files that must be rejected with a ValueError.
MALFORMED = {
    "no_count.ply": "ply\nformat ascii 1.0\nelement vertex\n"
                    "property float x\nend_header\n",
    "empty_face.ply": "ply\nformat ascii 1.0\nelement vertex 3\n"
                      "property float x\nproperty float y\nproperty float z\n"
                      "element face 1\nproperty list uchar int vertex_indices\n"
                      "end_header\n0 0 0\n1 0 0\n0 1 0\n\n",
    "scalar_dims.json": json.dumps({"dims": 5, "origin": [0, 0, 0],
                                    "spacing": [1, 1, 1], "values": [1, 2, 3, 4, 5]}),
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "tuttedeform.cli", *args],
                          capture_output=True, text=True)


# ---------------------------------------------------------------- geometry

def test_obj_parse_features(tmp_path):
    p = tmp_path / "m.obj"
    p.write_text("# comment\n"
                 "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
                 "f 1 2 3 4\n"          # quad, fan-triangulated
                 "f -4//1 -3/2/1 -2\n")  # negative indices and v/vt/vn forms
    g = load_geometry(p, normalize=False)
    assert g.points.shape == (4, 3)
    assert g.triangles.shape == (3, 3)
    assert np.array_equal(g.triangles[0], [0, 1, 2])
    assert np.array_equal(g.triangles[2], [0, 1, 2])


def test_obj_rejects_bad_face(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nf 1 2 3\n")
    with pytest.raises(ValueError):
        load_geometry(p)


def test_ply_parse_with_weights(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text("ply\nformat ascii 1.0\n"
                 "element vertex 3\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "property float density\n"
                 "element face 1\nproperty list uchar int vertex_indices\n"
                 "end_header\n"
                 "0 0 0 1.5\n1 0 0 2.5\n0 1 0 3.5\n"
                 "3 0 1 2\n")
    g = load_geometry(p, normalize=False)
    assert np.array_equal(g.weights, [1.5, 2.5, 3.5])
    assert np.array_equal(g.triangles, [[0, 1, 2]])


def test_ply_rejects_binary(tmp_path):
    p = tmp_path / "b.ply"
    p.write_text("ply\nformat binary_little_endian 1.0\n"
                 "element vertex 0\nend_header\n")
    with pytest.raises(ValueError):
        load_geometry(p)
    for name in ("no_count.ply", "empty_face.ply"):
        p = tmp_path / name
        p.write_text(MALFORMED[name])
        with pytest.raises(ValueError, match="PLY line"):
            load_geometry(p)


def test_grid_layout_and_threshold(tmp_path):
    # 2x1x2 grid, values laid out in C order with z fastest
    p = tmp_path / "g.json"
    json.dump({"dims": [2, 1, 2], "origin": [0, 0, 0], "spacing": [1, 1, 1],
               "values": [0.0, 2.0, 3.0, 0.5]}, open(p, "w"))
    g = load_geometry(p, grid_threshold=1.0, normalize=False)
    # kept cells: (0,0,1) value 2 and (1,0,0) value 3, at the cell centers
    assert np.allclose(sorted(g.points.tolist()), [[0.5, 0.5, 1.5], [1.5, 0.5, 0.5]])
    assert sorted(g.weights.tolist()) == [2.0, 3.0]
    json.dump({"dims": [2, 1, 2], "origin": [0, 0, 0], "spacing": [1, 1, 1],
               "values": [0.0]}, open(p, "w"))
    with pytest.raises(ValueError):
        load_geometry(p)
    p.write_text(MALFORMED["scalar_dims.json"])
    with pytest.raises(ValueError, match="dims"):
        load_geometry(p)


def test_normalization_bounds_and_roundtrip():
    rng = np.random.default_rng(0)
    pts = rng.uniform([-3, 5, 0], [9, 6, 40], size=(500, 3))
    tr = fit_normalization(pts)
    q = tr.apply(pts)
    assert np.abs(q).max() <= 0.7 + 1e-12
    # the longest axis spans the full target box
    assert np.isclose(q[:, 2].max() - q[:, 2].min(), 1.4, atol=1e-3)
    assert np.abs(tr.invert(q) - pts).max() < 1e-9


def test_joint_normalization_shares_transform(tmp_path):
    a = load_geometry(_write_obj(tmp_path / "a.obj", np.array([[0, 0, 0], [1, 0, 0]])))
    b = load_geometry(_write_obj(tmp_path / "b.obj", np.array([[0, 0, 0], [3, 0, 0]])))
    tr = normalize_jointly(a, b)
    assert a.transform is tr and b.transform is tr
    assert np.isclose(b.points[:, 0].max(), 0.7)
    assert np.isclose(a.points[1, 0] - a.points[0, 0], (0.7 + 0.7) / 3)


def _write_obj(path, pts, tris=None):
    lines = [f"v {p[0]} {p[1]} {p[2]}" for p in np.asarray(pts)]
    if tris is not None:
        lines += [f"f {a+1} {b+1} {c+1}" for a, b, c in tris]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_save_load_roundtrips(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(50, 3))
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    w = rng.uniform(0, 2, size=50)
    for name in ("r.obj", "r.ply"):
        path = tmp_path / name
        save_geometry(path, pts, triangles=tris,
                      weights=w if name.endswith(".ply") else None)
        g = load_geometry(path, normalize=False)
        assert np.array_equal(g.points, pts)  # %.17g is repr-exact
        assert np.array_equal(g.triangles, tris)
        if name.endswith(".ply"):
            assert np.array_equal(g.weights, w)
        assert not os.path.exists(str(path) + ".tmp")


# ---------------------------------------------------------------- job files

def _base_job(tmp_path, **over):
    geom = _write_obj(tmp_path / "geo.obj",
                      np.random.default_rng(2).uniform(-1, 1, size=(100, 3)))
    job = {
        "workflow": "elastic",
        "seed": 3,
        "net": {"layers": 2, "resolution": 5},
        "optimizer": {"max_steps": 5},
        "constraints": [
            {"region": {"kind": "box", "min": [-2, -2, -2], "max": [2, 2, 0]},
             "static": True},
            {"region": {"kind": "sphere", "center": [0, 0, 0.8], "radius": 1.0},
             "motion": {"translation": [0.05, 0, 0]}},
        ],
        "input": {"geometry": "geo.obj"},
        "output": {"checkpoint": "out.ckpt.json"},
    }
    job.update(over)
    path = tmp_path / "job.json"
    json.dump(job, open(path, "w"))
    return path


def test_jobfile_defaults(tmp_path):
    job = load_jobfile(_base_job(tmp_path))
    assert job.budgets == {"moving": 10000, "static": 15000, "free": 10000}
    assert job.weights.elastic == 0.004 and job.weights.reg == 0.005
    assert job.lr.initial == 0.02 and job.lr.decay_steps == 4000
    assert job.net.layers == 2 and job.net.resolution == 5
    assert os.path.isabs(job.inputs["geometry"])


def test_jobfile_rejects_unknown_keys(tmp_path):
    path = _base_job(tmp_path, net={"layers": 2, "resolutionn": 5})
    with pytest.raises(ConfigError) as ei:
        load_jobfile(path)
    assert "$.net" in str(ei.value) and "resolutionn" in str(ei.value)


def test_jobfile_rejects_bad_workflow(tmp_path):
    with pytest.raises(ConfigError):
        load_jobfile(_base_job(tmp_path, workflow="train"))


def test_jobfile_requires_inputs(tmp_path):
    path = _base_job(tmp_path, input={})
    with pytest.raises(ConfigError) as ei:
        load_jobfile(path)
    assert "input.geometry" in str(ei.value)


def test_jobfile_missing_file(tmp_path):
    path = _base_job(tmp_path, input={"geometry": "nope.obj"})
    with pytest.raises(ConfigError) as ei:
        load_jobfile(path)
    assert "nope.obj" in str(ei.value)


def test_jobfile_region_validation(tmp_path):
    bad_box = [{"region": {"kind": "box", "min": [1, 1, 1], "max": [0, 2, 2]},
                "static": True}]
    with pytest.raises(ConfigError):
        load_jobfile(_base_job(tmp_path, constraints=bad_box))
    bad_sphere = [{"region": {"kind": "sphere", "center": [0, 0, 0]},
                   "static": True}]
    with pytest.raises(ConfigError):
        load_jobfile(_base_job(tmp_path, constraints=bad_sphere))
    conflict = [{"region": {"kind": "sphere", "center": [0, 0, 0], "radius": 1},
                 "static": True, "motion": {"translation": [0.1, 0, 0]}}]
    with pytest.raises(ConfigError):
        load_jobfile(_base_job(tmp_path, constraints=conflict))


def test_region_membership():
    from tuttedeform.jobfile import _parse_region
    pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [0, 0, -1.0]])
    sphere = _parse_region({"kind": "sphere", "center": [0, 0, 0], "radius": 1.5}, "$")
    assert sphere.contains(pts).tolist() == [True, False, True]
    box = _parse_region({"kind": "box", "min": [-1, -1, -1], "max": [1, 1, 0]}, "$")
    assert box.contains(pts).tolist() == [True, False, True]
    half = _parse_region({"kind": "halfspace", "normal": [0, 0, 2], "offset": 0}, "$")
    assert half.contains(pts).tolist() == [True, True, False]


def test_motion_conjugation():
    from tuttedeform.jobfile import _parse_motion
    m = _parse_motion({"axis": [0, 0, 1], "angle_degrees": 90,
                       "pivot": [1, 0, 0], "translation": [0, 0, 0.5]}, "$")
    p = np.array([2.0, 0.0, 0.0])
    raw_target = m.rotation @ p + m.translation
    assert np.allclose(raw_target, [1.0, 1.0, 0.5])
    tr = Normalization(center=np.array([1.0, 0, 0]), scale=0.5)
    R, t = m.in_normalized(tr)
    assert np.allclose(R @ tr.apply(p) + t, tr.apply(raw_target))


def test_overflowing_region_and_motion_name_the_field():
    from tuttedeform.jobfile import _parse_motion, _parse_region
    probes = [
        (_parse_region, {"kind": "halfspace", "normal": [1e308, 1e308, 0], "offset": 0},
         "normal"),
        (_parse_region, {"kind": "halfspace", "normal": [1e-150, 0, 0], "offset": 1e308},
         "offset"),
        (_parse_motion, {"angle_degrees": 1e308}, "angle_degrees"),
        (_parse_motion, {"axis": [1e308, 1e308, 0], "angle_degrees": 20}, "axis"),
        (_parse_motion, {"pivot": [1e308, 0, 0], "angle_degrees": 20}, "pivot"),
        (_parse_motion, {"translation": [1e200, 0, 0]}, "translation"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parse, d, field in probes:
            with pytest.raises(ConfigError, match=rf"\$\.{field}.* overflows float64"):
                parse(d, "$")


# --------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(4)
    net = random_net(rng, resolution=5, layers=3, scale=1.3)
    ck = ckpt.from_net(net, seed=7)
    path = tmp_path / "a.json"
    ckpt.save_checkpoint(path, ck)
    loaded = ckpt.load_checkpoint(path)
    path2 = tmp_path / "b.json"
    ckpt.save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()
    for p, q in zip(ck.params, loaded.params):
        assert np.array_equal(p.raw_edge_weights, q.raw_edge_weights)
    net2 = loaded.realize()
    pts = rng.uniform(-0.8, 0.8, size=(50, 3))
    from tuttedeform.deform import forward
    assert np.array_equal(forward(net, pts), forward(net2, pts))


def test_checkpoint_triplane_kind_detected(tmp_path):
    rng = np.random.default_rng(5)
    net = random_net(rng, resolution=5, layers=4)
    d = ckpt.to_dict(ckpt.from_net(net))
    assert d["frames"] == {"kind": "triplane"}
    assert "seed" not in d


def test_checkpoint_rejects_foreign_files():
    with pytest.raises(ValueError):
        ckpt.from_dict({"format": "something-else"})
    with pytest.raises(ValueError):
        ckpt.from_dict({"format": "tuttedeform-checkpoint", "version": 99})


# ---------------------------------------------------------------------- CLI

@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    """One tiny elastic run shared by the CLI tests."""
    work = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(6)
    pts = rng.uniform([-0.15, -0.15, -0.6], [0.15, 0.15, 0.6], size=(800, 3))
    _write_obj(work / "bar.obj", pts)
    job = {
        "workflow": "elastic", "seed": 5,
        "net": {"layers": 2, "resolution": 7},
        "optimizer": {"max_steps": 10, "log_every": 100},
        "samples": {"moving": 200, "static": 300, "free": 200},
        "constraints": [
            {"region": {"kind": "halfspace", "normal": [0, 0, -1], "offset": 0.35},
             "static": True},
            {"region": {"kind": "halfspace", "normal": [0, 0, 1], "offset": 0.35},
             "motion": {"axis": [1, 0, 0], "angle_degrees": 5,
                        "pivot": [0, 0, 0.45]}},
        ],
        "input": {"geometry": "bar.obj"},
        "output": {"checkpoint": "bar.ckpt.json", "report": "bar.csv"},
    }
    json.dump(job, open(work / "job.json", "w"))
    r = run_cli("elastic", str(work / "job.json"), "--quiet")
    assert r.returncode == 0, r.stderr
    return work


def test_cli_elastic_outputs(cli_workdir):
    assert (cli_workdir / "bar.ckpt.json").exists()
    report = (cli_workdir / "bar.csv").read_text().splitlines()
    assert report[0] == "metric,value"
    assert any(row.startswith("min_triangle_det,") for row in report)


def test_cli_check_passes(cli_workdir):
    json.dump({"workflow": "check", "input": {"checkpoint": "bar.ckpt.json"}},
              open(cli_workdir / "check.json", "w"))
    r = run_cli("check", str(cli_workdir / "check.json"))
    assert r.returncode == 0, r.stdout + r.stderr
    assert "check=PASS name=triangle_orientation" in r.stdout
    assert "check=PASS name=inverse_roundtrip" in r.stdout


@pytest.mark.parametrize("folded", [[3], [1, 3]])
def test_certificate_failure_names_the_layer(tmp_path, monkeypatch, capsys, folded):
    # Reversing a layer's boundary loop turns its embedding over, so every
    # triangle of that layer has a negative determinant.
    net = random_net(np.random.default_rng(11), resolution=5, layers=5)
    ck = ckpt.from_net(net)
    ckpt.save_checkpoint(tmp_path / "net.ckpt.json", ck)
    build = tutte.build_boundary

    def reversed_loops(mesh, params):
        b = build(mesh, params)
        points = b.points.copy()
        points[folded] = points[folded, ::-1]
        return tutte.ConvexBoundary(angles=b.angles, points=points)

    monkeypatch.setattr(tutte, "build_boundary", reversed_loops)
    with pytest.raises(InternalError) as err:
        ck.realize()
    message = str(err.value)
    assert message.startswith(f"injectivity certificate failed in layer {folded[0]}: "
                              "min determinant -")
    json.dump({"workflow": "check", "input": {"checkpoint": "net.ckpt.json"}},
              open(tmp_path / "check.json", "w"))
    assert cli.main(["check", str(tmp_path / "check.json"), "--quiet"]) == 1
    assert capsys.readouterr().out == (
        f"check=FAIL name=injectivity_certificate error={message}\n")


def test_cli_apply_invert_roundtrip(cli_workdir):
    json.dump({"workflow": "apply",
               "input": {"geometry": "bar.obj", "checkpoint": "bar.ckpt.json"},
               "output": {"geometry": "fwd.obj"}},
              open(cli_workdir / "apply.json", "w"))
    json.dump({"workflow": "invert",
               "input": {"geometry": "fwd.obj", "checkpoint": "bar.ckpt.json"},
               "output": {"geometry": "back.obj"}},
              open(cli_workdir / "invert.json", "w"))
    assert run_cli("apply", str(cli_workdir / "apply.json"), "--quiet").returncode == 0
    assert run_cli("invert", str(cli_workdir / "invert.json"), "--quiet").returncode == 0
    orig = load_geometry(cli_workdir / "bar.obj", normalize=False)
    back = load_geometry(cli_workdir / "back.obj", normalize=False)
    assert np.abs(back.points - orig.points).max() < 1e-8


def test_cli_report(cli_workdir):
    json.dump({"workflow": "report",
               "input": {"checkpoint": "bar.ckpt.json", "geometry": "bar.obj"},
               "output": {"report": "diag.csv"}},
              open(cli_workdir / "report.json", "w"))
    r = run_cli("report", str(cli_workdir / "report.json"), "--quiet")
    assert r.returncode == 0, r.stderr
    text = (cli_workdir / "diag.csv").read_text()
    assert "strain_energy_mean" in text and "sample_count" in text


def test_cli_workflow_mismatch_is_config_error(cli_workdir):
    r = run_cli("fit", str(cli_workdir / "job.json"))
    assert r.returncode == 2
    assert "workflow" in r.stderr


def test_cli_unknown_key_is_config_error(cli_workdir):
    bad = json.load(open(cli_workdir / "job.json"))
    bad["outputs"] = bad.pop("output")
    json.dump(bad, open(cli_workdir / "bad.json", "w"))
    r = run_cli("elastic", str(cli_workdir / "bad.json"))
    assert r.returncode == 2
    assert "outputs" in r.stderr


def test_cli_corrupt_checkpoint_is_config_error(cli_workdir):
    (cli_workdir / "corrupt.json").write_text('{"format": "nope"}')
    json.dump({"workflow": "check", "input": {"checkpoint": "corrupt.json"}},
              open(cli_workdir / "check_bad.json", "w"))
    r = run_cli("check", str(cli_workdir / "check_bad.json"))
    assert r.returncode == 2


def test_cli_empty_region_is_config_error(cli_workdir):
    job = json.load(open(cli_workdir / "job.json"))
    job["constraints"][1]["region"] = {"kind": "sphere",
                                       "center": [50, 50, 50], "radius": 1}
    job["output"] = {"checkpoint": "unused.ckpt.json"}
    json.dump(job, open(cli_workdir / "job_empty.json", "w"))
    r = run_cli("elastic", str(cli_workdir / "job_empty.json"))
    assert r.returncode == 2
    assert "selects no geometry" in r.stderr


def test_cli_out_of_domain_apply_is_numerical_error(cli_workdir):
    rng = np.random.default_rng(7)
    _write_obj(cli_workdir / "huge.obj", rng.uniform(-50, 50, size=(20, 3)))
    json.dump({"workflow": "apply",
               "input": {"geometry": "huge.obj", "checkpoint": "bar.ckpt.json"},
               "output": {"geometry": "huge_out.obj"}},
              open(cli_workdir / "apply_huge.json", "w"))
    r = run_cli("apply", str(cli_workdir / "apply_huge.json"))
    assert r.returncode == 3


def test_cli_seed_override_recorded(cli_workdir):
    job = json.load(open(cli_workdir / "job.json"))
    job["output"] = {"checkpoint": "seeded.ckpt.json"}
    json.dump(job, open(cli_workdir / "job_seed.json", "w"))
    r = run_cli("elastic", str(cli_workdir / "job_seed.json"),
                "--seed", "42", "--quiet")
    assert r.returncode == 0, r.stderr
    ck = json.load(open(cli_workdir / "seeded.ckpt.json"))
    assert ck["seed"] == 42


def test_cli_elastic_zero_steps(cli_workdir):
    job = json.load(open(cli_workdir / "job.json"))
    job["optimizer"]["max_steps"] = 0
    job["output"] = {"checkpoint": "zero.ckpt.json", "report": "zero.csv"}
    json.dump(job, open(cli_workdir / "job_zero.json", "w"))
    r = run_cli("elastic", str(cli_workdir / "job_zero.json"), "--quiet")
    assert r.returncode == 0, r.stderr
    rows = dict(row.split(",", 1)
                for row in (cli_workdir / "zero.csv").read_text().splitlines())
    assert rows["steps_run"] == "0"
    assert np.isfinite(float(rows["final_loss"]))


def test_cli_malformed_geometry_is_config_error(cli_workdir):
    for name, text in MALFORMED.items():
        (cli_workdir / name).write_text(text)
        json.dump({"workflow": "report",
                   "input": {"checkpoint": "bar.ckpt.json", "geometry": name},
                   "output": {"report": "malformed.csv"}},
                  open(cli_workdir / "report_bad.json", "w"))
        r = run_cli("report", str(cli_workdir / "report_bad.json"))
        assert r.returncode == 2, (name, r.stderr)
        assert "Traceback" not in r.stderr, name


# ------------------------------------------------------- extreme-value jobs

_HUGE = [1e150, 1e200, 1e300, 1e308, sys.float_info.max]
_TINY = [5e-324, 1e-300, 1e-150]


def _extreme(nonneg=False):
    """Finite floats, biased towards the magnitudes that overflow."""
    mags = st.sampled_from(_HUGE + _TINY + [0.0, 0.05, 1.0])
    if not nonneg:
        mags = st.builds(lambda m, neg: -m if neg else m, mags, st.booleans())
    return st.one_of(mags, st.floats(min_value=0.0 if nonneg else None,
                                     allow_nan=False, allow_infinity=False))


def _vec3(component):
    return st.lists(component, min_size=3, max_size=3)


def _run_main(*args):
    """``cli.main`` in process: exit code, stderr text and RuntimeWarnings."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([*args, "--quiet"])
    return code, err.getvalue(), [str(w.message) for w in caught
                                  if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def extreme_workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("extreme")
    rng = np.random.default_rng(8)
    _write_obj(work / "bar.obj",
               rng.uniform([-0.15, -0.15, -0.6], [0.15, 0.15, 0.6], size=(300, 3)))
    return work


# The settings of a plain job; each probe below overrides some of them.
_PLAIN = dict(layers=1, res=3, steps=3, budget=100, center=[0.0, 0.0, 0.5], radius=0.2,
              translation=[0.05, 0.0, 0.0], elastic=0.004, normal=[0.0, 0.0, -1.0],
              offset=0.35, angle=0.0, axis=[0.0, 0.0, 1.0], pivot=[0.0, 0.0, 0.0],
              lr_initial=0.02, lr_final=0.0002, handle=1.0, reg=0.005,
              decrement=0.001, floor=0.001, box=None, stop_rel_tol=0.0,
              grid_threshold=1.0)


def _probe(**over):
    return example(**{**_PLAIN, **over})


def _plain_or(strategy, key):
    return st.one_of(st.just(_PLAIN[key]), strategy)


_POSITIVE = _extreme(nonneg=True).filter(lambda r: r > 0)


@settings(max_examples=50, deadline=None)
@given(layers=st.integers(1, 2), res=st.integers(2, 5), steps=st.integers(0, 3),
       budget=st.integers(1, 200),
       center=_plain_or(_vec3(_extreme()), "center"),
       radius=_plain_or(_POSITIVE, "radius"),
       translation=_plain_or(_vec3(_extreme()), "translation"),
       elastic=_plain_or(_extreme(nonneg=True), "elastic"),
       normal=_plain_or(_vec3(_extreme()), "normal"),
       offset=_plain_or(_extreme(), "offset"),
       angle=_plain_or(_extreme(), "angle"),
       axis=_plain_or(_vec3(_extreme()), "axis"),
       pivot=_plain_or(_vec3(_extreme()), "pivot"),
       lr_initial=_plain_or(_POSITIVE, "lr_initial"),
       lr_final=_plain_or(_POSITIVE, "lr_final"),
       handle=_plain_or(_extreme(nonneg=True), "handle"),
       reg=_plain_or(_extreme(nonneg=True), "reg"),
       decrement=_plain_or(_extreme(nonneg=True), "decrement"),
       floor=_plain_or(_extreme(nonneg=True), "floor"),
       box=_plain_or(st.tuples(_vec3(_extreme()), _vec3(_extreme())), "box"),
       stop_rel_tol=_plain_or(_extreme(nonneg=True), "stop_rel_tol"),
       grid_threshold=_plain_or(_extreme(), "grid_threshold"))
@_probe(translation=[1e200, 0.0, 0.0])
@_probe(elastic=1e308)
@_probe(center=[0.0, 0.0, 0.0], radius=1e308)
@_probe(steps=0, translation=[1e200, 0.0, 0.0])
@_probe(normal=[1e308, 1e308, 0.0], offset=0.0)
@_probe(angle=1e308)
@_probe(angle=20.0, axis=[1e308, 1e308, 0.0])
@_probe(angle=20.0, pivot=[1e308, 0.0, 0.0])
@_probe(handle=1e308)
@_probe(reg=1e308)
@_probe(floor=1e308)
@_probe(lr_initial=1e308)
@_probe(box=([-1e308, -1e308, -1e308], [1e308, 1e308, 0.0]))
@_probe(stop_rel_tol=1e308)
@_probe(grid_threshold=1e308)
def test_cli_extreme_values_exit_cleanly(extreme_workdir, layers, res, steps,
                                         budget, center, radius, translation,
                                         elastic, normal, offset, angle, axis, pivot,
                                         lr_initial, lr_final, handle, reg,
                                         decrement, floor, box, stop_rel_tol,
                                         grid_threshold):
    """Schema-valid elastic jobs with extreme floats in the regions, the
    motion, the learning rates and the loss weights run, or fail with a
    documented exit code, without a traceback or a NumPy warning."""
    static = ({"kind": "halfspace", "normal": normal, "offset": offset} if box is None
              else {"kind": "box", "min": box[0], "max": box[1]})
    job = {
        "workflow": "elastic",
        "net": {"layers": layers, "resolution": res},
        "optimizer": {"max_steps": steps, "log_every": 1, "stop_rel_tol": stop_rel_tol,
                      "learning_rate": {"initial": lr_initial, "final": lr_final}},
        "loss": {"handle": handle, "regularization": reg,
                 "elastic": {"initial": elastic, "decrement": decrement,
                             "floor": floor}},
        "samples": {"moving": budget, "static": budget, "free": budget,
                    "grid_threshold": grid_threshold},
        "constraints": [
            {"region": static, "static": True},
            {"region": {"kind": "sphere", "center": center, "radius": radius},
             "motion": {"translation": translation, "angle_degrees": angle,
                        "axis": axis, "pivot": pivot}},
        ],
        "input": {"geometry": "bar.obj"},
        "output": {"checkpoint": "x.ckpt.json", "report": "x.csv"},
    }
    path = extreme_workdir / "job.json"
    path.write_text(json.dumps(job))
    (extreme_workdir / "x.csv").unlink(missing_ok=True)
    code, err, warned = _run_main("elastic", str(path))
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert not warned, warned
    if code == 0:
        rows = dict(row.split(",", 1) for row in
                    (extreme_workdir / "x.csv").read_text().splitlines())
        assert np.isfinite(float(rows["final_loss"]))


def _plain_job(geometry="bar.obj"):
    return {
        "workflow": "elastic",
        "net": {"layers": 1, "resolution": 3},
        "optimizer": {"max_steps": 2},
        "samples": {"moving": 50, "static": 50, "free": 50},
        "constraints": [
            {"region": {"kind": "halfspace", "normal": [0, 0, -1], "offset": 0.35},
             "static": True},
            {"region": {"kind": "halfspace", "normal": [0, 0, 1], "offset": 0.35},
             "motion": {"translation": [0.05, 0, 0]}},
        ],
        "input": {"geometry": geometry},
        "output": {"checkpoint": "x.ckpt.json"},
    }


@pytest.mark.parametrize("keys, literal", [
    (("loss", "handle"), "NaN"),
    (("loss", "elastic", "floor"), "NaN"),
    (("optimizer", "stop_rel_tol"), "NaN"),
    (("samples", "grid_threshold"), "NaN"),
    (("constraints", 0, "region", "offset"), "NaN"),
    (("loss", "handle"), "Infinity"),
    (("constraints", 1, "motion", "translation", 0), "-Infinity"),
])
def test_jobfile_non_finite_literals_are_config_errors(extreme_workdir, keys, literal):
    # Python's json reads these literals as floats, and a schema "minimum"
    # lets NaN through, so only the parser can reject them.
    job = _plain_job()
    node = job
    for k in keys[:-1]:
        node = node.setdefault(k, {}) if isinstance(node, dict) else node[k]
    node[keys[-1]] = float(literal.replace("Infinity", "inf"))
    path = extreme_workdir / "literal.json"
    path.write_text(json.dumps(job))
    assert literal in path.read_text()
    code, err, warned = _run_main("elastic", str(path))
    assert code == 2, err
    assert f"{literal} is not a JSON number" in err
    assert "Traceback" not in err and not warned


_NUMBER_FIELDS = [("optimizer", "learning_rate", "initial"),
                  ("optimizer", "learning_rate", "final"),
                  ("optimizer", "stop_rel_tol"), ("loss", "handle"),
                  ("loss", "regularization"), ("loss", "elastic", "initial"),
                  ("loss", "elastic", "decrement"), ("loss", "elastic", "floor"),
                  ("loss", "gradient_weight"), ("samples", "grid_threshold")]


# Regions to put in place before overflowing one of their fields, by field.
_BOX = {"kind": "box", "min": [-1, -1, -1], "max": [1, 1, -0.35]}
_SPHERE = {"kind": "sphere", "center": [0, 0, 0.5], "radius": 0.2}
_REGIONS = {"min": _BOX, "max": _BOX, "center": _SPHERE}


@pytest.mark.parametrize("keys, literal", [
    *[(keys, "1e999") for keys in _NUMBER_FIELDS],
    (("samples", "grid_threshold"), "-1e999"),
    (("loss", "handle"), "1" + "0" * 400),
    (("constraints", 0, "region", "min", 0), "1e999"),
    (("constraints", 0, "region", "max", 2), "-1e999"),
    (("constraints", 1, "region", "center", 1), "1e999"),
    (("constraints", 1, "region", "center", 0), "1" + "0" * 400),
    (("constraints", 0, "region", "normal", 2), "1" + "0" * 400),
    (("constraints", 0, "region", "offset"), "1" + "0" * 400),
    (("constraints", 1, "motion", "translation", 0), "1" + "0" * 400),
    (("constraints", 1, "motion", "angle_degrees"), "1" + "0" * 400),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else
   "int400digits" if len(v) > 20 else v)
def test_jobfile_overflowing_numbers_name_the_field(extreme_workdir, keys, literal):
    # Python's json reads these as inf (or an int no float can hold); these
    # fields used to pass them on, and a job ran to exit 0 or failed at step 0.
    job = _plain_job()
    if "region" in keys and keys[3] in _REGIONS:
        job["constraints"][keys[1]]["region"] = json.loads(json.dumps(_REGIONS[keys[3]]))
    node = job
    for k in keys[:-1]:
        node = node.setdefault(k, {}) if isinstance(node, dict) else node[k]
    node[keys[-1]] = 7777.25
    path = extreme_workdir / "overflow.json"
    path.write_text(json.dumps(job).replace("7777.25", literal))
    code, err, warned = _run_main("elastic", str(path))
    assert code == 2, err
    # A vector's entry is named by its vector.
    named = keys[:-1] if isinstance(keys[-1], int) else keys
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in named)
    assert f"${field} overflows float64" in err
    assert "Traceback" not in err and not warned


@pytest.mark.parametrize("name, pts", [
    ("huge.obj", 1e308 * np.random.default_rng(9).uniform(-1, 1, size=(40, 3))),
    ("tiny.obj", 1e-320 * np.random.default_rng(9).uniform(0, 1, size=(40, 3))),
])
def test_geometry_that_cannot_be_normalized_is_config_error(extreme_workdir, name, pts):
    with pytest.raises(ValueError, match="cannot be normalized"):
        fit_normalization(pts)
    _write_obj(extreme_workdir / name, pts)
    path = extreme_workdir / "extent.json"
    path.write_text(json.dumps(_plain_job(name)))
    code, err, warned = _run_main("elastic", str(path))
    assert code == 2, err
    assert "cannot be normalized" in err
    assert "Traceback" not in err and not warned


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_checkpoint_non_finite_literals_are_config_errors(extreme_workdir, literal):
    # Python's json reads these as floats: a NaN scale used to pass the
    # parser and be blamed on the first query point ("point 0 is not finite").
    d = ckpt.to_dict(ckpt.from_net(random_net(np.random.default_rng(10), 3, 1)))
    d["normalization"]["scale"] = float(literal.replace("Infinity", "inf"))
    ck_path = extreme_workdir / "literal.ckpt.json"
    ck_path.write_text(json.dumps(d))
    assert literal in ck_path.read_text()
    path = extreme_workdir / "apply_literal.json"
    json.dump({"workflow": "apply",
               "input": {"geometry": "bar.obj", "checkpoint": ck_path.name},
               "output": {"geometry": "unused.obj"}}, open(path, "w"))
    code, err, warned = _run_main("apply", str(path))
    assert code == 2, err
    assert f"{ck_path}: {literal} is not a JSON number" in err
    assert "Traceback" not in err and not warned


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_grid_file_non_finite_literals_are_config_errors(extreme_workdir, literal):
    # A NaN value used to drop its cell silently (NaN > threshold is false).
    grid = extreme_workdir / "literal_grid.json"
    value = float(literal.replace("Infinity", "inf"))
    grid.write_text(json.dumps({"dims": [2, 2, 2], "origin": [-0.5, -0.5, -0.5],
                                "spacing": [0.5, 0.5, 0.5], "values": [2.0] * 7 + [value]}))
    assert literal in grid.read_text()
    path = extreme_workdir / "grid_job.json"
    path.write_text(json.dumps(_plain_job(grid.name)))
    code, err, warned = _run_main("elastic", str(path))
    assert code == 2, err
    assert f"{grid}: {literal} is not a JSON number" in err
    assert "Traceback" not in err and not warned


@pytest.mark.parametrize("literal", ["1e999", "-1E+400", "1" + "0" * 400],
                         ids=["1e999", "-1E+400", "int400digits"])
def test_checkpoint_overflowing_numbers_are_config_errors(extreme_workdir, literal):
    # Python's json reads these as inf (or an int no float can hold): an
    # overflowing scale used to be blamed on the first query point.
    d = ckpt.to_dict(ckpt.from_net(random_net(np.random.default_rng(10), 3, 1)))
    d["normalization"]["scale"] = "SCALE"
    ck_path = extreme_workdir / "overflow.ckpt.json"
    ck_path.write_text(json.dumps(d).replace('"SCALE"', literal))
    path = extreme_workdir / "apply_overflow.json"
    path.write_text(json.dumps({"workflow": "apply",
                                "input": {"geometry": "bar.obj", "checkpoint": ck_path.name},
                                "output": {"geometry": "unused.obj"}}))
    code, err, warned = _run_main("apply", str(path))
    assert code == 2, err
    assert f"{ck_path}: {literal} overflows float64" in err
    assert "Traceback" not in err and not warned


def _checkpoint_dict(kind):
    """A small checkpoint, as parsed JSON, with every optional key."""
    net = random_net(np.random.default_rng(11), 3, 2)
    return ckpt.to_dict(ckpt.from_net(net, seed=3, config_hash="sha256:0",
                                      frames_kind=kind))


def _run_on_checkpoint(work, command, d):
    """Exit code, stderr, RuntimeWarnings and the file of ``command`` run
    on the checkpoint ``d``."""
    ck_path = work / "malformed.ckpt.json"
    ck_path.write_text(json.dumps(d))
    job = {"workflow": command, "input": {"checkpoint": ck_path.name}}
    if command == "apply":
        job["input"]["geometry"] = "bar.obj"
        job["output"] = {"geometry": "unused.obj"}
    path = work / "malformed_job.json"
    path.write_text(json.dumps(job))
    return (*_run_main(command, str(path)), ck_path)


def _at(d, keys, value=None, delete=False):
    """A deep copy of ``d`` with the value at ``keys`` replaced or deleted."""
    if not keys:
        return value
    d = json.loads(json.dumps(d))
    node = d
    for k in keys[:-1]:
        node = node[k]
    if delete:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return d


@pytest.mark.parametrize("command", ["apply", "check"])
@pytest.mark.parametrize("kind, keys, value, named", [
    ("triplane", ("resolution",), None, "missing key resolution"),
    ("triplane", ("normalization", "center"), None, "missing key normalization.center"),
    ("triplane", ("frames", "kind"), None, "missing key frames.kind"),
    ("explicit", ("frames", "matrices"), None, "missing key frames.matrices"),
    ("triplane", ("frames",), [], "key frames holds an array, not an object"),
    ("triplane", ("layers",), [2], "key layers holds an array, not an integer"),
    ("triplane", ("raw_edge_weights",), 1.5, "key raw_edge_weights holds a number"),
    ("triplane", (), [], "a checkpoint holds a JSON object, not an array"),
    ("triplane", ("normalization", "scale"), 0.0,
     "key normalization.scale must be positive with a finite inverse, got 0.0"),
    ("triplane", ("normalization", "scale"), 1e-320,
     "key normalization.scale must be positive with a finite inverse, got 1e-320"),
], ids=["no-resolution", "no-center", "no-kind", "no-matrices", "frames-list",
        "layers-list", "weights-number", "top-list", "scale-zero", "scale-subnormal"])
def test_malformed_checkpoint_is_config_error(extreme_workdir, command, kind, keys,
                                              value, named):
    # Each used to escape as a KeyError, TypeError or AttributeError (exit
    # 1), or, for a scale without a finite inverse, to write NaN and inf
    # coordinates with exit 0.
    d = _at(_checkpoint_dict(kind), keys, value, delete=value is None)
    code, err, warned, ck_path = _run_on_checkpoint(extreme_workdir, command, d)
    assert code == 2, err
    assert f"{ck_path}: {named}" in err
    assert "Traceback" not in err and not warned


def _json_paths(node, keys=()):
    """The key path of every value in parsed JSON ``node``, its own first."""
    yield keys
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield from _json_paths(v, keys + (k,))


def _json_type(v):
    return "number" if type(v) in (int, float) else type(v).__name__


# Small values, one of each JSON type: a swap never enlarges a number.
_SWAPS = [None, True, "x", 1, [], {}]


@pytest.mark.parametrize("kind", ["triplane", "explicit"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_mutated_checkpoints_exit_cleanly(extreme_workdir, kind, data):
    """A checkpoint with one key deleted or one value swapped for another
    JSON type is a configuration error, unless the key was an optional one."""
    d = _checkpoint_dict(kind)
    keys = data.draw(st.sampled_from(list(_json_paths(d))), label="keys")
    node = d
    for k in keys:
        node = node[k]
    delete = bool(keys) and isinstance(keys[-1], str) and data.draw(st.booleans(),
                                                                     label="delete")
    value = None if delete else data.draw(st.sampled_from(
        [v for v in _SWAPS if _json_type(v) != _json_type(node)]), label="value")
    command = data.draw(st.sampled_from(["apply", "check"]), label="command")
    code, err, warned, ck_path = _run_on_checkpoint(
        extreme_workdir, command, _at(d, keys, value, delete))
    harmless = delete and keys in (("seed",), ("config_hash",))
    assert code == (0 if harmless else 2), err
    assert harmless or f"{ck_path}: " in err
    assert "Traceback" not in err and not warned


@pytest.mark.parametrize("key", ["values", "origin"])
def test_grid_file_overflowing_numbers_are_config_errors(extreme_workdir, key):
    grid = extreme_workdir / "overflow_grid.json"
    d = {"dims": [2, 2, 2], "origin": [-0.5, -0.5, -0.5],
         "spacing": [0.5, 0.5, 0.5], "values": [2.0] * 8}
    d[key][-1] = "BIG"
    grid.write_text(json.dumps(d).replace('"BIG"', "1e999"))
    path = extreme_workdir / "overflow_grid_job.json"
    path.write_text(json.dumps(_plain_job(grid.name)))
    code, err, warned = _run_main("elastic", str(path))
    assert code == 2, err
    assert f"{grid}: 1e999 overflows float64" in err
    assert "Traceback" not in err and not warned


@pytest.mark.parametrize("command", ["apply", "check"])
@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_checkpoint_edge_weight_rows_of_the_wrong_length(extreme_workdir, command, change):
    # A resolution-3 mesh has 16 edges.  A short or long row used to pass the
    # reader and be rejected by the Tutte solve, naming neither the file nor
    # the key ("expected 16 raw edge weights for resolution 3, got 15").
    d = _checkpoint_dict("triplane")
    row = d["raw_edge_weights"][1]
    d["raw_edge_weights"][1] = row[:change] if change < 0 else row + [0.5] * change
    code, err, warned, ck_path = _run_on_checkpoint(extreme_workdir, command, d)
    assert code == 2, err
    assert f"{ck_path}: key raw_edge_weights[1] must hold an array of 16 numbers" in err
    assert "Traceback" not in err and not warned


def _syntax_error_at(text):
    """json's line and column for the syntax error in ``text``."""
    with pytest.raises(json.JSONDecodeError) as ei:
        json.loads(text)
    return ei.value.lineno, ei.value.colno


def test_checkpoint_json_syntax_error_names_file_line_and_column(extreme_workdir):
    text = json.dumps(_checkpoint_dict("triplane"), indent=1).replace(
        '"layers": 2,', '"layers": 2,,')
    line, col = _syntax_error_at(text)
    assert line > 1
    ck_path = extreme_workdir / "syntax.ckpt.json"
    ck_path.write_text(text)
    path = extreme_workdir / "check_syntax.json"
    path.write_text(json.dumps({"workflow": "check", "input": {"checkpoint": ck_path.name}}))
    code, err, warned = _run_main("check", str(path))
    assert code == 2, err
    assert f"{ck_path}: invalid JSON at line {line} column {col}: " in err
    assert "Traceback" not in err and not warned


def test_grid_file_json_syntax_error_names_file_line_and_column(extreme_workdir):
    grid = extreme_workdir / "syntax_grid.json"
    text = '{"dims": [2, 2, 2],\n "origin": [-0.5, -0.5, -0.5,],\n "spacing": [0.5, 0.5, 0.5]}'
    line, col = _syntax_error_at(text)
    assert line == 2
    grid.write_text(text)
    path = extreme_workdir / "syntax_grid_job.json"
    path.write_text(json.dumps(_plain_job(grid.name)))
    code, err, warned = _run_main("elastic", str(path))
    assert code == 2, err
    assert f"{grid}: invalid JSON at line 2 column {col}: Expecting value" in err
    assert "Traceback" not in err and not warned


def test_jobfile_json_syntax_error_message_is_unchanged(extreme_workdir):
    path = extreme_workdir / "syntax_job.json"
    path.write_text('{"workflow": }')
    code, err, warned = _run_main("elastic", str(path))
    assert code == 2, err
    assert f"{path} is not valid JSON: Expecting value: line 1 column 14 (char 13)" in err
    assert "Traceback" not in err and not warned
