import dataclasses
import json
import sys

import numpy as np
import pytest

from bvpcont import diagram
from bvpcont.cli import main
from bvpcont.continuation import ContinuationConfig
from bvpcont.diagram import (DiagramBundle, RunConfig, emit_svg, run_diagram,
                             run_epsilon_sweep, write_bundle)
from bvpcont.discretize import Discretization, residual
from bvpcont.mesh import mesh_spacings
from bvpcont.seeding import matches_branch
from bvpcont.weight import eval_weight


@pytest.fixture(scope="module")
def pitchfork_bundle():
    cfg = RunConfig(kappa=1, h=0.05, eps=0.0, mesh_n=500, lambda_min=-100.0)
    return cfg, run_diagram(cfg)


def test_run_config_from_dict_nested():
    cfg = RunConfig.from_dict({
        "kappa": 2, "h": 0.15, "eps": 0.3,
        "mesh": {"kind": "uniform", "n": 301},
        "continuation": {"ds": 2.0, "lambda_min": -500.0},
    })
    assert cfg.kappa == 2 and cfg.mesh_n == 301
    assert cfg.ds == 2.0 and cfg.lambda_min == -500.0
    with pytest.raises(ValueError):
        RunConfig.from_dict({"kappa": 1, "bogus": 3})


def test_run_config_mesh_section_keeps_top_level_kind():
    cfg = RunConfig.from_dict({"kappa": 2, "h": 0.25, "mesh_kind": "refined",
                               "mesh": {"fine_dx": 0.001}})
    assert cfg.mesh_kind == "refined" and cfg.fine_dx == 0.001
    assert RunConfig.from_dict({"mesh": {"n": 99}}).mesh_kind == "uniform"
    cfg = RunConfig.from_dict({"mesh_kind": "refined",
                               "mesh": {"kind": "uniform"}})
    assert cfg.mesh_kind == "uniform"


def test_run_config_rejects_unknown_nested_keys():
    for bad in ({"mesh": {"nn": 99}}, {"continuation": {"dss": 0.5}},
                {"continuation": {"dss": 0.5}, "mesh": {"nn": 99}}):
        with pytest.raises(ValueError):
            RunConfig.from_dict(bad)


def test_continuation_section_round_trips_every_field():
    defaults = ContinuationConfig()
    values = {}
    for f in dataclasses.fields(ContinuationConfig):
        v = getattr(defaults, f.name)
        values[f.name] = v + 1 if isinstance(v, int) else v / 2.0
        assert values[f.name] != v
    cfg = RunConfig.from_dict({"continuation": values})
    assert cfg.continuation() == ContinuationConfig(**values)


def _count_calls(monkeypatch, fn):
    """Count calls of fn through every bvpcont module that holds it by name."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "bvpcont" or name.startswith("bvpcont."):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_run_builds_the_operator_once(monkeypatch):
    # weight sampling and cell widths belong to the discretization of a run,
    # not to each residual or Jacobian; the residual count shows the run did
    # enough work for a per-call rebuild to show
    weight_calls = _count_calls(monkeypatch, eval_weight)
    spacing_calls = _count_calls(monkeypatch, mesh_spacings)
    residual_calls = _count_calls(monkeypatch, residual)
    run_diagram(RunConfig(kappa=1, h=0.05, eps=0.0, mesh_n=500,
                          lambda_min=-100.0))
    assert residual_calls[0] >= 100
    # one Discretization; the second spacing call is principal_eigenvalue's
    assert weight_calls[0] == 1
    assert spacing_calls[0] == 2


def test_run_diagram_pitchfork_pipeline(pitchfork_bundle):
    _, bundle = pitchfork_bundle
    assert bundle.provenance["failures"] == []
    roles = [rec.role for rec in bundle.branches]
    assert roles.count("main") == 1
    assert roles.count("switched") == 2
    pf = [e for e in bundle.events if e["kind"] == "pitchfork"]
    assert len(pf) == 1
    assert abs(pf[0]["lambda"] - (-12.40637)) < 5e-2
    # the switched pair is asymmetric, the main branch symmetric
    syms = {rec.role: rec.branch.symmetry for rec in bundle.branches}
    assert syms["main"] == "symmetric"
    sides = sorted(rec.branch.symmetry
                   for rec in bundle.branch_by_role("switched"))
    assert sides == ["asymmetric_left", "asymmetric_right"]


def test_pitchfork_diagram_on_a_mesh_with_a_node_near_the_jump():
    # N = 499 puts nodes at 0.45 and 0.55, one rounding away from the
    # interval edges of kappa=1, h=0.1; both must get the same weight
    bundle = run_diagram(RunConfig(kappa=1, h=0.1, mesh_n=499,
                                   lambda_min=-100.0))
    assert bundle.provenance["failures"] == []
    (main,) = bundle.branch_by_role("main")
    assert main.branch.symmetry == "symmetric"
    assert [e["kind"] for e in bundle.events
            if e["kind"] != "fold"] == ["pitchfork"]
    assert len(bundle.branch_by_role("switched")) == 2
    assert bundle.branch_by_role("isola") == []


def test_main_branch_keeps_its_sheet_k3_eps05():
    # kappa=3, h=0.15, eps=0.5: a long step between lam=-200 and -221 can
    # carry the main branch onto a neighbouring symmetric sheet, where a
    # bisection stalls and is reported as a failure.  Its present steps
    # avoid that sheet; step control does not rule such a jump out
    # (ROADMAP item 5).
    bundle = run_diagram(RunConfig(kappa=3, h=0.15, eps=0.5,
                                   lambda_min=-300.0))
    assert bundle.provenance["failures"] == []


@pytest.mark.parametrize("config", [
    RunConfig(kappa=1, h=0.5, eps=0.5, lambda_min=-600.0),  # subcritical
    RunConfig(kappa=1, h=0.6, eps=0.2, lambda_min=-300.0),  # two pitchforks
], ids=["k1_h05_eps05", "k1_h06_eps02"])
def test_switched_pair_at_every_pitchfork(config):
    # on any symmetric host: the main branch and, at -85.848, -317.32
    # (k1_h05_eps05) and -65.565 (k1_h06_eps02), the symmetric isolas
    bundle = run_diagram(config)
    assert bundle.provenance["failures"] == []
    lam_b = [e["lambda"] for e in bundle.events if e["kind"] == "pitchfork"]
    assert {e["branch_id"] for e in bundle.events
            if e["kind"] == "pitchfork"} >= {"main", "isola_0"}
    switched = [rec.branch for rec in bundle.branch_by_role("switched")]
    assert lam_b and len(switched) == 2 * len(lam_b)
    # a mirror pair of asymmetric branches starts next to each pitchfork
    # and is continued to the lambda floor
    pairs = list(zip(switched[::2], switched[1::2]))
    for lb in lam_b:
        (b, c), = [(b, c) for b, c in pairs
                   if abs(b.points[0].lam - lb) < 0.1]
        p, q = b.points[0], c.points[0]
        assert p.lam == q.lam and np.array_equal(p.u[::-1], q.u)
        assert b.symmetry != "symmetric" and len(b.points) > 10
        assert b.diagnostics == ["reached lambda_min"]
    # no isola stands in for a switched branch through a pitchfork
    for e in bundle.events:
        if e["branch_id"].startswith("isola") and e["kind"] == "fold":
            assert min(abs(e["lambda"] - lb) for lb in lam_b) > 1e-3


def test_switched_branches_name_their_pitchfork(tmp_path):
    # kappa=1, h=0.6, eps=0.2: pitchforks on the main branch and on the
    # symmetric isola; both members of each mirror pair name the same event
    bundle = run_diagram(RunConfig(kappa=1, h=0.6, eps=0.2,
                                   lambda_min=-300.0))
    write_bundle(bundle, tmp_path)
    records = json.loads((tmp_path / "bundle.json").read_text())["branches"]
    ids = {r["branch_id"] for r in records}
    pitchforks = {(e["branch_id"], e["index"]) for e in bundle.events
                  if e["kind"] == "pitchfork"}
    switched = [r for r in records if r["role"] == "switched"]
    assert all(r["parent"] is None for r in records
               if r["role"] != "switched")
    assert len(switched) == 2 * len(pitchforks) == 6
    assert {tuple(r["parent"]) for r in switched} == pitchforks
    assert {r["parent"][0] for r in switched} <= ids
    for a, b in zip(switched[::2], switched[1::2]):
        assert a["parent"] == b["parent"]


@pytest.mark.parametrize("which", ["pitchfork_bundle", "isola_bundle"])
def test_asymmetric_branches_come_in_exact_mirror_pairs(request, which):
    bundle = request.getfixturevalue(which)
    if which == "pitchfork_bundle":
        _, bundle = bundle
    cfg = RunConfig.from_dict(bundle.config)
    asym = [r.branch for r in bundle.branches
            if r.branch.symmetry != "symmetric"]
    assert asym
    for b in asym:
        partners = [c for c in asym if len(c.points) == len(b.points)
                    and all(p.lam == q.lam and np.array_equal(p.u[::-1], q.u)
                            for p, q in zip(b.points, c.points))]
        assert len(partners) == 1 and partners[0] is not b
    # the reflected points solve a freshly built discretization
    d = Discretization(*cfg.build())
    for b in asym:
        for p in b.points:
            assert (np.linalg.norm(residual(d, p.lam, p.u[::-1]))
                    < cfg.newton_tol)


def test_run_matches_only_against_branches_that_can_hold(monkeypatch):
    # a switched child sits well off the symmetric subspace, and the mirror
    # of a new isola point can only lie on that isola, so no symmetric
    # branch is ever asked
    asked = []

    def recorded(d, lam, u, branch, *args, **kw):
        asked.append(branch.symmetry)
        return matches_branch(d, lam, u, branch, *args, **kw)

    monkeypatch.setattr(diagram, "matches_branch", recorded)
    run_diagram(RunConfig(kappa=1, h=0.05, lambda_min=-100.0))
    run_diagram(RunConfig(kappa=2, h=0.25, eps=0.3, lambda_min=-300.0))
    assert asked and "symmetric" not in asked


@pytest.mark.parametrize("config", [
    RunConfig(kappa=4, h=0.1),
    RunConfig(kappa=2, h=0.25, eps=0.3, lambda_min=-300.0),
], ids=["k4_h01", "k2_h025_eps03"])
def test_no_branch_is_traced_twice(config):
    # the deep ends of distinct branches (and the two ends of one isola)
    # are distinct solutions; a duplicate trace would put two ends together
    bundle = run_diagram(config)
    ends = [p for r in bundle.branches
            for p in r.branch.points[:1] + r.branch.points[1:][-1:]
            if p.lam < 0.997 * config.lambda_min]
    assert len(ends) >= 4
    for i, p in enumerate(ends):
        for q in ends[:i]:
            scale = 1.0 + max(np.abs(p.u).max(), np.abs(q.u).max())
            assert np.abs(p.u - q.u).max() / scale > 1e-2


def test_bundle_artifacts(tmp_path, pitchfork_bundle):
    _, bundle = pitchfork_bundle
    out = tmp_path / "run"
    write_bundle(bundle, out)
    assert (out / "bundle.json").is_file()
    data = json.loads((out / "bundle.json").read_text())
    assert set(data) >= {"config", "branches", "events", "provenance"}
    lines = (out / "branches.csv").read_text().splitlines()
    assert lines[0] == "branch_id,point_index,lambda,l2_norm,tag"
    assert len(lines) > 10
    for raw in (out / "events.jsonl").read_text().splitlines():
        ev = json.loads(raw)
        assert {"branch_id", "index", "kind", "lambda"} <= set(ev)
    svg = (out / "diagram.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    profiles = sorted((out / "profiles").iterdir())
    assert profiles
    cols = np.loadtxt(profiles[0])
    assert cols.shape[1] == 2
    assert cols[0, 1] == 0.0 and cols[-1, 1] == 0.0


def test_write_bundle_uses_the_run_operator(tmp_path, monkeypatch,
                                           pitchfork_bundle):
    # the profiles are written on the mesh the run built, not on a rebuilt one
    _, bundle = pitchfork_bundle

    def no_build(self):
        raise AssertionError("write_bundle rebuilt the weight and mesh")

    monkeypatch.setattr(RunConfig, "build", no_build)
    write_bundle(bundle, tmp_path)
    cols = np.loadtxt(tmp_path / "profiles" / "main_0.txt")
    assert np.array_equal(cols[:, 0], bundle.operator.m.nodes)


def test_bundle_rewrite_drops_stale_profiles(tmp_path, pitchfork_bundle):
    # a second bundle written into the same directory leaves only its own
    # profiles; other files in the directory are kept
    _, first = pitchfork_bundle
    second = run_diagram(RunConfig(kappa=1, h=0.5, eps=0.0, mesh_n=200,
                                   lambda_min=-20.0))
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    write_bundle(first, shared)
    (shared / "notes.txt").write_text("kept\n")
    (shared / "profiles" / "notes.md").write_text("kept\n")
    before = {p.name for p in (shared / "profiles").glob("*.txt")}
    write_bundle(second, shared)
    write_bundle(second, fresh)
    after = {p.name for p in (shared / "profiles").glob("*.txt")}
    assert after == {p.name for p in (fresh / "profiles").glob("*.txt")}
    assert before - after  # the first bundle had profiles the second lacks
    for name in after:
        assert ((shared / "profiles" / name).read_bytes()
                == (fresh / "profiles" / name).read_bytes())
    assert (shared / "notes.txt").read_text() == "kept\n"
    assert (shared / "profiles" / "notes.md").read_text() == "kept\n"


def test_bundle_reruns_byte_identical(tmp_path, pitchfork_bundle):
    cfg, bundle = pitchfork_bundle
    a, b = tmp_path / "a", tmp_path / "b"
    write_bundle(bundle, a)
    write_bundle(run_diagram(cfg), b)
    for name in ("bundle.json", "branches.csv", "diagram.svg", "events.jsonl"):
        left = (a / name).read_bytes()
        right = (b / name).read_bytes()
        if name == "bundle.json":
            # wall time is the only field allowed to differ
            da = json.loads(left)
            db = json.loads(right)
            da["provenance"].pop("wall_time_s")
            db["provenance"].pop("wall_time_s")
            assert da == db
        else:
            assert left == right


def test_emit_svg_empty_and_deterministic(pitchfork_bundle):
    _, bundle = pitchfork_bundle
    empty = emit_svg(DiagramBundle(config={}))
    assert empty.startswith("<svg") and empty.rstrip().endswith("</svg>")
    assert emit_svg(bundle) == emit_svg(bundle)


def test_epsilon_sweep_structure():
    base = RunConfig(kappa=1, h=0.1, mesh_n=200, lambda_min=-30.0)
    bundles, report = run_epsilon_sweep(base, [0.0, 0.5])
    assert len(bundles) == 2
    assert [entry["eps"] for entry in report] == [0.0, 0.5]
    for entry in report:
        assert entry["error"] is None
        assert entry["main_peaks"] is not None
    with pytest.raises(ValueError):
        run_epsilon_sweep(base, [1.5])


def test_cli_eig(capsys):
    assert main(["eig", "--n", "100", "--k", "1"]) == 0
    out = capsys.readouterr().out.strip()
    from bvpcont.discretize import toeplitz_eigenvalue
    assert float(out) == toeplitz_eigenvalue(100, 1)


def test_cli_shoot_no_solutions(capsys):
    assert main(["shoot", "--kappa", "1", "--h", "0.1", "--eps", "1.0",
                 "--lambda", "15"]) == 0
    assert "count: 0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--h", "0.1", "--lambda", "-100", "--grid-size", "50"],
    ["--h", "0.1", "--lambda", "-3000"],
    ["--h", "0.5", "--eps", "0", "--lambda", "-1000"],  # acceptance blow-up
])
def test_cli_shoot_refuses_with_one_line_error(capsys, argv):
    assert main(["shoot", "--kappa", "1", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_solve_profile(capsys):
    assert main(["solve", "--kappa", "1", "--h", "0.1", "--eps", "1.0",
                 "--lambda", "9.0", "--n", "200", "--amplitude", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# lambda = 9")
    assert len(lines) == 1 + 202  # header plus nodes including both endpoints
    x0, u0 = map(float, lines[1].split())
    x1, u1 = map(float, lines[-1].split())
    assert (x0, u0) == (0.0, 0.0) and (x1, u1) == (1.0, 0.0)


def test_cli_sweep_eps(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kappa": 1, "h": 0.1, "mesh_n": 200,
                                    "lambda_min": -30.0}))
    out = tmp_path / "out"
    assert main(["sweep-eps", "--config", str(cfg_path), "--eps-values",
                 "0,0.5", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [entry["eps"] for entry in report] == [0.0, 0.5]
    for sub in ("eps_0", "eps_0.5"):
        assert (out / sub / "bundle.json").is_file()


def test_cli_diagram_and_config(tmp_path, capsys):
    cfg = {"kappa": 1, "h": 0.5, "eps": 0.0,
           "mesh": {"n": 200},
           "continuation": {"lambda_min": -20.0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["diagram", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "branches:" in capsys.readouterr().out
    assert (out / "bundle.json").is_file()


def test_cli_sweep_h(capsys):
    assert main(["sweep-h", "--h-values", "0.5", "--n", "400",
                 "--lambda-min", "-20"]) == 0
    out = capsys.readouterr().out
    lam_b = float(out.split("lambda_b =")[1].strip())
    assert abs(lam_b - 5.34880) < 5e-2
