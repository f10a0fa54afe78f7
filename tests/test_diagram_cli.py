import dataclasses
import json
import sys

import numpy as np
import pytest

from bvpcont import diagram, seeding
from bvpcont.cli import main
from bvpcont.diagram import (DiagramBundle, RunConfig, deep_census, emit_svg,
                             run_diagram, run_epsilon_sweep, write_bundle)
from bvpcont.discretize import Discretization, residual
from bvpcont.mesh import mesh_spacings
from bvpcont.seeding import matches_branch
from bvpcont.weight import eval_weight


@pytest.fixture(scope="module")
def pitchfork_bundle():
    cfg = RunConfig(kappa=1, h=0.05, eps=0.0, mesh_n=500, lambda_min=-100.0)
    return cfg, run_diagram(cfg)


def test_run_config_rejects_unknown_nested_keys():
    # the config is flat: a nested section, a removed setting and a
    # misspelt one are all unknown keys
    for bad in ({"mesh": {"n": 99}}, {"continuation": {"ds": 0.5}},
                {"mesh": {"nn": 99}}, {"kappa": 1, "bogus": 3},
                {"ds_min": 0.01}, {"norm_max": 1e4}, {"max_newton_iters": 30},
                {"probe_lambda": -700.0}, {"profile_stride": 0},
                {"pad": 0.02}, {"centers": [0.5]}):
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_dict(bad)
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "ds", "lambda_min", "max_steps", "newton_tol", "kappa", "h", "eps",
        "mesh_kind", "mesh_n", "coarse_dx", "fine_dx"]


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
    # one Discretization, which principal_eigenvalue reads too
    assert weight_calls[0] == 1
    assert spacing_calls[0] == 1


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


_STEP_GRID = [(ds, tol) for ds in (1.5, 2.0, 3.0, 4.5, 6.0)
              for tol in (1e-4, 1e-5)]


@pytest.mark.parametrize("config", [
    RunConfig(kappa=2, h=0.25),
    RunConfig(kappa=3, h=0.1),
    RunConfig(kappa=3, h=0.15, eps=0.5, lambda_min=-300.0),
    RunConfig(kappa=4, h=0.1),
], ids=["k2_h025", "k3_h01", "k3_h015_eps05", "k4_h01"])
def test_results_do_not_depend_on_where_the_steps_fall(config):
    # the first step and the Newton tolerance move the points of a branch,
    # not its events or census.  A symmetric isola whose fold and pitchfork
    # fall inside one step keeps its det sign but not its orientation sign
    # (kappa=3, h=0.1 isola_4: pitchfork -78.745, fold -78.586; kappa=4,
    # h=0.1 isola_9: fold -116.081, pitchfork -116.083); the switched pair
    # at that pitchfork carries two of the census patterns
    runs = []
    for ds, tol in _STEP_GRID:
        bundle = run_diagram(dataclasses.replace(config, ds=ds,
                                                 newton_tol=tol))
        assert bundle.provenance["failures"] == [], (ds, tol)
        events = {}
        for e in bundle.events:
            events.setdefault(e["kind"], []).append(e["lambda"])
        runs.append(({k: sorted(v) for k, v in events.items()},
                     sorted(deep_census(bundle))))
    events0, census0 = runs[0]
    for (ds, tol), (events, census) in zip(_STEP_GRID, runs):
        assert census == census0, (ds, tol)
        assert {k: len(v) for k, v in events.items()} == {
            k: len(v) for k, v in events0.items()}, (ds, tol)
    for kind, bound in (("pitchfork", 1e-4), ("fold", 1e-3)):
        lams = np.array([events[kind] for events, _ in runs])
        assert np.ptp(lams, axis=0).max() <= bound, kind
    if config.eps == 0.0 and config.kappa <= 3:
        assert len(census0) == 2 ** (config.kappa + 1) - 1


def test_a_fold_that_no_step_parts_from_its_pitchfork_is_reported():
    # kappa=3, h=0.15, eps=0.2: on isola_10 near lam -621.31 the softest
    # even and odd eigenvalues of J agree to 4 digits (14.16 and 14.17 at
    # -621.379, -15.52 and -15.53 at -621.392), so no step down to _DS_MIN
    # parts the fold from the orientation change.  The loop keeps the step
    # and reports the change instead of ending the branch on a step
    # underflow.
    bundle = run_diagram(RunConfig(kappa=3, h=0.15, eps=0.2,
                                   lambda_min=-1000.0))
    for rec in bundle.branches:
        assert not any("step underflow" in x for x in rec.branch.diagnostics)
    kinds = [e["kind"] for e in bundle.events]
    assert kinds.count("fold") == 12 and kinds.count("pitchfork") == 2
    (msg,) = bundle.provenance["failures"]
    assert msg.startswith("isola_10: ")
    lam = float(msg.split("lam = ")[1].split(",")[0])
    assert abs(lam - (-621.31)) < 0.01


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


def test_bundle_files_round_trip(tmp_path, pitchfork_bundle):
    # bundle.json gives back the run's config with every float setting a
    # float (eps = 0 among them), and events.jsonl every event to the bit
    cfg, bundle = pitchfork_bundle
    write_bundle(bundle, tmp_path)
    config = json.loads((tmp_path / "bundle.json").read_text())["config"]
    assert RunConfig.from_dict(config) == cfg
    floats = [k for k, v in dataclasses.asdict(cfg).items()
              if isinstance(v, float)]
    assert "eps" in floats and cfg.eps == 0.0
    assert all(isinstance(config[k], float) for k in floats)
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert bundle.events and [json.loads(x) for x in lines] == bundle.events


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
    ["--h", "0.5", "--eps", "0", "--lambda", "-1000"],  # a blown bracket end
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


def test_cli_solve_reads_only_a_well_formed_seed(capsys):
    # a mask is kappa+1 bits 0/1 with at least one 1; "1x" must not run as
    # "10", and a wrong length or the zero mask must not end in a traceback
    argv = ["solve", "--kappa", "1", "--lambda", "-50", "--n", "200", "--seed"]
    assert main([*argv, "10"]) == 0
    assert capsys.readouterr().out.startswith("# lambda = -50")
    for seed in ("1x", "1", "100", "00", "sines"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, seed])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --seed" in err


@pytest.mark.parametrize("seed, eps", [("1" + "0" * 20, "0"), ("wells", "0.3")],
                         ids=["mask", "wells"])
def test_cli_solve_builds_no_pattern_table(monkeypatch, capsys, seed, eps):
    # one seed is looked up by its own pattern: at kappa=20 the table holds
    # 2^21 - 1 masks, and building it to serve one took 9.9 s and 986 MB
    # of peak RSS on a 2-vCPU host
    def refuse(n):
        raise AssertionError(f"patterns({n}) was built")
    monkeypatch.setattr(seeding, "patterns", refuse)
    assert main(["solve", "--kappa", "20", "--h", "0.01", "--eps", eps,
                 "--n", "1000", "--lambda", "-50", "--seed", seed]) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["--seed", "10"], 1),  # Newton does not converge
    (["--seed", "wells", "--eps", "0.3"], 1),  # Newton diverges
    (["--seed", "wells"], 2),  # no wells at eps = 0
], ids=["mask_10", "wells_eps03", "wells_eps0"])
def test_cli_solve_without_a_solution_ends_in_one_error_line(run_python,
                                                             argv, code):
    out = run_python("-m", "bvpcont.cli", "solve", "--lambda", "-100", *argv)
    assert out.returncode == code
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.splitlines()[-1].startswith(
        "error: " if code == 1 else "bvpcont: error: argument --seed")


@pytest.mark.parametrize("argv", [
    ["solve", "--lambda", "-10", "--n", "1"],
    ["solve", "--lambda", "-10", "--n", "2"],
    ["sweep-h", "--h-values", "0.1", "--n", "2"],
], ids=["solve_n1", "solve_n2", "sweep_h_n2"])
def test_cli_refuses_a_mesh_below_three_nodes(run_python, argv):
    out = run_python("-m", "bvpcont.cli", *argv)
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.splitlines()[-1].startswith(
        "bvpcont: error: argument --n")


def test_cli_diagram_with_a_two_node_mesh_ends_in_one_error_line(run_python,
                                                                 tmp_path):
    config = tmp_path / "n2.json"
    config.write_text('{"mesh_n": 2}')
    out = run_python("-m", "bvpcont.cli", "diagram", "--config", str(config),
                     "--out", str(tmp_path / "out"))
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        "error: need at least 3 interior nodes, got 2"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["shoot", "--lambda", "nan"],
    ["shoot", "--lambda", "inf"],
    ["shoot", "--kappa", "0", "--lambda", "-100"],
    ["shoot", "--h", "0", "--lambda", "-100"],
    ["shoot", "--eps", "-1", "--lambda", "-100"],
    ["solve", "--kappa", "0", "--lambda", "-100"],
    ["sweep-h", "--h-values", "0.1,0"],
], ids=["shoot_lam_nan", "shoot_lam_inf", "shoot_kappa0", "shoot_h0",
        "shoot_eps_neg", "solve_kappa0", "sweep_h_h0"])
def test_cli_refuses_a_bad_argument_in_one_error_line(run_python, argv):
    # in a subprocess with a timeout, so that a hang fails instead of
    # stalling; the refusal comes before any work, so nothing is printed
    out = run_python("-m", "bvpcont.cli", *argv, timeout=60)
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: ")


@pytest.mark.parametrize("config", [
    '{"ds": NaN, "mesh_n": 100, "lambda_min": -50}',
    '{"lambda_min": NaN, "mesh_n": 100}',
    '{"ds": 0}',
    '{"newton_tol": 0}',
    '{"continuation": {"norm_max": -1}}',
    '{"ds": 1, "ds_min": 2}',
    '{"kappa": 1, "mesh_n": 100, "max_steps": 0}',
    '{"max_steps": 2.5, "mesh_n": 100}',
    '{"max_newton_iters": 0, "mesh_n": 100}',
    '{"profile_stride": -1, "mesh_n": 100}',
    '{"kappa": 2.0, "h": 0.25, "mesh_n": 100, "lambda_min": -60}',
    '{"kappa": true}',
    '{"mesh_n": 100.5}',
    '{"h": "0.1", "mesh_n": 100, "lambda_min": -50}',
    '{"eps": true, "mesh_n": 100, "lambda_min": -50}',
    '{"newton_tol": true, "mesh_n": 100, "lambda_min": -50}',
], ids=["ds_nan", "lambda_min_nan", "ds_0", "newton_tol_0", "norm_max_neg",
        "ds_min_above_ds", "max_steps_0", "max_steps_2.5",
        "max_newton_iters_0", "profile_stride_neg", "kappa_float",
        "kappa_bool", "mesh_n_float", "h_str", "eps_bool", "newton_tol_bool"])
def test_cli_diagram_refuses_a_bad_setting_in_one_error_line(run_python,
                                                             tmp_path, config):
    # a nan step never falls below the step floor: refused before any work,
    # in a subprocess with a timeout so that a hang fails instead of
    # stalling.  A nested section and the settings ds_min, norm_max,
    # max_newton_iters and profile_stride are refused as unknown keys; a
    # string or a bool for a float setting is no number (true would run
    # eps = 1 or a tolerance of 1)
    path = tmp_path / "bad.json"
    path.write_text(config)
    out = run_python("-m", "bvpcont.cli", "diagram", "--config", str(path),
                     "--out", str(tmp_path / "out"), timeout=60)
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, error", [
    ("5", "error: config must be a JSON object, got 5"),
    ("[1, 2]", "error: config must be a JSON object, got [1, 2]"),
    (None, "error: cannot read config "),
], ids=["number", "list", "missing"])
@pytest.mark.parametrize("command", [
    ["diagram"],
    ["sweep-eps", "--eps-values", "0"],
], ids=["diagram", "sweep_eps"])
def test_cli_refuses_a_config_that_is_no_settings_object(run_python, tmp_path,
                                                         command, config,
                                                         error):
    # a JSON value that is not an object, or a path with no file, is one
    # error line and exit 2, not a traceback or an "unknown config key"
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config)
    out = run_python("-m", "bvpcont.cli", *command, "--config", str(path),
                     "--out", str(tmp_path / "out"), timeout=60)
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith(error)
    assert not (tmp_path / "out").exists()


def test_run_config_takes_an_int_for_a_float_setting():
    cfg = RunConfig.from_dict({"h": 1, "lambda_min": -50, "newton_tol": 1})
    assert (cfg.h, cfg.lambda_min, cfg.newton_tol) == (1, -50, 1)


@pytest.mark.parametrize("argv", [
    ["sweep-h", "--h-values", "0.1", "--lambda-min", "nan"],
    ["sweep-eps", "--eps-values", "nan"],
    ["sweep-eps", "--eps-values", "0.5,nan"],
    ["solve", "--lambda", "nan", "--n", "50"],
    ["solve", "--lambda", "inf", "--n", "50", "--seed", "10"],
    ["solve", "--lambda", "-10", "--n", "50", "--amplitude", "nan"],
    ["solve", "--lambda", "-10", "--n", "50", "--amplitude", "inf"],
], ids=["sweep_h_lambda_min_nan", "sweep_eps_nan", "sweep_eps_second_nan",
        "solve_lambda_nan", "solve_lambda_inf", "solve_amplitude_nan",
        "solve_amplitude_inf"])
def test_cli_refuses_a_non_finite_setting_in_one_error_line(run_python, argv):
    out = run_python("-m", "bvpcont.cli", *argv, timeout=60)
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--seed", "10", "--amplitude", "nan"],
    ["--seed", "10", "--amplitude", "-1"],
    ["--seed", "wells", "--eps", "0.3", "--amplitude", "inf"],
], ids=["mask_nan", "mask_negative", "wells_inf"])
def test_cli_solve_refuses_a_bad_amplitude_for_every_seed(run_python, argv):
    # only the sine seed reads the amplitude; any other seed refuses it too
    out = run_python("-m", "bvpcont.cli", "solve", "--lambda", "-50", "--n",
                     "100", *argv, timeout=60)
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: amplitude")


@pytest.mark.parametrize("argv, flag", [
    (["--n", "10", "--k", "0"], "--k"),
    (["--n", "10", "--k", "11"], "--k"),
    (["--n", "0"], "--n"),
], ids=["k0", "k_above_n", "n0"])
def test_cli_eig_refuses_an_index_outside_the_matrix(run_python, argv, flag):
    out = run_python("-m", "bvpcont.cli", "eig", *argv)
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.splitlines()[-1].startswith(
        f"bvpcont: error: argument {flag}")


def test_cli_diagram_with_a_bad_weight_ends_in_one_error_line(run_python,
                                                              tmp_path):
    config = tmp_path / "k0.json"
    config.write_text('{"kappa": 0}')
    out = run_python("-m", "bvpcont.cli", "diagram", "--config", str(config),
                     "--out", str(tmp_path / "out"))
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        "error: kappa must be a positive integer, got 0"]
    assert not (tmp_path / "out").exists()


def test_diagram_coexists_with_scipy_linalg(run_python, tmp_path):
    # LAPACK bound without scipy.linalg, then scipy.linalg imported and
    # called, and the reverse order: every diagram is the same to the byte
    code = (
        "import sys\n"
        "from bvpcont import RunConfig, run_diagram, write_bundle\n"
        "for i, step in enumerate(sys.argv[1]):\n"
        "    if step == 'd':\n"
        "        write_bundle(run_diagram(RunConfig(kappa=1, h=0.1,\n"
        "                                           lambda_min=-100.0)),\n"
        "                     f'{sys.argv[2]}/{i}')\n"
        "    else:\n"
        "        import scipy.linalg\n"
        "        assert scipy.linalg.lapack.dgttrf([1.0] * 2, [4.0] * 3,\n"
        "                                          [1.0] * 2)[-1] == 0\n")
    for order in ("dsd", "sd"):
        out = run_python("-c", code, order, str(tmp_path / order))
        assert out.returncode == 0, out.stderr
    csvs = [(tmp_path / run / "branches.csv").read_bytes()
            for run in ("dsd/0", "dsd/2", "sd/1")]
    assert csvs[0] and csvs[0] == csvs[1] == csvs[2]


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


def test_cli_sweep_eps_keeps_close_eps_apart(tmp_path, capsys):
    # 1e-7 and 1.00000001e-7 print alike with :g; the second bundle
    # overwrote the first.  A name that does not read back as its eps is
    # the exact repr instead
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kappa": 1, "h": 0.1, "mesh_n": 100,
                                    "lambda_min": -30.0}))
    out = tmp_path / "out"
    assert main(["sweep-eps", "--config", str(cfg_path), "--eps-values",
                 "1e-7,1.00000001e-7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["eps_1.00000001e-07",
                                                      "eps_1e-07"]
    for sub in out.iterdir():
        assert (sub / "bundle.json").is_file()


def test_cli_diagram_and_config(tmp_path, capsys):
    cfg = {"kappa": 1, "h": 0.5, "eps": 0.0, "mesh_n": 200,
           "lambda_min": -20.0}
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
